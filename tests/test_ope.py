import ast
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import circle_oracle
from vertexfock import ope, verma
from vertexfock.exprlang import evaluate, parse
from vertexfock.fock import (
    B,
    BETA,
    C,
    GAMMA,
    SPECIES_PARITY,
    AlgebraDescriptor,
    State,
    _apply_annihilation,
    basis,
    canonicalize,
    degree,
    generator_state,
    mode_sort_key,
    mono_parity,
    mono_weight,
    vacuum,
    weight,
)
from vertexfock.invariants import extend_action
from vertexfock.ope import (
    IdentityReport,
    _contraction_partners,
    _insert_creation,
    check_identities,
    circle,
    derive,
    iterated_wick,
    locality_bound,
    ope_table,
    wick,
    word_products,
)
from vertexfock.verify import identity_suite, random_homogeneous_state

BG1 = AlgebraDescriptor("bg", 1)
BG2 = AlgebraDescriptor("bg", 2)
BC2 = AlgebraDescriptor("bc", 2)
MIX1 = AlgebraDescriptor("bcbg", 1)


def beta(i=1):
    return generator_state(BETA, i)


def gamma(i=1):
    return generator_state(GAMMA, i)


def current(alg):
    out = State()
    for i in range(1, alg.rank + 1):
        out = out + wick(generator_state(GAMMA, i), generator_state(BETA, i))
    return out


def virasoro(alg):
    out = State()
    for i in range(1, alg.rank + 1):
        out = out + iterated_wick([generator_state(BETA, i), derive(generator_state(GAMMA, i))])
    return out


def test_free_field_poles():
    assert circle(beta(), 0, gamma()) == vacuum()
    assert circle(beta(), 2, gamma()) == State()
    assert circle(vacuum(), -1, beta()) == beta()
    for n in (1, 2):
        alg = AlgebraDescriptor("bg", n)
        j = current(alg)
        assert circle(j, 1, j) == Fraction(-n) * vacuum()


def test_unit_laws():
    s = State({((BETA, 1, -2), (GAMMA, 1, -1)): Fraction(2)})
    for n in range(-4, 4):
        assert circle(vacuum(), n, s) == (s if n == -1 else State())
    for n in range(-1, 4):
        assert circle(s, n, vacuum()) == (s if n == -1 else State())


def test_wick_examples():
    assert wick(beta(), gamma()) == State({((BETA, 1, -1), (GAMMA, 1, -1)): Fraction(1)})
    b = State({((B, 1, -1), (C, 1, -2)): Fraction(1)})
    assert wick(vacuum(), b) == b
    assert wick(gamma(), beta()) - wick(beta(), gamma()) == State()


def test_derive():
    assert derive(vacuum()) == State()
    assert derive(beta()) == State({((BETA, 1, -2),): Fraction(1)})
    s = State({((BETA, 1, -1), (GAMMA, 1, -3)): Fraction(1)})
    assert weight(derive(s)) == weight(s) + 1
    assert derive(s) == circle(s, -2, vacuum())
    assert derive(s, 0) is s
    with pytest.raises(ValueError, match="derivatives"):
        derive(s, -1)


def test_engine_exits_are_integer_first():
    # a Fraction coefficient in, integral coefficients out: each exit
    # hands them back as ints, the others stay Fractions
    half = State({((BETA, 1, -1),): Fraction(1, 2)})
    two_gammas = State({((GAMMA, 1, -1),): 2})
    integral = [
        wick(half, two_gammas),
        iterated_wick([half, two_gammas]),
        circle(half, -1, two_gammas),
        ope_table(half, two_gammas).poles[0][1],
        derive(half, 2),
        *word_products([half, two_gammas], [((0, 2),), ((0, 0), (1, 0))]),
        extend_action(((0, 0), (2, 0)), BG2)(half),
        extend_action(((0, 0), (Fraction(1, 2), 0)), BG2)(2 * beta()),
    ]
    for s in integral:
        assert s and all(type(c) is int for c in s.terms.values()), s
    fractional = [wick(half, gamma()), derive(half), extend_action(((0, 0), (1, 0)), BG2)(half)]
    for s in fractional:
        assert s and all(c == Fraction(1, 2) and type(c) is Fraction for c in s.terms.values()), s


def test_iterated_wick():
    a = beta()
    assert iterated_wick([a]) == a
    L = iterated_wick([beta(), derive(gamma())])
    assert L == State({((BETA, 1, -1), (GAMMA, 1, -2)): Fraction(1)})
    b, c = gamma(), derive(beta())
    assert iterated_wick([a, b, c]) == wick(a, wick(b, c))
    with pytest.raises(ValueError):
        iterated_wick([])


def test_ope_table_examples():
    t = ope_table(beta(), gamma())
    assert t.locality_bound == 2
    assert t.poles == [(0, vacuum())]
    L = virasoro(BG1)
    t = ope_table(L, beta())
    assert dict(t.poles) == {0: derive(beta()), 1: beta()}
    for n in (1, 2):
        alg = AlgebraDescriptor("bg", n)
        L = virasoro(alg)
        t = dict(ope_table(L, L).poles)
        assert t[3] == Fraction(n) * vacuum()
        assert t[3] == circle_oracle(L, 3, L)


def test_virasoro_action_small():
    L = virasoro(BG2)
    for w in range(0, 4):
        for d in range(0, 3):
            for mono in basis(BG2, w, d):
                s = State({mono: Fraction(1)})
                assert circle(L, 0, s) == derive(s)
                assert circle(L, 1, s) == Fraction(w) * s


def test_identities_fixed_triples():
    rep = check_identities(beta(), gamma(), beta(), 1)
    assert rep.ok, rep.mismatch_names()
    # unit in the first slot: both sides of the nested-Wick identity vanish
    b, c = gamma(), beta()
    lhs = wick(wick(vacuum(), b), c) - iterated_wick([vacuum(), b, c])
    assert lhs == State()
    for k in range(locality_bound(b, c)):
        assert derive(vacuum(), k + 1) == State()


def test_identities_randomized():
    rng = random.Random(5)
    for alg in (BG2, BC2, MIX1):
        for _ in range(12):
            a = random_homogeneous_state(rng, alg, 3, 2)
            b = random_homogeneous_state(rng, alg, 3, 2)
            c = random_homogeneous_state(rng, alg, 3, 2)
            n = rng.randint(1, 3)
            rep = check_identities(a, b, c, n)
            assert rep.ok, (alg.kind, n, rep.mismatch_names())


def test_identities_reject_mixed_parity():
    mixed = generator_state(B, 1) + wick(generator_state(B, 1), generator_state(C, 1))
    with pytest.raises(ValueError):
        check_identities(mixed, mixed, mixed, 1)


def test_engine_matches_mode_oracle():
    rng = random.Random(17)
    for alg in (BG1, BC2, MIX1):
        pool = []
        for w in range(0, 4):
            for d in range(0, 3):
                pool += basis(alg, w, d)
        for _ in range(60):
            ma, mb = rng.choice(pool), rng.choice(pool)
            n = rng.randint(-3, 4)
            a, b = State({ma: Fraction(1)}), State({mb: Fraction(1)})
            assert circle(a, n, b) == circle_oracle(a, n, b), (ma, n, mb)


@pytest.mark.parametrize("alg", [BG2, BC2, MIX1], ids=lambda a: f"{a.kind}{a.rank}")
def test_engine_matches_mode_oracle_exhaustively(alg, monkeypatch):
    """Every pair of canonical words, the left one of weight <= 3 and
    degree <= 3 and the right one of weight <= 1 and degree <= 2, at
    every n from -3 to the locality bound: contractions of two factors
    at once, repeated bosons and fermions passing odd creators all
    occur."""
    memo = {}
    field_mode_apply = oracles._field_mode_apply

    def cached(factors, n, x):
        key = (factors, n, x)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = field_mode_apply(factors, n, x)
        return hit

    # the oracle recomputes its inner products for every n; States are
    # never mutated, so sharing them is safe
    monkeypatch.setattr(oracles, "_field_mode_apply", cached)
    lefts = [m for w in range(4) for d in range(4) for m in basis(alg, w, d)]
    rights = [m for w in range(2) for d in range(3) for m in basis(alg, w, d)]
    for ma in lefts:
        a = State({ma: 1})
        for mb in rights:
            b = State({mb: 1})
            for n in range(-3, mono_weight(ma) + mono_weight(mb) + 2):
                assert circle(a, n, b) == circle_oracle(a, n, b), (ma, n, mb)


def test_translation_properties():
    rng = random.Random(23)
    pool = []
    for w in range(0, 4):
        for d in range(1, 3):
            pool += basis(BG2, w, d)
    for _ in range(30):
        a = State({rng.choice(pool): Fraction(rng.randint(1, 3))})
        b = State({rng.choice(pool): Fraction(rng.randint(1, 3))})
        n = rng.randint(-3, 3)
        assert derive(circle(a, n, b)) == circle(derive(a), n, b) + circle(a, n, derive(b))
        assert circle(derive(a), n, b) == Fraction(-n) * circle(a, n - 1, b)


def test_weight_additivity_and_locality():
    rng = random.Random(29)
    pool = []
    for w in range(0, 4):
        for d in range(1, 3):
            pool += basis(MIX1, w, d)
    for _ in range(40):
        ma, mb = rng.choice(pool), rng.choice(pool)
        a, b = State({ma: Fraction(1)}), State({mb: Fraction(1)})
        bound = locality_bound(a, b)
        for n in range(-2, bound + 2):
            r = circle(a, n, b)
            if n >= bound:
                assert r == State()
            if r:
                assert weight(r) == weight(a) + weight(b) - n - 1


def test_filtration_degree_bounds():
    rng = random.Random(31)
    pool = []
    for w in range(0, 4):
        for d in range(1, 4):
            pool += basis(BG2, w, d)
    for _ in range(40):
        ma, mb = rng.choice(pool), rng.choice(pool)
        a, b = State({ma: Fraction(1)}), State({mb: Fraction(1)})
        da, db = degree(a), degree(b)
        for n in range(-3, locality_bound(a, b)):
            r = circle(a, n, b)
            if r:
                cap = da + db if n < 0 else da + db - 1
                assert max(len(m) for m in r.terms) <= cap


@pytest.mark.parametrize("alg", [BG2, BC2, MIX1], ids=lambda a: f"{a.kind}{a.rank}")
def test_insertion_and_partner_walk_match_fock(alg):
    """Exhaustive on canonical words of weight <= 4 and degree <= 4:
    the one-pass creation insertion is canonicalize((g,) + word), and
    the contraction partner walk lists every nonzero _apply_annihilation
    by ascending j."""
    words = [m for w in range(5) for d in range(5) for m in basis(alg, w, d)]
    gens = [(sp, idx) for sp in alg.species for idx in range(1, alg.rank + 1)]
    repeats = 0

    def decoded(r):
        return r if r is None else (r[0], ope._decode(r[1]))

    for word in words:
        code = ope._encode(word)
        for sp, idx in gens:
            for k in range(1, 7):
                g = (sp, idx, -k)
                got = decoded(_insert_creation(ope._code(g), code))
                assert got == canonicalize((g,) + word), (g, word)
                repeats += got is None
            want = [(j, w2, c) for j in range(8)
                    for w2, c in _apply_annihilation((sp, idx, j), word).items()]
            got = [(j, ope._decode(w2), c)
                   for j, w2, c in _contraction_partners(ope._code((sp, idx, -1)), code)]
            assert got == want, (sp, idx, word)
    assert repeats > 0 if alg.kind != "bg" else repeats == 0


def test_letter_codes_hold_their_fields_and_refuse_the_rest():
    top_idx, top_mode = ope._IDX_MASK, ope._MODE_MASK
    for sp in (BETA, GAMMA, B, C):
        for g in ((sp, 0, -1), (sp, top_idx, -1), (sp, 1, -top_mode), (sp, top_idx, -top_mode)):
            assert ope._decode(ope._encode((g,))) == (g,)
        for g in ((sp, top_idx + 1, -1), (sp, -1, -1), (sp, 1, -top_mode - 1), (sp, 1, 0),
                  (sp, 1, 3)):
            with pytest.raises(ValueError, match=re.escape(str(g))):
                ope._encode((g,))
    # lowering a mode past its field is refused too, also inside a product
    beta_top = ope._code((BETA, 1, -top_mode))
    assert ope._lower(ope._code((BETA, 1, -1)), top_mode - 1) == beta_top
    with pytest.raises(ValueError, match="mode"):
        ope._lower(beta_top, 1)
    assert circle(beta(), -top_mode, vacuum()) == State({((BETA, 1, -top_mode),): 1})
    with pytest.raises(ValueError, match=str(-top_mode - 1)):
        circle(beta(), -top_mode - 1, vacuum())
    with pytest.raises(ValueError, match=str(-top_mode - 1)):
        derive(State({((BETA, 1, -top_mode),): 1}))


@pytest.mark.parametrize("alg", [BG2, BC2, MIX1], ids=lambda a: f"{a.kind}{a.rank}")
def test_code_order_is_canonical_order(alg):
    words = [m for w in range(6) for d in range(6) for m in basis(alg, w, d)]
    letters = sorted({g for m in words for g in m})
    assert sorted(letters, key=ope._code) == sorted(letters, key=mode_sort_key)
    # so a canonical word encodes to an ascending tuple
    assert all(list(ope._encode(m)) == sorted(ope._encode(m)) for m in words)


def test_odd_codes_lie_above_every_even_code():
    # the sign of an odd insertion counts the odd letters as a suffix
    top_idx, top_mode = ope._IDX_MASK, ope._MODE_MASK
    even = [ope._code((sp, i, -m)) for sp in (BETA, GAMMA) for i in (0, top_idx)
            for m in (1, top_mode)]
    odd = [ope._code((sp, i, -m)) for sp in (B, C) for i in (0, top_idx) for m in (1, top_mode)]
    assert max(even) < ope._ODD <= min(odd)
    assert all((ope._code((sp, 1, -1)) >= ope._ODD) == bool(SPECIES_PARITY[sp])
               for sp in (BETA, GAMMA, B, C))


_SLICES = {
    alg: [
        pool
        for w in range(4)
        for d in range(3)
        for par in (0, 1)
        if (pool := [m for m in basis(alg, w, d) if mono_parity(m) == par])
    ]
    for alg in (BG2, BC2, MIX1)
}


@st.composite
def identity_inputs(draw):
    """An algebra, three parity-homogeneous states of weight <= 3 and
    degree <= 2 (one bidegree each), and n in 1..3."""
    alg = draw(st.sampled_from(list(_SLICES)))

    def state():
        pool = draw(st.sampled_from(_SLICES[alg]))
        monos = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True))
        return State({m: draw(st.sampled_from([-3, -2, -1, 1, 2, 3])) for m in monos})

    return alg, state(), state(), state(), draw(st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(identity_inputs())
def test_identities_hold_on_generated_triples(inputs):
    alg, a, b, c, n = inputs
    rep = check_identities(a, b, c, n)
    assert rep.ok, (alg.kind, n, rep.mismatch_names())


def _each_trial(monkeypatch, after=lambda: None) -> list[tuple]:
    """Run a 4-trial identity suite on MIX1, calling ``after()`` on the
    caches as each trial leaves them; returns each trial's (a, b, c, n)."""
    trials = []

    def check(*args):
        rep = check_identities(*args)
        trials.append(args)
        after()
        return rep

    monkeypatch.setattr("vertexfock.verify.check_identities", check)
    assert identity_suite(MIX1, 4, 3, 2, seed=1)["mismatches"] == []
    return trials


def test_memo_holds_no_vacuum_products(monkeypatch):
    def after():
        assert ope._MEMO and all(ma for ma, _, _ in ope._MEMO)
        assert ope._CONTRACTIONS and all(ma for ma, _ in ope._CONTRACTIONS)

    _each_trial(monkeypatch, after)


def test_caches_hold_one_copy_of_each_word(monkeypatch):
    def after():
        # the memo's words, each the one decoding of its code word
        # (two items per term: word, coefficient)
        words = [w for value in ope._MEMO.values() for w in value[::2]]
        assert words and all(ope._WORDS[ope._encode(w)] is w for w in words)
        assert len({id(w) for w in words}) == len(ope._WORDS)
        # and their letters, one tuple per letter
        letters = {id(g) for w in words for g in w}
        assert letters and len(letters) == len({g for w in words for g in w})
        # the contraction words and creator tuples
        # (four items per term: word, coefficient, q, creators)
        codes = [x for value in ope._CONTRACTIONS.values() for i in (0, 3) for x in value[i::4]]
        assert any(cr for value in ope._CONTRACTIONS.values() for cr in value[3::4])
        assert all(ope._CODES[x] is x for x in codes)
        assert len({id(x) for x in codes}) == len(ope._CODES)

    _each_trial(monkeypatch, after)


def test_cache_entries_are_flat_tuples(monkeypatch):
    verma.clear_cache()
    assert verma.singular_vectors(-1, 4)
    assert verma._ACT_MEMO and all(
        type(v) is tuple and len(v) % 2 == 0 and all(type(w) is tuple for w in v[::2])
        for v in verma._ACT_MEMO.values()
    )

    def after():
        assert ope._MEMO and all(
            type(v) is tuple and len(v) % 2 == 0 and all(type(c) is int for c in v[1::2])
            for v in ope._MEMO.values()
        )
        assert ope._CONTRACTIONS and all(
            type(v) is tuple and len(v) % 4 == 0 for v in ope._CONTRACTIONS.values()
        )

    _each_trial(monkeypatch, after)


def test_identity_suite_keeps_one_trial_of_products(monkeypatch):
    trials = _each_trial(monkeypatch)
    left = set(ope._MEMO)

    def alone(args) -> set:
        ope.clear_cache()
        assert check_identities(*args).ok
        return set(ope._MEMO)

    last = alone(trials[-1])
    assert left == last
    # the earlier trials had products of their own, and none is left
    assert all(alone(args) - last for args in trials[:-1])


def test_clear_cache_empties_both_caches():
    j = current(BG2)
    assert circle(j, 1, j) == Fraction(-2) * vacuum()
    tables = (ope._MEMO, ope._CONTRACTIONS, ope._CODES, ope._WORDS, ope._LETTERS, ope._CODE_OF)
    assert all(tables)
    ope.clear_cache()
    assert not any(tables)


def test_verma_clear_cache_empties_the_act_memo_in_place():
    memo = verma._ACT_MEMO
    assert verma.singular_vectors(-1, 4)
    assert memo
    verma.clear_cache()
    assert verma._ACT_MEMO is memo and not memo


def test_identity_mismatch_reports_replay(monkeypatch):
    # a mismatch carries its triple as expressions that evaluate back
    monkeypatch.setattr("vertexfock.verify.check_identities",
                        lambda a, b, c, n: IdentityReport(n, {"iterate": a}))
    report = identity_suite(MIX1, 4, 3, 2, seed=1)
    assert [m["trial"] for m in report["mismatches"]] == [0, 1, 2, 3]
    rng = random.Random(1)
    for m in report["mismatches"]:
        triple = [random_homogeneous_state(rng, MIX1, 3, 2) for _ in range(3)]
        assert rng.choice([1, 2, 3]) == m["n"]
        assert [evaluate(parse(m[k]), MIX1) for k in "abc"] == triple


def _imported_modules(path: Path, package: str) -> set[str]:
    """Every module an import statement of the file names, with
    relative imports resolved against the package and each imported
    name counted as a possible submodule."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = package + ("." + base if base else "")
            out.add(base)
            out.update(f"{base}.{a.name}" for a in node.names)
    return out


@pytest.mark.parametrize("path", [
    Path(__file__).parent / "oracles.py",
    Path(__file__).parent.parent / "src" / "vertexfock" / "fock.py",
], ids=lambda p: p.name)
def test_oracle_side_imports_nothing_from_the_engine(path):
    """The mode oracle (and the Fock layer it stands on) must stay
    independent of the circle-product engine it cross-checks."""
    mods = _imported_modules(path, "vertexfock")
    assert not {m for m in mods if m == "vertexfock.ope" or m.startswith("vertexfock.ope.")}


def _names_canonicalize(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return any(a.name == "canonicalize" for a in node.names)
    if isinstance(node, ast.Name):
        return node.id == "canonicalize"
    return isinstance(node, ast.Attribute) and node.attr == "canonicalize"


def test_engine_never_resorts_a_whole_word():
    """The engine edits canonical words in place (``_insert_creation``,
    ``_replace_factor``); the whole-word sort ``fock.canonicalize`` is
    left to fock.py, for the State constructor and the mode oracle."""
    src = Path(__file__).parent.parent / "src" / "vertexfock"
    users = sorted(
        path.name
        for path in src.glob("*.py")
        if path.name != "fock.py"
        and any(_names_canonicalize(node) for node in ast.walk(ast.parse(path.read_text())))
    )
    assert users == []
