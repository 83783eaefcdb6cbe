import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import symbol_charge
from vertexfock import fock, invariants, linalg
from vertexfock.exprlang import evaluate, parse
from vertexfock.fock import (
    B,
    BETA,
    GAMMA,
    AlgebraDescriptor,
    State,
    basis,
    generator_state,
    letters,
    mono_charge,
    vacuum,
    weight,
    word,
)
from vertexfock.invariants import (
    FiniteAbelianAction,
    TorusAction,
    commutant_basis,
    dim_table,
    dim_table_csv_rows,
    extend_action,
    gl_standard,
    gr_dim_table,
    heisenberg_current,
    heisenberg_pairing,
    invariant_basis,
    is_invariant_state,
    sl2_standard,
    span_check,
    trivial_action,
    validate_heisenberg,
)
from vertexfock.ope import circle, derivative_words, derive, locality_bound, wick, word_products
from vertexfock.winfinity import realize_current

BG1 = AlgebraDescriptor("bg", 1)
BG2 = AlgebraDescriptor("bg", 2)
TORUS1 = TorusAction(((1,),))


def test_extend_action_examples():
    op = extend_action(((1,),), BG1)
    assert op(generator_state(BETA, 1)) == generator_state(BETA, 1)
    assert op(generator_state(GAMMA, 1)) == (-1) * generator_state(GAMMA, 1)
    assert op(vacuum()) == State()
    # off-diagonal: e moves index 2 to index 1 on vectors
    e = ((0, 1), (0, 0))
    ope = extend_action(e, BG2)
    assert ope(generator_state(BETA, 2)) == generator_state(BETA, 1)
    assert ope(generator_state(BETA, 1)) == State()
    assert ope(generator_state(GAMMA, 1)) == (-1) * generator_state(GAMMA, 2)


def test_extend_action_matches_resorting_the_word():
    # the one-pass derivations (the matrix action and the translation
    # operator) against their definitions: replace one factor, then let
    # State re-sort the whole word with its fermionic sign
    X = ((1, 2), (-1, 3))
    for alg in (AlgebraDescriptor(kind, 2) for kind in ("bg", "bc", "bcbg")):
        op = extend_action(X, alg)
        for w in range(4):
            for d in range(4):
                for m in basis(alg, w, d):
                    want = State()
                    want_derive = State()
                    ls = letters(m)
                    for pos, (sp, idx, mode) in enumerate(ls):
                        for j in (1, 2):
                            coef = X[j - 1][idx - 1] if sp in (BETA, B) else -X[idx - 1][j - 1]
                            new = ls[:pos] + ((sp, j, mode),) + ls[pos + 1:]
                            want = want + coef * State({word(new): 1})
                        new = ls[:pos] + ((sp, idx, mode - 1),) + ls[pos + 1:]
                        want_derive = want_derive + (-mode) * State({word(new): 1})
                    assert op(State({m: 1})) == want, m
                    assert derive(State({m: 1})) == want_derive, m


def test_extend_action_preserves_bidegree():
    op = extend_action(((0, 1), (1, 0)), BG2)
    s = State({word([(BETA, 1, -2), (GAMMA, 2, -1)]): Fraction(1)})
    img = op(s)
    assert weight(img) == weight(s)
    assert all(len(m) == 2 for m in img.terms)


def test_invariant_basis_torus():
    iv = invariant_basis(TORUS1, BG1, 1, 2)
    assert iv == [State({word([(BETA, 1, -1), (GAMMA, 1, -1)]): Fraction(1)})]
    for d in range(1, 5):
        assert invariant_basis(TORUS1, BG1, 0, d) == []


def _sl2_weight_multiplicity_oracle(alg, w, d):
    """Multiplicity of the trivial module = (h-weight 0 count) - (h-weight 2 count)."""

    def h_weight(mono):
        q = 0
        for sp, idx, _ in letters(mono):
            s = 1 if sp in (BETA, B) else -1
            q += s * (1 if idx == 1 else -1)
        return q

    monos = basis(alg, w, d)
    m0 = sum(1 for m in monos if h_weight(m) == 0)
    m2 = sum(1 for m in monos if h_weight(m) == 2)
    return m0 - m2


def test_invariant_basis_sl2():
    act = sl2_standard()
    for (w, d) in [(1, 2), (2, 2), (2, 4), (3, 3)]:
        got = len(invariant_basis(act, BG2, w, d))
        assert got == _sl2_weight_multiplicity_oracle(BG2, w, d), (w, d)
    for s in invariant_basis(act, BG2, 2, 4):
        assert is_invariant_state(act, BG2, s)


@pytest.mark.parametrize("action, alg", [
    (sl2_standard(), BG2),
    # E_12 and diag(1, -1, 0): two index components, {1, 2} and {3}
    (invariants.LieAlgebraAction((((0, 1, 0), (0, 0, 0), (0, 0, 0)),
                                  ((1, 0, 0), (0, -1, 0), (0, 0, 0)))),
     AlgebraDescriptor("bg", 3)),
    (gl_standard(2), AlgebraDescriptor("bc", 2)),
], ids=["sl2-bg2", "e12-h-bg3", "gl2-bc2"])
def test_invariant_basis_is_the_naive_joint_kernel(action, alg):
    # the joint kernel of every matrix on every monomial of the
    # bidegree: no diagonal pruning, one system over all of them
    ops = [extend_action(X, alg) for X in action.matrices]
    for w in range(6):
        for d in range(6):
            monos = basis(alg, w, d)
            columns = [{(t, m2): v for t, op in enumerate(ops)
                        for m2, v in op(State({m: 1})).terms.items()} for m in monos]
            naive = [{monos[i]: v for i, v in rel.items()}
                     for rel in linalg.kernel_of_columns(columns)]
            got = [s.terms for s in invariant_basis(action, alg, w, d)]
            assert (linalg.rank_of_columns(got) == len(got) == len(naive)
                    == linalg.rank_of_columns(got + naive)), (w, d)


def test_finite_abelian():
    # Z/2 acting by -1 on the single coordinate: invariants are even words
    act = FiniteAbelianAction(((2, (1,)),))
    assert len(invariant_basis(act, BG1, 1, 2)) == len(basis(BG1, 1, 2))
    assert invariant_basis(act, BG1, 1, 1) == []
    dt = dim_table(act, BG1, 3, 3)
    gt = gr_dim_table(act, BG1, 3, 3)
    assert dt == gt


def test_dim_tables_match():
    cases = [
        (trivial_action(), BG1),
        (TORUS1, BG1),
        (TorusAction(((1, -1),)), BG2),
        (sl2_standard(), BG2),
    ]
    for act, alg in cases:
        dt = dim_table(act, alg, 4, 4)
        gt = gr_dim_table(act, alg, 4, 4)
        assert dt == gt
    rows = dim_table_csv_rows(dt, gt)
    assert all(r[4] for r in rows)
    assert rows[0] == [0, 0, 1, 1, True]


def test_dim_table_counts_equal_invariant_bases():
    bcbg2 = AlgebraDescriptor("bcbg", 2)
    cases = [
        (FiniteAbelianAction(((3, (1, 2)),)), bcbg2),
        (TorusAction(((1, -1), (1, 1))), bcbg2),
        (sl2_standard(), BG2),
        (sl2_standard(), bcbg2),
    ]
    for act, alg in cases:
        want = {(w, d): len(invariant_basis(act, alg, w, d)) for w in range(5) for d in range(5)}
        assert dim_table(act, alg, 4, 4).entries == want, act
        assert gr_dim_table(act, alg, 4, 4).entries == want, act


def test_symbol_side_never_reaches_the_state_enumerator(monkeypatch):
    # a torus and sl2 are counted; sl2 with its matrices reordered is
    # not recognised, so the symbol side refuses it and the state side
    # takes the kernel route and its walks
    reordered = invariants.LieAlgebraAction(sl2_standard().matrices[::-1])
    cases = [(TorusAction(((1, -1),)), BG2), (sl2_standard(), BG2)]
    want = [dim_table(act, alg, 4, 4) for act, alg in cases]
    assert dim_table(reordered, BG2, 4, 4).entries == _kernel_table(reordered, BG2, 4)

    def refuse(what):
        def refused(*args, **kwargs):
            raise AssertionError(f"the state-side {what} ran")
        return refused

    monkeypatch.setattr(fock, "words_of_weight", refuse("walk"))
    # the counter is refused where it is defined and where dim_table finds it
    monkeypatch.setattr(fock, "charge_counts", refuse("counter"))
    monkeypatch.setattr(invariants, "charge_counts", refuse("counter"))
    assert [gr_dim_table(act, alg, 4, 4) for act, alg in cases] == want
    with pytest.raises(ValueError, match="symbol side counts"):
        gr_dim_table(reordered, BG2, 4, 4)
    # the refusals bite: the state side needs what the symbol side did without
    for (act, alg), what in zip(cases + [(reordered, BG2)], ("counter", "counter", "walk")):
        with pytest.raises(AssertionError, match=what):
            dim_table(act, alg, 4, 4)


ALGEBRAS = [AlgebraDescriptor(kind, rank) for kind in ("bg", "bc", "bcbg") for rank in (1, 2)]


@st.composite
def charge_actions(draw, rank):
    """A torus (1-2 charge rows, entries -2..2), a finite abelian group
    (characters of order 2-4) or the trivial action on rank indices."""
    kind = draw(st.sampled_from(["torus", "finite", "trivial"]))
    entries = st.integers(-2, 2)
    if kind == "trivial":
        return trivial_action()
    if kind == "finite":
        chars = draw(st.lists(st.tuples(st.integers(2, 4), st.tuples(*[entries] * rank)),
                              min_size=1, max_size=2))
        return FiniteAbelianAction(tuple(chars))
    rows = draw(st.lists(st.tuples(*[entries] * rank), min_size=1, max_size=2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a charge matrix of lower rank is allowed here
        return TorusAction(tuple(rows))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(ALGEBRAS).flatmap(lambda alg: st.tuples(st.just(alg), charge_actions(alg.rank))),
       st.integers(0, 4), st.integers(0, 4))
def test_charge_counts_match_the_walks(alg_action, weight_cap, degree_cap):
    alg, act = alg_action

    def invariant_words(enumerate_words, charge):
        return {(w, d): sum(act.is_invariant_charge(charge(m, alg.rank))
                            for m in enumerate_words(alg, w, d))
                for w in range(weight_cap + 1) for d in range(degree_cap + 1)}

    assert (dim_table(act, alg, weight_cap, degree_cap).entries
            == invariant_words(fock.basis, mono_charge))
    assert (gr_dim_table(act, alg, weight_cap, degree_cap).entries
            == invariant_words(fock.gr_basis, symbol_charge))


def test_torus_tables_agree_beyond_the_reach_of_the_walks():
    # the walks would list 14.5 million monomials per side here; the counters list none
    alg = AlgebraDescriptor("bcbg", 2)
    act = TorusAction(((1, -1),))
    dt = dim_table(act, alg, 10, 10)
    assert len(dt.entries) == 121 and dt[(0, 0)] == 1
    assert dt == gr_dim_table(act, alg, 10, 10)


def test_trivial_action_counts_everything():
    dt = dim_table(trivial_action(), BG1, 3, 3)
    for w in range(4):
        for d in range(4):
            assert dt[(w, d)] == len(basis(BG1, w, d))


@pytest.mark.parametrize("wd", [(1, 4), (4, 1), (0, -1), (-1, 0)])
def test_reading_past_the_caps_raises(wd):
    # an undersized table must not read 0 where it has no count
    dt = dim_table(trivial_action(), BG1, 3, 3)
    with pytest.raises(KeyError):
        dt[wd]


@st.composite
def diagonal_matrices(draw):
    """1-3 diagonal matrices on 1-3 indices, with integer or rational
    entries (zero matrices and repeats included)."""
    rank = draw(st.integers(1, 3))
    entry = st.integers(-2, 2) | st.fractions(-2, 2, max_denominator=3)
    diagonals = draw(st.lists(st.tuples(*[entry] * rank), min_size=1, max_size=3))
    return rank, [tuple(tuple(v[i] if i == j else 0 for j in range(rank)) for i in range(rank))
                  for v in diagonals]


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(("bg", "bc", "bcbg")), diagonal_matrices(), st.integers(0, 4), st.integers(0, 3))
# q = (-1, -2) (gamma^1 gamma^2 gamma^2) gives -3 and 1: folded into
# one base-3 integer they would cancel
@example("bg", (2, [((1, 0), (0, 1)), ((1, 0), (0, -1))]), 0, 3)
def test_split_diagonal_keeps_the_killed_monomials(kind, rank_mats, w, cap):
    rank, mats = rank_mats
    alg = AlgebraDescriptor(kind, rank)
    modes, killed = invariants._split_diagonal(mats, alg)
    assert modes == []

    def direct(m):
        q = mono_charge(m, rank)
        return all(sum(X[i][i] * q[i] for i in range(rank)) == 0 for X in mats)

    for bucket in fock.basis_by_degree(alg, w, cap):
        assert [killed(m) for m in bucket] == [direct(m) for m in bucket]


def test_sl2_tables_walk_no_words(monkeypatch):
    act = sl2_standard()

    def refused(*args):
        raise AssertionError("an sl2 table walked words")

    monkeypatch.setattr(invariants, "basis_by_degree", refused)
    monkeypatch.setattr(fock, "gr_basis_by_degree", refused)
    assert dim_table(act, BG2, 7, 7) == gr_dim_table(act, BG2, 7, 7)


def _kernel_table(act, alg, cap):
    """The exact joint-kernel dimension of each bidegree, by the state
    side's route for the actions that are not counted."""
    modes, killed = invariants._split_diagonal(act.matrices, alg)
    return {(w, d): invariants._lie_dim([m for m in monos if killed(m)], modes)
            for w in range(cap + 1)
            for d, monos in enumerate(fock.basis_by_degree(alg, w, cap))}


# each side's Weyl count against the state side's kernels (the symbol
# side has no kernels of its own)
@pytest.mark.parametrize("table", [dim_table, gr_dim_table], ids=["state", "symbol"])
@pytest.mark.parametrize("act, alg, cap", [
    (sl2_standard(), BG2, 6),
    (sl2_standard(), AlgebraDescriptor("bc", 2), 6),
    (sl2_standard(), AlgebraDescriptor("bcbg", 2), 4),
    (gl_standard(2), BG2, 6),
    (gl_standard(3), AlgebraDescriptor("bc", 3), 6),
    (gl_standard(2), AlgebraDescriptor("bcbg", 2), 4),
    (gl_standard(3), AlgebraDescriptor("bg", 3), 4),
], ids=["sl2-bg2", "sl2-bc2", "sl2-bcbg2", "gl2-bg2", "gl3-bc3", "gl2-bcbg2", "gl3-bg3"])
def test_weyl_count_is_the_kernel_dimension(table, act, alg, cap):
    assert invariants._charge_sign(act, alg.rank) is not None
    assert table(act, alg, cap, cap).entries == _kernel_table(act, alg, cap)


def test_lie_tables_agree_beyond_the_reach_of_the_kernels():
    sl2 = sl2_standard()
    # span_check's need side for SL_2 on bg:2 at weights 0..10, found
    # earlier by elimination (a minute per side)
    dt = dim_table(sl2, BG2, 10, 20)
    need = [sum(dt[(w, d)] for d in range(2 * w + 1)) for w in range(11)]
    assert need == [1, 2, 6, 16, 37, 82, 174, 352, 694, 1326, 2472]
    # the degree-2 GL_2 invariants of bg:2 number w at weight w
    dt = dim_table(gl_standard(2), BG2, 10, 2)
    assert [dt[(w, 2)] for w in range(11)] == list(range(11))
    assert dim_table(sl2, BG2, 10, 10) == gr_dim_table(sl2, BG2, 10, 10)


def test_other_lie_actions_take_the_kernel_route():
    e12 = ((0, 1, 0), (0, 0, 0), (0, 0, 0))
    h = ((1, 0, 0), (0, -1, 0), (0, 0, 0))
    bg3 = AlgebraDescriptor("bg", 3)
    for act, alg in ((invariants.LieAlgebraAction((e12, h)), bg3),
                     (invariants.LieAlgebraAction(sl2_standard().matrices[::-1]), BG2)):
        assert invariants._charge_sign(act, alg.rank) is None
    act = invariants.LieAlgebraAction((e12, h))
    assert dim_table(act, bg3, 3, 3).entries == _kernel_table(act, bg3, 3)
    with pytest.raises(ValueError, match="symbol side counts"):
        gr_dim_table(act, bg3, 3, 3)


@pytest.mark.parametrize("act, rank, shape", [
    (gl_standard(3), 2, "matrices are 3 x 3"), (sl2_standard(), 1, "matrices are 2 x 2"),
    (gl_standard(2), 3, "matrices are 2 x 2"),
    (TorusAction(((1, -1, 5),)), 2, "rows have length 3"), (TorusAction(((1,),)), 2, "rows have length 1"),
    (FiniteAbelianAction(((2, (1, 1)), (3, (1,)))), 2, "rows have length 1"),
], ids=["gl3-on-bg2", "sl2-on-bg1", "gl2-on-bg3", "torus3-on-bg2", "torus1-on-bg2", "finite1-on-bg2"])
def test_lie_action_of_another_rank_is_refused(act, rank, shape):
    alg = AlgebraDescriptor("bg", rank)
    message = f"{shape}, but the algebra has rank {rank}"
    for call in (lambda: dim_table(act, alg, 2, 2), lambda: gr_dim_table(act, alg, 2, 2),
                 lambda: invariant_basis(act, alg, 2, 2), lambda: span_check([], act, alg, 2, 2),
                 lambda: span_check([realize_current(0, alg)], act, alg, 2, 2)):
        with pytest.raises(ValueError, match=message):
            call()


def test_trivial_action_fits_every_rank():
    for rank in (1, 2, 3):
        alg = AlgebraDescriptor("bg", rank)
        assert dim_table(trivial_action(), alg, 2, 2) == gr_dim_table(trivial_action(), alg, 2, 2)


def test_gl_tables_agree():
    for n, alg, cap in ((2, BG2, 4), (2, AlgebraDescriptor("bc", 2), 4), (2, AlgebraDescriptor("bcbg", 2), 3)):
        act = gl_standard(n)
        assert len(act.matrices) == n * n
        dt = dim_table(act, alg, cap, cap)
        assert dt == gr_dim_table(act, alg, cap, cap)
        for w in range(cap + 1):
            for d in range(cap + 1):
                assert dt[(w, d)] == len(invariant_basis(act, alg, w, d))
    # the invariants of bg:2 at weight 1: the current :gamma^i beta^i:
    assert dim_table(gl_standard(2), BG2, 2, 2)[(1, 2)] == 1


def test_invariants_closed_under_circle_products():
    rng = random.Random(9)
    pool = []
    for w in range(0, 4):
        for d in range(0, 5):
            pool += invariant_basis(TORUS1, BG1, w, d)
    for _ in range(20):
        a, b = rng.choice(pool), rng.choice(pool)
        for n in range(-2, locality_bound(a, b)):
            r = circle(a, n, b)
            if r:
                assert is_invariant_state(TORUS1, BG1, r)


def test_span_check_success():
    gens = [realize_current(l, BG1) for l in (0, 1, 2)]
    rep = span_check(gens, TORUS1, BG1, 4, 4)
    assert rep.ok
    assert rep.dims[4] == (12, 12)


def test_span_check_deficiency():
    rep = span_check([realize_current(0, BG1)], TORUS1, BG1, 3, 3)
    assert not rep.ok
    assert rep.first_deficiency == (2, 2, 1, 2)
    obj = rep.to_json()
    assert obj["status"] == "deficient"
    assert obj["first_deficiency"]["weight"] == 2


def test_span_check_need_side_covers_the_widened_window():
    # the words reach degree 9 at weight 3, past the window of 6: the
    # one need table must reach that far, or weight 3 would need less
    gens = [evaluate(parse("NO(gamma[1],gamma[1],beta[1])"), BG1), generator_state(BETA, 1)]
    rep = span_check(gens, trivial_action(), BG1, 3, 5)
    assert rep.degree_window == 6
    assert rep.dims == {0: (1, 7), 1: (2, 12), 2: (5, 27), 3: (10, 78)}
    assert rep.first_deficiency == (0, 1, 1, 2)


def test_span_check_empty_generators():
    rep = span_check([], trivial_action(), BG1, 0, 1)
    assert rep.ok
    assert rep.dims[0] == (1, 1)


def test_span_check_rejects_noninvariant():
    with pytest.raises(ValueError):
        span_check([generator_state(BETA, 1)], TORUS1, BG1, 2, 2)


def _currents(alg, top):
    return [realize_current(l, alg) for l in range(top + 1)]


# the four l = 0 GL_2-invariant currents of bcbg:2, u^i v^i summed over i
MIXED_GL2 = [evaluate(parse(f"NO({u}[1], {v}[1]) + NO({u}[2], {v}[2])"),
                      AlgebraDescriptor("bcbg", 2))
             for u, v in (("gamma", "beta"), ("cc", "bb"), ("gamma", "bb"), ("cc", "beta"))]


@pytest.mark.parametrize("gens, w", [
    (_currents(BG1, 0), 3), (_currents(BG2, 3), 5), (_currents(BG2, 2), 3), (MIXED_GL2, 2),
    # a repeated generator makes the words dependent
    (_currents(BG1, 0) + _currents(BG1, 1), 4),
], ids=["torus-bg1-J0", "gl2-bg2-J0..J3", "sl2-bg2-J0..J2", "gl2-bcbg2-l0", "repeated-J0"])
def test_pivot_readout_gives_the_degree_filtration(gens, w):
    # one elimination, monomials by falling degree: the pivots of degree
    # <= d number the span within degree <= d, which is the dimension
    # minus the rank of the components above d, one rank per degree
    vecs = [s.terms for s in word_products(gens, derivative_words([weight(g) for g in gens], w, w))]
    keys = sorted({m for v in vecs for m in v}, key=len, reverse=True)
    degrees = [len(m) for m in linalg.pivot_keys(vecs, keys)]
    dim = linalg.rank_of_columns(vecs)
    assert len(degrees) == dim
    for d in range(len(keys[0]) + 1):
        above = [{m: c for m, c in v.items() if len(m) > d} for v in vecs]
        assert sum(e <= d for e in degrees) == dim - linalg.rank_of_columns([a for a in above if a])


@pytest.mark.parametrize("gens, action, alg, cap, first", [
    (_currents(BG1, 2), TORUS1, BG1, 5, None),
    (_currents(BG1, 0), TORUS1, BG1, 5, (2, 2, 1, 2)),
    (_currents(BG2, 3), gl_standard(2), BG2, 6, (5, 2, 4, 5)),
], ids=["torus-success", "torus-deficient", "gl2-deficient"])
def test_span_check_eliminates_once_per_weight(monkeypatch, gens, action, alg, cap, first):
    calls = []
    echelon = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon", lambda rows, ncols: calls.append(ncols) or echelon(rows, ncols))
    assert span_check(gens, action, alg, cap, cap).first_deficiency == first
    assert len(calls) == cap + 1


def test_heisenberg_current():
    A = ((1,),)
    j = heisenberg_current((1,), A, BG1)
    assert j == realize_current(0, BG1)
    assert circle(j, 1, j) == Fraction(-1) * vacuum()
    assert circle(j, 0, j) == State()
    assert heisenberg_current((0,), A, BG1) == State()
    assert validate_heisenberg(A, BG1)
    A2 = ((1, 1),)
    j2 = heisenberg_current((1,), A2, BG2)
    assert circle(j2, 1, j2) == Fraction(-2) * vacuum()
    assert heisenberg_pairing((1,), (1,), A2) == Fraction(-2)
    assert validate_heisenberg(((1, 0), (0, 1)), BG2)


def test_commutant_regression_dims():
    j = heisenberg_current((1,), ((1,),), BG1)
    dims = {w: len(commutant_basis([j], BG1, w, 6)) for w in range(5)}
    assert dims == {0: 1, 1: 0, 2: 1, 3: 2, 4: 2}  # frozen regression values


def test_commutant_annihilation_and_wick_closure():
    j = heisenberg_current((1,), ((1,),), BG1)
    found = []
    for w in range(0, 4):
        found += commutant_basis([j], BG1, w, 6)
    for s in found:
        for k in range(0, 5):
            assert circle(j, k, s) == State()
    # Wick products of commutant elements stay in the commutant
    for a in found:
        for b in found:
            p = wick(a, b)
            if p:
                for k in range(0, weight(p) + 1):
                    assert circle(j, k, p) == State()


def _commutant_reference(currents, alg, w, degree_cap):
    """Every non-negative mode on every word, then one exact kernel."""
    monos = [m for ms in fock.basis_by_degree(alg, w, degree_cap) for m in ms]
    columns = [
        {(t, k, m2): v
         for t, cur in enumerate(currents) for k in range(w + weight(cur))
         for m2, v in circle(cur, k, State({m: 1})).terms.items()}
        for m in monos
    ]
    return [State({monos[i]: v for i, v in rel.items()}) for rel in linalg.kernel_of_columns(columns)]


def test_commutant_on_the_zero_mode_kernel_keeps_the_basis(monkeypatch):
    heis = [heisenberg_current(u, ((1, 0), (0, 1)), BG2) for u in ((1, 0), (0, 1))]
    skew = heisenberg_current((1,), ((1, -1),), BG2)
    # :gamma^1 beta^2: has a zero mode that moves index 2 to index 1
    hop = wick(generator_state(GAMMA, 1), generator_state(BETA, 2))
    cases = [
        ([heisenberg_current((1,), ((1,),), BG1)], BG1),
        (heis, BG2),
        ([skew], BG2),
        ([hop], BG2),
        ([hop, skew], BG2),
        ([skew, hop, heis[0]], BG2),
    ]
    # one call per mode applied to a word
    calls = []
    real = invariants.current_mode

    def counted(cur, k):
        mode = real(cur, k)
        return lambda mono: calls.append(k) or mode(mono)

    monkeypatch.setattr(invariants, "current_mode", counted)
    for currents, alg in cases:
        for w in range(5):
            del calls[:]
            got = commutant_basis(currents, alg, w, 5)
            assert got == _commutant_reference(currents, alg, w, 5), (currents, w)
            words = sum(map(len, fock.basis_by_degree(alg, w, 5)))
            full = words * sum(w + weight(cur) for cur in currents)
            if currents[0] is not hop and w > 1:
                assert len(calls) < full, (currents, w)
            if currents == [hop]:
                # a zero mode that is not diagonal prunes nothing
                assert len(calls) == full


def test_nonfaithful_torus_warns():
    with pytest.warns(UserWarning):
        TorusAction(((1, 1), (2, 2)))
