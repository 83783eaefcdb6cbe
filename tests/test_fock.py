import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import graded_dimensions
from vertexfock.fock import (
    B,
    BETA,
    C,
    GAMMA,
    SPECIES_PARITY,
    SPECIES_WEIGHT,
    AlgebraDescriptor,
    State,
    apply_mode,
    basis,
    basis_by_degree,
    charge,
    charge_counts,
    degree,
    generator_state,
    gr_basis,
    gr_basis_by_degree,
    gr_charge_counts,
    gr_symbol,
    mono_charge,
    mono_parity,
    mode_sort_key,
    state_from_json,
    state_to_json,
    state_to_text,
    vacuum,
    weight,
    words_of_weight,
)
from vertexfock.ope import circle, derive
from vertexfock.verma import VermaElement, act, ideal_kernel
from vertexfock.winfinity import DOp, bracket_basis, d_bracket, realize_current

BG1 = AlgebraDescriptor("bg", 1)
BG2 = AlgebraDescriptor("bg", 2)
BC1 = AlgebraDescriptor("bc", 1)
MIX1 = AlgebraDescriptor("bcbg", 1)


def test_vacuum():
    v = vacuum()
    assert v.terms == {(): Fraction(1)}
    assert weight(v) == 0
    assert degree(v) == 0


def test_apply_mode_contractions():
    g = State({((GAMMA, 1, -1),): Fraction(1)})
    assert apply_mode((BETA, 1, 0), g) == vacuum()
    c = State({((C, 1, -1),): Fraction(1)})
    assert apply_mode((B, 1, 0), c) == vacuum()
    assert apply_mode((BETA, 1, 5), vacuum()) == State()
    # dual-order contraction carries the opposite sign for bosons only
    b = generator_state(BETA, 1)
    assert apply_mode((GAMMA, 1, 0), b) == (-1) * vacuum()
    assert apply_mode((C, 1, 0), generator_state(B, 1)) == vacuum()


def test_gradings():
    b = generator_state(BETA, 1)
    assert (weight(b), degree(b)) == (1, 1)
    g = generator_state(GAMMA, 1)
    assert (weight(g), degree(g)) == (0, 1)
    g3 = State({((GAMMA, 1, -3),): Fraction(1)})
    assert weight(g3) == 2
    mixed = b + g
    with pytest.raises(ValueError):
        weight(mixed)
    assert charge(b, ((1,),)) == (1,)
    assert charge(g, ((1,),)) == (-1,)


def test_supercommutators_of_modes():
    # pairwise mode (anti)commutators reduce to the contraction scalar
    rng = random.Random(11)
    pool = []
    for w in range(0, 4):
        for d in range(0, 3):
            pool += basis(MIX1, w, d)
    species = (BETA, GAMMA, B, C)
    for _ in range(250):
        sp1, sp2 = rng.choice(species), rng.choice(species)
        m1, m2 = rng.randint(-6, 6), rng.randint(-6, 6)
        g, h = (sp1, 1, m1), (sp2, 1, m2)
        s = State({rng.choice(pool): Fraction(1)})
        sign = -1 if SPECIES_PARITY[sp1] and SPECIES_PARITY[sp2] else 1
        lhs = apply_mode(g, apply_mode(h, s)) - sign * apply_mode(h, apply_mode(g, s))
        contraction = Fraction(0)
        if m1 + m2 + 1 == 0:
            table = {(BETA, GAMMA): 1, (GAMMA, BETA): -1, (B, C): 1, (C, B): 1}
            contraction = Fraction(table.get((sp1, sp2), 0))
        assert lhs == contraction * s, (g, h, s)


def test_basis_examples():
    bd11 = basis(BG1, 1, 1)
    assert bd11 == [((BETA, 1, -1),), ((GAMMA, 1, -2),)]
    bd03 = basis(BG1, 0, 3)
    assert bd03 == [((GAMMA, 1, -1), (GAMMA, 1, -1), (GAMMA, 1, -1))]
    assert basis(BC1, 0, 2) == []  # fermionic square vanishes


def test_basis_against_generating_function():
    for alg in (BG1, BG2, BC1, MIX1):
        table = graded_dimensions(alg, 5, 4)
        for w in range(6):
            for d in range(5):
                assert len(basis(alg, w, d)) == table.get((w, d), 0), (alg, w, d)


def test_charge_counters_against_listed_monomials():
    for alg in (BG1, BG2, BC1, MIX1, AlgebraDescriptor("bcbg", 2), AlgebraDescriptor("bc", 3)):
        want, gr_want = Counter(), Counter()
        for w in range(5):
            for d in range(5):
                want.update((w, d, mono_charge(m, alg.rank)) for m in basis(alg, w, d))
                gr_want.update((w, d, mono_charge(m, alg.rank)) for m in gr_basis(alg, w, d))
        assert charge_counts(alg, 4, 4) == want, alg
        assert gr_charge_counts(alg, 4, 4) == gr_want, alg
    assert charge_counts(BG1, -1, 3) == gr_charge_counts(BG1, 2, -1) == {}


def test_gr_symbol():
    assert gr_symbol(generator_state(BETA, 1)) == {((BETA, 1, 0),): Fraction(1)}
    assert gr_symbol(State({((BETA, 1, -2),): Fraction(1)})) == {((BETA, 1, 1),): Fraction(1)}
    assert gr_symbol(State({((BETA, 1, -3),): Fraction(1)})) == {((BETA, 1, 2),): Fraction(1, 2)}
    assert gr_symbol(vacuum()) == {(): Fraction(1)}


def test_gr_symbol_is_bidegree_bijection():
    for alg in (BG2, BC1):
        for w in range(0, 4):
            for d in range(0, 4):
                monos = basis(alg, w, d)
                images = set()
                for m in monos:
                    img = gr_symbol(State({m: Fraction(1)}))
                    assert len(img) == 1
                    images.add(next(iter(img)))
                assert images == set(gr_basis(alg, w, d))


def test_fermionic_signs_in_canonical_order():
    # c(-1) b(-1) reorders to -(b(-1) c(-1))
    s = apply_mode((C, 1, -1), generator_state(B, 1))
    assert s == State({((B, 1, -1), (C, 1, -1)): Fraction(-1)})
    # repeated fermionic mode dies
    assert apply_mode((B, 1, -1), generator_state(B, 1)) == State()


def test_state_json_roundtrip():
    s = State({((BETA, 1, -2), (GAMMA, 1, -1)): Fraction(-3, 2), (): Fraction(1)})
    obj = state_to_json(s)
    assert state_from_json(obj) == s
    assert obj["terms"][0] == [[], "1"]


def test_parity():
    assert mono_parity(((B, 1, -1), (C, 1, -2))) == 0
    assert mono_parity(((B, 1, -1),)) == 1


def _all_int(s: State) -> bool:
    return bool(s.terms) and all(type(c) is int for c in s.terms.values())


def test_integral_coefficients_are_ints():
    assert _all_int(vacuum())
    for sp in (BETA, GAMMA, B, C):
        assert _all_int(generator_state(sp, 2))
    for alg in (BG1, BG2, BC1, AlgebraDescriptor("bc", 2)):
        for l in range(4):
            assert _all_int(realize_current(l, alg))
    j1, j2 = realize_current(1, BG1), realize_current(2, BG1)
    for n in (-2, -1, 0, 1, 2):
        assert _all_int(circle(j1, n, j2))
    assert _all_int(derive(j2, 3))
    m = ((BETA, 1, -2), (GAMMA, 1, -1))
    s = State({m: 5})
    assert _all_int(Fraction(2) * s) and (Fraction(2) * s).terms == {m: 10}
    assert _all_int(State({m: Fraction(3, 1)}))
    assert _all_int(State({m: "6/3"}))
    half = Fraction(1, 2) * s
    assert half.terms == {m: Fraction(5, 2)} and type(half.terms[m]) is Fraction


def _int_first(terms: dict) -> bool:
    """Every integral coefficient is an int; only non-integral values
    are Fractions."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in terms.values())


def test_integral_coefficients_are_ints_beyond_states():
    v = VermaElement({((0, 1),): Fraction(2), (): "6/3", ((1, 2),): Fraction(1, 2)})
    assert v.terms == {((0, 1),): 2, (): 2, ((1, 2),): Fraction(1, 2)} and _int_first(v.terms)
    u = VermaElement({((0, 1),): Fraction(2), (): "6/3"})
    for w in (u + u, u - u, -u, Fraction(3) * u, act(DOp.basis_element(0, 1), u, Fraction(-1))):
        assert all(type(c) is int for c in w.terms.values())
    for rel in ideal_kernel(1, 4):
        assert _int_first(rel.terms)
    x = DOp({(2, -1): Fraction(1), (1, 3): "-4/2"}, kappa=Fraction(6, 3))
    assert x.terms == {(2, -1): 1, (1, 3): -2} and _int_first(x.terms) and type(x.kappa) is int
    for l1 in range(3):
        for k1 in range(-2, 3):
            for l2 in range(3):
                for k2 in range(-2, 3):
                    br = bracket_basis(l1, k1, l2, k2)
                    assert _int_first(br.terms) and _int_first({0: br.kappa} if br.kappa else {})
    assert _int_first(d_bracket(x, DOp.basis_element(0, -1)).terms)
    # sums and multiples of Fractions that come out integral are ints
    v = VermaElement({(): Fraction(1, 2)})
    assert (v + v).terms == {(): 1} and type((v + v).terms[()]) is int
    s = State({((BETA, 1, -1),): 1})
    t = Fraction(1, 2) * (2 * s)
    assert t == s and _int_first(t.terms)
    assert _int_first((Fraction(1, 2) * s + Fraction(1, 2) * s).terms)


def test_mixed_state_serialization_is_unchanged():
    s = State({
        ((BETA, 1, -3), (GAMMA, 1, -1)): 2,
        ((BETA, 1, -1),): Fraction(1, 2),
        ((GAMMA, 1, -4),): Fraction(-3),
        (): Fraction(6, 4),
    })
    assert state_to_json(s) == {"terms": [
        [[], "3/2"],
        [[["beta", 1, -1]], "1/2"],
        [[["gamma", 1, -4]], "-3"],
        [[["beta", 1, -3], ["gamma", 1, -1]], "2"],
    ]}
    assert state_to_text(s) == (
        "3/2 * vac + 1/2 * beta[1] - 1/2 * D^3(gamma[1]) + NO(D^2(beta[1]), gamma[1])"
    )
    assert repr(s) == (
        "State(3/2*|0> + 1/2*beta1(-1) + -3*gamma1(-4) + 2*beta1(-3) gamma1(-1))"
    )
    t = Fraction(1, 3) * derive(generator_state(BETA), 2) + vacuum()
    assert state_to_json(t) == {"terms": [[[], "1"], [[["beta", 1, -3]], "2/3"]]}
    assert state_to_text(t) == "vac + 1/3 * D^2(beta[1])"


@st.composite
def word_problems(draw):
    """(weights, total, max_len, repeats, charges); weight 0 only with a
    length bound, which the enumerator needs to stop, and so are the
    charges."""
    max_len = draw(st.none() | st.integers(0, 4))
    low = 1 if max_len is None else 0
    weights = draw(st.lists(st.integers(low, 3), max_size=5))
    size = {"min_size": len(weights), "max_size": len(weights)}
    repeats = draw(st.none() | st.lists(st.booleans(), **size))
    charges = None if max_len is None else draw(st.none() | st.lists(st.integers(-2, 2), **size))
    return weights, draw(st.integers(0, 6)), max_len, repeats, charges


@settings(deadline=None)
@given(word_problems())
def test_words_of_weight_matches_brute_force(problem):
    weights, total, max_len, repeats, charges = problem
    letters = [f"x{p}" for p in range(len(weights))]
    # positive weights bound the length by the total
    top = total if max_len is None else max_len
    found = []
    for length in range(top + 1):
        for idx in itertools.combinations_with_replacement(range(len(letters)), length):
            if sum(weights[p] for p in idx) != total:
                continue
            if repeats is not None and any(not repeats[p] and idx.count(p) > 1 for p in idx):
                continue
            if charges is not None and sum(charges[p] for p in idx) != 0:
                continue
            found.append(idx)
    # depth-first order: lexicographic in positions, a word before its extensions
    want = [tuple(letters[p] for p in idx) for idx in sorted(found)]
    assert words_of_weight(letters, weights, total, max_len, repeats, charges) == want


ENUMERATED = [AlgebraDescriptor(kind, rank) for kind in ("bg", "bc", "bcbg") for rank in (1, 2)]


@pytest.mark.slow
def test_basis_by_degree_matches_brute_force():
    for alg in ENUMERATED:
        # w, d <= 6 would be 36M candidate words for bcbg rank 2
        top = 5 if alg == AlgebraDescriptor("bcbg", 2) else 7
        for w in range(top):
            modes = sorted(
                ((sp, idx, -k)
                 for sp in alg.species
                 for idx in range(1, alg.rank + 1)
                 for k in range(1, w + 2)
                 if SPECIES_WEIGHT[sp] + k - 1 <= w),
                key=mode_sort_key,
            )
            want = [
                [
                    mono
                    for mono in itertools.combinations_with_replacement(modes, d)
                    if sum(SPECIES_WEIGHT[sp] - m - 1 for sp, _, m in mono) == w
                    and not any(a == b and SPECIES_PARITY[a[0]] for a, b in zip(mono, mono[1:]))
                ]
                for d in range(top)
            ]
            for cap in range(top):
                assert basis_by_degree(alg, w, cap) == want[:cap + 1], (alg, w, cap)
            assert [basis(alg, w, d) for d in range(top)] == want
    assert basis_by_degree(BG1, -1, 2) == [[], [], []]
    assert basis_by_degree(BG1, 2, -1) == []
    assert basis(BG1, -1, 1) == basis(BG1, 2, -1) == []


def test_gr_basis_by_degree_matches_brute_force():
    for alg in ENUMERATED:
        for w in range(5):
            symbols = sorted(
                (sp, idx, k)
                for sp in alg.species
                for idx in range(1, alg.rank + 1)
                for k in range(w + 1)
                if SPECIES_WEIGHT[sp] + k <= w
            )
            want = [
                [
                    mono
                    for mono in itertools.combinations_with_replacement(symbols, d)
                    if sum(SPECIES_WEIGHT[sp] + k for sp, _, k in mono) == w
                    and not any(a == b and SPECIES_PARITY[a[0]] for a, b in zip(mono, mono[1:]))
                ]
                for d in range(5)
            ]
            for cap in range(5):
                assert gr_basis_by_degree(alg, w, cap) == want[:cap + 1], (alg, w, cap)
            assert [gr_basis(alg, w, d) for d in range(5)] == want


# monomials of weight and degree <= 2 of each algebra, for random states
LAW_POOLS = {kind: [m for w in range(3) for d in range(3) for m in basis(AlgebraDescriptor(kind, 2), w, d)]
             for kind in ("bg", "bc", "bcbg")}
LAW_SCALARS = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)


def law_states(kind):
    return st.dictionaries(st.sampled_from(LAW_POOLS[kind]), LAW_SCALARS, max_size=4).map(State)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(sorted(LAW_POOLS)).flatmap(lambda kind: st.tuples(*[law_states(kind)] * 3)),
       LAW_SCALARS, LAW_SCALARS)
def test_state_module_laws(states, a, b):
    s, t, u = states
    assert s + t == t + s
    assert (s + t) + u == s + (t + u)
    assert a * (s + t) == a * s + a * t
    assert (a + b) * s == a * s + b * s
    assert not (s - s) and s - s == State()
    assert not (0 * s).terms
    # integer-first: every integral coefficient of a result is an int
    for r in (s + t, s - t, -s, a * s, (a + b) * s, a * (s + t)):
        assert _int_first(r.terms)
