import itertools
import random
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
    AlgebraDescriptor,
    State,
    apply_mode,
    basis,
    charge,
    degree,
    generator_state,
    gr_basis,
    gr_symbol,
    mono_parity,
    state_from_json,
    state_to_json,
    state_to_text,
    vacuum,
    weight,
    words_of_weight,
)
from vertexfock.ope import circle, derive
from vertexfock.winfinity import realize_current

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
    """(weights, total, max_len, min_len, repeats); weight 0 only with a
    length bound, which the enumerator needs to stop."""
    max_len = draw(st.none() | st.integers(0, 4))
    low = 1 if max_len is None else 0
    weights = draw(st.lists(st.integers(low, 3), max_size=5))
    repeats = draw(st.none() | st.lists(st.booleans(), min_size=len(weights), max_size=len(weights)))
    return weights, draw(st.integers(0, 6)), max_len, draw(st.integers(0, 2)), repeats


@settings(deadline=None)
@given(word_problems())
def test_words_of_weight_matches_brute_force(problem):
    weights, total, max_len, min_len, repeats = problem
    letters = [f"x{p}" for p in range(len(weights))]
    # positive weights bound the length by the total
    top = total if max_len is None else max_len
    found = []
    for length in range(min_len, top + 1):
        for idx in itertools.combinations_with_replacement(range(len(letters)), length):
            if sum(weights[p] for p in idx) != total:
                continue
            if repeats is not None and any(not repeats[p] and idx.count(p) > 1 for p in idx):
                continue
            found.append(idx)
    # depth-first order: lexicographic in positions, a word before its extensions
    want = [tuple(letters[p] for p in idx) for idx in sorted(found)]
    assert words_of_weight(letters, weights, total, max_len, min_len, repeats) == want
