import ast
import itertools
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import graded_dimensions, symbol_charge
from vertexfock import fock
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
    letters,
    mono_parity,
    state_from_json,
    state_to_json,
    state_to_text,
    vacuum,
    weight,
    word,
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
    g = State({word([(GAMMA, 1, -1)]): Fraction(1)})
    assert apply_mode((BETA, 1, 0), g) == vacuum()
    c = State({word([(C, 1, -1)]): Fraction(1)})
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
    g3 = State({word([(GAMMA, 1, -3)]): Fraction(1)})
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
    assert bd11 == [word([(BETA, 1, -1)]), word([(GAMMA, 1, -2)])]
    bd03 = basis(BG1, 0, 3)
    assert bd03 == [word([(GAMMA, 1, -1), (GAMMA, 1, -1), (GAMMA, 1, -1)])]
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
                gr_want.update((w, d, symbol_charge(m, alg.rank)) for m in gr_basis(alg, w, d))
        assert charge_counts(alg, 4, 4) == want, alg
        assert gr_charge_counts(alg, 4, 4) == gr_want, alg
    assert charge_counts(BG1, -1, 3) == gr_charge_counts(BG1, 2, -1) == {}


def test_gr_symbol():
    assert gr_symbol(generator_state(BETA, 1)) == {((BETA, 1, 0),): Fraction(1)}
    assert gr_symbol(State({word([(BETA, 1, -2)]): Fraction(1)})) == {((BETA, 1, 1),): Fraction(1)}
    assert gr_symbol(State({word([(BETA, 1, -3)]): Fraction(1)})) == {((BETA, 1, 2),): Fraction(1, 2)}
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
    assert s == State({word([(B, 1, -1), (C, 1, -1)]): Fraction(-1)})
    # repeated fermionic mode dies
    assert apply_mode((B, 1, -1), generator_state(B, 1)) == State()


def test_state_json_roundtrip():
    s = State({word([(BETA, 1, -2), (GAMMA, 1, -1)]): Fraction(-3, 2), (): Fraction(1)})
    obj = state_to_json(s)
    assert state_from_json(obj) == s
    assert obj["terms"][0] == [[], "1"]


def test_word_refuses_letters_without_a_code():
    # a word holding an annihilation mode is not a Fock state: there is
    # no way to spell one, in a State or on the wire
    for g in ((BETA, 1, 0), (GAMMA, 1, 3), (B, 1, -262144), (C, 1024, -1), (BETA, -1, -1)):
        with pytest.raises(ValueError, match=re.escape(f"letter {g} has no code")):
            word([g])
        with pytest.raises(ValueError, match="has no code"):
            state_from_json({"terms": [[[[fock.SPECIES_NAMES[g[0]], g[1], g[2]]], "1"]]})
    for g in ((BETA, 1, -1), (C, 1023, -262143)):
        assert letters(word([g])) == (g,)
    # a mode >= 0 still acts on states as an operator
    assert apply_mode((BETA, 1, 0), generator_state(GAMMA, 1)) == vacuum()


def test_charge_under_the_trivial_torus():
    s = generator_state(BETA, 1) + 2 * State({word([(GAMMA, 1, -2), (BETA, 1, -1)]): 1})
    assert charge(s, ()) == ()
    assert charge(vacuum(), ()) == ()
    with pytest.raises(ValueError, match="zero state"):
        charge(State(), ())
    with pytest.raises(ValueError, match="zero state"):
        charge(State(), ((1,),))


def test_charge_refuses_a_matrix_that_does_not_fit():
    # an index above the width of the rows, and rows of unequal length
    with pytest.raises(ValueError, match="index above 1"):
        charge(generator_state(BETA, 2), ((1,),))
    for rows in (((1, 0), (1,)), ((1,), (1, 0))):
        with pytest.raises(ValueError):
            charge(generator_state(BETA, 1), rows)


@pytest.mark.parametrize("alg", [BG2, AlgebraDescriptor("bc", 2), MIX1],
                         ids=lambda a: f"{a.kind}{a.rank}")
def test_code_order_is_canonical_order(alg):
    words = [m for w in range(6) for d in range(6) for m in basis(alg, w, d)]
    ls = sorted({g for m in words for g in letters(m)})
    assert sorted(ls, key=lambda g: word([g])) == sorted(ls, key=_canonical_key)
    # so a canonical word is an ascending tuple of codes
    assert all(list(m) == sorted(m) for m in words)
    assert all(word(letters(m)) == m for m in words)


def test_odd_codes_lie_above_every_even_code():
    # the sign of an odd insertion counts the odd letters as a suffix
    top_idx, top_mode = fock._IDX_MASK, fock._MODE_MASK
    even = word([(sp, i, -m) for sp in (BETA, GAMMA) for i in (1, top_idx) for m in (1, top_mode)])
    odd = word([(sp, i, -m) for sp in (B, C) for i in (1, top_idx) for m in (1, top_mode)])
    assert max(even) < fock._ODD <= min(odd)
    assert all((word([(sp, 1, -1)])[0] >= fock._ODD) == bool(SPECIES_PARITY[sp])
               for sp in (BETA, GAMMA, B, C))


def _canonical_key(g):
    """Canonical order of letters: species, then index, then mode descending."""
    sp, idx, mode = g
    return (sp, idx, -mode)


def _state(terms: dict) -> State:
    return State({word(ls): c for ls, c in terms.items()})


def test_emissions_list_terms_in_letter_order():
    # code order and letter order differ between modes of one letter:
    # beta1(-1) codes below beta1(-4), and sorts after it as a letter;
    # every emission keeps the letter order
    bosons = _state({
        ((BETA, 1, -1), (BETA, 1, -3)): 2, ((BETA, 1, -2), (BETA, 1, -2)): Fraction(-1, 2),
        ((BETA, 1, -4),): 3, ((BETA, 1, -1),): 1,
    })
    assert state_to_json(bosons) == {"terms": [
        [[["beta", 1, -4]], "3"], [[["beta", 1, -1]], "1"],
        [[["beta", 1, -2], ["beta", 1, -2]], "-1/2"], [[["beta", 1, -1], ["beta", 1, -3]], "2"],
    ]}
    assert state_to_text(bosons) == ("1/2 * D^3(beta[1]) + beta[1] - 1/2 * NO(D(beta[1]), "
                                     "D(beta[1])) + NO(beta[1], D^2(beta[1]))")
    assert repr(bosons) == ("State(3*beta1(-4) + 1*beta1(-1) + -1/2*beta1(-2) beta1(-2) + "
                            "2*beta1(-1) beta1(-3))")
    mixed = _state({
        ((GAMMA, 2, -1), (BETA, 1, -2)): 1, ((BETA, 2, -1), (GAMMA, 1, -3)): -2,
        ((B, 1, -2), (C, 2, -1)): Fraction(1, 3), ((C, 1, -1), (B, 1, -1), (BETA, 1, -3)): 4, (): 5,
    })
    assert state_to_json(mixed) == {"terms": [
        [[], "5"], [[["beta", 1, -2], ["gamma", 2, -1]], "1"],
        [[["beta", 2, -1], ["gamma", 1, -3]], "-2"], [[["b", 1, -2], ["c", 2, -1]], "1/3"],
        [[["beta", 1, -3], ["b", 1, -1], ["c", 1, -1]], "-4"],
    ]}
    assert state_to_text(mixed) == ("5 * vac + NO(D(beta[1]), gamma[2]) - NO(beta[2], D^2(gamma[1])) "
                                    "+ 1/3 * NO(D(bb[1]), cc[2]) - 2 * NO(D^2(beta[1]), bb[1], cc[1])")
    assert repr(mixed) == ("State(5*|0> + 1*beta1(-2) gamma2(-1) + -2*beta2(-1) gamma1(-3) + "
                           "1/3*b1(-2) c2(-1) + -4*beta1(-3) b1(-1) c1(-1))")
    fermions = _state({
        ((B, 1, -1), (B, 1, -3), (C, 1, -2)): 1, ((B, 1, -2), (C, 1, -1), (C, 1, -3)): -1,
        ((B, 2, -1), (B, 1, -1), (B, 1, -2)): 7, ((C, 1, -4),): 1,
    })
    assert state_to_json(fermions) == {"terms": [
        [[["c", 1, -4]], "1"], [[["b", 1, -2], ["c", 1, -1], ["c", 1, -3]], "-1"],
        [[["b", 1, -1], ["b", 1, -3], ["c", 1, -2]], "1"],
        [[["b", 1, -1], ["b", 1, -2], ["b", 2, -1]], "7"],
    ]}
    assert state_to_text(fermions) == (
        "1/6 * D^3(cc[1]) - 1/2 * NO(D(bb[1]), cc[1], D^2(cc[1])) + 1/2 * NO(bb[1], D^2(bb[1]), "
        "D(cc[1])) + 7 * NO(bb[1], D(bb[1]), bb[2])")
    assert repr(fermions) == ("State(1*c1(-4) + -1*b1(-2) c1(-1) c1(-3) + 1*b1(-1) b1(-3) c1(-2) + "
                              "7*b1(-1) b1(-2) b2(-1))")


def test_basis_lists_words_in_canonical_order():
    assert [letters(m) for m in basis(BG1, 4, 2)] == [
        ((0, 1, -1), (0, 1, -3)), ((0, 1, -1), (1, 1, -4)), ((0, 1, -2), (0, 1, -2)),
        ((0, 1, -2), (1, 1, -3)), ((0, 1, -3), (1, 1, -2)), ((0, 1, -4), (1, 1, -1)),
        ((1, 1, -1), (1, 1, -5)), ((1, 1, -2), (1, 1, -4)), ((1, 1, -3), (1, 1, -3)),
    ]
    assert [letters(m) for m in basis(MIX1, 2, 2)] == [
        ((0, 1, -1), (0, 1, -1)), ((0, 1, -1), (1, 1, -2)), ((0, 1, -1), (2, 1, -1)),
        ((0, 1, -1), (3, 1, -2)), ((0, 1, -2), (1, 1, -1)), ((0, 1, -2), (3, 1, -1)),
        ((1, 1, -1), (1, 1, -3)), ((1, 1, -1), (2, 1, -2)), ((1, 1, -1), (3, 1, -3)),
        ((1, 1, -2), (1, 1, -2)), ((1, 1, -2), (2, 1, -1)), ((1, 1, -2), (3, 1, -2)),
        ((1, 1, -3), (3, 1, -1)), ((2, 1, -1), (3, 1, -2)), ((2, 1, -2), (3, 1, -1)),
        ((3, 1, -1), (3, 1, -3)),
    ]
    assert [letters(m) for m in basis(BC1, 4, 3)] == [
        ((2, 1, -1), (2, 1, -2), (3, 1, -2)), ((2, 1, -1), (2, 1, -3), (3, 1, -1)),
        ((2, 1, -1), (3, 1, -1), (3, 1, -4)), ((2, 1, -1), (3, 1, -2), (3, 1, -3)),
        ((2, 1, -2), (3, 1, -1), (3, 1, -3)), ((2, 1, -3), (3, 1, -1), (3, 1, -2)),
        ((3, 1, -1), (3, 1, -2), (3, 1, -4)),
    ]


def test_parity():
    assert mono_parity(word([(B, 1, -1), (C, 1, -2)])) == 0
    assert mono_parity(word([(B, 1, -1)])) == 1


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
    m = word([(BETA, 1, -2), (GAMMA, 1, -1)])
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
    s = State({word([(BETA, 1, -1)]): 1})
    t = Fraction(1, 2) * (2 * s)
    assert t == s and _int_first(t.terms)
    assert _int_first((Fraction(1, 2) * s + Fraction(1, 2) * s).terms)


def test_mixed_state_serialization_is_unchanged():
    s = State({
        word([(BETA, 1, -3), (GAMMA, 1, -1)]): 2,
        word([(BETA, 1, -1)]): Fraction(1, 2),
        word([(GAMMA, 1, -4)]): Fraction(-3),
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
    """(weights, total, max_len, repeats); weight 0 only with a length
    bound, which the enumerator needs to stop."""
    max_len = draw(st.none() | st.integers(0, 4))
    low = 1 if max_len is None else 0
    weights = draw(st.lists(st.integers(low, 3), max_size=5))
    size = {"min_size": len(weights), "max_size": len(weights)}
    repeats = draw(st.none() | st.lists(st.booleans(), **size))
    return weights, draw(st.integers(0, 6)), max_len, repeats


@settings(deadline=None)
@given(word_problems())
def test_words_of_weight_matches_brute_force(problem):
    weights, total, max_len, repeats = problem
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
            found.append(idx)
    # depth-first order: lexicographic in positions, a word before its extensions
    want = [tuple(letters[p] for p in idx) for idx in sorted(found)]
    assert words_of_weight(letters, weights, total, max_len, repeats) == want


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
                key=_canonical_key,
            )
            want = [
                [
                    word(mono)
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


SRC = Path(__file__).parent.parent / "src" / "vertexfock"
LAYOUT = {"_SP_SHIFT", "_IDX_SHIFT", "_MODE_MASK", "_IDX_MASK", "_ODD"}
CONVERTERS = {"_code", "word", "letters", "_encode", "_decode", "_letter"}


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _operands(node: ast.AST, op: type) -> set[str]:
    """The names that appear as the right operand of ``op`` in node."""
    return {_name(n.right) for n in ast.walk(node) if isinstance(n, ast.BinOp) and isinstance(n.op, op)}


def layout_breaches(tree: ast.AST) -> list[str]:
    """Where a module sets the code layout or converts between letters
    and codes on its own: assigns a layout constant, defines a
    conversion or calls ``_code``, builds a code from the species and
    index fields, or builds a tuple from the species and mode fields."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [f"assigns {n.id}" for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name) and n.id in LAYOUT]
        elif isinstance(node, ast.FunctionDef) and node.name in CONVERTERS:
            found.append(f"defines {node.name}")
        elif _name(node) == "_code" or isinstance(node, ast.alias) and node.name == "_code":
            found.append("uses _code")
        elif isinstance(node, ast.expr) and {"_SP_SHIFT", "_IDX_SHIFT"} <= _operands(node, ast.LShift):
            found.append(f"builds a code at line {node.lineno}")
        elif (isinstance(node, ast.Tuple) and "_SP_SHIFT" in _operands(node, ast.RShift)
              and "_MODE_MASK" in _operands(node, ast.BitAnd)):
            found.append(f"builds a letter at line {node.lineno}")
    return found


def test_only_fock_spells_letters_as_codes():
    assert layout_breaches(ast.parse((SRC / "fock.py").read_text()))  # the rule sees the layout
    breaches = {path.name: found for path in sorted(SRC.glob("*.py")) if path.name != "fock.py"
                if (found := layout_breaches(ast.parse(path.read_text())))}
    assert breaches == {}


def test_the_package_imports_only_the_standard_library():
    # -S: no site-packages, so a third-party import would fail outright;
    # the listing also catches one that happens to be importable without it
    code = ("import sys, vertexfock.cli\n"
            "allowed = sys.stdlib_module_names | {'vertexfock', '__main__'}\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] not in allowed))")
    env = {"PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == []
