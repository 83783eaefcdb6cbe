import math
import random
from fractions import Fraction

import pytest

from vertexfock.exprlang import evaluate, parse
from vertexfock.fock import BETA, GAMMA, AlgebraDescriptor, State, basis, generator_state, weight, word
from vertexfock.invariants import _lie_current, heisenberg_current
from vertexfock.linalg import det, rank
from vertexfock.ope import circle, current_mode, derive, iterated_wick, wick
from vertexfock.winfinity import (
    DOp,
    _REALIZE_CACHE,
    action_block_matrix,
    action_coeffs,
    cocycle,
    d_bracket,
    express_diagonal_map,
    factorial_ratio_matrix,
    field_mode,
    realize_current,
    rising_product_matrix,
    sub_index,
    verify_rep,
)

BG1 = AlgebraDescriptor("bg", 1)
BG2 = AlgebraDescriptor("bg", 2)
BC1 = AlgebraDescriptor("bc", 1)


def test_cocycle_values():
    for k in range(-4, 5):
        assert cocycle(0, k, 0, -k) == Fraction(k)
    assert cocycle(0, 1, 0, 2) == 0
    rng = random.Random(2)
    for _ in range(50):
        l1, k1, l2, k2 = (
            rng.randint(0, 4),
            rng.randint(-4, 4),
            rng.randint(0, 4),
            rng.randint(-4, 4),
        )
        assert cocycle(l1, k1, l2, k2) + cocycle(l2, k2, l1, k1) == 0


def test_bracket_examples():
    for k in range(-3, 4):
        for m in range(-3, 4):
            br = d_bracket(DOp.basis_element(0, k), DOp.basis_element(0, m))
            assert br.terms == {}
            assert br.kappa == (Fraction(k) if k + m == 0 else Fraction(0))
    x = DOp({(2, -1): Fraction(1), (1, 3): Fraction(-2)})
    assert not d_bracket(x, x)


def test_bracket_jacobi():
    rng = random.Random(4)
    for _ in range(50):
        a, b, c = (
            DOp.basis_element(rng.randint(0, 3), rng.randint(-3, 3)) for _ in range(3)
        )
        j = (
            d_bracket(d_bracket(a, b), c)
            + d_bracket(d_bracket(b, c), a)
            + d_bracket(d_bracket(c, a), b)
        )
        assert not j


def test_cocycle_identity_on_bracket():
    # the central term of a double bracket must cancel cyclically
    rng = random.Random(6)
    for _ in range(40):
        a, b, c = (
            DOp.basis_element(rng.randint(0, 3), rng.randint(-4, 4)) for _ in range(3)
        )
        total = (
            d_bracket(d_bracket(a, b), c).kappa
            + d_bracket(d_bracket(b, c), a).kappa
            + d_bracket(d_bracket(c, a), b).kappa
        )
        assert total == 0


def test_realization_states():
    assert realize_current(0, BG1) == State({word([(BETA, 1, -1), (GAMMA, 1, -1)]): Fraction(1)})
    assert realize_current(1, BG1) == State({word([(BETA, 1, -2), (GAMMA, 1, -1)]): Fraction(1)})
    for l in range(0, 4):
        for alg in (BG2, BC1):
            assert weight(realize_current(l, alg)) == l + 1
    with pytest.raises(ValueError):
        realize_current(0, AlgebraDescriptor("bcbg", 1))


def test_negative_levels_are_refused_and_not_cached():
    for _ in range(2):
        with pytest.raises(ValueError, match="l must be >= 0"):
            realize_current(-1, BG1)
    assert ("bg", 1, -1) not in _REALIZE_CACHE


def test_mode_index_conversion():
    for l in range(4):
        for k in range(-4, 5):
            assert sub_index(l, field_mode(l, k)) == k


def _assert_modes_agree_with_circle(alg, currents, ks, max_weight, max_degree) -> int:
    # the mode kernel against the circle product's stage-1/2 path
    modes = [(cur, k, current_mode(cur, k)) for cur in currents for k in ks]
    images = 0
    for w in range(max_weight + 1):
        for d in range(max_degree + 1):
            for mono in basis(alg, w, d):
                s = State._raw({mono: 1})
                for cur, k, mode in modes:
                    assert mode(mono) == circle(cur, k, s).terms, (alg, mono, cur, k)
                    images += 1
    return images


def test_current_mode_agrees_with_circle_product():
    # J^l(k) applied word by word against the circle product of the
    # realized current, on every basis state; rank 3 interleaves indices
    images = sum(
        _assert_modes_agree_with_circle(
            alg, [realize_current(l, alg) for l in range(4)], range(-3, 4), 5, 4)
        for alg in (AlgebraDescriptor(kind, n) for kind in ("bg", "bc") for n in (1, 2))
    )
    assert images == 59500
    for kind in ("bg", "bc"):
        alg = AlgebraDescriptor(kind, 3)
        _assert_modes_agree_with_circle(alg, [realize_current(l, alg) for l in range(4)],
                                        range(-3, 4), 1, 4)


def test_heisenberg_and_lie_current_modes_agree_with_circle_product():
    # Heisenberg currents with zero, negative and rational charges
    bg3 = AlgebraDescriptor("bg", 3)
    heis = [heisenberg_current(xi, ((1, 0, -2), (0, -1, 1)), bg3)
            for xi in ((1, 0), (0, 1), (Fraction(1, 2), -3))]
    assert len(heis[0].terms) == 2
    _assert_modes_agree_with_circle(bg3, heis, range(-2, 3), 3, 3)
    # the currents J_X of rational matrices, whose zero modes are the Lie
    # actions, index-mixing and on the fermions too
    X = ((1, Fraction(1, 2)), (-2, Fraction(-1, 3)))
    for kind in ("bg", "bc", "bcbg"):
        alg = AlgebraDescriptor(kind, 2)
        _assert_modes_agree_with_circle(alg, [_lie_current(X, alg)], range(-2, 3), 3, 3)
    # a quadratic current with a derivative on its vector letter, at
    # two indices
    mixed = iterated_wick([generator_state(GAMMA, 2), derive(generator_state(BETA, 1), 2)])
    _assert_modes_agree_with_circle(BG2, [mixed], range(-2, 4), 3, 3)


def test_current_mode_refuses_other_currents():
    beta, gamma = generator_state(BETA, 1), generator_state(GAMMA, 1)
    refused = [
        beta,  # one letter
        wick(beta, wick(beta, gamma)),  # three letters
        wick(derive(gamma), beta),  # u at mode -2
        wick(beta, beta),  # no covector letter
        wick(gamma, generator_state(BETA, 1)) + 2 * beta,  # one good term, one bad
        State({(): 1}),  # the vacuum
    ]
    for cur in refused:
        with pytest.raises(ValueError, match="is not x :u"):
            current_mode(cur, 0)


def test_verify_rep_heisenberg_pair():
    rep = verify_rep([(0, 1, 0, -1)], BG1, 2, 2)
    assert rep["mismatches"] == []
    # the commutator is -1 times the identity
    j = realize_current(0, BG1)
    s = State({word([(GAMMA, 1, -2), (BETA, 1, -1)]): Fraction(1)})
    comm = circle(j, 1, circle(j, -1, s)) - circle(j, -1, circle(j, 1, s))
    assert comm == Fraction(-1) * s
    # nonpaired zero modes commute
    for k, m in [(2, 1), (1, 0), (-1, -2)]:
        rep = verify_rep([(0, k, 0, m)], BG1, 2, 2)
        assert rep["mismatches"] == []


def test_verify_rep_sample():
    for alg in (BG1, BC1):
        for (l1, k1, l2, k2) in [(1, 2, 2, -2), (0, 1, 2, -1), (1, -1, 1, 1), (2, 3, 2, -3)]:
            rep = verify_rep([(l1, k1, l2, k2)], alg, 3, 3)
            assert rep["checked"] > 0
            assert rep["mismatches"] == [], (alg.kind, l1, k1, l2, k2)


BATCH_PAIRS = [
    (0, 1, 0, -1), (1, 2, 2, -2), (0, 2, 0, 1), (2, 3, 2, -3), (1, -1, 1, 1), (0, 1, 2, -1),
]


def test_verify_rep_batch_is_concatenation_of_single_pairs():
    for alg in (BG1, BC1):
        for kappa in (None, Fraction(5)):
            multi = verify_rep(BATCH_PAIRS, alg, 2, 2, kappa)
            singles = [verify_rep([p], alg, 2, 2, kappa) for p in BATCH_PAIRS]
            assert multi["checked"] == sum(r["checked"] for r in singles)
            assert multi["mismatches"] == [m for r in singles for m in r["mismatches"]]


def test_verify_rep_wrong_central_value_fails_exactly_the_cocycle_pairs():
    central = [p for p in BATCH_PAIRS if cocycle(*p) != 0]
    assert central == [(0, 1, 0, -1), (2, 3, 2, -3)]
    rep = verify_rep(BATCH_PAIRS, BG1, 2, 2, kappa_value=Fraction(5))
    n_states = rep["checked"] // len(BATCH_PAIRS)
    failed = [(m["l1"], m["k1"], m["l2"], m["k2"]) for m in rep["mismatches"]]
    # every state fails on a central pair, and the report is pair-major
    assert failed == [p for p in central for _ in range(n_states)]
    assert verify_rep(BATCH_PAIRS, BG1, 2, 2)["mismatches"] == []
    # each report replays: the state and the difference evaluate back,
    # and the difference is the exact defect: the realized central value
    # is -1, so the commutator misses the claimed one by (-1 - 5) cocycle
    states = [State({mono: 1}) for w in range(3) for d in range(3) for mono in basis(BG1, w, d)]
    assert len(states) == n_states
    for i, m in enumerate(rep["mismatches"]):
        s = states[i % n_states]
        assert evaluate(parse(m["state"]), BG1) == s
        defect = (-6 * cocycle(m["l1"], m["k1"], m["l2"], m["k2"])) * s
        assert evaluate(parse(m["difference"]), BG1) == defect


def test_action_coeff_values():
    lam, mu = action_coeffs(1, 0, 0)
    assert (lam, mu) == (Fraction(-1), Fraction(-1))
    for w in range(1, 4):
        for k in range(0, 5):
            for l in range(0, k):
                assert action_coeffs(w, k, l)[0] == 0
    assert action_coeffs(1, 1, 0)[1] == 2


def test_action_coeffs_match_realization():
    # on degree-1 states the realized modes act by the closed forms,
    # independently of the index
    for w in range(1, 5):
        for k in range(0, 5):
            cur = realize_current(w + k, BG2)
            for l in range(0, 7):
                lam, mu = action_coeffs(w, k, l)
                for i in (1, 2):
                    sb = State({word([(BETA, i, -l - 1)]): Fraction(math.factorial(l))})
                    want = State({word([(BETA, i, -l - w - 1)]): lam * math.factorial(l + w)})
                    assert circle(cur, k, sb) == want
                    sg = State({word([(GAMMA, i, -l - 1)]): Fraction(math.factorial(l))})
                    wantg = State({word([(GAMMA, i, -l - w - 1)]): mu * math.factorial(l + w)})
                    assert circle(cur, k, sg) == wantg


def test_mode_weight_shift():
    # J^l(k) maps weight w to weight w + l - k, preserving degree on
    # the degree-1 slice
    cur = realize_current(2, BG1)
    s = State({word([(GAMMA, 1, -3)]): Fraction(1)})
    img = circle(cur, 1, s)
    assert weight(img) == weight(s) + 2 - 1
    assert all(len(m) == 1 for m in img.terms)


def test_current_modes_never_raise_degree():
    # quadratic currents have no double-creation mode terms for k >= 0,
    # so degree never grows (sharper than the generic filtration bound)
    from vertexfock.fock import basis

    for l in range(0, 3):
        cur = realize_current(l, BG2)
        for w in range(0, 4):
            for d in range(0, 4):
                for mono in basis(BG2, w, d):
                    for k in range(0, w + l + 1):
                        img = circle(cur, k, State({mono: Fraction(1)}))
                        if img:
                            assert max(len(m) for m in img.terms) <= d


def test_matrices():
    for r in range(1, 5):
        t = rising_product_matrix(r, 1)
        assert t.to_rows() == [
            [Fraction(1), Fraction(r + 1)],
            [Fraction(1), Fraction(r + 2)],
        ]
        assert det(t) == 1
    m1 = action_block_matrix(1, 0)
    assert m1.to_rows() == [[Fraction(-1), Fraction(2)], [Fraction(-1), Fraction(0)]]
    for w in range(1, 5):
        for m in range(0, 5):
            assert rank(action_block_matrix(w, m)) == 2 * m + 2
    for r in range(1, 9):
        for m in range(1, 9):
            assert det(rising_product_matrix(r, m)) != 0


def test_column_row_equivalence_chain():
    # the gamma-block of the action matrix is column-equivalent to the
    # factorial-ratio matrix, which is row-equivalent to the
    # rising-product matrix; determinants track the scalings exactly
    for w in range(1, 4):
        for m in range(1, 4):
            r = w + m + 1
            mw = action_block_matrix(w, m)
            bw_rows = [
                [mw[(i, m + 1 + j)] for j in range(m + 1)] for i in range(m + 1)
            ]
            from vertexfock.linalg import SparseMatrix

            bw = SparseMatrix.from_rows(bw_rows)
            q = factorial_ratio_matrix(w, m)
            t = rising_product_matrix(r, m)
            col_scale = Fraction(1)
            for j in range(m + 1):
                col_scale *= Fraction((-1) ** (w + m + 1 + j))
            assert det(bw) == col_scale * det(q)
            row_scale = Fraction(1)
            for i in range(m + 1):
                row_scale *= Fraction(math.factorial(r + i), math.factorial(w + i))
            assert det(q) == row_scale * det(t)
            assert det(t) != 0


def test_express_diagonal_map():
    assert express_diagonal_map(1, 0, [-1], [-1]) == [Fraction(1), Fraction(0)]
    assert express_diagonal_map(1, 0, [2], [0]) == [Fraction(0), Fraction(1)]
    assert express_diagonal_map(2, 1, [0, 0], [0, 0]) == [Fraction(0)] * 4


def test_express_reproduces_modes():
    for w in range(1, 4):
        for m in range(0, 4):
            for k in range(0, 2 * m + 2):
                cs = [action_coeffs(w, k, i)[1] for i in range(m + 1)]
                ds = [action_coeffs(w, k, i)[0] for i in range(m + 1)]
                t = express_diagonal_map(w, m, cs, ds)
                want = [Fraction(1) if j == k else Fraction(0) for j in range(2 * m + 2)]
                assert t == want
