"""Acceptance suite.

One test per criterion (criterion 12 has one per algebra); each prints
a PASS line when its exact checks go through (run with -s or -rA to see
them).  Everything is exact: every comparison is rational equality,
with no tolerances anywhere.
"""

import time
from fractions import Fraction

import pytest

from oracles import circle_oracle
from vertexfock.fock import (
    B,
    BETA,
    C,
    GAMMA,
    AlgebraDescriptor,
    State,
    basis,
    generator_state,
    vacuum,
    weight,
)
from vertexfock.invariants import (
    TorusAction,
    _kernel_table,
    commutant_basis,
    dim_table,
    gl_standard,
    gr_dim_table,
    heisenberg_current,
    sl2_standard,
    span_check,
    trivial_action,
)
from vertexfock.linalg import det
from vertexfock.ope import circle, derive, iterated_wick
from vertexfock.verify import identity_suite
from vertexfock.verma import (
    cyclic_span_check,
    decoupling_relation,
    ideal_kernel,
    project,
    singular_vectors,
    verify_decoupling,
)
from vertexfock.winfinity import (
    action_block_matrix,
    action_coeffs,
    bracket_basis,
    default_central_value,
    express_diagonal_map,
    field_mode,
    realize_current,
    rising_product_matrix,
)

BG1 = AlgebraDescriptor("bg", 1)
BG2 = AlgebraDescriptor("bg", 2)
BC2 = AlgebraDescriptor("bc", 2)
MIX1 = AlgebraDescriptor("bcbg", 1)


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_identity_suite():
    total = 0
    for alg in (BG2, BC2, MIX1):
        rep = identity_suite(alg, trials=100, max_weight=4, max_degree=3, seed=20259)
        assert rep["mismatches"] == [], rep
        total += rep["trials"]
    assert total >= 300
    report(1, f"four circle-product identities exact on {total} random triples "
              "in S(C^2), E(C^2), E(C)xS(C)")


def test_criterion_2_free_field_opes():
    for n in (1, 2):
        bg = AlgebraDescriptor("bg", n)
        bc = AlgebraDescriptor("bc", n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                from vertexfock.fock import B, C

                b_, g_ = generator_state(BETA, i), generator_state(GAMMA, j)
                delta = vacuum() if i == j else State()
                assert circle(b_, 0, g_) == delta
                assert circle(g_, 0, b_) == (-1) * delta
                fb, fc = generator_state(B, i), generator_state(C, j)
                assert circle(fb, 0, fc) == delta
                assert circle(fc, 0, fb) == delta
                for pair in ((b_, g_), (g_, b_), (fb, fc), (fc, fb)):
                    for k in range(1, 4):
                        assert circle(pair[0], k, pair[1]) == State()
                for same in ((b_, b_), (g_, g_), (fb, fb), (fc, fc)):
                    for k in range(0, 4):
                        assert circle(same[0], k, same[1]) == State()
    report(2, "free-field pairings are single-pole with the delta pairing, "
              "all higher products vanish, bc analogue included")


def test_criterion_3_conformal_structure():
    for n in (1, 2):
        alg = AlgebraDescriptor("bg", n)
        L = State()
        for i in range(1, n + 1):
            L = L + iterated_wick(
                [generator_state(BETA, i), derive(generator_state(GAMMA, i))]
            )
        checked = 0
        for w in range(0, 6):
            for d in range(0, 5):
                for mono in basis(alg, w, d):
                    s = State({mono: Fraction(1)})
                    assert circle(L, 0, s) == derive(s)
                    assert circle(L, 1, s) == Fraction(w) * s
                    checked += 1
        got = circle(L, 3, L)
        assert got == Fraction(n) * vacuum()
        assert got == circle_oracle(L, 3, L)
    report(3, "L o_0 = d, L o_1 = weight on every state (w<=5, d<=4, n<=2); "
              "L o_3 L = n vacuum, confirmed by the mode-convolution oracle")


@pytest.mark.slow
def test_criterion_4_representation_check():
    from vertexfock.ope import clear_cache

    ops = [(l, k) for l in range(0, 4) for k in range(-3, 4)]
    checked = 0
    for kind in ("bg", "bc"):
        for n in (1, 2):
            clear_cache()  # bound the memo between configurations
            alg = AlgebraDescriptor(kind, n)
            kappa = default_central_value(alg)
            currents = {l: realize_current(l, alg) for l in range(0, 8)}
            states = []
            for w in range(0, 6):
                for d in range(0, 5):
                    for mono in basis(alg, w, d):
                        states.append(State({mono: Fraction(1)}))
            brackets = {}
            for i, (l1, k1) in enumerate(ops):
                for j in range(i, len(ops)):
                    l2, k2 = ops[j]
                    brackets[(i, j)] = bracket_basis(l1, k1, l2, k2)
            for s in states:
                images = [
                    circle(currents[l], field_mode(l, k), s) for (l, k) in ops
                ]
                for i, (l1, k1) in enumerate(ops):
                    for j in range(i, len(ops)):
                        l2, k2 = ops[j]
                        lhs = circle(currents[l1], field_mode(l1, k1), images[j]) - circle(
                            currents[l2], field_mode(l2, k2), images[i]
                        )
                        br = brackets[(i, j)]
                        rhs = br.kappa * kappa * s
                        for (a, m), c in br.terms.items():
                            rhs = rhs + c * circle(currents[a], field_mode(a, m), s)
                        assert lhs == rhs, (kind, n, (l1, k1), (l2, k2), s)
                        checked += 1
    report(4, f"realized mode commutators equal the Lie bracket with the central "
              f"element at -n (bg) / +n (bc): {checked} exact checks")


def test_criterion_5_matrix_lemmas():
    for r in range(1, 9):
        for m in range(1, 9):
            assert det(rising_product_matrix(r, m)) != 0
    for w in range(1, 5):
        for m in range(0, 5):
            assert det(action_block_matrix(w, m)) != 0
    for w in range(1, 4):
        for m in range(0, 4):
            for k in range(0, 2 * m + 2):
                cs = [action_coeffs(w, k, i)[1] for i in range(m + 1)]
                ds = [action_coeffs(w, k, i)[0] for i in range(m + 1)]
                t = express_diagonal_map(w, m, cs, ds)
                assert t == [Fraction(int(p == k)) for p in range(2 * m + 2)]
    report(5, "rising-product matrices invertible (r,m<=8), action block matrices "
              "invertible (w<=4, m<=4), diagonal maps reproduce the modes uniquely")


def test_criterion_6_singular_vector_and_ideal():
    for N in (1, 2, 3):
        assert ideal_kernel(BG1, N) == []
    k4 = ideal_kernel(BG1, 4)
    assert k4 != []
    svs = singular_vectors(Fraction(-1), 4)
    assert svs != []
    for sv in svs:
        assert not project(sv, BG1)  # the singular vector lies in the kernel
    for c in (Fraction(1, 2), Fraction(7, 3)):
        assert singular_vectors(c, 4) == []
    report(6, "projection kernel is 0 at weights 1-3 and nonzero at weight 4 "
              "with a singular vector; generic charge has none at weight 4")


def test_criterion_7_decoupling():
    t0 = time.time()
    rel3 = decoupling_relation(3, BG1, 2)
    rel4 = decoupling_relation(4, BG1, 2)
    rel2 = decoupling_relation(2, BG1, 1)
    elapsed = time.time() - t0
    assert rel3 is not None and verify_decoupling(rel3, BG1)
    assert rel4 is not None and verify_decoupling(rel4, BG1)
    assert rel2 is None
    assert elapsed < 60
    report(7, f"J^3 and J^4 decouple through J^0..J^2 (exactly re-verified), "
              f"J^2 does not decouple through J^0..J^1; {elapsed:.1f}s")


def test_criterion_8_invariant_theory_shadow():
    # tori: two independent charge counters (fock.charge_counts against
    # fock.gr_charge_counts)
    cases = [
        ("trivial on S(C)", trivial_action(), BG1),
        ("Torus(1) on S(C)", TorusAction(((1,),)), BG1),
        ("Torus(1,-1) on S(C^2)", TorusAction(((1, -1),)), BG2),
    ]
    for name, act, alg in cases:
        assert dim_table(act, alg, 6, 6) == gr_dim_table(act, alg, 6, 6), name
    # Lie actions: the state side's exact kernels against the symbol
    # side's Weyl count
    lie_cases = [
        ("sl2 standard on S(C^2)", sl2_standard(), BG2, 6),
        ("gl2 on S(C^2)", gl_standard(2), BG2, 7),
        ("gl3 on the bc system of rank 3", gl_standard(3), AlgebraDescriptor("bc", 3), 7),
        ("gl2 on the bcbg system of rank 2", gl_standard(2), AlgebraDescriptor("bcbg", 2), 5),
    ]
    for name, act, alg, cap in lie_cases:
        assert _kernel_table(act, alg, cap, cap) == gr_dim_table(act, alg, cap, cap), name
    report(8, "state-side and symbol-side invariant dimension tables agree "
              "entrywise at (w<=6, d<=6) for trivial and two torus actions; the "
              "state side's exact kernels equal the symbol side's Weyl counts for sl2 "
              "on bg:2 at (w, d <= 6), gl_n on bg:2 and bc:3 at (w, d <= 7) and on "
              "bcbg:2 at (w, d <= 5)")


def test_criterion_9_strong_generation():
    gens = [realize_current(l, BG1) for l in (0, 1, 2)]
    rep = span_check(gens, TorusAction(((1,),)), BG1, 5, 5)
    assert rep.ok, rep.to_json()
    for w, (have, need) in rep.dims.items():
        assert have == need
    report(9, f"words in the three lowest currents span the full invariant "
              f"space at every weight <= 5: dims {[rep.dims[w][0] for w in range(6)]}")


def test_criterion_10_commutant():
    torus = TorusAction(((1,),))
    j = heisenberg_current((1,), torus.rows, BG1)
    dims = {w: len(commutant_basis(torus, BG1, w, 6)) for w in range(5)}
    assert dims == {0: 1, 1: 0, 2: 1, 3: 2, 4: 2}  # frozen regression values
    assert dims[1] == 0
    found = []
    for w in range(5):
        found += commutant_basis(torus, BG1, w, 6)
    for s in found:
        for k in range(0, 5):
            assert circle(j, k, s) == State()
    from vertexfock.ope import wick

    for a in found:
        for b in found:
            p = wick(a, b)
            if p:
                for k in range(0, weight(p) + 1):
                    assert circle(j, k, p) == State()
    report(10, f"commutant dimensions (w<=4, d<=6) = {list(dims.values())}; "
               "all elements killed by the non-negative modes; Wick products stay inside")


def test_criterion_11_spanning_lemmas():
    j0 = realize_current(0, BG1)
    for name, f in [
        ("vacuum", vacuum()),
        ("gamma(-1)|0>", generator_state(GAMMA, 1)),
        ("realized J^0", j0),
    ]:
        rep = cyclic_span_check(f, 0, BG1, 4)
        assert rep.ok, (name, rep.to_json())
    report(11, "full, length-bounded, and ordered-mode-bounded spanning sets "
               "agree per weight (cap 4) for the vacuum, gamma(-1)|0>, and J^0")


def _gl_currents_check(kind, n, top, cap):
    alg = AlgebraDescriptor(kind, n)
    gens = [realize_current(l, alg) for l in range(top + 1)]
    return span_check(gens, gl_standard(n), alg, cap, cap)


def test_criterion_12_gl2_on_beta_gamma():
    # Linshaw (arXiv:0811.4067): J^0..J^{n^2+2n-1} strongly generate the
    # GL_n-invariants of the rank-n bg system; at n = 2 the last one, J^7,
    # has weight 8 and lies outside the span of J^0..J^6; J^8 and J^9 are
    # absorbed at weights 9 and 10
    rep = _gl_currents_check("bg", 2, 7, 10)
    assert rep.ok, rep.to_json()
    assert [rep.dims[w] for w in range(11)] == [
        (d, d) for d in (1, 1, 3, 6, 13, 24, 48, 86, 160, 281, 497)
    ]
    short = _gl_currents_check("bg", 2, 6, 8)
    assert not short.ok and short.first_deficiency == (8, 2, 7, 8)
    assert short.dims[8] == (159, 160)
    report(12, "J^0..J^7 span the GL_2-invariants of bg:2 at every weight <= 10 "
               f"(dims {[rep.dims[w][1] for w in range(11)]}); J^0..J^6 fall short "
               "at weight 8, degree 2 (7 of 8)")


def test_criterion_12_gl_on_bc():
    rep = _gl_currents_check("bc", 2, 1, 8)
    assert rep.ok, rep.to_json()
    short = _gl_currents_check("bc", 2, 0, 8)
    assert not short.ok and short.first_deficiency == (2, 2, 1, 2)
    rep3 = _gl_currents_check("bc", 3, 2, 7)
    assert rep3.ok, rep3.to_json()
    report(12, "J^0, J^1 span the GL_2-invariants of bc:2 at every weight <= 8, "
               "J^0 alone falls short at weight 2, degree 2 (1 of 2); J^0..J^2 span "
               "the GL_3-invariants of bc:3 at every weight <= 7")


@pytest.mark.slow
def test_criterion_12_vacuum_module_at_n_2():
    # W_{1+inf,-2}: the vacuum module at c = -2 has its first singular
    # vector at weight (n+1)^2 = 9, it spans the projection kernel onto
    # bg:2, and J^8 is the first current to decouple (Kac-Radul, CMP 1993)
    svs = singular_vectors(Fraction(-2), 9)
    assert len(svs) == 1
    assert not project(svs[0], BG2)
    assert svs == ideal_kernel(BG2, 9)
    rel = decoupling_relation(8, BG2, 7)
    assert rel is not None and len(rel.terms) == 94
    assert verify_decoupling(rel, BG2)
    assert decoupling_relation(7, BG2, 6) is None
    report(12, "at c = -2 the weight-9 singular vector spans the projection kernel "
               "onto bg:2; J^8 decouples through J^0..J^7 (94 terms, re-verified), "
               "J^7 does not decouple through J^0..J^6")


def _mixed_currents(n, top):
    """The four GL_n-invariant currents of bcbg:n per l <= top:
    sum_i :u^i d^l v^i: for (u, v) = (gamma, beta), (c, b), (gamma, b), (c, beta)."""
    gens = []
    for l in range(top + 1):
        for u, v in ((GAMMA, BETA), (C, B), (GAMMA, B), (C, BETA)):
            gens.append(sum((iterated_wick([generator_state(u, i), derive(generator_state(v, i), l)])
                             for i in range(1, n + 1)), State()))
    return gens


def test_criterion_12_on_bcbg():
    # "the currents with l <= n - 1 suffice" is only what these probes
    # show at n = 1 (to weight 6) and n = 2 (to weight 5); it is not a
    # claim of the paper
    alg1 = AlgebraDescriptor("bcbg", 1)
    rep1 = span_check(_mixed_currents(1, 0), TorusAction(((1,),)), alg1, 6, 6)
    assert rep1.ok, rep1.to_json()
    alg2 = AlgebraDescriptor("bcbg", 2)
    rep2 = span_check(_mixed_currents(2, 1), gl_standard(2), alg2, 5, 5)
    assert rep2.ok, rep2.to_json()
    short = span_check(_mixed_currents(2, 0), gl_standard(2), alg2, 2, 2)
    assert not short.ok and short.first_deficiency == (2, 2, 4, 8)
    report(12, "the four l = 0 currents span the torus-invariants of bcbg:1 at every "
               "weight <= 6; the eight l <= 1 currents span the GL_2-invariants of bcbg:2 "
               "at every weight <= 5, and the l = 0 currents alone fall short at weight 2, "
               "degree 2 (4 of 8)")
