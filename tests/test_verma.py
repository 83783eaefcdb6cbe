from fractions import Fraction

import pytest

from vertexfock.fock import (
    BETA,
    GAMMA,
    AlgebraDescriptor,
    State,
    generator_state,
    vacuum,
    weight,
    word,
)
from vertexfock.linalg import kernel_of_columns, rank_of_columns
from vertexfock.ope import circle, wick, word_products
from vertexfock.verma import (
    VermaElement,
    act,
    cyclic_span_check,
    decoupling_relation,
    free_words,
    ideal_kernel,
    project,
    project_word,
    singular_vectors,
    vacuum_module_basis,
    verify_decoupling,
)
from vertexfock.winfinity import DOp, field_mode, realize_current

BG1 = AlgebraDescriptor("bg", 1)
BG2 = AlgebraDescriptor("bg", 2)


def test_vacuum_module_basis():
    assert vacuum_module_basis(0) == [()]
    assert vacuum_module_basis(1) == [((0, 1),)]
    assert sorted(vacuum_module_basis(2)) == sorted(
        [((0, 2),), ((1, 2),), ((0, 1), (0, 1))]
    )
    assert len(vacuum_module_basis(4)) == 13
    for word in vacuum_module_basis(5):
        assert sum(k for _, k in word) == 5
        assert all(k >= l + 1 for l, k in word)


def test_induced_action():
    c = Fraction(-1)
    v = VermaElement({((0, 1),): Fraction(1)})
    assert act(DOp.basis_element(0, 1), v, c) == VermaElement({(): c})
    # the parabolic annihilates the vacuum
    for l, k in [(0, 0), (1, -1), (2, 0), (3, 2)]:
        assert not act(DOp.basis_element(l, k), VermaElement({(): Fraction(1)}), c)
    # weight bookkeeping: a positive operator of weight 2 kills weight-2 words
    vv = VermaElement({((0, 1), (0, 1)): Fraction(1)})
    assert not act(DOp.basis_element(0, 2), vv, c)


def test_projection():
    assert project_word((), BG1) == vacuum()
    assert project_word(((0, 1),), BG1) == State(
        {word([(BETA, 1, -1), (GAMMA, 1, -1)]): Fraction(1)}
    )
    for pbw in vacuum_module_basis(3):
        s = project_word(pbw, BG1)
        if s:
            assert weight(s) == 3


def test_projection_intertwines_action():
    # acting then projecting equals projecting then acting by realized
    # modes, at the realized central charge
    ops = [(l, k) for l in range(0, 3) for k in range(-2, 3)]
    for n in (1, 2):
        alg = AlgebraDescriptor("bg", n)
        c = Fraction(-n)
        for N in range(0, 6):
            for word in vacuum_module_basis(N):
                v = VermaElement({word: Fraction(1)})
                pv = project(v, alg)
                for (l, k) in ops:
                    lhs = project(act(DOp.basis_element(l, k), v, c), alg)
                    rhs = circle(realize_current(l, alg), field_mode(l, k), pv)
                    assert lhs == rhs, (n, N, word, l, k)


def test_singular_vectors():
    assert singular_vectors(Fraction(-1), 4) != []
    for N in (1, 2, 3):
        assert singular_vectors(Fraction(-1), N) == []
        assert ideal_kernel(BG1, N) == []
    for c in (Fraction(1, 2), Fraction(3, 7)):
        assert singular_vectors(c, 4) == []


def _all_conditions_kernel(c, N, l_cap, j_cap):
    # every capped condition J^l_j at once, in one exact system
    words = vacuum_module_basis(N)
    conditions = [(l, j) for l in range(l_cap + 1) for j in range(1, j_cap + 1)]
    columns = [
        {(l, j, w2): v for l, j in conditions
         for w2, v in act(DOp.basis_element(l, j), VermaElement({w: 1}), c).terms.items()}
        for w in words
    ]
    return [VermaElement({words[i]: v for i, v in rel.items()})
            for rel in kernel_of_columns(columns)]


@pytest.mark.parametrize("c", [Fraction(-1), Fraction(-2), Fraction(1, 2), Fraction(7, 3)])
def test_singular_vectors_are_the_kernel_of_all_capped_conditions(c):
    for N in range(7):
        for l_cap, j_cap in [(None, None), (0, None), (1, None), (2, 3), (1, 1)]:
            oracle = _all_conditions_kernel(
                c, N, N + 2 if l_cap is None else l_cap, N if j_cap is None else j_cap)
            assert singular_vectors(c, N, l_cap, j_cap) == oracle, (c, N, l_cap, j_cap)


def test_singular_vectors_solve_once(monkeypatch):
    solves = []
    real = kernel_of_columns
    monkeypatch.setattr("vertexfock.linalg.kernel_of_columns",
                        lambda columns: solves.append(len(columns)) or real(columns))
    # (c, N, l_cap, dimension from j = 1 alone, dimension under every cap):
    # below l_cap 2 every capped condition is imposed, in one system
    for c, N, l_cap, dim_j1, dim in [
        (Fraction(-1), 4, 0, 7, 4), (Fraction(-1), 6, 1, 6, 3), (Fraction(1, 2), 5, 0, 11, 6),
    ]:
        assert len(singular_vectors(c, N, l_cap, 1)) == dim_j1
        solves.clear()
        assert len(singular_vectors(c, N, l_cap)) == dim
        assert len(solves) == 1, (c, N, l_cap)
    # the benchmark's weight-6 slices stay one j = 1 solve each
    for c in (Fraction(-1), Fraction(7, 3)):
        solves.clear()
        assert singular_vectors(c, 6) == []
        assert len(solves) == 1, c


def test_j_1_conditions_imply_the_others_from_l_cap_2():
    # the bracket argument of singular_vectors: from l_cap 2 on, the j = 1
    # conditions have the kernel of every capped condition; below it
    # they need not
    short = set()
    for c in (Fraction(-1), Fraction(-2), Fraction(1, 2), Fraction(7, 3), Fraction(1)):
        for N in range(1, 6):
            for l_cap in range(N + 3):
                j1 = _all_conditions_kernel(c, N, l_cap, 1)
                every = _all_conditions_kernel(c, N, l_cap, N)
                if l_cap >= 2:
                    assert j1 == every, (c, N, l_cap)
                elif j1 != every:
                    short.add((c, N, l_cap, len(j1), len(every)))
    assert (Fraction(-1), 4, 0, 7, 4) in short
    assert {l_cap for _, _, l_cap, _, _ in short} == {0, 1}


def test_singular_vector_lies_in_projection_kernel():
    svs = singular_vectors(Fraction(-1), 4)
    for sv in svs:
        assert not project(sv, BG1)
    # the capped singular span lies in the capless projection kernel
    kernel = [v.terms for v in ideal_kernel(BG1, 4)]
    assert rank_of_columns(kernel + [sv.terms for sv in svs]) == rank_of_columns(kernel)


def test_ideal_kernel():
    k4 = ideal_kernel(BG1, 4)
    assert len(k4) == 1  # frozen regression value
    assert not project(k4[0], BG1)
    # W_{1+inf,-n} has its first relation at weight (n+1)^2
    for N in range(1, 9):
        assert ideal_kernel(BG2, N) == []
    assert len(ideal_kernel(BG2, 9)) == 1


def test_ideal_kernel_refuses_bcbg_at_every_weight():
    # weight 0 projects only the empty word, which realizes no current,
    # so the algebra is checked before any word is projected
    for N in range(3):
        with pytest.raises(ValueError, match="realized in the bg or bc system only"):
            ideal_kernel(AlgebraDescriptor("bcbg", 1), N)


def test_free_words():
    words = free_words(2, 1)
    # weight 2 in J^0, J^1: dJ^0, J^1, :J^0 J^0:
    assert sorted(words) == sorted([((0, 1),), ((1, 0),), ((0, 0), (0, 0))])
    for w in free_words(5, 2):
        assert sum(b + 1 + t for b, t in w) == 5
    assert free_words(0, 1) == []


def test_decoupling():
    rel = decoupling_relation(3, BG1, 2)
    assert rel is not None
    assert verify_decoupling(rel, BG1)
    rel4 = decoupling_relation(4, BG1, 2)
    assert rel4 is not None
    assert verify_decoupling(rel4, BG1)
    assert decoupling_relation(2, BG1, 1) is None
    with pytest.raises(ValueError):
        decoupling_relation(3, BG1, 3)


def test_strong_generation_monotone():
    # spans of current words grow with the generator bound and saturate
    # the invariant dimension once every generator is available
    from vertexfock.fock import basis, mono_charge

    for w in range(1, 5):
        dims = []
        for g in range(0, 3):
            currents = [realize_current(b, BG1) for b in range(g + 1)]
            cols = [s.terms for s in word_products(currents, free_words(w, g))]
            dims.append(rank_of_columns([c for c in cols if c]))
        assert dims == sorted(dims)
        full = sum(
            1
            for d in range(0, 2 * w + 1)
            for m in basis(BG1, w, d)
            if mono_charge(m, 1) == (0,)
        )
        assert dims[-1] == full, (w, dims, full)


def test_cyclic_span_check():
    j0 = realize_current(0, BG1)
    for f in (vacuum(), generator_state(GAMMA, 1), j0):
        rep = cyclic_span_check(f, 0, BG1, 4)
        assert rep.ok, rep.to_json()
    rep = cyclic_span_check(vacuum(), 0, BG1, 3)
    assert rep.dims_full == {0: 1}


def test_cyclic_span_ordered_never_exceeds_full():
    j0 = realize_current(0, BG1)
    rep = cyclic_span_check(j0, 0, BG1, 4)
    for w in rep.dims_full:
        assert rep.dims_ordered.get(w, 0) <= rep.dims_full[w]


def test_decoupling_reverification_sees_a_wrong_coefficient():
    rel = decoupling_relation(3, BG1, 2)
    (w0, c0), *rest = rel.terms
    wrong = type(rel)(rel.target, rel.weight, [(w0, c0 + 1)] + rest)
    assert not verify_decoupling(wrong, BG1)


def test_bc_vacuum_module_facts():
    # the bc realization at central charge +n, where J^0..J^{n-1}
    # generate W_{1+inf,+n}: the projection kernel starts at weight n+1
    # and J^n decouples through J^0..J^{n-1}
    for n in (1, 2):
        bc = AlgebraDescriptor("bc", n)
        for N in range(n + 1):
            assert ideal_kernel(bc, N) == []
        assert len(ideal_kernel(bc, n + 1)) == 1
        rel = decoupling_relation(n, bc, n - 1)
        assert rel is not None and verify_decoupling(rel, bc)
    # J^1 = 1/2 dJ^0 - 1/2 :J^0 J^0: at n = 1
    assert decoupling_relation(1, AlgebraDescriptor("bc", 1), 0).terms == [
        (((0, 1),), Fraction(1, 2)), (((0, 0), (0, 0)), Fraction(-1, 2)),
    ]
    assert decoupling_relation(1, AlgebraDescriptor("bc", 2), 0) is None


def test_cyclic_spans_are_exact():
    # the full, length-bounded and ordered spans, weight by weight
    gb = wick(generator_state(GAMMA, 1), generator_state(BETA, 1))
    cases = []
    for symbol_cap, cap in ((0, 5), (1, 4)):
        ramp = {w: w + 1 for w in range(cap + 1)}
        cases += [
            (vacuum(), BG1, symbol_cap, cap, {0: 1}),
            (generator_state(GAMMA, 1), BG1, symbol_cap, cap, dict.fromkeys(range(cap + 1), 1)),
            (realize_current(0, BG1), BG1, symbol_cap, cap, ramp),
            (realize_current(1, BG1), BG1, symbol_cap, cap, ramp),
            (gb, BG1, symbol_cap, cap, ramp),
        ]
    for alg in (AlgebraDescriptor("bc", 1), BG2):
        for l in (0, 1):
            cases.append((realize_current(l, alg), alg, 0, 4, {w: w + 1 for w in range(5)}))
    for f, alg, symbol_cap, cap, dims in cases:
        rep = cyclic_span_check(f, symbol_cap, alg, cap)
        assert (rep.dims_full, rep.dims_short, rep.dims_ordered) == (dims, dims, dims), (f, alg)
