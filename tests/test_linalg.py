import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexfock.linalg import (
    SparseMatrix,
    _rref,
    det,
    format_scalar,
    kernel_basis,
    kernel_of_columns,
    parse_scalar,
    pivot_keys,
    rank,
    rank_of_columns,
    solve,
    solve_in_span,
)
from vertexfock.verma import VermaElement
from vertexfock.winfinity import DOp


def identity(n):
    return SparseMatrix(n, n, {(i, i): Fraction(1) for i in range(n)})


def test_rank_examples():
    assert rank(identity(2)) == 2
    assert rank(SparseMatrix(3, 3, {})) == 0
    # rising-product matrix at r=1, m=1
    t = SparseMatrix.from_rows([[1, 2], [1, 3]])
    assert rank(t) == 2
    assert det(t) == 1


def test_kernel_examples():
    assert kernel_basis(identity(2)) == []
    kb = kernel_basis(SparseMatrix.from_rows([[1, 1]]))
    assert len(kb) == 1
    assert kb[0] == {0: Fraction(-1), 1: Fraction(1)} or kb[0] == {
        0: Fraction(1),
        1: Fraction(-1),
    }
    m1 = SparseMatrix.from_rows([[-1, 2], [-1, 0]])
    assert kernel_basis(m1) == []
    assert det(m1) == 2


def test_solve_examples():
    b = {0: Fraction(3), 1: Fraction(-5)}
    assert solve(identity(2), b) == b
    m = SparseMatrix.from_rows([[1, 1], [0, 0]])
    assert solve(m, {0: 1, 1: 1}) is None
    m1 = SparseMatrix.from_rows([[-1, 2], [-1, 0]])
    x = solve(m1, {0: -1, 1: -1})
    assert x == {0: Fraction(1)}


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(identity(2), {0: 1, 1: 2, 2: 3})


def test_random_solve_and_rank_nullity(seed=3):
    rng = random.Random(seed)
    for _ in range(25):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        entries = {}
        for i in range(r):
            for j in range(c):
                if rng.random() < 0.5:
                    entries[(i, j)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        m = SparseMatrix(r, c, entries)
        assert rank(m) + len(kernel_basis(m)) == c
        for v in kernel_basis(m):
            assert m.matvec(v) == {}
        x0 = {j: Fraction(rng.randint(-3, 3)) for j in range(c)}
        b = m.matvec(x0)
        x = solve(m, b)
        assert x is not None
        assert m.matvec(x) == b


def test_solve_is_deterministic():
    m = SparseMatrix.from_rows([[1, 1, 0], [0, 0, 0]])
    b = {0: 2}
    assert solve(m, b) == solve(m, b)
    # free variable pinned to zero
    assert solve(m, b) == {0: Fraction(2)}


def test_scalar_serialization():
    assert format_scalar(Fraction(3, 4)) == "3/4"
    assert format_scalar(Fraction(-5)) == "-5"
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-7") == Fraction(-7)
    a, b = Fraction(5, 3), Fraction(3, 5)
    assert a * b == 1


def test_zero_given_as_text_is_dropped():
    m = SparseMatrix(1, 2, {(0, 0): "0", (0, 1): "2/4"})
    assert m.entries == {(0, 1): Fraction(1, 2)}
    assert m.to_json()["entries"] == [[0, 1, "1/2"]]
    assert DOp({(1, 0): "0/3", (0, 1): "4/2"}).terms == {(0, 1): 2}
    assert VermaElement({(): "0", ((0, 1),): 1}).terms == {((0, 1),): 1}


def test_minus_one_pivot_row_stays_int():
    rows = [{0: -1, 1: 3, 2: -2}, {0: 2, 1: -5, 2: 1}]
    assert _rref(rows, 3) == [(0, 0), (1, 1)]
    assert rows == [{0: 1, 2: -7}, {1: 1, 2: -3}]
    assert all(type(v) is int for row in rows for v in row.values())


def test_matrix_json_roundtrip():
    m = SparseMatrix(2, 3, {(0, 1): Fraction(1, 2), (1, 2): Fraction(-3)})
    obj = m.to_json()
    assert obj == {"rows": 2, "cols": 3, "entries": [[0, 1, "1/2"], [1, 2, "-3"]]}
    assert SparseMatrix.from_json(obj) == m


# columns are key -> value dicts over a few small keys
small_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
column_lists = st.lists(
    st.dictionaries(st.sampled_from("abcde"), small_fractions, max_size=5), max_size=6
)


def combine(columns, coeffs) -> dict:
    """sum_j coeffs[j] * columns[j], without zero entries."""
    acc = {}
    for j, c in coeffs.items():
        for k, v in columns[j].items():
            acc[k] = acc.get(k, 0) + c * v
    return {k: v for k, v in acc.items() if v != 0}


@settings(deadline=None)
@given(column_lists)
def test_kernel_of_columns_properties(columns):
    relations = kernel_of_columns(columns)
    for rel in relations:
        assert rel and combine(columns, rel) == {}
    assert len(relations) == len(columns) - rank_of_columns(columns)
    # the kernel does not depend on the row order
    keys = sorted(set().union(*columns), reverse=True)
    entries = {(i, j): c[k] for j, c in enumerate(columns) for i, k in enumerate(keys) if k in c}
    m = SparseMatrix(max(len(keys), 1), len(columns), entries)
    assert relations == kernel_basis(m)


@settings(deadline=None)
@given(column_lists, st.lists(st.integers(-2, 2), max_size=6))
def test_solve_in_span_reproduces_target(columns, coeffs):
    target = combine(columns, dict(enumerate(coeffs[: len(columns)])))
    sol = solve_in_span(columns, target)
    assert sol is not None and combine(columns, sol) == target
    # a key that no column has is out of the span
    assert solve_in_span(columns, {**target, "z": Fraction(1)}) is None


def leibniz(rows) -> int:
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


@settings(deadline=None)
@given(st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_det_matches_leibniz(rows):
    m = SparseMatrix(len(rows), len(rows), {
        (i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)
    })
    assert det(m) == leibniz(rows)


int_column_lists = st.lists(
    st.dictionaries(st.sampled_from("abcde"), st.integers(-3, 3), max_size=5), max_size=6
)


def exact_and_same(got, want) -> bool:
    """got has only int/Fraction values, equal to want entry by entry."""
    if isinstance(got, dict):
        return got == want and all(type(v) in (int, Fraction) for v in got.values())
    return got == want and type(got) in (int, Fraction)


@settings(deadline=None)
@given(int_column_lists, st.lists(st.integers(-2, 2), max_size=6),
       st.lists(st.integers(-4, 4), min_size=16, max_size=16), st.integers(0, 4))
def test_int_input_gives_exact_results(columns, coeffs, square, n):
    # the same problems given as Fractions: elimination must not turn
    # an int quotient into a float
    frac_columns = [{k: Fraction(v) for k, v in c.items()} for c in columns]
    want = kernel_of_columns(frac_columns)
    got = kernel_of_columns(columns)
    assert len(got) == len(want) and all(exact_and_same(g, w) for g, w in zip(got, want))
    target = combine(columns, dict(enumerate(coeffs[: len(columns)])))
    want = solve_in_span(frac_columns, {k: Fraction(v) for k, v in target.items()})
    assert exact_and_same(solve_in_span(columns, target), want)
    rows = [square[i * n:(i + 1) * n] for i in range(n)]
    m = SparseMatrix(n, n, {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)})
    frac_m = SparseMatrix(n, n, {ij: Fraction(v) for ij, v in m.entries.items()})
    assert exact_and_same(det(m), det(frac_m))


# sympy is a test-only oracle: the package itself is stdlib only
# (test_fock.py::test_the_package_imports_only_the_standard_library)
exact_values = st.one_of(st.integers(-9, 9),
                         st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


@st.composite
def exact_matrices(draw, n=None):
    """Row lists of sparse int or mixed-denominator rational matrices,
    n x n if n is given, else up to 12 x 6, tall ones included; with a
    row that combines two others, the matrix is rank-deficient."""
    nrows = n or draw(st.integers(1, 12))
    ncols = n or draw(st.integers(1, 6))
    values = draw(st.sampled_from([st.integers(-9, 9), exact_values]))
    cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
    entries = draw(st.dictionaries(cells, values, max_size=nrows * ncols))
    rows = [[entries.get((i, j), 0) for j in range(ncols)] for i in range(nrows)]
    if nrows >= 3 and draw(st.booleans()):
        a, b = draw(values), draw(values)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


@st.composite
def tall_sparse_matrices(draw):
    """Row lists of tall sparse matrices, up to 40 x 10 at density at
    most 0.2, with up to five rows replaced by combinations of the two
    rows above them: elimination fills rows in and cancels them out."""
    nrows, ncols = draw(st.integers(11, 40)), draw(st.integers(1, 10))
    values = draw(st.sampled_from([st.integers(-9, 9), exact_values]))
    cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
    entries = draw(st.dictionaries(cells, values, max_size=nrows * ncols // 5))
    rows = [[entries.get((i, j), 0) for j in range(ncols)] for i in range(nrows)]
    for i in draw(st.lists(st.integers(2, nrows - 1), max_size=5)):
        a, b = draw(values), draw(values)
        rows[i] = [a * x + b * y for x, y in zip(rows[i - 1], rows[i - 2])]
    return rows


@st.composite
def interleaved_block_matrices(draw):
    """Row lists of wide matrices, 15 to 30 columns, that are 2 to 4
    independent blocks with interleaved rows and columns, as the Lie
    systems are.  A block is full, so the blocks' pivots alternate and
    each later pivot column is held by every earlier pivot row of its
    block: back-substitution runs a long chain through each block."""
    nblocks, ncols = draw(st.integers(2, 4)), draw(st.integers(15, 30))
    nrows = draw(st.integers(12, 24))
    col_block = draw(st.permutations([j % nblocks for j in range(ncols)]))
    cells = [(i, j) for i in range(nrows) for j in range(ncols) if i % nblocks == col_block[j]]
    nonzero = st.sampled_from([x for x in range(-9, 10) if x])
    values = draw(st.sampled_from([nonzero, st.builds(Fraction, nonzero, st.integers(1, 6))]))
    entries = dict(zip(cells, draw(st.lists(values, min_size=len(cells), max_size=len(cells)))))
    return [[entries.get((i, j), 0) for j in range(ncols)] for i in range(nrows)]


def from_sympy(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def integer_first(values) -> bool:
    return all(type(v) is int or (type(v) is Fraction and v.denominator != 1) for v in values)


@pytest.mark.slow
@settings(deadline=None, max_examples=150)
@given(st.one_of(exact_matrices(), st.integers(1, 5).flatmap(exact_matrices),
                 tall_sparse_matrices(), interleaved_block_matrices()), st.data())
def test_elimination_matches_sympy(rows, data):
    sympy = pytest.importorskip("sympy")
    m = SparseMatrix.from_rows(rows)
    sm = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows])
    assert rank(m) == sm.rank()
    want = [{j: from_sympy(x) for j, x in enumerate(v) if x != 0} for v in sm.nullspace()]
    got = kernel_basis(m)
    assert got == want and all(integer_first(v.values()) for v in got)
    b = data.draw(st.dictionaries(st.integers(0, m.rows - 1), exact_values))
    aug, pivot_cols = sm.row_join(sympy.Matrix([b.get(i, 0) for i in range(m.rows)])).rref()
    got = solve(m, b)
    if m.cols in pivot_cols:
        assert got is None
    else:
        want = {j: from_sympy(aug[k, m.cols])
                for k, j in enumerate(pivot_cols) if aug[k, m.cols] != 0}
        assert got == want and integer_first(got.values())
    if m.rows == m.cols:
        d = det(m)
        assert d == from_sympy(sm.det()) and integer_first([d])
    # the pivot readout under a drawn column order is the leftmost
    # independent columns, the pivots of sympy's RREF of the reordered
    # matrix, so those among the first c number the rank of those columns
    order = data.draw(st.permutations(range(m.cols)))
    got = pivot_keys([{j: v for j, v in enumerate(row) if v} for row in rows], order)
    every_row = list(range(m.rows))
    assert got == [order[k] for k in sm.extract(every_row, order).rref()[1]]
    c = data.draw(st.integers(1, m.cols))
    assert len(set(got) & set(order[:c])) == sm.extract(every_row, order[:c]).rank()
    columns = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(m.cols)]
    assert rank_of_columns(columns) == sm.rank()


@settings(deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(exact_matrices(n), exact_matrices(n))))
def test_det_is_multiplicative(pair):
    a, b = pair
    n = len(a)
    ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    det_a, det_b, det_ab = (det(SparseMatrix.from_rows(x)) for x in (a, b, ab))
    assert det_ab == det_a * det_b
