import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexfock.linalg import (
    SparseMatrix,
    SparseVector,
    det,
    format_scalar,
    kernel_basis,
    kernel_of_columns,
    parse_scalar,
    rank,
    rank_of_columns,
    solve,
    solve_in_span,
)


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
    assert kb[0].to_list() == [Fraction(-1), Fraction(1)] or kb[0].to_list() == [
        Fraction(1),
        Fraction(-1),
    ]
    m1 = SparseMatrix.from_rows([[-1, 2], [-1, 0]])
    assert kernel_basis(m1) == []
    assert det(m1) == 2


def test_solve_examples():
    b = SparseVector.from_list([Fraction(3), Fraction(-5)])
    assert solve(identity(2), b) == b
    m = SparseMatrix.from_rows([[1, 1], [0, 0]])
    assert solve(m, SparseVector.from_list([1, 1])) is None
    m1 = SparseMatrix.from_rows([[-1, 2], [-1, 0]])
    x = solve(m1, SparseVector.from_list([-1, -1]))
    assert x.to_list() == [Fraction(1), Fraction(0)]


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(identity(2), SparseVector.from_list([1, 2, 3]))


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
            assert m.matvec(v).entries == {}
        x0 = SparseVector(c, {j: Fraction(rng.randint(-3, 3)) for j in range(c)})
        b = m.matvec(x0)
        x = solve(m, b)
        assert x is not None
        assert m.matvec(x) == b


def test_solve_is_deterministic():
    m = SparseMatrix.from_rows([[1, 1, 0], [0, 0, 0]])
    b = SparseVector.from_list([2, 0])
    assert solve(m, b) == solve(m, b)
    # free variable pinned to zero
    assert solve(m, b).to_list() == [Fraction(2), Fraction(0), Fraction(0)]


def test_scalar_serialization():
    assert format_scalar(Fraction(3, 4)) == "3/4"
    assert format_scalar(Fraction(-5)) == "-5"
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-7") == Fraction(-7)
    a, b = Fraction(5, 3), Fraction(3, 5)
    assert a * b == 1


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
    assert relations == [v.entries for v in kernel_basis(m)]


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
