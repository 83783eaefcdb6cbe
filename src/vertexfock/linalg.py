"""Exact sparse linear algebra over the rationals.

Every computation in this package bottoms out in kernels, solves and
ranks of matrices with exact rational entries, stored integer-first
(see ``scalar``).  There is no floating point anywhere: all results are
exact, and elimination uses a fixed pivoting order (leftmost column,
earliest surviving row) so that kernel bases and particular solutions
are reproducible across runs.  Vectors are ``{index: scalar}`` dicts
without zeros; ``Combination`` is the base of the package's other
sparse combinations (Fock states, vacuum-module elements).

Scalars serialize as ``"p/q"`` (or ``"p"`` when the denominator is 1);
matrices serialize as ``{"rows": r, "cols": c, "entries": [[i, j, "p/q"], ...]}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

Scalar = int | Fraction


def scalar(x) -> Scalar:
    """The one coercion to an exact coefficient, integer-first: an int
    stays an int, an integral Fraction becomes its numerator, any other
    Fraction stays; strings parse, and anything else (floats included)
    is rejected.  Int arithmetic is several times faster than Fraction
    arithmetic, and the free-field structure constants are integers."""
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        x = parse_scalar(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"not an exact scalar: {x!r}")


def format_scalar(x: Scalar) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_scalar(s: str) -> Fraction:
    s = s.strip()
    if "/" in s:
        p, q = s.split("/", 1)
        return Fraction(int(p), int(q))
    return Fraction(int(s))


def exact_terms(terms) -> dict:
    """A copy of the key -> value dict with every value passed through
    ``scalar`` and the zeros dropped."""
    out = {}
    for k, c in (terms or {}).items():
        c = scalar(c)
        if c != 0:
            out[k] = c
    return out


class Combination:
    """Finite exact linear combination: ``terms`` maps each key to a
    nonzero scalar.  Immutable by convention: never mutate ``terms``
    after construction.  Supports +, -, negation and ``scalar * x``,
    whose results are integer-first like the inputs (see ``scalar``)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict = exact_terms(terms)

    @classmethod
    def _raw(cls, terms: dict):
        """Internal fast path: terms must already be in final form and
        zero-free."""
        x = object.__new__(cls)
        x.terms = terms
        return x

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.terms == other.terms

    def __add__(self, other):
        acc = dict(self.terms)
        for k, c in other.terms.items():
            add_into(acc, k, c)
        # a sum of Fractions may be integral
        return self._raw({k: scalar(v) for k, v in acc.items()})

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, c):
        c = scalar(c)
        if c == 0:
            return self._raw({})
        return self._raw({k: scalar(c * v) for k, v in self.terms.items()})


@dataclass
class SparseMatrix:
    """rows x cols matrix storing only nonzero rational entries."""

    rows: int
    cols: int
    entries: dict[tuple[int, int], Scalar] = field(default_factory=dict)

    def __post_init__(self):
        self.entries = exact_terms(self.entries)
        for i, j in self.entries:
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise IndexError(f"entry ({i},{j}) out of range for {self.rows}x{self.cols}")

    def __getitem__(self, ij: tuple[int, int]) -> Scalar:
        return self.entries.get(ij, 0)

    @staticmethod
    def from_rows(rows) -> "SparseMatrix":
        data = {(i, j): v for i, r in enumerate(rows) for j, v in enumerate(r)}
        return SparseMatrix(len(rows), max((len(r) for r in rows), default=0), data)

    def to_rows(self) -> list[list[Scalar]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def matvec(self, x: dict[int, Scalar]) -> dict[int, Scalar]:
        if any(not 0 <= j < self.cols for j in x):
            raise ValueError(f"dimension mismatch: vector index outside 0..{self.cols - 1}")
        acc: dict[int, Scalar] = {}
        for (i, j), v in self.entries.items():
            xj = x.get(j)
            if xj is not None:
                add_into(acc, i, v * xj)
        return acc

    def to_json(self) -> dict:
        items = sorted(self.entries.items())
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[i, j, format_scalar(v)] for (i, j), v in items],
        }

    @staticmethod
    def from_json(obj: dict) -> "SparseMatrix":
        data = {(int(i), int(j)): v for i, j, v in obj["entries"]}
        return SparseMatrix(int(obj["rows"]), int(obj["cols"]), data)


def add_into(acc: dict, key, val) -> None:
    """acc[key] += val, dropping the key when the sum vanishes."""
    v = acc.get(key, 0) + val
    if v == 0:
        acc.pop(key, None)
    else:
        acc[key] = v


def _row_dicts(m: SparseMatrix) -> list[dict[int, Scalar]]:
    rows: list[dict[int, Scalar]] = [dict() for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    return rows


def _rref(rows: list[dict[int, Scalar]], ncols: int) -> list[tuple[int, int, Scalar]]:
    """In-place reduced row echelon form.

    Pivot selection is deterministic: for each column in ascending
    order, the first not-yet-pivotal row (in original order) with a
    nonzero entry becomes the pivot.  Returns (row, col, value) per
    pivot, the value being the entry before its row was normalized.
    Normalization negates a row with pivot -1, so integer rows stay
    integer, and otherwise divides by the pivot as a Fraction, since
    int / int would be a float.
    """
    pivots: list[tuple[int, int, Scalar]] = []
    used = [False] * len(rows)
    for col in range(ncols):
        prow = -1
        for r in range(len(rows)):
            if not used[r] and rows[r].get(col, 0) != 0:
                prow = r
                break
        if prow < 0:
            continue
        used[prow] = True
        pv = rows[prow][col]
        pivots.append((prow, col, pv))
        if pv == -1:
            rows[prow] = {j: -v for j, v in rows[prow].items()}
        elif pv != 1:
            d = Fraction(pv)
            rows[prow] = {j: v / d for j, v in rows[prow].items()}
        prpairs = list(rows[prow].items())
        for r in range(len(rows)):
            if r == prow:
                continue
            f = rows[r].get(col, 0)
            if f == 0:
                continue
            row = rows[r]
            for j, v in prpairs:
                nv = row.get(j, 0) - f * v
                if nv == 0:
                    row.pop(j, None)
                else:
                    row[j] = nv
    return pivots


def rank(m: SparseMatrix) -> int:
    rows = _row_dicts(m)
    return len(_rref(rows, m.cols))


def kernel_basis(m: SparseMatrix) -> list[dict[int, Scalar]]:
    """Basis of the exact right null space; empty iff rank == cols.

    Each free column yields one basis vector with a 1 in that column;
    basis vectors are listed by ascending free column.
    """
    rows = _row_dicts(m)
    pivots = _rref(rows, m.cols)
    pivot_cols = {col: prow for prow, col, _ in pivots}
    basis: list[dict[int, Scalar]] = []
    for free in range(m.cols):
        if free in pivot_cols:
            continue
        vec = {free: 1}
        for col, prow in pivot_cols.items():
            v = rows[prow].get(free, 0)
            if v != 0:
                vec[col] = scalar(-v)
        basis.append(vec)
    return basis


def solve(m: SparseMatrix, b: dict[int, Scalar]) -> dict[int, Scalar] | None:
    """One exact solution of M x = b, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if any(not 0 <= i < m.rows for i in b):
        raise ValueError(f"dimension mismatch: rhs index outside 0..{m.rows - 1}")
    aug = m.cols  # extra column for b
    rows = _row_dicts(m)
    for i, v in b.items():
        v = scalar(v)
        if v != 0:
            rows[i][aug] = v
    pivots = _rref(rows, m.cols + 1)
    x: dict[int, Scalar] = {}
    for prow, col, _ in pivots:
        if col == aug:
            return None
        v = rows[prow].get(aug, 0)
        if v != 0:
            x[col] = scalar(v)
    return x


def det(m: SparseMatrix) -> Scalar:
    """Exact determinant of a square matrix.

    Reduction to RREF only normalizes pivot rows and adds multiples of
    rows to others, so the determinant is the product of the pivot
    values, signed by the permutation the pivot rows form.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    pivots = _rref(_row_dicts(m), m.cols)
    if len(pivots) < m.rows:
        return 0
    d = 1
    perm = []
    for prow, _, pv in pivots:
        d *= pv
        perm.append(prow)
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            d = -d
    return scalar(d)


def _column_matrix(columns: list[dict], keys: list | None = None) -> tuple[SparseMatrix, dict]:
    """The matrix with the given key->value dicts as columns, one row per
    key (default: every key, sorted), and the row index of each key."""
    if keys is None:
        keys = sorted(set().union(*columns))
    index = {k: i for i, k in enumerate(keys)}
    entries = {(index[k], j): v for j, c in enumerate(columns) for k, v in c.items()}
    return SparseMatrix(max(len(keys), 1), len(columns), entries), index


def rank_of_columns(columns: list[dict]) -> int:
    """Rank of a list of vectors given as key->value dicts."""
    return rank(_column_matrix(columns)[0])


def kernel_of_columns(columns: list[dict]) -> list[dict[int, Scalar]]:
    """Basis of the exact linear relations among the columns, each as
    {column index: coefficient}; see ``kernel_basis`` for the order."""
    return kernel_basis(_column_matrix(columns)[0])


def solve_in_span(columns: list[dict], target: dict) -> dict[int, Scalar] | None:
    """Coefficients {column index: value} expressing target in the span
    of the columns, or None if it is not in the span; see ``solve``."""
    m, index = _column_matrix(columns, sorted(set(target).union(*columns)))
    return solve(m, {index[k]: v for k, v in target.items()})
