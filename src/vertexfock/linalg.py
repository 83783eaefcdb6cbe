"""Exact sparse linear algebra over the rationals.

Every computation in this package bottoms out in kernels, solves and
ranks of matrices with ``fractions.Fraction`` entries.  There is no
floating point anywhere: all results are exact, and elimination uses a
fixed pivoting order (leftmost column, earliest surviving row) so that
kernel bases and particular solutions are reproducible across runs.

Scalars serialize as ``"p/q"`` (or ``"p"`` when the denominator is 1);
matrices serialize as ``{"rows": r, "cols": c, "entries": [[i, j, "p/q"], ...]}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def scalar(x) -> Fraction:
    """Coerce an int, string or Fraction to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return parse_scalar(x)
    if isinstance(x, float):
        raise TypeError("floating point is not allowed; use Fraction or 'p/q'")
    return Fraction(x)


def format_scalar(x: Fraction) -> str:
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


@dataclass
class SparseVector:
    """Length-n vector storing only nonzero rational entries."""

    n: int
    entries: dict[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        self.entries = {i: scalar(v) for i, v in self.entries.items() if v != 0}
        for i in self.entries:
            if not 0 <= i < self.n:
                raise IndexError(f"index {i} out of range for length {self.n}")

    def __getitem__(self, i: int) -> Fraction:
        return self.entries.get(i, ZERO)

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseVector) and self.n == other.n and self.entries == other.entries

    def to_list(self) -> list[Fraction]:
        return [self.entries.get(i, ZERO) for i in range(self.n)]

    @staticmethod
    def from_list(values) -> "SparseVector":
        return SparseVector(len(values), {i: scalar(v) for i, v in enumerate(values) if v != 0})


@dataclass
class SparseMatrix:
    """rows x cols matrix storing only nonzero rational entries."""

    rows: int
    cols: int
    entries: dict[tuple[int, int], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        self.entries = {ij: scalar(v) for ij, v in self.entries.items() if v != 0}
        for i, j in self.entries:
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise IndexError(f"entry ({i},{j}) out of range for {self.rows}x{self.cols}")

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.entries.get(ij, ZERO)

    @staticmethod
    def from_rows(rows) -> "SparseMatrix":
        data = {}
        ncols = max((len(r) for r in rows), default=0)
        for i, r in enumerate(rows):
            for j, v in enumerate(r):
                if v != 0:
                    data[(i, j)] = scalar(v)
        return SparseMatrix(len(rows), ncols, data)

    def to_rows(self) -> list[list[Fraction]]:
        out = [[ZERO] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def matvec(self, x: SparseVector) -> SparseVector:
        if x.n != self.cols:
            raise ValueError(f"dimension mismatch: {self.rows}x{self.cols} times length {x.n}")
        acc: dict[int, Fraction] = {}
        for (i, j), v in self.entries.items():
            xj = x.entries.get(j)
            if xj is not None:
                add_into(acc, i, v * xj)
        return SparseVector(self.rows, acc)

    def to_json(self) -> dict:
        items = sorted(self.entries.items())
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[i, j, format_scalar(v)] for (i, j), v in items],
        }

    @staticmethod
    def from_json(obj: dict) -> "SparseMatrix":
        data = {(int(i), int(j)): parse_scalar(v) for i, j, v in obj["entries"]}
        return SparseMatrix(int(obj["rows"]), int(obj["cols"]), data)


def add_into(acc: dict, key, val) -> None:
    """acc[key] += val, dropping the key when the sum vanishes."""
    v = acc.get(key, 0) + val
    if v == 0:
        acc.pop(key, None)
    else:
        acc[key] = v


def _row_dicts(m: SparseMatrix) -> list[dict[int, Fraction]]:
    rows: list[dict[int, Fraction]] = [dict() for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    return rows


def _rref(rows: list[dict[int, Fraction]], ncols: int) -> list[tuple[int, int, Fraction]]:
    """In-place reduced row echelon form.

    Pivot selection is deterministic: for each column in ascending
    order, the first not-yet-pivotal row (in original order) with a
    nonzero entry becomes the pivot.  Returns (row, col, value) per
    pivot, the value being the entry before its row was normalized.
    """
    pivots: list[tuple[int, int, Fraction]] = []
    used = [False] * len(rows)
    for col in range(ncols):
        prow = -1
        for r in range(len(rows)):
            if not used[r] and rows[r].get(col, ZERO) != 0:
                prow = r
                break
        if prow < 0:
            continue
        used[prow] = True
        pv = rows[prow][col]
        pivots.append((prow, col, pv))
        if pv != 1:
            rows[prow] = {j: v / pv for j, v in rows[prow].items()}
        prpairs = list(rows[prow].items())
        for r in range(len(rows)):
            if r == prow:
                continue
            f = rows[r].get(col, ZERO)
            if f == 0:
                continue
            row = rows[r]
            for j, v in prpairs:
                nv = row.get(j, ZERO) - f * v
                if nv == 0:
                    row.pop(j, None)
                else:
                    row[j] = nv
    return pivots


def rank(m: SparseMatrix) -> int:
    rows = _row_dicts(m)
    return len(_rref(rows, m.cols))


def kernel_basis(m: SparseMatrix) -> list[SparseVector]:
    """Basis of the exact right null space; empty iff rank == cols.

    Each free column yields one basis vector with a 1 in that column;
    basis vectors are listed by ascending free column.
    """
    rows = _row_dicts(m)
    pivots = _rref(rows, m.cols)
    pivot_cols = {col: prow for prow, col, _ in pivots}
    basis: list[SparseVector] = []
    for free in range(m.cols):
        if free in pivot_cols:
            continue
        entries = {free: ONE}
        for col, prow in pivot_cols.items():
            v = rows[prow].get(free, ZERO)
            if v != 0:
                entries[col] = -v
        basis.append(SparseVector(m.cols, entries))
    return basis


def solve(m: SparseMatrix, b: SparseVector) -> SparseVector | None:
    """One exact solution of M x = b, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if b.n != m.rows:
        raise ValueError(f"dimension mismatch: {m.rows}x{m.cols} system, rhs length {b.n}")
    aug = m.cols  # extra column for b
    rows = _row_dicts(m)
    for i, v in b.entries.items():
        rows[i][aug] = v
    pivots = _rref(rows, m.cols + 1)
    entries: dict[int, Fraction] = {}
    for prow, col, _ in pivots:
        if col == aug:
            return None
        v = rows[prow].get(aug, ZERO)
        if v != 0:
            entries[col] = v
    return SparseVector(m.cols, entries)


def det(m: SparseMatrix) -> Fraction:
    """Exact determinant of a square matrix.

    Reduction to RREF only normalizes pivot rows and adds multiples of
    rows to others, so the determinant is the product of the pivot
    values, signed by the permutation the pivot rows form.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    pivots = _rref(_row_dicts(m), m.cols)
    if len(pivots) < m.rows:
        return ZERO
    d = ONE
    perm = []
    for prow, _, pv in pivots:
        d *= pv
        perm.append(prow)
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            d = -d
    return d


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


def kernel_of_columns(columns: list[dict]) -> list[dict[int, Fraction]]:
    """Basis of the exact linear relations among the columns, each as
    {column index: coefficient}; see ``kernel_basis`` for the order."""
    return [vec.entries for vec in kernel_basis(_column_matrix(columns)[0])]


def solve_in_span(columns: list[dict], target: dict) -> dict[int, Fraction] | None:
    """Coefficients {column index: value} expressing target in the span
    of the columns, or None if it is not in the span; see ``solve``."""
    m, index = _column_matrix(columns, sorted(set(target).union(*columns)))
    sol = solve(m, SparseVector(m.rows, {index[k]: v for k, v in target.items()}))
    return None if sol is None else sol.entries
