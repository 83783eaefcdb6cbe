"""Exact sparse linear algebra over the rationals.

Every computation in this package bottoms out in kernels, solves and
ranks of matrices with exact rational entries, stored integer-first
(see ``scalar``).  There is no floating point anywhere: all results are
exact, and elimination uses a fixed pivoting order (leftmost column,
earliest surviving row) so that kernel bases and particular solutions
are reproducible across runs.  Elimination runs on integer rows kept
primitive (each divided by the gcd of its entries) and makes a
``Fraction`` only when it divides each pivot row by its pivot at the
end: int arithmetic is several times faster than Fraction arithmetic,
and the rows it holds are nonzero multiples of the rows elimination
over the rationals would hold, so the answers are the same.  A rank
takes the forward elimination alone, and ``pivot_keys`` reads from one
elimination of vectors as rows the rank of every leading block of
columns; kernels and solves back-substitute to the reduced row echelon
form.  A determinant has its own fraction-free (Bareiss) elimination.
Vectors are ``{index: scalar}`` dicts without zeros; ``Combination``
is the base of the package's other sparse combinations (Fock states,
vacuum-module elements).

Scalars serialize as ``"p/q"`` (or ``"p"`` when the denominator is 1);
matrices serialize as ``{"rows": r, "cols": c, "entries": [[i, j, "p/q"], ...]}``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Scalar = int | Fraction


class Record:
    """Base of the package's plain data classes.  The fields are the
    class's ``__slots__``, given in that order or by name; after they
    are set, ``__post_init__`` checks or normalises them.  Two instances
    of one class are equal when their fields are, so a ``Record`` is
    unhashable; a ``Frozen`` one hashes by its fields."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) + len(kwargs) != len(names) or not set(kwargs) <= set(names[len(args):]):
            raise TypeError(f"{type(self).__name__} takes each of the fields {names} once")
        for name, value in (*zip(names, args), *kwargs.items()):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    """A ``Record`` whose fields cannot be assigned once it is built
    (``__post_init__`` sets a normalised one with ``object.__setattr__``)."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash(self._values())


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


class SparseMatrix(Record):
    """rows x cols matrix storing only nonzero rational entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict[tuple[int, int], Scalar] | None = None):
        self.rows, self.cols = rows, cols
        self.entries = exact_terms(entries)
        for i, j in self.entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i},{j}) out of range for {rows}x{cols}")

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


def _clear(rows, prow: int, col: int, targets) -> None:
    """Clear column col from each target row with pivot row prow, whose
    pivot is positive.  A target row with entry f in col becomes
    (pv/g) row - (f/g) pivot row, where pv is the pivot and
    g = gcd(pv, f), and is divided by its content."""
    pv = rows[prow][col]
    prpairs = list(rows[prow].items())
    for r in targets:
        row = rows[r]
        f = row[col]
        g = gcd(pv, f)
        a, b = pv // g, f // g
        if a != 1:
            row = {j: a * v for j, v in row.items()}
        for j, v in prpairs:
            nv = row.get(j, 0) - b * v
            if nv:
                row[j] = nv
            else:
                del row[j]
        c = gcd(*row.values()) or 1
        if c != 1:
            row = {j: v // c for j, v in row.items()}
        rows[r] = row


def _echelon(rows: list[dict[int, Scalar]], ncols: int) -> list[tuple[int, int]]:
    """In-place forward elimination; returns (row, col) per pivot.

    Pivot selection is deterministic: for each column in ascending
    order, the first not-yet-pivotal row (in original order) with a
    nonzero entry becomes the pivot, and the column is cleared from
    every other not-yet-pivotal row.  Afterwards every row that is not
    a pivot row is empty.

    The elimination is fraction-free.  Each row is first scaled to
    primitive integers: cleared of denominators and divided by its
    content, the gcd of its entries.  A pivot row is negated if its
    pivot is negative, and each row is cleared with ``_clear``, which
    keeps it primitive.  Every row thus stays a nonzero multiple of the
    row that elimination over the rationals would hold, so the pivots
    are the same.

    ``where`` holds, per column not yet visited, a superset of the rows
    with an entry in it, so no column scans every row.  It is built from
    the input; a cleared row can fill in only where the pivot row has
    entries (none left of the pivot), so those columns get the cleared
    rows.  Each lookup checks the row itself; a visited column is dropped.
    """
    where: list[set[int] | None] = [set() for _ in range(ncols)]
    for r, row in enumerate(rows):
        den = lcm(*[v.denominator for v in row.values()])
        row = {j: v.numerator * (den // v.denominator) for j, v in row.items() if v}
        c = gcd(*row.values()) or 1
        if c != 1:
            row = {j: v // c for j, v in row.items()}
        rows[r] = row
        for j in row:
            where[j].add(r)
    pivots: list[tuple[int, int]] = []
    used = [False] * len(rows)
    for col in range(ncols):
        hits = [r for r in where[col] if not used[r] and col in rows[r]]
        if hits:
            prow = min(hits)
            used[prow] = True
            pivots.append((prow, col))
            if rows[prow][col] < 0:
                rows[prow] = {j: -v for j, v in rows[prow].items()}
            hits.remove(prow)
            _clear(rows, prow, col, hits)
            for j in rows[prow]:
                where[j].update(hits)
        where[col] = None
    return pivots


def _rref(rows: list[dict[int, Scalar]], ncols: int) -> list[tuple[int, int]]:
    """In-place reduced row echelon form; returns (row, col) per pivot.

    ``_echelon`` eliminates forward.  Back-substitution then clears each
    pivot column, last pivot first, from the earlier pivot rows that
    hold it, with the same fraction-free ``_clear``: the other rows are
    empty, and a later pivot row has no entry left of its own pivot.
    For the same reason no clear fills in a pivot column, so the rows
    that hold each pivot column are listed in one pass before any clear.
    Only at the end is each pivot row divided by its pivot, giving ints
    where the quotient is integral and Fractions elsewhere.  The
    reduced form is unique, so the result is the one Gauss-Jordan over
    the rationals gives.
    """
    pivots = _echelon(rows, ncols)
    holders: dict[int, list[int]] = {col: [] for _, col in pivots}
    for prow, col in pivots:
        for c in rows[prow]:
            if c != col and c in holders:
                holders[c].append(prow)
    for prow, col in reversed(pivots):
        _clear(rows, prow, col, holders[col])
    for prow, col in pivots:
        row = rows[prow]
        pv = row[col]
        if pv != 1:
            rows[prow] = {j: scalar(Fraction(v, pv)) for j, v in row.items()}
    return pivots


def rank(m: SparseMatrix) -> int:
    """Rank by forward elimination alone: no back-substitution and no
    division into Fractions."""
    return len(_echelon(_row_dicts(m), m.cols))


def kernel_basis(m: SparseMatrix) -> list[dict[int, Scalar]]:
    """Basis of the exact right null space; empty iff rank == cols.

    Each free column yields one basis vector with a 1 in that column;
    basis vectors are listed by ascending free column.  The RREF's
    pivot rows hold no pivot column but their own, so one read of each
    pivot row fills in every vector's pivot entries.
    """
    rows = _row_dicts(m)
    pivots = _rref(rows, m.cols)
    pivot_cols = {col for _, col in pivots}
    basis = {free: {free: 1} for free in range(m.cols) if free not in pivot_cols}
    for prow, col in pivots:
        for j, v in rows[prow].items():
            if j != col:
                basis[j][col] = -v
    return list(basis.values())


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
    for prow, col in pivots:
        if col == aug:
            return None
        v = rows[prow].get(aug, 0)
        if v != 0:
            x[col] = v
    return x


def det(m: SparseMatrix) -> Scalar:
    """Exact determinant of a square matrix, by fraction-free (Bareiss)
    elimination.

    Each row is first multiplied by the common denominator of its
    entries.  Step k takes as pivot the first row at or below k with an
    entry in column k (a swap negates the determinant), and replaces
    every entry (i, j) below and right of it by (pivot * a_ij - a_ik *
    a_kj) / (the previous pivot), an exact integer division (Sylvester's
    identity); the last pivot is the determinant of the scaled rows.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    rows = []
    den = 1
    for row in _row_dicts(m):
        d = lcm(*[v.denominator for v in row.values()])
        den *= d
        rows.append({j: v.numerator * (d // v.denominator) for j, v in row.items()})
    sign, prev = 1, 1
    for k in range(m.rows):
        p = next((r for r in range(k, m.rows) if k in rows[r]), None)
        if p is None:
            return 0
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        pivot_row = rows[k]
        pv = pivot_row[k]
        for r in range(k + 1, m.rows):
            f = rows[r].pop(k, 0)
            row = {j: pv * v for j, v in rows[r].items()}
            if f:
                for j, v in pivot_row.items():
                    if j != k:
                        row[j] = row.get(j, 0) - f * v
            rows[r] = {j: v // prev for j, v in row.items() if v}
        prev = pv
    return scalar(Fraction(sign * prev, den))


def _column_matrix(columns: list[dict], keys: list | None = None) -> tuple[SparseMatrix, dict]:
    """The matrix with the given key->value dicts as columns, one row per
    key (default: every key, sorted), and the row index of each key."""
    if keys is None:
        keys = sorted(set().union(*columns))
    index = {k: i for i, k in enumerate(keys)}
    entries = {(index[k], j): v for j, c in enumerate(columns) for k, v in c.items()}
    return SparseMatrix(max(len(keys), 1), len(columns), entries), index


def pivot_keys(vectors: list[dict], keys: list) -> list:
    """The keys of the pivot columns of the key->value dicts eliminated
    as rows, with the keys (all of them) as columns in the given order:
    those among the first c keys number the rank of those columns."""
    col = {k: j for j, k in enumerate(keys)}
    rows = [{col[k]: v for k, v in x.items()} for x in vectors]
    return [keys[j] for _, j in _echelon(rows, len(keys))]


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
