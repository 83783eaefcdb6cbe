"""Invariant subalgebras and commutants of the free-field algebras.

Three kinds of group data act on the rank-n algebra through its index
space:

  * TorusAction: an m x n integer charge matrix; a monomial is
    invariant iff its diagonal charge vector is killed by the matrix.
  * FiniteAbelianAction: diagonal characters with orders; invariance
    is a congruence on the charge vector.
  * LieAlgebraAction: a list of n x n rational matrices acting on the
    index space; a matrix X acts as the zero mode of the current
    J_X = -sum_{a,b} X_ba (:gamma^a beta^b: + :c^a b^b:), a derivation
    (vector species transform by X, covector species by -X^T) applied
    by the mode kernel ``ope.current_mode``.

Every action, and the torus behind a commutant, has one shape
(``_split``): a charge test on the monomials and a list of modes.  A
torus or finite group is all test.  A diagonal matrix multiplies a
monomial by a linear form in its charge vector, so it is a test too,
and the other matrices give their zero modes.  Invariant bases, the
kernel route of the dimension tables and commutants keep the monomials
that pass the test, then take one exact kernel, or rank, of their
images under the modes (``_mode_kernel``).

Dimension tables are computed twice, on states and on the graded
symbols, through separate code paths; the two must agree entrywise.
For tori, finite abelian groups and the standard Lie actions
(``sl2_standard()``, ``gl_standard(n)``) an entry is a weighted sum of
coefficients of the charge-graded Hilbert series: each side counts its
monomials by (weight, degree, charge vector) without listing them
(``fock.charge_counts`` over modes, its own ``fock.gr_charge_counts``
over symbols), weighs each charge vector once (``_charge_sign``: 1 or 0
for invariance under a torus or finite group, the sign of a Weyl shift
for sl2 and gl_n) and adds up.  The symbol side only counts, and
refuses any other action.  The state side takes the kernel route for
the other Lie-algebra actions: it enumerates a weight once, every
degree up to the cap from one walk (``fock.basis_by_degree``), and an
entry is the number of monomials that pass the test minus the rank of
their images, one exact system per bidegree.  The command line runs
as ``vertexfock inv-dims`` or ``python -m vertexfock inv-dims``.

Strong-generation checks compare the exact span of normally ordered
words in a generator list against the invariant dimensions, weight by
weight.  The commutant of a torus is the joint kernel of every
non-negative mode of its Heisenberg currents: their zero modes are the
torus's charge test, and the modes k >= 1 act on the monomials that
pass it.
"""

from __future__ import annotations

import warnings

from . import linalg
from .fock import (
    B,
    BETA,
    C,
    GAMMA,
    AlgebraDescriptor,
    Monomial,
    State,
    basis,
    basis_by_degree,
    charge_counts,
    gr_charge_counts,
    mono_charge,
    mono_degree,
    weight as state_weight,
    word,
)
from .linalg import Frozen, Record, Scalar, SparseMatrix, add_into, exact_terms, scalar
from .ope import circle, current_mode, derivative_words, word_products


# ---------------------------------------------------------------------------
# group actions
# ---------------------------------------------------------------------------


def _integer(x) -> int:
    """x as an int, or a ValueError where int() would truncate it."""
    i = int(x)
    if i != x:
        raise ValueError(f"group action entry {x!r} is not an integer")
    return i


class TorusAction(Frozen):
    """Diagonal torus with an m x n integer charge matrix (rows = torus
    coordinates)."""

    __slots__ = ("rows",)

    def __post_init__(self):
        rows = tuple(tuple(_integer(x) for x in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if rows and linalg.rank(SparseMatrix.from_rows(rows)) < len(rows):
            warnings.warn("charge matrix is not of full rank: the torus does not act faithfully")

    def is_invariant_charge(self, q) -> bool:
        return all(sum(r[i] * q[i] for i in range(len(q))) == 0 for r in self.rows)


class FiniteAbelianAction(Frozen):
    """Product of cyclic groups acting diagonally; each character is a
    pair (order, integer vector)."""

    __slots__ = ("chars",)

    def __post_init__(self):
        chars = tuple((_integer(o), tuple(_integer(x) for x in v)) for o, v in self.chars)
        object.__setattr__(self, "chars", chars)
        for o, _ in chars:
            if o < 1:
                raise ValueError("character order must be >= 1")

    def is_invariant_charge(self, q) -> bool:
        return all(
            sum(v[i] * q[i] for i in range(len(q))) % o == 0 for o, v in self.chars
        )


class LieAlgebraAction(Frozen):
    """A list of n x n rational matrices acting on the index space.

    The joint kernel is taken over the listed operators; closure under
    brackets is not required.
    """

    __slots__ = ("matrices",)

    def __post_init__(self):
        mats = tuple(tuple(tuple(scalar(x) for x in row) for row in m) for m in self.matrices)
        object.__setattr__(self, "matrices", mats)
        if any(len(row) != len(m) for m in mats for row in m):
            raise ValueError("action matrices must be square")


def sl2_standard() -> LieAlgebraAction:
    """e, f, h acting on the rank-2 index space."""
    e = ((0, 1), (0, 0))
    f = ((0, 0), (1, 0))
    h = ((1, 0), (0, -1))
    return LieAlgebraAction((e, f, h))


def gl_standard(n: int) -> LieAlgebraAction:
    """The elementary matrices E_ij (i, j = 1..n, row by row) acting on
    the rank-n index space."""
    return LieAlgebraAction(tuple(
        tuple(tuple(int((a, b) == (i, j)) for b in range(n)) for a in range(n))
        for i in range(n) for j in range(n)
    ))


GroupAction = TorusAction | FiniteAbelianAction | LieAlgebraAction


# ---------------------------------------------------------------------------
# the extended infinitesimal action
# ---------------------------------------------------------------------------


def _lie_current(X, alg: AlgebraDescriptor) -> State:
    """The weight-1 current J_X = -sum_{a,b} X_ba (:gamma^a beta^b: +
    :c^a b^b:) of a matrix, the pairs of alg's species only, whose zero
    mode is the derivation of X: vector letters (beta, b) move by X,
    covector letters (gamma, c) by -X^T."""
    pairs = [(u, v) for u, v in ((GAMMA, BETA), (C, B)) if u in alg.species]
    n = alg.rank
    return State({word([(u, a, -1), (v, b, -1)]): -scalar(X[b - 1][a - 1])
                  for u, v in pairs for a in range(1, n + 1) for b in range(1, n + 1)})


def _on_states(mode):
    """A mode on words (``ope.current_mode``) as a linear map on states,
    with integer-first coefficients (``linalg.scalar``)."""
    def op(s: State) -> State:
        acc: dict[Monomial, Scalar] = {}
        for mono, c in s.terms.items():
            for mono2, v in mode(mono).items():
                add_into(acc, mono2, c * v)
        return State._raw(exact_terms(acc))

    return op


def extend_action(X, alg: AlgebraDescriptor):
    """The weight- and degree-preserving derivation of a single matrix
    on states, the zero mode of ``_lie_current(X, alg)``."""
    return _on_states(current_mode(_lie_current(X, alg), 0))


# ---------------------------------------------------------------------------
# invariant bases and dimension tables
# ---------------------------------------------------------------------------


def _is_diagonal(X) -> bool:
    n = len(X)
    return all(X[i][j] == 0 for i in range(n) for j in range(n) if i != j)


def _split(action: GroupAction, alg: AlgebraDescriptor):
    """A test on monomials, of their ``mono_charge`` q, and the modes of
    the rest of the action: a torus or finite group tests
    ``is_invariant_charge`` and has none; a Lie action tests that each
    diagonal matrix X multiplies the monomial by sum_i X_ii q_i = 0, and
    its modes are the zero modes of ``_lie_current`` of the others."""
    rank_n = alg.rank
    test, modes = _charge_sign(action, rank_n), []
    if isinstance(action, LieAlgebraAction):
        mats = action.matrices
        diagonals = {tuple(X[i][i] for i in range(rank_n)) for X in mats if _is_diagonal(X)}
        test = lambda q: all(sum(x * c for x, c in zip(v, q)) == 0 for v in diagonals)
        modes = [current_mode(_lie_current(X, alg), 0) for X in mats if not _is_diagonal(X)]
    return (lambda mono: test(mono_charge(mono, rank_n))), modes


def _mode_kernel(monos, modes, dimension_only: bool = False):
    """The joint kernel of the modes on the span of the monomials: the
    RREF basis of the relations among their images (one column per
    monomial; an image may fail the test of ``_split`` and is a row like
    any other), or with ``dimension_only`` the monomials' number minus
    the images' rank.  With no modes the monomials are the basis."""
    columns = [{(t, m2): v for t, mode in enumerate(modes) for m2, v in mode(m).items()}
               for m in monos]
    if dimension_only:
        return len(monos) - linalg.rank_of_columns(columns)
    return [State({monos[i]: v for i, v in rel.items()})
            for rel in linalg.kernel_of_columns(columns)]


def invariant_basis(
    action: GroupAction, alg: AlgebraDescriptor, weight: int, degree: int
) -> list[State]:
    """Exact basis of the invariant subspace of one bidegree."""
    test, modes = _split(action, alg)
    if degree < 0:
        return []
    return _mode_kernel([m for m in basis(alg, weight, degree) if test(m)], modes)


def trivial_action() -> TorusAction:
    return TorusAction(())


class DimTable(Record):
    """Bigraded dimension table of a subspace: entries maps (weight,
    degree) to a dimension.  A bidegree outside the caps has no entry:
    reading one raises KeyError, so an undersized table cannot
    undercount."""

    __slots__ = ("entries", "weight_cap", "degree_cap")

    def __getitem__(self, wd) -> int:
        w, d = wd
        if not (0 <= w <= self.weight_cap and 0 <= d <= self.degree_cap):
            raise KeyError(f"({w}, {d}) is outside the caps ({self.weight_cap}, {self.degree_cap})")
        return self.entries.get((w, d), 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, DimTable) and self.entries == other.entries


def _charge_sign(action: GroupAction, rank_n: int):
    """The weight of a charge class q in an invariant dimension, or None
    where a kernel is needed: 1 or 0 for a torus or finite group; for
    ``sl2_standard()`` and ``gl_standard(n)`` the sign of s in the Weyl
    group W where q = s(rho) - rho, else 0, so that dim V^G is
    sum over s in W of sign(s) m(s(rho) - rho) (Weyl's character formula
    at highest weight 0; Fulton-Harris, Lectures 24-25).

    Every table, basis and span check starts here, so this is where a
    charge row, character or matrix of another size than rank_n is
    refused with a ValueError."""
    if isinstance(action, (TorusAction, FiniteAbelianAction)):
        rows = action.rows if isinstance(action, TorusAction) else [v for _, v in action.chars]
        for r in rows:
            if len(r) != rank_n:
                raise ValueError(f"action rows have length {len(r)}, but the algebra has rank {rank_n}")
        return action.is_invariant_charge
    for m in action.matrices:
        if len(m) != rank_n:
            raise ValueError(
                f"action matrices are {len(m)} x {len(m)}, but the algebra has rank {rank_n}"
            )
    if rank_n == 2 and action == sl2_standard():
        return lambda q: {0: 1, -2: -1}.get(q[0] - q[1], 0)
    if len(action.matrices) == rank_n * rank_n and action == gl_standard(rank_n):
        def sign(q):
            # p = s(rho) for rho = (n-1, ..., 0); s has one inversion per
            # ascending pair of p
            p = [a + rank_n - 1 - i for i, a in enumerate(q)]
            if sorted(p) != list(range(rank_n)):
                return 0
            return (-1) ** sum(a < b for i, a in enumerate(p) for b in p[i + 1:])
        return sign
    return None


def _invariant_table(sign, counts, weight_cap: int, degree_cap: int) -> DimTable:
    """The sum, per (weight, degree), of the counts by (weight, degree,
    charge) of ``fock.charge_counts`` or ``fock.gr_charge_counts``, each
    weighed by ``sign`` of its charge vector (``_charge_sign``); each
    vector is weighed once."""
    seen: dict[tuple[int, ...], int] = {}
    dims = {(w, d): 0 for w in range(weight_cap + 1) for d in range(degree_cap + 1)}
    for (w, d, q), c in counts.items():
        s = seen.get(q)
        if s is None:
            s = seen[q] = sign(q)
        if s:
            dims[(w, d)] += s * c
    return DimTable(dims, weight_cap, degree_cap)


def dim_table(
    action: GroupAction, alg: AlgebraDescriptor, weight_cap: int, degree_cap: int
) -> DimTable:
    """State-side invariant dimensions per bidegree.  An action that
    ``_charge_sign`` cannot weigh takes one walk per weight and one
    exact rank per bidegree."""
    sign = _charge_sign(action, alg.rank)
    if sign is not None:
        return _invariant_table(sign, charge_counts(alg, weight_cap, degree_cap), weight_cap, degree_cap)
    return _kernel_table(action, alg, weight_cap, degree_cap)


def _kernel_table(
    action: GroupAction, alg: AlgebraDescriptor, weight_cap: int, degree_cap: int
) -> DimTable:
    """``dim_table`` by the kernel route, for any action: one walk per
    weight, then per bidegree the monomials that pass the charge test
    and the dimension of their ``_mode_kernel``."""
    test, modes = _split(action, alg)
    return DimTable({(w, d): _mode_kernel([m for m in monos if test(m)], modes, dimension_only=True)
                     for w in range(weight_cap + 1)
                     for d, monos in enumerate(basis_by_degree(alg, w, degree_cap))},
                    weight_cap, degree_cap)


def gr_dim_table(
    action: GroupAction, alg: AlgebraDescriptor, weight_cap: int, degree_cap: int
) -> DimTable:
    """Symbol-side invariant dimensions per bidegree, by an independent
    count (``fock.gr_charge_counts``); must equal the state-side table
    entrywise.  The symbol side has no kernel route: an action that
    ``_charge_sign`` cannot weigh is refused with a ValueError."""
    sign = _charge_sign(action, alg.rank)
    if sign is None:
        raise ValueError("the symbol side counts tori, finite groups, sl2 and gl:n only")
    return _invariant_table(sign, gr_charge_counts(alg, weight_cap, degree_cap), weight_cap, degree_cap)


def dim_table_csv_rows(state_side: DimTable, gr_side: DimTable) -> list[list]:
    """Rows (weight, degree, dim_state_side, dim_gr_side, equal)."""
    rows = []
    for w in range(state_side.weight_cap + 1):
        for d in range(state_side.degree_cap + 1):
            a, b = state_side[(w, d)], gr_side[(w, d)]
            rows.append([w, d, a, b, a == b])
    return rows


# ---------------------------------------------------------------------------
# strong generation: exact spans of normally ordered words
# ---------------------------------------------------------------------------


def is_invariant_state(action: GroupAction, alg: AlgebraDescriptor, s: State) -> bool:
    test, modes = _split(action, alg)
    return all(map(test, s.terms)) and not any(_on_states(mode)(s) for mode in modes)


class SpanCheckReport(Record):
    # status is "success" or "deficient", dims maps a weight to (dim_have,
    # dim_need), first_deficiency is (weight, degree, have, need) or None
    __slots__ = ("status", "dims", "first_deficiency", "degree_window")

    @property
    def ok(self) -> bool:
        return self.status == "success"

    def to_json(self) -> dict:
        out = {
            "status": self.status,
            "degree_window": self.degree_window,
            "dims": {str(w): list(hn) for w, hn in sorted(self.dims.items())},
        }
        if self.first_deficiency is not None:
            w, d, have, need = self.first_deficiency
            out["first_deficiency"] = {
                "weight": w, "degree": d, "dim_have": have, "dim_need": need,
            }
        return out


def span_check(
    generators: list[State],
    action: GroupAction,
    alg: AlgebraDescriptor,
    weight_cap: int,
    max_word_length: int,
) -> SpanCheckReport:
    """Compare the exact span of normally ordered words in the
    generators (with derivatives, right-nested, length-capped) against
    the invariant dimensions at every weight up to the cap.

    The invariant side is summed over degrees up to a window of
    2*weight_cap, widened to cover every monomial the words produce,
    and read from one ``dim_table`` whose degree cap bounds every word.
    Each weight's word states are eliminated once, as rows, with their
    monomials by falling degree (``linalg.pivot_keys``): the span within
    degree <= d has one dimension per pivot of degree <= d, which finds
    the first deficient bidegree.  Generators must have positive weight:
    weight 0 is checked against the vacuum alone.
    """
    for g in generators:
        if not is_invariant_state(action, alg, g):
            raise ValueError("generator is not invariant under the action")
    gen_weights = [state_weight(g) for g in generators]
    if 0 in gen_weights:
        raise ValueError("span-check generators must have positive weight")
    window = 2 * weight_cap
    # a word has at most this many letters, and its monomials at most
    # top degree per letter: Wick contractions lower the degree and
    # derivatives keep it
    letters = min(max_word_length, weight_cap // min(gen_weights, default=1))
    top = max((mono_degree(m) for g in generators for m in g.terms), default=0)
    table = dim_table(action, alg, weight_cap, max(window, top * letters))
    dims: dict[int, tuple[int, int]] = {}
    first_def = None
    for w in range(weight_cap + 1):
        if w == 0:
            have = [{(): 1}]
        else:
            words = derivative_words(gen_weights, w, max_word_length)
            have = [s.terms for s in word_products(generators, words) if s]
        keys = sorted({m for v in have for m in v}, key=mono_degree, reverse=True)
        pivot_degrees = [mono_degree(m) for m in linalg.pivot_keys(have, keys)]
        need = [table[(w, d)] for d in range(max(window, mono_degree(keys[0]) if keys else 0) + 1)]
        dims[w] = (len(pivot_degrees), sum(need))
        if len(pivot_degrees) < sum(need) and first_def is None:
            # at the top degree every pivot counts, so some d falls short
            for d in range(len(need)):
                have_d, need_d = sum(e <= d for e in pivot_degrees), sum(need[:d + 1])
                if have_d < need_d:
                    first_def = (w, d, have_d, need_d)
                    break
    status = "success" if first_def is None else "deficient"
    return SpanCheckReport(status, dims, first_def, window)


# ---------------------------------------------------------------------------
# Heisenberg currents and commutants
# ---------------------------------------------------------------------------


def heisenberg_current(xi, charge_rows, alg: AlgebraDescriptor) -> State:
    """The weight-1 current of a torus direction xi: the sum over
    indices of (charge of the index) :gamma^i beta^i:.

    Normalization contract: the first product of two such currents is
    the bilinear form -Tr(rho(xi) rho(eta)) times the vacuum, and the
    zeroth product vanishes.
    """
    if alg.kind != "bg":
        raise ValueError("Heisenberg currents live in the bosonic system")
    m = len(charge_rows)
    if len(xi) != m:
        raise ValueError(f"direction must have {m} components")
    for r in charge_rows:
        if len(r) != alg.rank:
            raise ValueError(f"charge rows have length {len(r)}, but the algebra has rank {alg.rank}")
    return State({word([(GAMMA, i, -1), (BETA, i, -1)]):
                  sum(scalar(xi[t]) * charge_rows[t][i - 1] for t in range(m))
                  for i in range(1, alg.rank + 1)})


def heisenberg_pairing(xi, eta, charge_rows) -> Scalar:
    """-Tr(rho(xi) rho(eta)) for the diagonal torus action."""
    m = len(charge_rows)
    n = len(charge_rows[0])
    total = 0
    for i in range(n):
        a = sum(scalar(xi[t]) * charge_rows[t][i] for t in range(m))
        b = sum(scalar(eta[t]) * charge_rows[t][i] for t in range(m))
        total += a * b
    return -total


def validate_heisenberg(charge_rows, alg: AlgebraDescriptor) -> bool:
    """Check the normalization contract on all pairs of coordinate
    directions."""
    m = len(charge_rows)
    units = [[1 if t == s else 0 for t in range(m)] for s in range(m)]
    for xi in units:
        for eta in units:
            jx = heisenberg_current(xi, charge_rows, alg)
            je = heisenberg_current(eta, charge_rows, alg)
            want = heisenberg_pairing(xi, eta, charge_rows)
            if circle(jx, 1, je) != want * State({(): 1}):
                return False
            if circle(jx, 0, je):
                return False
    return True


def commutant_basis(torus: TorusAction, alg: AlgebraDescriptor, weight: int, degree_cap: int) -> list[State]:
    """Joint kernel, on the weight slice filtered by degree <= cap, of
    every non-negative mode of the torus's Heisenberg currents, one per
    coordinate direction.  A zero mode multiplies a word by its charge
    along the direction, so the words that pass the torus's charge test
    (``_split``) span their kernel; the modes k = 1..weight (higher ones
    vanish on the slice) act on those, through ``_mode_kernel``."""
    test, _ = _split(torus, alg)
    m = len(torus.rows)
    currents = [heisenberg_current([int(t == s) for t in range(m)], torus.rows, alg) for s in range(m)]
    modes = [current_mode(cur, k) for cur in currents for k in range(1, weight + 1)]
    return _mode_kernel([mono for monos in basis_by_degree(alg, weight, degree_cap)
                         for mono in monos if test(mono)], modes)
