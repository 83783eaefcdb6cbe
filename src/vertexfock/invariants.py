"""Invariant subalgebras and commutants of the free-field algebras.

Three kinds of group data act on the rank-n algebra through its index
space:

  * TorusAction: an m x n integer charge matrix; a monomial is
    invariant iff its diagonal charge vector is killed by the matrix.
  * FiniteAbelianAction: diagonal characters with orders; invariance
    is a congruence on the charge vector.
  * LieAlgebraAction: a list of n x n rational matrices acting on the
    index space; the infinitesimal action extends as a mode-wise
    derivation (vector species transform by X, covector species by
    -X^T), and invariants are the exact joint kernel per bidegree.

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
refuses any other action.  The state side eliminates the other
Lie-algebra actions: it enumerates a weight once, every degree up to
the cap from one walk (``fock.basis_by_degree``), keeps the monomials
the diagonal matrices kill, and an entry is the size of an exact joint
kernel of the other matrices, one exact system per bidegree: the
number of those monomials minus the rank of their images.  The
command line runs as ``vertexfock inv-dims`` or ``python -m
vertexfock inv-dims``.

Strong-generation checks compare the exact span of normally ordered
words in a generator list against the invariant dimensions, weight by
weight.  Commutants are joint kernels of all non-negative modes of a
list of currents, zero modes first.
"""

from __future__ import annotations

import warnings

from . import linalg
from .fock import (
    B,
    BETA,
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
)
from .linalg import Frozen, Record, Scalar, SparseMatrix, add_into, exact_terms, scalar
from .ope import (
    CodeWord,
    _code,
    _decode,
    _encode,
    _replace_factor,
    circle,
    derivative_words,
    wick,
    word_products,
)

VECTOR_SPECIES = (BETA, B)


# ---------------------------------------------------------------------------
# group actions
# ---------------------------------------------------------------------------


class TorusAction(Frozen):
    """Diagonal torus with an m x n integer charge matrix (rows = torus
    coordinates)."""

    __slots__ = ("rows",)

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        mat = SparseMatrix.from_rows(rows)
        if rows and linalg.rank(mat) < len(rows):
            warnings.warn("charge matrix is not of full rank: the torus does not act faithfully")

    @property
    def rank_n(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def is_invariant_charge(self, q) -> bool:
        return all(sum(r[i] * q[i] for i in range(len(q))) == 0 for r in self.rows)


class FiniteAbelianAction(Frozen):
    """Product of cyclic groups acting diagonally; each character is a
    pair (order, integer vector)."""

    __slots__ = ("chars",)

    def __post_init__(self):
        chars = tuple((int(o), tuple(int(x) for x in v)) for o, v in self.chars)
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
        for m in mats:
            n = len(m)
            if any(len(row) != n for row in m):
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


def _derive_mono(X, mono: Monomial, rank_n: int) -> dict[Monomial, Scalar]:
    """Mode-wise derivation of a single matrix on a monomial.

    Only one factor changes per term; ``ope._replace_factor`` puts the
    new factor in its place, in the engine's code spelling.
    """
    word = _encode(mono)
    out: dict[CodeWord, Scalar] = {}
    for pos, (sp, idx, mode) in enumerate(mono):
        for j in range(1, rank_n + 1):
            coef = X[j - 1][idx - 1] if sp in VECTOR_SPECIES else -X[idx - 1][j - 1]
            if coef == 0:
                continue
            r = _replace_factor(word, pos, _code((sp, j, mode)))
            if r is not None:
                add_into(out, r[1], r[0] * coef)
    return {_decode(w): c for w, c in out.items()}


def extend_action(X, alg: AlgebraDescriptor):
    """The weight- and degree-preserving derivation of a single matrix
    on states, with integer-first coefficients (``linalg.scalar``)."""
    mats = tuple(tuple(scalar(x) for x in row) for row in X)
    frac = any(x.__class__ is not int for row in mats for x in row)

    def op(s: State) -> State:
        acc: dict[Monomial, Scalar] = {}
        for mono, c in s.terms.items():
            for mono2, v in _derive_mono(mats, mono, alg.rank).items():
                add_into(acc, mono2, c * v)
        if frac or any(c.__class__ is not int for c in s.terms.values()):
            acc = exact_terms(acc)
        return State._raw(acc)

    return op


# ---------------------------------------------------------------------------
# invariant bases and dimension tables
# ---------------------------------------------------------------------------


def _is_diagonal(X) -> bool:
    n = len(X)
    return all(X[i][j] == 0 for i in range(n) for j in range(n) if i != j)


def _split_diagonal(mats, rank_n: int):
    """The matrices that are not diagonal, and a predicate on monomials:
    every diagonal matrix X kills the monomial, that is multiplies it
    by sum_i X_ii q_i = 0, q its ``mono_charge``."""
    diagonals = {tuple(X[i][i] for i in range(rank_n)) for X in mats if _is_diagonal(X)}

    def killed(mono: Monomial) -> bool:
        q = mono_charge(mono, rank_n)
        return all(sum(x * c for x, c in zip(v, q)) == 0 for v in diagonals)

    return [X for X in mats if not _is_diagonal(X)], killed


def _lie_columns(monos, rest, rank_n):
    """The images of the monomials (already killed by the diagonal
    matrices, see ``_split_diagonal``) under the other matrices
    ``rest``, one column per monomial.  Their joint kernel on the span
    of the monomials is the space of relations among the columns; an
    image monomial may break the diagonal conditions and is a row like
    any other."""
    return [
        {(t, m2): v for t, X in enumerate(rest) for m2, v in _derive_mono(X, m, rank_n).items()}
        for m in monos
    ]


def _lie_kernel(monos, rest, rank_n):
    """Basis of that joint kernel."""
    return [
        {monos[i]: v for i, v in rel.items()}
        for rel in linalg.kernel_of_columns(_lie_columns(monos, rest, rank_n))
    ]


def _lie_dim(monos, rest, rank_n) -> int:
    """Dimension of that joint kernel: the number of monomials minus the
    rank of their images."""
    return len(monos) - linalg.rank_of_columns(_lie_columns(monos, rest, rank_n))


def invariant_basis(
    action: GroupAction, alg: AlgebraDescriptor, weight: int, degree: int
) -> list[State]:
    """Exact basis of the invariant subspace of one bidegree."""
    sign = _charge_sign(action, alg.rank)
    if degree < 0:
        return []
    if isinstance(action, (TorusAction, FiniteAbelianAction)):
        return [State({m: 1}) for m in basis(alg, weight, degree) if sign(mono_charge(m, alg.rank))]
    rest, killed = _split_diagonal(action.matrices, alg.rank)
    monos = [m for m in basis(alg, weight, degree) if killed(m)]
    return [State(c) for c in _lie_kernel(monos, rest, alg.rank)]


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
    rest, killed = _split_diagonal(action.matrices, alg.rank)
    return DimTable({(w, d): _lie_dim([m for m in monos if killed(m)], rest, alg.rank)
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
    sign = _charge_sign(action, alg.rank)
    if isinstance(action, (TorusAction, FiniteAbelianAction)):
        return all(sign(mono_charge(m, alg.rank)) for m in s.terms)
    for X in action.matrices:
        if extend_action(X, alg)(s):
            return False
    return True


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
    Reports the first deficient bidegree through the degree filtration.
    Generators must have positive weight: weight 0 is checked against
    the vacuum alone.
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
            vecs = [State({(): 1})]
        else:
            words = derivative_words(gen_weights, w, max_word_length)
            vecs = [s for s in word_products(generators, words) if s]
        w_window = window
        for s in vecs:
            for m in s.terms:
                w_window = max(w_window, mono_degree(m))
        have_cols = [s.terms for s in vecs]
        dim_have = linalg.rank_of_columns(have_cols)
        inv_by_degree = [table[(w, d)] for d in range(w_window + 1)]
        dim_need = sum(inv_by_degree)
        dims[w] = (dim_have, dim_need)
        if dim_have < dim_need and first_def is None:
            # localize along the degree filtration: dim(span within
            # degree <= d) = dim(span) - rank(components above d); at
            # d = w_window nothing lies above, so the loop always breaks
            cum_need = 0
            for d in range(w_window + 1):
                cum_need += inv_by_degree[d]
                above = [
                    {m: c for m, c in s.terms.items() if mono_degree(m) > d} for s in vecs
                ]
                have_d = dim_have - linalg.rank_of_columns([a for a in above if a])
                if have_d < cum_need:
                    first_def = (w, d, have_d, cum_need)
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
    out = State()
    for i in range(1, alg.rank + 1):
        coef = sum(scalar(xi[t]) * charge_rows[t][i - 1] for t in range(m))
        if coef == 0:
            continue
        out = out + coef * wick(
            State({((GAMMA, i, -1),): 1}), State({((BETA, i, -1),): 1})
        )
    return out


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


def commutant_basis(
    currents: list[State],
    alg: AlgebraDescriptor,
    weight: int,
    degree_cap: int,
) -> list[State]:
    """Joint kernel, on the weight slice filtered by degree <= cap, of
    every non-negative mode of every current.

    Modes k >= 1 with weight(current) + weight - k - 1 < 0 vanish
    identically and are skipped.  A zero mode that sends every word in
    play to a multiple of itself drops the words with a nonzero
    multiple: only their own column meets their row, so no relation
    uses them, and the RREF basis (fixed by the kernel and the column
    order) is unchanged.  The other modes act on the rest only.
    """
    monos = [m for ms in basis_by_degree(alg, weight, degree_cap) for m in ms]
    words = [State._raw({m: 1}) for m in monos]
    columns: list[dict] = [{} for _ in monos]
    live = range(len(monos))
    for t, cur in enumerate(currents):
        images = [circle(cur, 0, words[i]).terms for i in live]
        if all(img.keys() <= {monos[i]} for i, img in zip(live, images)):
            live = [i for i, img in zip(live, images) if not img]
            continue
        for i, img in zip(live, images):
            columns[i].update(((t, 0, m2), v) for m2, v in img.items())
    for t, cur in enumerate(currents):
        for k in range(1, weight + state_weight(cur)):
            for i in live:
                columns[i].update(((t, k, m2), v) for m2, v in circle(cur, k, words[i]).terms.items())
    return [
        State({monos[live[j]]: v for j, v in rel.items()})
        for rel in linalg.kernel_of_columns([columns[i] for i in live])
    ]
