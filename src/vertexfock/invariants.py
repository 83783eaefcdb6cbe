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
Strong-generation checks compare the exact span of normally ordered
words in a generator list against the invariant dimensions, weight by
weight.  Commutants are joint kernels of all non-negative modes of a
list of currents.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .fock import (
    B,
    BETA,
    GAMMA,
    AlgebraDescriptor,
    GrMonomial,
    Monomial,
    SPECIES_CHARGE,
    State,
    basis,
    canonicalize,
    gr_basis,
    gr_canonicalize,
    mono_charge,
    mono_degree,
    weight as state_weight,
    words_of_weight,
)
from .linalg import ONE, ZERO, SparseMatrix, add_into, scalar
from .ope import circle, derive, iterated_wick, wick

VECTOR_SPECIES = (BETA, B)


# ---------------------------------------------------------------------------
# group actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusAction:
    """Diagonal torus with an m x n integer charge matrix (rows = torus
    coordinates)."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        mat = SparseMatrix.from_rows([[Fraction(x) for x in r] for r in rows])
        if rows and linalg.rank(mat) < len(rows):
            warnings.warn("charge matrix is not of full rank: the torus does not act faithfully")

    @property
    def rank_n(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def is_invariant_charge(self, q) -> bool:
        return all(sum(r[i] * q[i] for i in range(len(q))) == 0 for r in self.rows)


@dataclass(frozen=True)
class FiniteAbelianAction:
    """Product of cyclic groups acting diagonally; each character is a
    pair (order, integer vector)."""

    chars: tuple[tuple[int, tuple[int, ...]], ...]

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


@dataclass(frozen=True)
class LieAlgebraAction:
    """A list of n x n rational matrices acting on the index space.

    The joint kernel is taken over the listed operators; closure under
    brackets is not required.
    """

    matrices: tuple[tuple[tuple[Fraction, ...], ...], ...]

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


GroupAction = TorusAction | FiniteAbelianAction | LieAlgebraAction


# ---------------------------------------------------------------------------
# the extended infinitesimal action
# ---------------------------------------------------------------------------


def _derive_mono(X, mono: Monomial, rank_n: int) -> dict[Monomial, Fraction]:
    """Mode-wise derivation of a single matrix on a monomial."""
    out: dict[Monomial, Fraction] = {}
    for pos, (sp, idx, mode) in enumerate(mono):
        for j in range(1, rank_n + 1):
            coef = X[j - 1][idx - 1] if sp in VECTOR_SPECIES else -X[idx - 1][j - 1]
            if coef == 0:
                continue
            factors = list(mono)
            factors[pos] = (sp, j, mode)
            r = canonicalize(factors)
            if r is None:
                continue
            sg, mono2 = r
            add_into(out, mono2, sg * coef)
    return out


def extend_action(X, alg: AlgebraDescriptor):
    """The weight- and degree-preserving derivation of a single matrix
    on states."""
    mats = tuple(tuple(scalar(x) for x in row) for row in X)

    def op(s: State) -> State:
        acc: dict[Monomial, Fraction] = {}
        for mono, c in s.terms.items():
            for mono2, v in _derive_mono(mats, mono, alg.rank).items():
                add_into(acc, mono2, c * v)
        return State._raw(acc)

    return op


def _gr_derive_mono(X, mono: GrMonomial, rank_n: int) -> dict[GrMonomial, Fraction]:
    out: dict[GrMonomial, Fraction] = {}
    for pos, (sp, idx, k) in enumerate(mono):
        for j in range(1, rank_n + 1):
            coef = X[j - 1][idx - 1] if sp in VECTOR_SPECIES else -X[idx - 1][j - 1]
            if coef == 0:
                continue
            symbols = list(mono)
            symbols[pos] = (sp, j, k)
            r = gr_canonicalize(symbols)
            if r is None:
                continue
            sg, mono2 = r
            v = out.get(mono2, ZERO) + sg * coef
            if v == 0:
                out.pop(mono2, None)
            else:
                out[mono2] = v
    return out


# ---------------------------------------------------------------------------
# invariant bases and dimension tables
# ---------------------------------------------------------------------------


def _is_diagonal(X) -> bool:
    n = len(X)
    return all(X[i][j] == 0 for i in range(n) for j in range(n) if i != j)


def _index_components(mats, n: int) -> list[int]:
    """Connected components of the support graph of the off-diagonal
    entries; every listed operator preserves the per-component total
    charge."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for X in mats:
        for i in range(n):
            for j in range(n):
                if i != j and X[i][j] != 0:
                    ra, rb = find(i), find(j)
                    if ra != rb:
                        parent[ra] = rb
    return [find(i) for i in range(n)]


def _lie_kernel(monos, derive_fn, mats, rank_n):
    """Joint kernel of the listed matrices on the span of the monomials,
    computed per preserved charge class."""
    diag = [X for X in mats if _is_diagonal(X)]
    rest = [X for X in mats if not _is_diagonal(X)]

    # exactly diagonal operators act diagonally on monomials
    survivors = []
    for m in monos:
        q = mono_charge(m, rank_n)
        if all(sum(X[i][i] * q[i] for i in range(rank_n)) == 0 for X in diag):
            survivors.append(m)
    if not rest:
        return [{m: ONE} for m in survivors]

    comp = _index_components(rest, rank_n)
    comps = sorted(set(comp))

    def class_of(mono):
        q = mono_charge(mono, rank_n)
        return tuple(sum(q[i] for i in range(rank_n) if comp[i] == c) for c in comps)

    classes: dict[tuple, list] = {}
    for m in survivors:
        classes.setdefault(class_of(m), []).append(m)

    out = []
    for cls in sorted(classes):
        block = classes[cls]
        # image monomials may violate the diagonal conditions but stay
        # inside the class; they are rows like any other
        columns = [
            {(t, m2): v for t, X in enumerate(rest) for m2, v in derive_fn(X, m, rank_n).items()}
            for m in block
        ]
        for rel in linalg.kernel_of_columns(columns):
            out.append({block[i]: v for i, v in rel.items()})
    return out


def invariant_basis(
    action: GroupAction, alg: AlgebraDescriptor, weight: int, degree: int
) -> list[State]:
    """Exact basis of the invariant subspace of one bidegree."""
    monos = basis(alg, weight, degree)
    if isinstance(action, (TorusAction, FiniteAbelianAction)):
        return [
            State({m: ONE}) for m in monos if action.is_invariant_charge(mono_charge(m, alg.rank))
        ]
    combos = _lie_kernel(monos, _derive_mono, action.matrices, alg.rank)
    return [State(c) for c in combos]


def trivial_action() -> TorusAction:
    return TorusAction(())


@dataclass
class DimTable:
    """Bigraded dimension table of a subspace."""

    entries: dict[tuple[int, int], int]
    weight_cap: int
    degree_cap: int

    def __getitem__(self, wd) -> int:
        return self.entries.get(tuple(wd), 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, DimTable) and self.entries == other.entries


def dim_table(
    action: GroupAction, alg: AlgebraDescriptor, weight_cap: int, degree_cap: int
) -> DimTable:
    """State-side invariant dimensions per bidegree."""
    entries = {}
    for w in range(weight_cap + 1):
        for d in range(degree_cap + 1):
            entries[(w, d)] = len(invariant_basis(action, alg, w, d))
    return DimTable(entries, weight_cap, degree_cap)


def gr_dim_table(
    action: GroupAction, alg: AlgebraDescriptor, weight_cap: int, degree_cap: int
) -> DimTable:
    """Symbol-side invariant dimensions per bidegree, by an independent
    enumeration and an independent derivation; must equal the
    state-side table entrywise."""
    entries = {}
    for w in range(weight_cap + 1):
        for d in range(degree_cap + 1):
            monos = gr_basis(alg, w, d)
            if isinstance(action, (TorusAction, FiniteAbelianAction)):
                count = 0
                for m in monos:
                    q = [0] * alg.rank
                    for sp, idx, _ in m:
                        q[idx - 1] += SPECIES_CHARGE[sp]
                    if action.is_invariant_charge(q):
                        count += 1
                entries[(w, d)] = count
            else:
                combos = _lie_kernel(monos, _gr_derive_mono, action.matrices, alg.rank)
                entries[(w, d)] = len(combos)
    return DimTable(entries, weight_cap, degree_cap)


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
    if isinstance(action, (TorusAction, FiniteAbelianAction)):
        return all(
            action.is_invariant_charge(mono_charge(m, alg.rank)) for m in s.terms
        )
    for X in action.matrices:
        if extend_action(X, alg)(s):
            return False
    return True


@dataclass
class SpanCheckReport:
    status: str  # "success" or "deficient"
    dims: dict[int, tuple[int, int]]  # weight -> (dim_have, dim_need)
    first_deficiency: tuple[int, int, int, int] | None  # (weight, degree, have, need)
    degree_window: int

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


def _word_states(generators, gen_weights, alg, target_weight, max_len):
    """Evaluate all weakly decreasing words of derivative letters
    (generator index, derivative count) of the given total weight."""
    letters = []
    for gi, gw in enumerate(gen_weights):
        for t in range(0, target_weight - gw + 1):
            letters.append((gi, t))
    letters.sort(reverse=True)
    words = words_of_weight(
        letters, [gen_weights[gi] + t for gi, t in letters], target_weight,
        max_len=max_len, min_len=1,
    )
    return [iterated_wick([derive(generators[gi], t) for gi, t in word]) for word in words]


def span_check(
    generators: list[State],
    action: GroupAction,
    alg: AlgebraDescriptor,
    weight_cap: int,
    max_word_length: int,
    degree_window: int | None = None,
) -> SpanCheckReport:
    """Compare the exact span of normally ordered words in the
    generators (with derivatives, right-nested, length-capped) against
    the invariant dimensions at every weight up to the cap.

    The invariant side is summed over degrees up to a window (default
    2*weight_cap, widened to cover every monomial the words produce).
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
    window = degree_window if degree_window is not None else 2 * weight_cap
    dims: dict[int, tuple[int, int]] = {}
    first_def = None
    for w in range(weight_cap + 1):
        if w == 0:
            vecs = [State({(): ONE})]
        else:
            vecs = [s for s in _word_states(generators, gen_weights, alg, w, max_word_length) if s]
        w_window = window
        for s in vecs:
            for m in s.terms:
                w_window = max(w_window, mono_degree(m))
        have_cols = [s.terms for s in vecs]
        dim_have = linalg.rank_of_columns(have_cols)
        inv_by_degree = [len(invariant_basis(action, alg, w, d)) for d in range(w_window + 1)]
        dim_need = sum(inv_by_degree)
        dims[w] = (dim_have, dim_need)
        if dim_have < dim_need and first_def is None:
            # localize along the degree filtration: dim(span within
            # degree <= d) = dim(span) - rank(components above d)
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
            if first_def is None:
                first_def = (w, w_window, dim_have, dim_need)
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
            State({((GAMMA, i, -1),): ONE}), State({((BETA, i, -1),): ONE})
        )
    return out


def heisenberg_pairing(xi, eta, charge_rows) -> Fraction:
    """-Tr(rho(xi) rho(eta)) for the diagonal torus action."""
    m = len(charge_rows)
    n = len(charge_rows[0])
    total = ZERO
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
            if circle(jx, 1, je) != want * State({(): ONE}):
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

    Modes k with weight(current) + weight - k - 1 < 0 vanish
    identically and are skipped.
    """
    monos = []
    for d in range(degree_cap + 1):
        monos.extend(basis(alg, weight, d))
    modes = [(cur, k) for cur in currents for k in range(0, weight + state_weight(cur))]
    columns = []
    for m in monos:
        s = State({m: ONE})
        columns.append({
            (t, m2): v for t, (cur, k) in enumerate(modes) for m2, v in circle(cur, k, s).terms.items()
        })
    return [State({monos[i]: v for i, v in rel.items()}) for rel in linalg.kernel_of_columns(columns)]
