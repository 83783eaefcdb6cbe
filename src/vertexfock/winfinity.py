"""The centrally extended Lie algebra of differential operators on the
punctured line, and its free-field realizations.

Basis J^l_k = -t^{l+k} (d/dt)^l for l >= 0, k in Z, plus a central
element kappa.  The 2-cocycle is

    Psi(f d^m, g d^n) = m! n! / (m+n+1)!  Res_{t=0} f^{(n+1)} g^{(m)} dt,

evaluated here in closed form.  Field modes are indexed by
J^l(k) = J^l_{k-l}, so that the current J^l(z) = sum_k J^l(k) z^{-k-1}
has conformal weight l+1; the operator J^l(k) shifts conformal weight
by l-k, while the internal grading of the Lie algebra gives J^l_k
weight k (= minus the conformal shift of J^l(k+l)).

The realizations send J^l to sum_i :gamma^i d^l beta^i: (bosonic, the
central element acting by -n) and to sum_i :c^i d^l b^i: (fermionic,
central element +n).  ``realize_current`` builds the current as a
state.  ``verify_rep``, the representation check, applies its modes
J^l(k) to canonical words through ``ope.current_mode``, the package's
one mode kernel for quadratic currents, which agrees with the circle
product of the realized current.

The module also builds the matrices used to express an arbitrary
diagonal mode-shift map as a combination of the operators J^{w+k}(k):
the (2m+2) x (2m+2) block matrix of action coefficients and the
rising-product matrix that certifies its invertibility.
"""

from __future__ import annotations

import math
from fractions import Fraction

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
    generator_state,
    state_to_text,
)
from .linalg import Record, Scalar, SparseMatrix, add_into, exact_terms, format_scalar, scalar
from .ope import current_mode, derive, iterated_wick

# ---------------------------------------------------------------------------
# the Lie algebra
# ---------------------------------------------------------------------------


def _falling(a: int, p: int) -> int:
    out = 1
    for s in range(p):
        out *= a - s
    return out


def cocycle(l1: int, k1: int, l2: int, k2: int) -> Scalar:
    """Exact value of the 2-cocycle on basis elements J^{l1}_{k1}, J^{l2}_{k2}."""
    if k1 + k2 != 0:
        return 0
    num = _falling(l1 + k1, l2 + 1) * _falling(l2 + k2, l1)
    return Fraction(math.factorial(l1) * math.factorial(l2) * num,
                    math.factorial(l1 + l2 + 1))


class DOp(Record):
    """Finite combination of basis operators J^l_k plus a central term."""

    __slots__ = ("terms", "kappa")

    def __init__(self, terms: dict[tuple[int, int], Scalar] | None = None, kappa: Scalar = 0):
        self.terms = exact_terms(terms)
        self.kappa = scalar(kappa)
        for l, _ in self.terms:
            if l < 0:
                raise ValueError("differential order l must be >= 0")

    @staticmethod
    def basis_element(l: int, k: int) -> "DOp":
        return DOp({(l, k): 1})

    def __add__(self, other: "DOp") -> "DOp":
        acc = dict(self.terms)
        for lk, c in other.terms.items():
            add_into(acc, lk, c)
        return DOp(acc, self.kappa + other.kappa)

    def __sub__(self, other: "DOp") -> "DOp":
        return self + (-1) * other

    def __rmul__(self, c) -> "DOp":
        c = scalar(c)
        return DOp({lk: c * v for lk, v in self.terms.items()}, c * self.kappa)

    def __bool__(self) -> bool:
        return bool(self.terms) or self.kappa != 0

    def to_json(self) -> dict:
        items = sorted(self.terms.items())
        return {
            "terms": [[l, k, format_scalar(c)] for (l, k), c in items],
            "kappa": format_scalar(self.kappa),
        }


def _compose_basis(l1: int, k1: int, l2: int, k2: int) -> dict[tuple[int, int], int]:
    """J^{l1}_{k1} J^{l2}_{k2} as an operator composition, in the J basis.

    Composition uses d^l t^b = sum_j C(l,j) b(b-1)...(b-j+1) t^{b-j} d^{l-j}.
    The overall sign of the basis elements is a convention the cocycle
    cannot see (it is even under J -> -J, while the bracket's
    non-central part is odd).  We fix the sign so that the free-field
    currents represent the bracket on the nose, i.e. we compose in the
    basis +t^{l+k} d^l; the map J^l_k -> -J^l_k is an isomorphism onto
    the presentation built on -t^{l+k} d^l with the same cocycle, so
    all structural statements (Jacobi, gradings, singular-vector
    weights, decoupling) are unaffected.
    """
    out: dict[tuple[int, int], int] = {}
    b = l2 + k2
    for j in range(l1 + 1):
        coef = math.comb(l1, j) * _falling(b, j)
        if coef == 0:
            continue
        add_into(out, (l1 + l2 - j, k1 + k2), coef)
    return out


def bracket_basis(l1: int, k1: int, l2: int, k2: int) -> DOp:
    ab = _compose_basis(l1, k1, l2, k2)
    ba = _compose_basis(l2, k2, l1, k1)
    acc = dict(ab)
    for lk, c in ba.items():
        add_into(acc, lk, -c)
    return DOp(acc, cocycle(l1, k1, l2, k2))


def d_bracket(a: DOp, b: DOp) -> DOp:
    """[a, b] with the central term; kappa itself is central."""
    out = DOp()
    for (l1, k1), c1 in a.terms.items():
        for (l2, k2), c2 in b.terms.items():
            out = out + (c1 * c2) * bracket_basis(l1, k1, l2, k2)
    return out


def field_mode(l: int, k_sub: int) -> int:
    """Field-convention mode index of J^l_{k_sub}: J^l(k) = J^l_{k-l}."""
    return k_sub + l


def sub_index(l: int, k_field: int) -> int:
    return k_field - l


# ---------------------------------------------------------------------------
# free-field realizations
# ---------------------------------------------------------------------------

_REALIZE_CACHE: dict[tuple[str, int, int], State] = {}


def realize_current(l: int, alg: AlgebraDescriptor) -> State:
    """The weight-(l+1), degree-2 current sum_i :gamma^i d^l beta^i:
    (kind bg) or sum_i :c^i d^l b^i: (kind bc)."""
    if alg.kind not in ("bg", "bc"):
        raise ValueError("currents are realized in the bg or bc system only")
    if l < 0:
        raise ValueError("differential order l must be >= 0")
    key = (alg.kind, alg.rank, l)
    hit = _REALIZE_CACHE.get(key)
    if hit is not None:
        return hit
    left, right = (GAMMA, BETA) if alg.kind == "bg" else (C, B)
    out = State()
    for i in range(1, alg.rank + 1):
        out = out + iterated_wick([generator_state(left, i), derive(generator_state(right, i), l)])
    _REALIZE_CACHE[key] = out
    return out


def default_central_value(alg: AlgebraDescriptor) -> Fraction:
    """Central element specialization under the realization: -n for the
    bosonic system, +n for the fermionic one."""
    if alg.kind == "bg":
        return Fraction(-alg.rank)
    if alg.kind == "bc":
        return Fraction(alg.rank)
    raise ValueError("no realized central value for kind " + alg.kind)


def verify_rep(
    pairs,
    alg: AlgebraDescriptor,
    max_weight: int,
    max_degree: int,
    kappa_value: Fraction | None = None,
) -> dict:
    """Check, on every basis state of each tested bidegree, that the
    commutator of realized mode operators equals the realized bracket
    with the central element specialized.

    ``pairs`` is a sequence of (l1, k1, l2, k2), one per bracket
    [J^{l1}_{k1}, J^{l2}_{k2}].  Modes act through ``ope.current_mode``
    on the realized currents, word by word, with integer coefficients.
    The image of each word under each mode is computed once per call
    (in a dict local to the call) and shared by every pair, every
    bracket term and every basis state that meets it.  For each pair
    and basis word s, J_a(J_b s) - J_b(J_a s) - central s - sum c J_m s
    is summed into one dict, and the pair fails on s iff a coefficient
    is nonzero.  Returns an exact report {"checked": count,
    "mismatches": [...]}, mismatches ordered by pair, then weight,
    degree and basis order; each carries the basis state and the
    difference as expressions that ``vertexfock eval`` reads back.
    """
    if kappa_value is None:
        kappa_value = default_central_value(alg)
    # images[mode][word] = J^l(k) word, mode = (l, field index); the
    # images hold one copy of each word, the one in ``words``
    images: dict[tuple[int, int], dict[Monomial, dict[Monomial, int]]] = {}
    words: dict[Monomial, Monomial] = {}
    # per pair: the two modes, the central scalar, the bracket's image
    # caches with their coefficients, and the pair's mismatches
    checks = []
    for l1, k1, l2, k2 in pairs:
        br = bracket_basis(l1, k1, l2, k2)
        a, b = (l1, field_mode(l1, k1)), (l2, field_mode(l2, k2))
        images.setdefault(a, {})
        images.setdefault(b, {})
        checks.append((
            a, b,
            scalar(br.kappa * kappa_value),
            [(images.setdefault((l, field_mode(l, k)), {}), c) for (l, k), c in br.terms.items()],
            [],
        ))
    modes = {(l, k): current_mode(realize_current(l, alg), k) for l, k in images}

    def image(mode, mono):
        return {words.setdefault(w, w): c for w, c in modes[mode](mono).items()}

    checked = 0
    for w in range(max_weight + 1):
        for d in range(max_degree + 1):
            for mono in basis(alg, w, d):
                for mode, cache in images.items():
                    if mono not in cache:
                        cache[mono] = image(mode, mono)
                for a, b, central, terms, found in checks:
                    acc = {mono: -central}
                    get = acc.get
                    # J_a (J_b s) - J_b (J_a s)
                    for outer, inner, sign in ((a, b, 1), (b, a, -1)):
                        cache = images[outer]
                        for w1, c1 in images[inner][mono].items():
                            img = cache.get(w1)
                            if img is None:
                                img = cache[w1] = image(outer, w1)
                            c1 *= sign
                            for w2, c2 in img.items():
                                acc[w2] = get(w2, 0) + c1 * c2
                    for cache, c in terms:
                        for w1, c1 in cache[mono].items():
                            acc[w1] = get(w1, 0) - c * c1
                    if any(acc.values()):
                        found.append(
                            {
                                "l1": a[0], "k1": sub_index(*a),
                                "l2": b[0], "k2": sub_index(*b),
                                "weight": w, "degree": d,
                                "state": state_to_text(State._raw({mono: 1})),
                                "difference": state_to_text(State(acc)),
                            }
                        )
                checked += len(checks)
    return {"checked": checked, "mismatches": [m for *_, found in checks for m in found]}


# ---------------------------------------------------------------------------
# mode action on degree-1 symbols, and the associated matrices
# ---------------------------------------------------------------------------


def action_coeffs(w: int, k: int, l: int) -> tuple[Scalar, Scalar]:
    """Closed-form coefficients of J^{w+k}(k) on the degree-1 symbols:
    beta_l -> lam * beta_{l+w}, gamma_l -> mu * gamma_{l+w}, with

        lam = -l!/(l-k)!            (0 when l < k)
        mu  = (-1)^{w+k} (w+k+l)!/(l+w)!
    """
    if w < 1 or k < 0 or l < 0:
        raise ValueError("need w >= 1, k >= 0, l >= 0")
    lam = 0 if l - k < 0 else Fraction(-math.factorial(l), math.factorial(l - k))
    mu = Fraction((-1) ** (w + k) * math.factorial(w + k + l), math.factorial(l + w))
    return lam, mu


def action_block_matrix(w: int, m: int) -> SparseMatrix:
    """The (2m+2) x (2m+2) matrix whose columns are the restrictions of
    J^{w+k}(k), k = 0..2m+1, to the span of beta_0..beta_m,
    gamma_0..gamma_m: rows 0..m are the gamma coefficients, rows
    m+1..2m+1 the beta coefficients."""
    if w < 1 or m < 0:
        raise ValueError("need w >= 1, m >= 0")
    entries: dict[tuple[int, int], Scalar] = {}
    for i in range(m + 1):
        for k in range(2 * m + 2):
            lam, mu = action_coeffs(w, k, i)
            if mu != 0:
                entries[(i, k)] = mu
            if lam != 0:
                entries[(m + 1 + i, k)] = lam
    return SparseMatrix(2 * m + 2, 2 * m + 2, entries)


def rising_product_matrix(r: int, m: int) -> SparseMatrix:
    """(m+1) x (m+1) matrix with entry (i, j) = (r+i+1)(r+i+2)...(r+i+j)
    (and 1 for j = 0); row-reduces out of the factorial-ratio matrix and
    is invertible for all r, m >= 1."""
    entries: dict[tuple[int, int], int] = {}
    for i in range(m + 1):
        val = 1
        for j in range(m + 1):
            if j > 0:
                val *= r + i + j
            entries[(i, j)] = val
    return SparseMatrix(m + 1, m + 1, entries)


def factorial_ratio_matrix(w: int, m: int) -> SparseMatrix:
    """(m+1) x (m+1) matrix with entry (i, j) = (r+i+j)!/(w+i)! where
    r = w+m+1; column-equivalent to the gamma-block of the action
    matrix and row-equivalent to the rising-product matrix."""
    r = w + m + 1
    entries: dict[tuple[int, int], Fraction] = {}
    for i in range(m + 1):
        for j in range(m + 1):
            entries[(i, j)] = Fraction(math.factorial(r + i + j), math.factorial(w + i))
    return SparseMatrix(m + 1, m + 1, entries)


def express_diagonal_map(w: int, m: int, cs, ds) -> list[Scalar]:
    """Coefficients t_0..t_{2m+1} with sum_k t_k J^{w+k}(k) acting on the
    degree-1 symbols with index <= m as gamma_i -> c_i gamma_{i+w},
    beta_i -> d_i beta_{i+w}.  The solve is always unique; a singular
    matrix here is a bug, not a data condition."""
    if len(cs) != m + 1 or len(ds) != m + 1:
        raise ValueError(f"need m+1 = {m + 1} gamma and beta coefficients")
    mat = action_block_matrix(w, m)
    sol = linalg.solve(mat, dict(enumerate([*cs, *ds])))
    if sol is None or linalg.rank(mat) != 2 * m + 2:
        raise ArithmeticError(f"action matrix unexpectedly singular at w={w}, m={m}")
    return [sol.get(k, 0) for k in range(2 * m + 2)]
