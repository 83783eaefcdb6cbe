"""Circle products a o_n b on states, for every integer n.

Under the state-field correspondence, a o_n b is the n-th Fourier mode
of the field of a applied to b.  The engine never manipulates formal
distributions; it works on states:

  * the vacuum is the unit, 1 o_n b = delta_{n,-1} b;
  * otherwise the leading creation mode of a is peeled off,
    a = u(-m-1) a', and the product is expanded by the iterate rule

      (u(-m-1) a') o_n b
        = sum_{k>=0} binom(k+m, m) u(-k-m-1) (a' o_{n+k} b)
        + (-1)^{|u||a'|} (-1)^m
          sum_{j>=0} binom(j+m, m) a' o_{n-j-m-1} (u(j) b).

Both sums are finite: the first because weights are bounded below by
zero (a' o_q b = 0 once q exceeds wt a' + wt b - 1), the second because
u(j) eventually kills every mode of b.  Recursion terminates since the
first argument loses one mode per step.

n = -1 is the Wick product, n = -2 against the vacuum is the
derivative; n >= 0 are the OPE pole coefficients.

Both inner steps work on canonical words directly: a creation mode is
inserted into its place in one pass (the other factors are already in
order), and u(j) b visits only the factors of b that contract with u.

What is memoized: every product ma o_n mb of monomials with a nonempty
first word, keyed by (ma, n, mb), with its integer structure constants
({monomial: int}) as the value, in the module dict ``_MEMO``.  Vacuum
products 1 o_n mb are not memoized: they are returned directly.  The
cache is semantically invisible (idempotent inserts of values that are
never mutated), so concurrent evaluation of independent products is
safe; ``clear_cache`` empties it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .fock import (
    CONTRACTION,
    SPECIES_DUAL,
    SPECIES_PARITY,
    GeneratorMode,
    Monomial,
    State,
    canonicalize,
    mono_parity,
    mono_weight,
    parity,
    state_to_json,
    state_to_text,
    weight,
)
from .linalg import add_into

# structure constants of monomial products are integers
_MEMO: dict[tuple[Monomial, int, Monomial], dict[Monomial, int]] = {}


def clear_cache() -> None:
    _MEMO.clear()


def _insert_creation(g: GeneratorMode, mono: Monomial) -> tuple[int, Monomial] | None:
    """canonicalize((g,) + mono) for a canonical mono, in one pass.

    g moves right past every factor that sorts before it; the sign
    counts the odd factors it passes when g is odd.  None if g is a
    fermionic mode already present.
    """
    sp, idx, mode = g
    odd = SPECIES_PARITY[sp]
    sign = 1
    for pos, h in enumerate(mono):
        hsp, hidx, hmode = h
        if hsp > sp or (hsp == sp and (hidx > idx or (hidx == idx and hmode <= mode))):
            if odd and h == g:
                return None
            return sign, mono[:pos] + (g,) + mono[pos:]
        if odd and SPECIES_PARITY[hsp]:
            sign = -sign
    return sign, mono + (g,)


def _contraction_partners(sp: int, idx: int, mono: Monomial) -> list[tuple[int, Monomial, int]]:
    """Every nonzero u(j) mono, u = (sp, idx), as (j, word, coefficient)
    by ascending j.

    The partners are the factors of the dual species with the same
    index; canonical order lists them by descending mode, so by
    ascending j = -mode - 1.  A repeated boson contracts once per copy,
    and every copy leaves the same word.  Agrees with
    ``_apply_annihilation((sp, idx, j), mono)`` for every j >= 0.
    """
    dual = SPECIES_DUAL[sp]
    odd = SPECIES_PARITY[sp]
    pairing = CONTRACTION[(sp, dual)]
    out: list[tuple[int, Monomial, int]] = []
    sign = 1
    for pos, h in enumerate(mono):
        hsp = h[0]
        if hsp == dual and h[1] == idx:
            if pos and h == mono[pos - 1]:
                j, word, c = out[-1]
                out[-1] = (j, word, c + pairing)
            else:
                out.append((-h[2] - 1, mono[:pos] + mono[pos + 1:], sign * pairing))
        if odd and SPECIES_PARITY[hsp]:
            sign = -sign
    return out


def _circle_mono(ma: Monomial, n: int, mb: Monomial) -> dict[Monomial, int]:
    if not ma:
        return {mb: 1} if n == -1 else {}
    key = (ma, n, mb)
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    sp, idx, mode = ma[0]
    m = -mode - 1
    ap = ma[1:]
    wa, wb = mono_weight(ap), mono_weight(mb)
    acc: dict[Monomial, int] = {}

    # normally ordered part: creation modes of the peeled generator
    for k in range(0, wa + wb - n):
        inner = _circle_mono(ap, n + k, mb)
        if not inner:
            continue
        coef = math.comb(k + m, m)
        g = (sp, idx, -(k + m) - 1)
        for mono2, c2 in inner.items():
            r = _insert_creation(g, mono2)
            if r is None:
                continue
            sg, mono3 = r
            add_into(acc, mono3, sg * coef * c2)

    # contraction part: annihilation modes of the peeled generator
    sign = (-1) ** m
    if SPECIES_PARITY[sp] and mono_parity(ap):
        sign = -sign
    for j, mono2, c2 in _contraction_partners(sp, idx, mb):
        coef = sign * math.comb(j + m, m) * c2
        for mono3, c3 in _circle_mono(ap, n - j - m - 1, mono2).items():
            add_into(acc, mono3, coef * c3)

    _MEMO[key] = acc
    return acc


def circle(a: State, n: int, b: State) -> State:
    """The n-th circle product of two states, exactly."""
    acc: dict[Monomial, Fraction] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            inner = _circle_mono(ma, n, mb)
            if not inner:
                continue
            c = ca * cb
            for mono, v in inner.items():
                add_into(acc, mono, c * v)
    return State._raw(acc)


def wick(a: State, b: State) -> State:
    """Normally ordered (Wick) product; coincides with a o_{-1} b."""
    return circle(a, -1, b)


def iterated_wick(states) -> State:
    """Right-nested iterated Wick product :a_1 a_2 ... a_k:."""
    states = list(states)
    if not states:
        raise ValueError("iterated Wick product of an empty list")
    out = states[-1]
    for s in reversed(states[:-1]):
        out = wick(s, out)
    return out


def derive(a: State, times: int = 1) -> State:
    """Translation operator: on a word, sum over factors of
    u(-m) -> m u(-m-1).  Equals a o_{-2} vacuum."""
    out = a
    for _ in range(times):
        acc: dict[Monomial, Fraction] = {}
        for mono, c in out.terms.items():
            for pos, (sp, idx, mode) in enumerate(mono):
                factors = list(mono)
                factors[pos] = (sp, idx, mode - 1)
                r = canonicalize(factors)
                if r is None:
                    continue
                sg, mono2 = r
                add_into(acc, mono2, sg * c * (-mode))
        out = State._raw(acc)
    return out


def locality_bound(a: State, b: State) -> int:
    """N with a o_n b = 0 for all n >= N: weights are nonnegative, so
    products of total weight < 0 vanish."""
    return weight(a) + weight(b) + 1


@dataclass
class OpeTable:
    """Nonzero singular OPE terms a o_n b for 0 <= n < locality bound."""

    locality_bound: int
    poles: list[tuple[int, State]]  # (n, a o_n b), nonzero entries only

    def to_json(self) -> dict:
        return {
            "locality_bound": self.locality_bound,
            "poles": [[n + 1, state_to_json(s)] for n, s in self.poles],
        }

    def to_text(self, lhs: str = "a(z)b(w)") -> str:
        if not self.poles:
            return f"{lhs} ~ 0"
        bits = [f"[{state_to_text(s)}] (z-w)^-{n + 1}" for n, s in self.poles]
        return f"{lhs} ~ " + " + ".join(bits)


def ope_table(a: State, b: State) -> OpeTable:
    """All nonzero non-negative circle products of weight-homogeneous states."""
    bound = locality_bound(a, b)
    poles = []
    for n in range(bound):
        s = circle(a, n, b)
        if s:
            poles.append((n, s))
    return OpeTable(bound, poles)


def _sign_factor(a: State, b: State) -> int:
    return -1 if parity(a) and parity(b) else 1


@dataclass
class IdentityReport:
    """Exact evaluation of both sides of the four Wick/circle identities."""

    n: int
    defects: dict[str, State]

    @property
    def ok(self) -> bool:
        return all(not d for d in self.defects.values())

    def mismatch_names(self) -> list[str]:
        return [k for k, d in self.defects.items() if d]


def check_identities(a: State, b: State, c: State, n: int) -> IdentityReport:
    """Verify the nested-Wick, Wick-commutator, derivation-defect and
    iterate identities on a concrete triple, for a positive integer n.

    Inputs must be parity-homogeneous (the sign rules need it).
    Returns the exact difference lhs - rhs of each identity; all four
    must vanish.
    """
    if n < 1:
        raise ValueError("the identity parameter n must be a positive integer")
    for s in (a, b, c):
        parity(s)  # raises on mixed parity
    sab = _sign_factor(a, b)
    defects: dict[str, State] = {}

    # :(:ab:)c: - :abc: = sum_k 1/(k+1)! ( :(d^{k+1}a)(b o_k c): + sgn :(d^{k+1}b)(a o_k c): )
    lhs = wick(wick(a, b), c) - iterated_wick([a, b, c])
    rhs = State()
    for k in range(max(locality_bound(b, c), locality_bound(a, c))):
        coef = Fraction(1, math.factorial(k + 1))
        bc = circle(b, k, c)
        if bc:
            rhs = rhs + coef * wick(derive(a, k + 1), bc)
        ac = circle(a, k, c)
        if ac:
            rhs = rhs + sab * coef * wick(derive(b, k + 1), ac)
    defects["nested_wick"] = lhs - rhs

    # :ab: - sgn :ba: = sum_k (-1)^k/(k+1)! d^{k+1}(a o_k b)
    lhs = wick(a, b) - sab * wick(b, a)
    rhs = State()
    for k in range(locality_bound(a, b)):
        ab = circle(a, k, b)
        if ab:
            rhs = rhs + Fraction((-1) ** k, math.factorial(k + 1)) * derive(ab, k + 1)
    defects["wick_commutator"] = lhs - rhs

    # a o_n :bc: - :(a o_n b)c: - sgn :b(a o_n c): = sum_{k=1}^n C(n,k) (a o_{n-k} b) o_{k-1} c
    lhs = circle(a, n, wick(b, c)) - wick(circle(a, n, b), c) - sab * wick(b, circle(a, n, c))
    rhs = State()
    for k in range(1, n + 1):
        ab = circle(a, n - k, b)
        if ab:
            rhs = rhs + math.comb(n, k) * circle(ab, k - 1, c)
    defects["derivation_defect"] = lhs - rhs

    # (:ab:) o_n c = sum_k 1/k! :(d^k a)(b o_{n+k} c): + sgn sum_k b o_{n-k-1} (a o_k c)
    lhs = circle(wick(a, b), n, c)
    rhs = State()
    for k in range(locality_bound(b, c)):
        bc = circle(b, n + k, c)
        if bc:
            rhs = rhs + Fraction(1, math.factorial(k)) * wick(derive(a, k), bc)
    for k in range(locality_bound(a, c)):
        ac = circle(a, k, c)
        if ac:
            rhs = rhs + circle(b, n - k - 1, sab * ac)
    defects["iterate"] = lhs - rhs

    return IdentityReport(n, defects)
