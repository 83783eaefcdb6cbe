"""Circle products a o_n b on states, for every integer n.

Under the state-field correspondence, a o_n b is the n-th Fourier mode
of the field of a applied to b.  The engine never manipulates formal
distributions; it works on canonical words (monomials) and expands the
product of two words by Wick's theorem for free fields.

The word a = u_1(-m_1-1) ... u_r(-m_r-1) |0> has the field
:d^(m_1) u_1(z) ... d^(m_r) u_r(z):, d^(m) = d^m / m!, whose factors
split into a creation part sum_k binom(k+m, m) u(-k-m-1) z^k and an
annihilation part (-1)^m sum_j binom(j+m, m) u(j) z^(-j-m-1).  The
normal order puts every annihilation part to the right of every
creation part, so ma o_n mb is computed in two stages.

  * Contraction (independent of n, cached per (ma, mb)).  Walk the
    factors of ma from right to left.  Each either stays a creator, or
    contracts, through its annihilation mode u(j), with a factor of the
    current word (a partner of the dual species and the same index);
    the coefficient is (-1)^m binom(j+m, m) times the pairing, negated
    when u is odd and passes an odd number of odd creators on its way
    right, and the pole order q grows by j+m+1.  The result is a list
    of (word, coefficient, q, creators).
  * Creation (per n).  The power of z must be -n-1, so the creators
    share K = q-n-1 >= 0 among them, k_i >= 0 with sum k_i = K, with
    coefficient prod binom(k_i+m_i, m_i); each u(-k-m-1) is inserted
    into its place in one pass, rightmost creator first.

Entries with K < 0 contribute nothing, so products past the locality
bound vanish without work.  n = -1 is the Wick product, n = -2 against
the vacuum is the derivative; n >= 0 are the OPE pole coefficients.

What is memoized, in three module dicts that ``clear_cache`` empties:
``_CONTRACTIONS`` holds the contraction list of every pair (ma, mb) with
a nonempty first word, and ``_MEMO`` every product ma o_n mb with a
nonempty first word, keyed by (ma, n, mb), with its integer structure
constants ({monomial: int}) as the value.  Vacuum products 1 o_n mb
are returned directly and memoized in neither.  Both caches hold one
shared copy of each word: ``_WORDS`` maps every word they store to
itself, and each stored term looks its word up there once, outside the
stage-2 loops.  Stage 2 builds a fresh tuple for every output word, and
the same few thousand words recur across many products, so without the
table the memo would hold many equal copies of each.  The caches are semantically invisible
(idempotent inserts of values that are never mutated), so concurrent
evaluation of independent products is safe.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fock import (
    CONTRACTION,
    SPECIES_DUAL,
    SPECIES_PARITY,
    GeneratorMode,
    Monomial,
    State,
    mono_parity,
    parity,
    state_to_json,
    state_to_text,
    weight,
    words_of_weight,
)
from .linalg import Record, add_into

# structure constants of monomial products are integers
_MEMO: dict[tuple[Monomial, int, Monomial], dict[Monomial, int]] = {}
# (ma, mb) -> [(word, coefficient, pole order q, creators, rightmost first)]
Contraction = tuple[Monomial, int, int, tuple[GeneratorMode, ...]]
_CONTRACTIONS: dict[tuple[Monomial, Monomial], list[Contraction]] = {}
# the one copy of each word that the two caches above hold
_WORDS: dict[Monomial, Monomial] = {}


def clear_cache() -> None:
    _MEMO.clear()
    _CONTRACTIONS.clear()
    _WORDS.clear()


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


def _replace_factor(mono: Monomial, pos: int, g: GeneratorMode) -> tuple[int, Monomial] | None:
    """canonicalize of mono with the factor at pos replaced by g, of the
    same parity: the old factor moves to the front past the prefix (a
    sign if both are odd) and g is inserted by ``_insert_creation``."""
    r = _insert_creation(g, mono[:pos] + mono[pos + 1:])
    if r is not None and SPECIES_PARITY[g[0]] and mono_parity(mono[:pos]):
        return -r[0], r[1]
    return r


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


def _contractions(ma: Monomial, mb: Monomial) -> list[Contraction]:
    """Stage 1 of ma o_n mb (see the module docstring), for every n."""
    key = (ma, mb)
    hit = _CONTRACTIONS.get(key)
    if hit is not None:
        return hit
    # (word, q, creators) -> coefficient; the odd creators of a partial
    # term are those the next (leftward) factor has to pass
    layer: dict[tuple[Monomial, int, tuple[GeneratorMode, ...]], int] = {(mb, 0, ()): 1}
    for g in reversed(ma):
        sp, idx, mode = g
        m = -mode - 1
        odd = SPECIES_PARITY[sp]
        nxt: dict[tuple[Monomial, int, tuple[GeneratorMode, ...]], int] = {}
        for (word, q, creators), c in layer.items():
            add_into(nxt, (word, q, creators + (g,)), c)
            sign = -c if m & 1 else c
            if odd and mono_parity(creators):
                sign = -sign
            for j, word2, c2 in _contraction_partners(sp, idx, word):
                add_into(nxt, (word2, q + j + m + 1, creators), sign * math.comb(j + m, m) * c2)
        layer = nxt
    share = _WORDS.setdefault
    out = [(share(word, word), c, q, creators) for (word, q, creators), c in layer.items()]
    _CONTRACTIONS[key] = out
    return out


def _circle_mono(ma: Monomial, n: int, mb: Monomial) -> dict[Monomial, int]:
    if not ma:
        return {mb: 1} if n == -1 else {}
    key = (ma, n, mb)
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    acc: dict[Monomial, int] = {}
    for word, coef, q, creators in _contractions(ma, mb):
        rest = q - n - 1
        if rest < 0:
            continue
        if not creators:
            if not rest:
                add_into(acc, word, coef)
            continue
        # stage 2: (creation modes still to share out, word) -> coefficient;
        # the leftmost creator takes whatever is left
        layer = {(rest, word): coef}
        for sp, idx, mode in creators[:-1]:
            m = -mode - 1
            nxt: dict[tuple[int, Monomial], int] = {}
            for (rest, w), c in layer.items():
                for k in range(rest + 1):
                    r = _insert_creation((sp, idx, mode - k), w)
                    if r is not None:
                        add_into(nxt, (rest - k, r[1]), r[0] * math.comb(k + m, m) * c)
            layer = nxt
        sp, idx, mode = creators[-1]
        m = -mode - 1
        for (rest, w), c in layer.items():
            r = _insert_creation((sp, idx, mode - rest), w)
            if r is not None:
                add_into(acc, r[1], r[0] * math.comb(rest + m, m) * c)
    share = _WORDS.setdefault
    acc = _MEMO[key] = {share(w, w): c for w, c in acc.items()}
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


def derivative_words(weights, total: int, max_len: int | None = None) -> list[tuple]:
    """Every normally ordered word of the given total weight in
    generators of the given positive weights and their derivatives,
    with at most max_len letters.  Letter (i, t), the t-th derivative
    of generator i, has weight weights[i] + t; letters are weakly
    decreasing.  Every word has a letter: a total below 1 gives none."""
    if total < 1:
        return []
    letters = sorted(((i, t) for i, w in enumerate(weights) for t in range(total - w + 1)),
                     reverse=True)
    return words_of_weight(letters, [weights[i] + t for i, t in letters], total, max_len=max_len)


def word_products(generators, words) -> list[State]:
    """The right-nested Wick product of each ``derivative_words`` word in
    the given generator states, each derived letter computed once."""
    derived = {x: derive(generators[x[0]], x[1]) for x in set().union(*words)}
    return [iterated_wick([derived[x] for x in w]) for w in words]


def derive(a: State, times: int = 1) -> State:
    """Translation operator: on a word, sum over factors of
    u(-m) -> m u(-m-1).  Equals a o_{-2} vacuum."""
    out = a
    for _ in range(times):
        acc: dict[Monomial, Fraction] = {}
        for mono, c in out.terms.items():
            for pos, (sp, idx, mode) in enumerate(mono):
                r = _replace_factor(mono, pos, (sp, idx, mode - 1))
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


class OpeTable(Record):
    """Nonzero singular OPE terms a o_n b for 0 <= n < locality bound:
    poles lists (n, a o_n b), nonzero entries only."""

    __slots__ = ("locality_bound", "poles")

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


class IdentityReport(Record):
    """Exact evaluation of both sides of the four Wick/circle identities:
    defects maps each identity's name to the State lhs - rhs."""

    __slots__ = ("n", "defects")

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
