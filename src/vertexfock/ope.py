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
    right, and the pole order q grows by j+m+1.  The result lists
    (word, coefficient, q, creators) for each term.
  * Creation (per n).  The power of z must be -n-1, so the creators
    share K = q-n-1 >= 0 among them, k_i >= 0 with sum k_i = K, with
    coefficient prod binom(k_i+m_i, m_i); each u(-k-m-1) is inserted
    into its place in one pass, rightmost creator first.

Entries with K < 0 contribute nothing, so products past the locality
bound vanish without work.  n = -1 is the Wick product, n = -2 against
the vacuum is the derivative; n >= 0 are the OPE pole coefficients.

Both stages spell words in integers.  The letter (sp, idx, mode),
mode < 0, has the code sp << 28 | idx << 18 | -mode (``_code``), so
ascending code is canonical order (sp, idx, -mode), and a canonical
word is an ascending tuple of codes.  The fermions b and c have the top
species codes, so the odd letters of a canonical word are a suffix.
Inserting a letter is then one ``bisect_left``: a repeated fermion is
equality at that place, and an odd letter's sign is the parity of the
odd letters before it.  The partners of a letter are one bisected block
of codes, and lowering a creator's mode by k adds k to its code.
``_code`` refuses a letter that a field cannot hold (a mode >= 0 or
below -(2^18 - 1), an index above 1023), and ``_lower`` a lowering past
the mode field, so two letters never share a code.

What is memoized, in module dicts that ``clear_cache`` empties:
``_CONTRACTIONS`` holds the contraction list of every pair (ma, mb) with
a nonempty first word, in codes, and ``_MEMO`` every product ma o_n mb
with a nonempty first word, keyed by (ma, n, mb), with its integer
structure constants as the value.  Every entry is an immutable flat
tuple, (monomial, int, monomial, int, ...) in ``_MEMO``, so a hit is
handed out as it is.  Both are keyed by Monomials, so a hit neither
encodes nor decodes; a miss encodes ma and mb once.  Vacuum products
1 o_n mb are returned directly and memoized in neither.  The caches hold
one shared copy of each word: ``_CODES`` holds the code words and
creator tuples of the contraction lists, ``_WORDS`` maps each code word
of a memo value to the one Monomial that spells it, ``_LETTERS`` each
code to the one letter tuple of decoded words, and ``_CODE_OF`` each
letter to the one int of its code; stage 2 builds a fresh tuple for
every output word, and the same few thousand words recur across many
products.  Nothing bounds the caches, but ``verify.identity_suite``
empties them at each trial, whose fresh triple shares almost no product
with the others.  The caches are semantically invisible (idempotent
inserts of immutable values), so concurrent evaluation of independent
products is safe.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction

from .fock import (
    B,
    CONTRACTION,
    SPECIES_DUAL,
    SPECIES_PARITY,
    GeneratorMode,
    Monomial,
    State,
    parity,
    state_to_json,
    state_to_text,
    weight,
    words_of_weight,
)
from .linalg import Record, Scalar, add_into, exact_terms

# The code of a letter (sp, idx, mode), mode < 0: see the module docstring.
_IDX_SHIFT = 18
_SP_SHIFT = 28
_MODE_MASK = (1 << _IDX_SHIFT) - 1
_IDX_MASK = (1 << _SP_SHIFT - _IDX_SHIFT) - 1
# every b and c letter codes at or above this, and no beta or gamma letter
_ODD = B << _SP_SHIFT
# code of the first letter of the dual species with the same index, minus
# the letter's own code with its mode field cleared
_DUAL_SHIFT = tuple((dual - sp) << _SP_SHIFT for sp, dual in enumerate(SPECIES_DUAL))
_PAIRING = tuple(CONTRACTION[(sp, dual)] for sp, dual in enumerate(SPECIES_DUAL))

CodeWord = tuple[int, ...]

# (ma, n, mb) -> (monomial, integer structure constant, monomial, ...)
_MEMO: dict[tuple[Monomial, int, Monomial], tuple] = {}
# (ma, mb) -> (code word, coefficient, pole order q, creator codes (rightmost
# first), code word, ...): four items per term, flat, which saves a tuple each
_CONTRACTIONS: dict[tuple[Monomial, Monomial], tuple] = {}
# the one copy of each code word and creator tuple that _CONTRACTIONS holds
_CODES: dict[CodeWord, CodeWord] = {}
# code word -> the one Monomial of it that _MEMO's values hold
_WORDS: dict[CodeWord, Monomial] = {}
# code -> the one letter tuple of it that decoded words hold
_LETTERS: dict[int, GeneratorMode] = {}
# letter -> its code, computed once, so that encoded words share their ints
_CODE_OF: dict[GeneratorMode, int] = {}


def clear_cache() -> None:
    _MEMO.clear()
    _CONTRACTIONS.clear()
    _CODES.clear()
    _WORDS.clear()
    _LETTERS.clear()
    _CODE_OF.clear()


def _code(g: GeneratorMode) -> int:
    """The code of a creation letter; ValueError if a field cannot hold it."""
    sp, idx, mode = g
    if not (0 <= sp < len(SPECIES_PARITY) and 0 <= idx <= _IDX_MASK and 0 < -mode <= _MODE_MASK):
        raise ValueError(f"letter {g} has no code: the engine needs a mode in "
                         f"-1..-{_MODE_MASK} and an index in 0..{_IDX_MASK}")
    return sp << _SP_SHIFT | idx << _IDX_SHIFT | -mode


def _encode(mono: Monomial) -> CodeWord:
    """The code word of a canonical Monomial; ValueError as ``_code``."""
    try:
        return tuple(map(_CODE_OF.__getitem__, mono))
    except KeyError:
        for g in mono:
            if g not in _CODE_OF:
                _CODE_OF[g] = _code(g)
        return tuple(map(_CODE_OF.__getitem__, mono))


def _letter(c: int) -> GeneratorMode:
    g = _LETTERS.get(c)
    if g is None:
        g = _LETTERS[c] = (c >> _SP_SHIFT, c >> _IDX_SHIFT & _IDX_MASK, -(c & _MODE_MASK))
    return g


def _decode(word: CodeWord) -> Monomial:
    """The Monomial of a code word, its letters shared through ``_LETTERS``."""
    return tuple(map(_letter, word))


def _lower(g: int, k: int) -> int:
    """The code of letter g with its mode lowered by k >= 0; ValueError
    past the mode field."""
    if (g & _MODE_MASK) + k > _MODE_MASK:
        sp, idx, mode = _letter(g)
        _code((sp, idx, mode - k))
    return g + k


def _insert_creation(g: int, word: CodeWord) -> tuple[int, CodeWord] | None:
    """canonicalize((g,) + word) for a canonical code word, by bisection.

    An odd g passes the odd letters before its place, and those are a
    suffix of the word, so the sign is the parity of their count.  None
    if g is a fermionic mode already present.
    """
    pos = bisect_left(word, g)
    if g < _ODD:
        return 1, word[:pos] + (g,) + word[pos:]
    if pos < len(word) and word[pos] == g:
        return None
    sign = -1 if (pos - bisect_left(word, _ODD, 0, pos)) & 1 else 1
    return sign, word[:pos] + (g,) + word[pos:]


def _replace_factor(word: CodeWord, pos: int, g: int) -> tuple[int, CodeWord] | None:
    """canonicalize of word with the letter at pos replaced by g, of the
    same parity: the old letter moves to the front past the prefix (a
    sign if both are odd) and g is inserted by ``_insert_creation``."""
    r = _insert_creation(g, word[:pos] + word[pos + 1:])
    if r is not None and g >= _ODD and (pos - bisect_left(word, _ODD, 0, pos)) & 1:
        return -r[0], r[1]
    return r


def _contraction_partners(g: int, word: CodeWord) -> list[tuple[int, CodeWord, int]]:
    """Every nonzero u(j) word, u the species and index of the code g
    (its mode field is ignored), as (j, word, coefficient) by ascending j.

    The partners are the letters of the dual species with the same
    index, one block of codes, in which ascending code is ascending
    j = -mode - 1.  A repeated boson contracts once per copy, and every
    copy leaves the same word.  Agrees with
    ``_apply_annihilation((sp, idx, j), word)`` for every j >= 0.
    """
    sp = g >> _SP_SHIFT
    base = g - (g & _MODE_MASK) + _DUAL_SHIFT[sp]
    lo = bisect_left(word, base)
    hi = bisect_left(word, base + _MODE_MASK + 1, lo)
    pairing = _PAIRING[sp]
    if g >= _ODD and (lo - bisect_left(word, _ODD, 0, lo)) & 1:
        pairing = -pairing
    out: list[tuple[int, CodeWord, int]] = []
    prev = None
    for pos in range(lo, hi):
        h = word[pos]
        if h == prev:
            j, w, c = out[-1]
            out[-1] = (j, w, c + pairing)
        else:
            out.append(((h & _MODE_MASK) - 1, word[:pos] + word[pos + 1:], pairing))
            if h >= _ODD:
                # the next partner passes this one too
                pairing = -pairing
        prev = h
    return out


def _contractions(ma: Monomial, mb: Monomial) -> tuple:
    """Stage 1 of ma o_n mb (see the module docstring), for every n."""
    key = (ma, mb)
    hit = _CONTRACTIONS.get(key)
    if hit is not None:
        return hit
    comb = math.comb
    # (word, q, creators) -> coefficient; when the next (leftward) letter
    # is odd, every creator is odd, so it passes len(creators) of them
    layer: dict[tuple[CodeWord, int, CodeWord], int] = {(_encode(mb), 0, ()): 1}
    for g in reversed(_encode(ma)):
        m = (g & _MODE_MASK) - 1
        odd = g >= _ODD
        nxt: dict[tuple[CodeWord, int, CodeWord], int] = {}
        get = nxt.get
        for (word, q, creators), c in layer.items():
            t = (word, q, creators + (g,))
            nxt[t] = get(t, 0) + c
            sign = -c if m & 1 else c
            if odd and len(creators) & 1:
                sign = -sign
            for j, word2, c2 in _contraction_partners(g, word):
                t = (word2, q + j + m + 1, creators)
                nxt[t] = get(t, 0) + sign * comb(j + m, m) * c2
        layer = nxt
    share = _CODES.setdefault
    out = tuple([x for (word, q, creators), c in layer.items() if c
                 for x in (share(word, word), c, q, share(creators, creators))])
    _CONTRACTIONS[key] = out
    return out


def _circle_mono(ma: Monomial, n: int, mb: Monomial) -> tuple:
    """ma o_n mb as the flat tuple (monomial, coefficient, monomial, ...)."""
    if not ma:
        return (mb, 1) if n == -1 else ()
    key = (ma, n, mb)
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    comb = math.comb
    acc: dict[CodeWord, int] = {}
    get = acc.get
    flat = iter(_contractions(ma, mb))
    for word, coef, q, creators in zip(flat, flat, flat, flat):
        rest = q - n - 1
        if rest < 0:
            continue
        if not rest:
            # every creator keeps its mode: one path, no layer
            for g in creators:
                r = _insert_creation(g, word)
                if r is None:
                    break
                coef *= r[0]
                word = r[1]
            else:
                acc[word] = get(word, 0) + coef
            continue
        if not creators:
            continue
        for g in creators:
            if (g & _MODE_MASK) + rest > _MODE_MASK:
                _lower(g, rest)  # refuses a mode past the code's field
        # stage 2: (creation modes still to share out, word) -> coefficient;
        # the leftmost creator takes whatever is left.  Lowering a creator
        # by k adds k to its code; the insertion is _insert_creation's.
        layer = {(rest, word): coef}
        for g in creators[:-1]:
            m = (g & _MODE_MASK) - 1
            row = [comb(k + m, m) for k in range(rest + 1)]
            odd = g >= _ODD
            nxt: dict[tuple[int, CodeWord], int] = {}
            nget = nxt.get
            for (r, w), c in layer.items():
                first = bisect_left(w, _ODD) if odd else 0
                for k in range(r + 1):
                    h = g + k
                    pos = bisect_left(w, h)
                    if odd:
                        if pos < len(w) and w[pos] == h:
                            continue
                        v = -c if (pos - first) & 1 else c
                    else:
                        v = c
                    t = (r - k, w[:pos] + (h,) + w[pos:])
                    nxt[t] = nget(t, 0) + row[k] * v
            layer = nxt
        g = creators[-1]
        m = (g & _MODE_MASK) - 1
        row = [comb(k + m, m) for k in range(rest + 1)]
        odd = g >= _ODD
        for (r, w), c in layer.items():
            h = g + r
            pos = bisect_left(w, h)
            if odd:
                if pos < len(w) and w[pos] == h:
                    continue
                if (pos - bisect_left(w, _ODD, 0, pos)) & 1:
                    c = -c
            t = w[:pos] + (h,) + w[pos:]
            acc[t] = get(t, 0) + row[r] * c
    words = _WORDS
    out = []
    for w, c in acc.items():
        if c:
            mono = words.get(w)
            if mono is None:
                mono = words[w] = _decode(w)
            out += (mono, c)
    out = _MEMO[key] = tuple(out)
    return out


def circle(a: State, n: int, b: State) -> State:
    """The n-th circle product of two states, exactly.  Coefficients
    are integer-first (``linalg.scalar``): only a Fraction input pays
    the pass that turns integral ones into ints."""
    acc: dict[Monomial, Scalar] = {}
    frac = False
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            inner = _circle_mono(ma, n, mb)
            if not inner:
                continue
            c = ca * cb
            if c.__class__ is not int:
                frac = True
            flat = iter(inner)
            for mono, v in zip(flat, flat):
                add_into(acc, mono, c * v)
    return State._raw(exact_terms(acc) if frac else acc)


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
    u(-m) -> m u(-m-1).  Equals a o_{-2} vacuum.  Coefficients are
    integer-first, as for ``circle``."""
    if times < 0:
        raise ValueError("the number of derivatives must be >= 0")
    if times == 0:
        return a
    frac = any(c.__class__ is not int for c in a.terms.values())
    terms = {_encode(mono): c for mono, c in a.terms.items()}
    for _ in range(times):
        acc: dict[CodeWord, Scalar] = {}
        for word, c in terms.items():
            for pos, g in enumerate(word):
                r = _replace_factor(word, pos, _lower(g, 1))
                if r is not None:
                    add_into(acc, r[1], r[0] * c * (g & _MODE_MASK))
        terms = exact_terms(acc) if frac else acc
    return State._raw({_decode(word): c for word, c in terms.items()})


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
    # d^k a and d^k b by ascending k, each one derivation of the one before
    da, db = [a], [b]

    def d(ds: list[State], k: int) -> State:
        while len(ds) <= k:
            ds.append(derive(ds[-1]))
        return ds[k]

    # :(:ab:)c: - :abc: = sum_k 1/(k+1)! ( :(d^{k+1}a)(b o_k c): + sgn :(d^{k+1}b)(a o_k c): )
    lhs = wick(wick(a, b), c) - iterated_wick([a, b, c])
    rhs = State()
    for k in range(max(locality_bound(b, c), locality_bound(a, c))):
        coef = Fraction(1, math.factorial(k + 1))
        bc = circle(b, k, c)
        if bc:
            rhs = rhs + coef * wick(d(da, k + 1), bc)
        ac = circle(a, k, c)
        if ac:
            rhs = rhs + sab * coef * wick(d(db, k + 1), ac)
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
            rhs = rhs + Fraction(1, math.factorial(k)) * wick(d(da, k), bc)
    for k in range(locality_bound(a, c)):
        ac = circle(a, k, c)
        if ac:
            rhs = rhs + circle(b, n - k - 1, sab * ac)
    defects["iterate"] = lhs - rhs

    return IdentityReport(n, defects)
