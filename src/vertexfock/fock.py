"""Fock-space model of the free bosonic and fermionic field algebras.

A state is a finite rational linear combination of normally ordered
words of creation modes applied to the vacuum.  The generators come in
a bosonic pair beta/gamma and a fermionic pair b/c, indexed by
1..rank, with the single-pole pairings

    [beta^i(k), gamma^j(m)] = delta_ij delta_{k+m+1,0}
    {b^i(k),    c^j(m)}     = delta_ij delta_{k+m+1,0}

and all like-species (anti)commutators zero.  Modes are the Fourier
indices of a(z) = sum_m a(m) z^{-m-1}; modes m >= 0 kill the vacuum.

Gradings.  beta and b have conformal weight 1, gamma and c weight 0;
the mode a(m) of a weight-D generator shifts weight by D - m - 1, so
all states have weight >= 0.  The filtration degree of a word is its
number of modes.  The weight-0 subspace is infinite-dimensional
(powers of gamma(-1)), so enumeration is always bigraded by
(weight, degree); group actions filter the result by charge.

Monomials are kept in a canonical order: species beta < gamma < b < c,
then index ascending, then mode descending.  Fermionic reordering
signs are transposition counts; a repeated fermionic mode is zero.

Words are spelled in integers.  The creation letter (sp, idx, mode),
mode < 0, has the code sp << 28 | idx << 18 | -mode, so ascending code
is canonical order, and a canonical word (a ``Monomial``) is an
ascending tuple of codes; the vacuum is ().  The fermions b and c have
the top species codes, so the odd letters of a canonical word are a
suffix.  ``State.terms`` and every computation hold words so; only
where a word is read or written (JSON, text, ``repr``, symbols, the
letter of ``apply_mode``) do ``word`` and ``letters`` convert between
letter triples and codes.  ``word`` refuses a letter that a field
cannot hold (a mode >= 0 or below -(2^18 - 1), an index outside
1..1023), so two letters never share a code and no word holds an
annihilation mode.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Combination, Frozen, Scalar, add_into, format_scalar, scalar

# species codes, in canonical order
BETA, GAMMA, B, C = 0, 1, 2, 3
SPECIES_NAMES = ("beta", "gamma", "b", "c")
SPECIES_BY_NAME = {name: code for code, name in enumerate(SPECIES_NAMES)}

# conformal weight of the generator field
SPECIES_WEIGHT = (1, 0, 1, 0)
# 1 for fermionic species
SPECIES_PARITY = (0, 0, 1, 1)
# contraction partner
SPECIES_DUAL = (GAMMA, BETA, C, B)
# sign of the diagonal charge carried by the species (beta, b are vectors;
# gamma, c are covectors)
SPECIES_CHARGE = (1, -1, 1, -1)
# value of the single contraction a(k) b(m) -> const, k+m+1 = 0, a annihilation
CONTRACTION = {(BETA, GAMMA): 1, (GAMMA, BETA): -1, (B, C): 1, (C, B): 1}

KINDS = ("bg", "bc", "bcbg")
KIND_SPECIES = {"bg": (BETA, GAMMA), "bc": (B, C), "bcbg": (BETA, GAMMA, B, C)}

# A generator mode is a triple (species, index, mode), the letter that
# ``word`` and ``letters`` read and write; a monomial is the ascending
# tuple of the codes of its creation modes, applied to the vacuum.
GeneratorMode = tuple[int, int, int]
Monomial = tuple[int, ...]

# The code of a creation letter (sp, idx, mode), mode < 0: see the module
# docstring.
_IDX_SHIFT = 18
_SP_SHIFT = 28
_MODE_MASK = (1 << _IDX_SHIFT) - 1
_IDX_MASK = (1 << _SP_SHIFT - _IDX_SHIFT) - 1
# every b and c letter codes at or above this, and no beta or gamma letter
_ODD = B << _SP_SHIFT

VACUUM_MONO: Monomial = ()


class AlgebraDescriptor(Frozen):
    """Which free-field algebra we are working in: bg, bc or their tensor."""

    __slots__ = ("kind", "rank")

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown algebra kind {self.kind!r}")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")

    @property
    def species(self) -> tuple[int, ...]:
        return KIND_SPECIES[self.kind]

    def check_mode(self, g: GeneratorMode) -> None:
        sp, idx, _ = g
        if sp not in self.species:
            raise ValueError(f"species {SPECIES_NAMES[sp]} not in algebra {self.kind}")
        if not 1 <= idx <= self.rank:
            raise ValueError(f"index {idx} out of range 1..{self.rank}")


def _code(g: GeneratorMode) -> int:
    """The code of a creation letter; ValueError if a field cannot hold it."""
    sp, idx, mode = g
    if not (0 <= sp < len(SPECIES_PARITY) and 0 < idx <= _IDX_MASK and 0 < -mode <= _MODE_MASK):
        raise ValueError(f"letter {g} has no code: the engine needs a mode in "
                         f"-1..-{_MODE_MASK} and an index in 1..{_IDX_MASK}")
    return sp << _SP_SHIFT | idx << _IDX_SHIFT | -mode


def word(gs) -> Monomial:
    """The codes of the creation letters gs, in their order (the State
    constructor puts a word in canonical order); ValueError for a letter
    that has no code."""
    return tuple(map(_code, gs))


def letters(mono: Monomial) -> tuple[GeneratorMode, ...]:
    """The letters (species, index, mode) of a word, in its order."""
    return tuple((g >> _SP_SHIFT, g >> _IDX_SHIFT & _IDX_MASK, -(g & _MODE_MASK)) for g in mono)


def mode_weight(g: int) -> int:
    """The weight of the creation mode with code g."""
    return SPECIES_WEIGHT[g >> _SP_SHIFT] + (g & _MODE_MASK) - 1


def mono_weight(mono: Monomial) -> int:
    # the sum of mode_weight over the factors, inlined
    w = -len(mono)
    for g in mono:
        w += SPECIES_WEIGHT[g >> _SP_SHIFT] + (g & _MODE_MASK)
    return w


def mono_degree(mono: Monomial) -> int:
    return len(mono)


def mono_parity(mono: Monomial) -> int:
    return sum(g >= _ODD for g in mono) & 1


def mono_charge(mono: Monomial, rank: int) -> tuple[int, ...]:
    """Net vector-minus-covector count per index, as a vector in Z^rank."""
    q = [0] * rank
    try:
        for g in mono:
            q[(g >> _IDX_SHIFT & _IDX_MASK) - 1] += SPECIES_CHARGE[g >> _SP_SHIFT]
    except IndexError:
        raise ValueError(f"word {letters(mono)} has an index above {rank}") from None
    return tuple(q)


def canonicalize(factors) -> tuple[int, Monomial] | None:
    """Sort creation factors into canonical order.

    Returns (sign, monomial) where the sign counts transpositions of
    fermionic factors, or None if a fermionic mode repeats.
    """
    arr = list(factors)
    sign = 1
    # insertion sort of the codes; only odd-odd swaps contribute a sign,
    # and a code above an odd one is odd
    for i in range(1, len(arr)):
        g = arr[i]
        odd = g >= _ODD
        j = i - 1
        while j >= 0 and arr[j] > g:
            if odd:
                sign = -sign
            arr[j + 1] = arr[j]
            j -= 1
        arr[j + 1] = g
    for a, b in zip(arr, arr[1:]):
        if a == b and a >= _ODD:
            return None
    return sign, tuple(arr)


class State(Combination):
    """Finite rational combination of canonical monomials.

    The arithmetic comes from ``Combination``; the constructor takes
    words as ``terms`` holds them, tuples of codes, so that
    ``State(s.terms) == s``, and also puts every word into canonical
    order, combining duplicates and dropping repeated fermionic modes
    (``word`` spells a word from letters).  Coefficients are exact
    rationals: ints wherever they are integral (see
    ``linalg.scalar``), Fractions otherwise.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        clean: dict[Monomial, Scalar] = {}
        for m, c in (terms or {}).items():
            c = scalar(c)
            if c == 0:
                continue
            r = canonicalize(m)
            if r is None:
                continue
            sg, mono = r
            add_into(clean, mono, sg * c)
        self.terms: dict[Monomial, Scalar] = clean

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "State(0)"
        bits = []
        for m, c in _by_letters(self):
            text = " ".join(f"{SPECIES_NAMES[sp]}{idx}({mode})" for sp, idx, mode in letters(m))
            bits.append(f"{format_scalar(c)}*{text or '|0>'}")
        return "State(" + " + ".join(bits) + ")"


def _by_letters(s: State) -> list:
    """The terms of s by word length, then by letters: the order of
    every emission of a state."""
    return sorted(s.terms.items(), key=lambda kv: (len(kv[0]), letters(kv[0])))


def vacuum() -> State:
    return State({VACUUM_MONO: 1})


def generator_state(species: int, index: int = 1) -> State:
    """The state of the generator field itself: a(-1) applied to the vacuum."""
    return State({word([(species, index, -1)]): 1})


def _apply_annihilation(g: GeneratorMode, mono: Monomial) -> dict[Monomial, int]:
    """Commute the annihilation letter g = (sp, idx, m), m >= 0, rightward
    through mono, collecting contraction terms: its partner is the
    letter (dual species, idx, -m-1), when that has a code."""
    sp, idx, m = g
    dual = SPECIES_DUAL[sp]
    out: dict[Monomial, int] = {}
    try:
        (partner,) = word([(dual, idx, -m - 1)])
    except ValueError:  # no word holds the partner
        return out
    odd = SPECIES_PARITY[sp]
    sign = 1
    for pos, h in enumerate(mono):
        if h == partner:
            add_into(out, mono[:pos] + mono[pos + 1:], sign * CONTRACTION[(sp, dual)])
        if odd and h >= _ODD:
            sign = -sign
    # after passing every factor the annihilator hits the vacuum
    return out


def apply_mode(g: GeneratorMode, s: State) -> State:
    """Apply a single generator mode operator, the letter g, to a state,
    exactly."""
    acc: dict[Monomial, Scalar] = {}
    creating = g[2] < 0
    if creating:
        (code,) = word([g])
    for mono, c in s.terms.items():
        if creating:
            r = canonicalize((code,) + mono)
            if r is None:
                continue
            sg, m2 = r
            add_into(acc, m2, sg * c)
        else:
            for m2, sg in _apply_annihilation(g, mono).items():
                add_into(acc, m2, sg * c)
    return State._raw(acc)


def _homogeneous_value(s: State, fn, label: str):
    values = {fn(m) for m in s.terms}
    if not values:
        raise ValueError(f"the zero state has no well-defined {label}")
    if len(values) > 1:
        raise ValueError(f"state is not {label}-homogeneous: found {sorted(values)}")
    return values.pop()


def weight(s: State) -> int:
    return _homogeneous_value(s, mono_weight, "weight")


def degree(s: State) -> int:
    return _homogeneous_value(s, mono_degree, "degree")


def parity(s: State) -> int:
    return _homogeneous_value(s, mono_parity, "parity")


def charge(s: State, charge_matrix) -> tuple[int, ...]:
    """Torus charge A q of a charge-homogeneous state for an m x n matrix
    A that fits it (else ValueError); the trivial torus, m = 0, gives ()."""
    def torus(mono):
        if not charge_matrix:
            return ()
        q = mono_charge(mono, len(charge_matrix[0]))
        return tuple(sum(a * x for a, x in zip(row, q, strict=True)) for row in charge_matrix)
    return _homogeneous_value(s, torus, "charge")


def _mode_alphabet(alg: AlgebraDescriptor, max_weight: int) -> list[int]:
    """The codes of all creation modes of weight <= max_weight,
    ascending, which is canonical order: the species and indices are
    visited in ascending order."""
    # the mode -k of species sp has weight SPECIES_WEIGHT[sp] + k - 1
    return [_code((sp, idx, -k))
            for sp in alg.species
            for idx in range(1, alg.rank + 1)
            for k in range(1, max_weight - SPECIES_WEIGHT[sp] + 2)]


def words_of_weight(letters, weights, total, max_len=None, repeats=None) -> list[tuple]:
    """Every multiset of letters of the given total weight with at most
    max_len letters, as a tuple in list order.

    A letter may repeat unless ``repeats[p]`` is false for its position
    p.  Words come depth first: lexicographic in the letter positions,
    a word before its extensions.  Weights are >= 0, and must be > 0
    unless max_len is given.  A total of 0 yields the empty word.
    """
    n = len(letters)
    # per suffix of the alphabet: the largest weight, for pruning by length
    suffix_max = [0] * (n + 1)
    for p in range(n - 1, -1, -1):
        suffix_max[p] = max(suffix_max[p + 1], weights[p])
    # where the next letter's search starts after taking position p
    nxt = [p if repeats is None or repeats[p] else p + 1 for p in range(n)]
    out: list[tuple] = []
    stack: list = []

    def dfs(pos: int, rem: int):
        depth = len(stack)
        if rem == 0:
            out.append(tuple(stack))
        if depth == max_len:
            return
        for p in range(pos, n):
            w = weights[p]
            if w > rem:
                continue
            if max_len is not None and rem - w > (max_len - depth - 1) * suffix_max[p]:
                continue
            stack.append(letters[p])
            dfs(nxt[p], rem - w)
            stack.pop()

    if total >= 0:
        dfs(0, total)
    return out


def basis(alg: AlgebraDescriptor, weight: int, degree: int) -> list[Monomial]:
    """All canonical monomials of the given weight and degree: that
    bucket of ``basis_by_degree``."""
    if degree < 0:
        return []
    return basis_by_degree(alg, weight, degree)[degree]


def basis_by_degree(alg: AlgebraDescriptor, weight: int, degree_cap: int) -> list[list[Monomial]]:
    """The canonical monomials of the given weight, bucketed by degree
    0..degree_cap, each bucket in lexicographic order of the canonical
    key.

    One depth-first walk over the creation modes (``words_of_weight``)
    yields every degree; fermions may not repeat a mode, bosons may.
    """
    out: list[list[Monomial]] = [[] for _ in range(degree_cap + 1)]
    if weight < 0 or degree_cap < 0:
        return out
    alphabet = _mode_alphabet(alg, weight)
    for mono in words_of_weight(
        alphabet, [mode_weight(g) for g in alphabet], weight, max_len=degree_cap,
        repeats=[g < _ODD for g in alphabet],
    ):
        out[len(mono)].append(mono)
    return out


def charge_counts(
    alg: AlgebraDescriptor, weight_cap: int, degree_cap: int
) -> dict[tuple[int, int, tuple[int, ...]], int]:
    """The number of canonical monomials of each weight w <= weight_cap,
    degree d <= degree_cap and charge vector q (``mono_charge``), as
    ``{(w, d, q): count}`` without the zero counts; no monomial is
    listed.

    The counts are the coefficients of the charge-graded Hilbert series,
    the product over the creation modes of 1/(1 - x^wt y t^q) for a
    boson and 1 + x^wt y t^q for a fermion.  One pass over the mode
    alphabet multiplies the factors in, truncated at the caps.  A
    charge vector (each entry at most degree_cap in size) is packed into
    one int, so that a mode adds its charge with one addition.
    """
    if weight_cap < 0 or degree_cap < 0:
        return {}
    base = 2 * degree_cap + 1
    zero = sum(degree_cap * base**i for i in range(alg.rank))
    # cells[w][d]: packed charge -> count
    cells: list[list[dict[int, int]]] = [
        [{} for _ in range(degree_cap + 1)] for _ in range(weight_cap + 1)
    ]
    cells[0][0][zero] = 1
    for g in _mode_alphabet(alg, weight_cap):
        sp, idx = g >> _SP_SHIFT, g >> _IDX_SHIFT & _IDX_MASK
        wt = mode_weight(g)
        step = SPECIES_CHARGE[sp] * base ** (idx - 1)
        # a boson may repeat, so its factor reads cells it has already
        # multiplied (ascending degree); a fermion's reads cells it has
        # not (descending degree)
        degrees = range(degree_cap, 0, -1) if SPECIES_PARITY[sp] else range(1, degree_cap + 1)
        for d in degrees:
            for w in range(wt, weight_cap + 1):
                src, dst = cells[w - wt][d - 1], cells[w][d]
                for code, c in src.items():
                    key = code + step
                    dst[key] = dst.get(key, 0) + c
    out = {}
    for w, row in enumerate(cells):
        for d, cell in enumerate(row):
            for code, c in cell.items():
                q = []
                for _ in range(alg.rank):
                    code, digit = divmod(code, base)
                    q.append(digit - degree_cap)
                out[(w, d, tuple(q))] = c
    return out


# ---------------------------------------------------------------------------
# symbols of the associated graded algebra
#
# The degree filtration has a supercommutative associated graded ring,
# a polynomial ring on symbols a_k (one for each generator a and each
# k >= 0), where a_k is the image of the k-th derivative of the field:
# a_k corresponds to k! a(-k-1) on the state side.  The symbol map on a
# degree-homogeneous state is monomial-wise.
# ---------------------------------------------------------------------------

GrSymbol = tuple[int, int, int]  # (species, index, k)
GrMonomial = tuple[GrSymbol, ...]


def gr_symbol_weight(s: GrSymbol) -> int:
    sp, _, k = s
    return SPECIES_WEIGHT[sp] + k


def gr_symbol(s: State) -> dict[GrMonomial, Fraction]:
    """Image of a degree-homogeneous state in its graded piece.

    The mode a(-k-1) maps to the symbol a_k scaled by 1/k!; the
    canonical orders on modes and symbols agree, so no resorting signs
    appear.
    """
    degree(s)  # raises on non-homogeneous input
    import math

    out: dict[GrMonomial, Fraction] = {}
    for mono, c in s.terms.items():
        coeff = Fraction(c)
        syms = []
        for sp, idx, mode in letters(mono):
            k = -mode - 1
            syms.append((sp, idx, k))
            if k > 1:
                coeff /= math.factorial(k)
        add_into(out, tuple(syms), coeff)
    return out


def gr_basis(alg: AlgebraDescriptor, weight: int, degree: int) -> list[GrMonomial]:
    """Monomials in the graded symbols of the given weight and degree."""
    if degree < 0:
        return []
    return gr_basis_by_degree(alg, weight, degree)[degree]


def gr_basis_by_degree(
    alg: AlgebraDescriptor, weight: int, degree_cap: int
) -> list[list[GrMonomial]]:
    """Symbol monomials of the given weight, bucketed by degree
    0..degree_cap, each bucket in lexicographic order.

    An independent enumeration (over symbol indices k >= 0 rather than
    modes, with its own walk rather than ``words_of_weight``); the
    tests set ``gr_charge_counts`` against it.
    """
    out: list[list[GrMonomial]] = [[] for _ in range(degree_cap + 1)]
    if weight < 0 or degree_cap < 0:
        return out
    alphabet: list[GrSymbol] = []
    for sp in alg.species:
        delta = SPECIES_WEIGHT[sp]
        for idx in range(1, alg.rank + 1):
            for k in range(0, weight - delta + 1):
                alphabet.append((sp, idx, k))
    alphabet.sort()
    weights = [gr_symbol_weight(s) for s in alphabet]
    n = len(alphabet)
    # per suffix: the largest weight
    suffix_max = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_max[i] = max(suffix_max[i + 1], weights[i])
    # a fermionic symbol squares to zero, so the walk moves past it
    nxt = [p + 1 if SPECIES_PARITY[g[0]] else p for p, g in enumerate(alphabet)]
    stack: list[GrSymbol] = []

    def dfs(pos: int, rem_w: int, rem_d: int):
        if rem_w == 0:
            out[len(stack)].append(tuple(stack))
        if rem_d == 0:
            return
        for p in range(pos, n):
            w = weights[p]
            if w > rem_w or rem_w - w > (rem_d - 1) * suffix_max[p]:
                continue
            stack.append(alphabet[p])
            dfs(nxt[p], rem_w - w, rem_d - 1)
            stack.pop()

    dfs(0, weight, degree_cap)
    return out


def gr_charge_counts(
    alg: AlgebraDescriptor, weight_cap: int, degree_cap: int
) -> dict[tuple[int, int, tuple[int, ...]], int]:
    """The number of symbol monomials of each weight w <= weight_cap,
    degree d <= degree_cap and charge vector q, as ``{(w, d, q): count}``
    without the zero counts; no monomial is listed.

    An independent count of the same numbers as ``fock.charge_counts``,
    used to cross-check it: one index at a time, each symbol (sp, idx, k)
    of that index is multiplied in by its possible multiplicities (0 or
    1 for a fermion), giving a table over (weight, degree, charge of the
    index); the tables of the indices are then multiplied together.
    """
    if weight_cap < 0 or degree_cap < 0:
        return {}
    tables = []
    for idx in range(1, alg.rank + 1):
        table = {(0, 0, 0): 1}
        for sp in alg.species:
            for k in range(0, weight_cap - SPECIES_WEIGHT[sp] + 1):
                wt = gr_symbol_weight((sp, idx, k))
                top = 1 if SPECIES_PARITY[sp] else degree_cap
                grown: dict[tuple[int, int, int], int] = {}
                for (w, d, q), c in table.items():
                    for mult in range(top + 1):
                        if w + mult * wt > weight_cap or d + mult > degree_cap:
                            break
                        key = (w + mult * wt, d + mult, q + mult * SPECIES_CHARGE[sp])
                        grown[key] = grown.get(key, 0) + c
                table = grown
        tables.append(table)
    counts: dict[tuple[int, int, tuple[int, ...]], int] = {(0, 0, ()): 1}
    for table in tables:
        product: dict[tuple[int, int, tuple[int, ...]], int] = {}
        for (w, d, q), c in counts.items():
            for (w2, d2, q2), c2 in table.items():
                if w + w2 <= weight_cap and d + d2 <= degree_cap:
                    key = (w + w2, d + d2, q + (q2,))
                    product[key] = product.get(key, 0) + c * c2
        counts = product
    return counts


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def mono_to_json(mono: Monomial) -> list:
    return [[SPECIES_NAMES[sp], idx, mode] for sp, idx, mode in letters(mono)]


def mono_from_json(obj) -> Monomial:
    return word((SPECIES_BY_NAME[name], int(idx), int(mode)) for name, idx, mode in obj)


def state_to_json(s: State) -> dict:
    return {"terms": [[mono_to_json(m), format_scalar(c)] for m, c in _by_letters(s)]}


def state_from_json(obj: dict) -> State:
    return State({mono_from_json(m): c for m, c in obj["terms"]})


def mono_to_text(mono: Monomial) -> str:
    """Expression-language text of a monomial (parseable back by the CLI)."""
    if not mono:
        return "vac"
    parts = []
    for sp, idx, mode in letters(mono):
        k = -mode - 1
        gen = f"{'bb' if sp == B else 'cc' if sp == C else SPECIES_NAMES[sp]}[{idx}]"
        if k == 0:
            parts.append(gen)
        elif k == 1:
            parts.append(f"D({gen})")
        else:
            parts.append(f"D^{k}({gen})")
    if len(parts) == 1:
        return parts[0]
    return "NO(" + ", ".join(parts) + ")"


def state_to_text(s: State) -> str:
    """Human-readable normally ordered form, with exact coefficients.

    Modes are rewritten through a(-k-1) = (1/k!) D^k a, so the emitted
    string evaluates back to the same state.
    """
    import math

    if not s.terms:
        return "0"
    out = ""
    for mono, c in _by_letters(s):
        c = Fraction(c)
        for g in mono:
            k = (g & _MODE_MASK) - 1
            if k > 1:
                c /= math.factorial(k)
        sign = "-" if c < 0 else "+"
        c = abs(c)
        txt = mono_to_text(mono) if c == 1 else f"{format_scalar(c)} * {mono_to_text(mono)}"
        if not out:
            out = txt if sign == "+" else f"-{txt}"
        else:
            out += f" {sign} {txt}"
    return out
