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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import add_into, format_scalar, parse_scalar

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

# A generator mode is a triple (species, index, mode); a monomial is a
# tuple of modes in canonical order, applied to the vacuum.
GeneratorMode = tuple[int, int, int]
Monomial = tuple[GeneratorMode, ...]

VACUUM_MONO: Monomial = ()


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Which free-field algebra we are working in: bg, bc or their tensor."""

    kind: str
    rank: int

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


def mode_sort_key(g: GeneratorMode) -> tuple[int, int, int]:
    sp, idx, mode = g
    return (sp, idx, -mode)


def mode_weight(g: GeneratorMode) -> int:
    sp, _, m = g
    return SPECIES_WEIGHT[sp] - m - 1


def mono_weight(mono: Monomial) -> int:
    return sum(mode_weight(g) for g in mono)


def mono_degree(mono: Monomial) -> int:
    return len(mono)


def mono_parity(mono: Monomial) -> int:
    return sum(SPECIES_PARITY[g[0]] for g in mono) & 1


def mono_charge(mono: Monomial, rank: int) -> tuple[int, ...]:
    """Net vector-minus-covector count per index, as a vector in Z^rank."""
    q = [0] * rank
    for sp, idx, _ in mono:
        q[idx - 1] += SPECIES_CHARGE[sp]
    return tuple(q)


def canonicalize(factors) -> tuple[int, Monomial] | None:
    """Sort creation factors into canonical order.

    Returns (sign, monomial) where the sign counts transpositions of
    fermionic factors, or None if a fermionic mode repeats.
    """
    arr = list(factors)
    sign = 1
    # insertion sort; only odd-odd swaps contribute a sign
    for i in range(1, len(arr)):
        g = arr[i]
        key = mode_sort_key(g)
        odd = SPECIES_PARITY[g[0]]
        j = i - 1
        while j >= 0 and mode_sort_key(arr[j]) > key:
            if odd and SPECIES_PARITY[arr[j][0]]:
                sign = -sign
            arr[j + 1] = arr[j]
            j -= 1
        arr[j + 1] = g
    for a, b in zip(arr, arr[1:]):
        if a == b and SPECIES_PARITY[a[0]]:
            return None
    return sign, tuple(arr)


def _coeff(x):
    """Exact coefficient, integer-first: an int stays an int, and so
    does an integral Fraction (as its numerator); any other Fraction
    stays a Fraction.  Strings parse; floats are rejected.

    This is the one place that decides a coefficient's representation.
    The free-field structure constants are integers, and int arithmetic
    is several times faster than Fraction arithmetic, so a state stays
    integral until a genuine denominator (1/k!, a cocycle value) enters.
    """
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        x = parse_scalar(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"not an exact scalar: {x!r}")


class State:
    """Finite rational combination of canonical monomials.

    Immutable by convention: never mutate ``terms`` after construction.
    Supports +, -, and scalar multiplication.  Coefficients are exact
    rationals: ints wherever they are integral (see ``_coeff``),
    Fractions otherwise.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        clean: dict[Monomial, Fraction] = {}
        for m, c in terms.items():
            c = _coeff(c)
            if c == 0:
                continue
            r = canonicalize(m)
            if r is None:
                continue
            sg, mono = r
            add_into(clean, mono, sg * c)
        self.terms: dict[Monomial, Fraction] = clean

    @classmethod
    def _raw(cls, terms: dict) -> "State":
        """Internal fast path: terms must already be canonical and
        zero-free."""
        s = object.__new__(cls)
        s.terms = terms
        return s

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, State) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((m, Fraction(c)) for m, c in self.terms.items()))

    def __add__(self, other: "State") -> "State":
        acc = dict(self.terms)
        for m, c in other.terms.items():
            add_into(acc, m, c)
        return State._raw(acc)

    def __sub__(self, other: "State") -> "State":
        return self + (-1) * other

    def __neg__(self) -> "State":
        return (-1) * self

    def __rmul__(self, c) -> "State":
        c = _coeff(c)
        if c == 0:
            return State._raw({})
        return State._raw({m: c * v for m, v in self.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "State(0)"
        bits = []
        for m in sorted(self.terms, key=lambda mm: (len(mm), mm)):
            c = self.terms[m]
            word = " ".join(f"{SPECIES_NAMES[sp]}{idx}({mode})" for sp, idx, mode in m) or "|0>"
            bits.append(f"{format_scalar(c)}*{word}")
        return "State(" + " + ".join(bits) + ")"


ZERO_STATE = State()


def vacuum() -> State:
    return State({VACUUM_MONO: 1})


def generator_state(species: int, index: int = 1) -> State:
    """The state of the generator field itself: a(-1) applied to the vacuum."""
    return State({((species, index, -1),): 1})


def _apply_creation(g: GeneratorMode, mono: Monomial) -> tuple[int, Monomial] | None:
    return canonicalize((g,) + mono)


def _apply_annihilation(g: GeneratorMode, mono: Monomial) -> dict[Monomial, int]:
    """Commute g rightward through mono, collecting contraction terms."""
    sp, idx, m = g
    odd = SPECIES_PARITY[sp]
    dual = SPECIES_DUAL[sp]
    out: dict[Monomial, int] = {}
    sign = 1
    for pos, h in enumerate(mono):
        hsp, hidx, hm = h
        if hsp == dual and hidx == idx and m + hm + 1 == 0:
            add_into(out, mono[:pos] + mono[pos + 1:], sign * CONTRACTION[(sp, hsp)])
        if odd and SPECIES_PARITY[hsp]:
            sign = -sign
    # after passing every factor the annihilator hits the vacuum
    return out


def apply_mode(g: GeneratorMode, s: State) -> State:
    """Apply a single generator mode operator to a state, exactly."""
    acc: dict[Monomial, Fraction] = {}
    creating = g[2] < 0
    for mono, c in s.terms.items():
        if creating:
            r = _apply_creation(g, mono)
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
    """Torus charge A q of a charge-homogeneous state, for an m x n matrix A."""
    rank_n = len(charge_matrix[0])
    def torus(mono):
        q = mono_charge(mono, rank_n)
        return tuple(sum(row[i] * q[i] for i in range(rank_n)) for row in charge_matrix)
    return _homogeneous_value(s, torus, "charge")


def _mode_alphabet(alg: AlgebraDescriptor, max_weight: int) -> list[GeneratorMode]:
    """All creation modes of weight <= max_weight, in canonical order."""
    out = []
    for sp in alg.species:
        delta = SPECIES_WEIGHT[sp]
        for idx in range(1, alg.rank + 1):
            # mode -k has weight delta + k - 1
            for k in range(1, max_weight - delta + 2):
                if delta + k - 1 <= max_weight:
                    out.append((sp, idx, -k))
    out.sort(key=mode_sort_key)
    return out


def words_of_weight(letters, weights, total, max_len=None, min_len=0, repeats=None) -> list[tuple]:
    """Every multiset of letters of the given total weight with between
    min_len and max_len letters, as a tuple in list order.

    A letter may repeat unless ``repeats[p]`` is false for its position
    p.  Words come depth first: lexicographic in the letter positions,
    a word before its extensions.  Weights are >= 0, and must be > 0
    unless max_len is given.
    """
    n = len(letters)
    # suffix maximum of the letter weights, for pruning by length
    suffix_max = [0] * (n + 1)
    for p in range(n - 1, -1, -1):
        suffix_max[p] = max(suffix_max[p + 1], weights[p])
    # where the next letter's search starts after taking position p
    nxt = [p if repeats is None or repeats[p] else p + 1 for p in range(n)]
    out: list[tuple] = []
    stack: list = []

    def dfs(pos: int, rem: int):
        depth = len(stack)
        if rem == 0 and depth >= min_len:
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
    """All canonical monomials of the given weight and degree.

    Deterministic (lexicographic in the canonical key).
    """
    if weight < 0 or degree < 0:
        return []
    alphabet = _mode_alphabet(alg, weight)
    # fermions may not repeat a mode; bosons may
    return words_of_weight(
        alphabet, [mode_weight(g) for g in alphabet], weight, max_len=degree, min_len=degree,
        repeats=[not SPECIES_PARITY[g[0]] for g in alphabet],
    )


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


def gr_mono_weight(mono: GrMonomial) -> int:
    return sum(gr_symbol_weight(s) for s in mono)


def gr_canonicalize(symbols) -> tuple[int, GrMonomial] | None:
    arr = list(symbols)
    sign = 1
    for i in range(1, len(arr)):
        g = arr[i]
        odd = SPECIES_PARITY[g[0]]
        j = i - 1
        while j >= 0 and arr[j] > g:
            if odd and SPECIES_PARITY[arr[j][0]]:
                sign = -sign
            arr[j + 1] = arr[j]
            j -= 1
        arr[j + 1] = g
    for a, b in zip(arr, arr[1:]):
        if a == b and SPECIES_PARITY[a[0]]:
            return None
    return sign, tuple(arr)


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
        for sp, idx, mode in mono:
            k = -mode - 1
            syms.append((sp, idx, k))
            if k > 1:
                coeff /= math.factorial(k)
        add_into(out, tuple(syms), coeff)
    return out


def gr_basis(alg: AlgebraDescriptor, weight: int, degree: int) -> list[GrMonomial]:
    """Monomials in the graded symbols of the given weight and degree.

    An independent enumeration (over symbol indices k >= 0 rather than
    modes), used to cross-check state-side dimension counts.
    """
    if weight < 0 or degree < 0:
        return []
    alphabet: list[GrSymbol] = []
    for sp in alg.species:
        delta = SPECIES_WEIGHT[sp]
        for idx in range(1, alg.rank + 1):
            for k in range(0, weight - delta + 1):
                alphabet.append((sp, idx, k))
    alphabet.sort()
    weights = [gr_symbol_weight(s) for s in alphabet]
    suffix_max = [0] * (len(alphabet) + 1)
    for i in range(len(alphabet) - 1, -1, -1):
        suffix_max[i] = max(suffix_max[i + 1], weights[i])
    out: list[GrMonomial] = []
    stack: list[GrSymbol] = []

    def dfs(pos: int, rem_w: int, rem_d: int):
        if rem_d == 0:
            if rem_w == 0:
                out.append(tuple(stack))
            return
        for p in range(pos, len(alphabet)):
            w = weights[p]
            if w > rem_w:
                continue
            if rem_w - w > (rem_d - 1) * suffix_max[p]:
                continue
            g = alphabet[p]
            stack.append(g)
            dfs(p + 1 if SPECIES_PARITY[g[0]] else p, rem_w - w, rem_d - 1)
            stack.pop()

    dfs(0, weight, degree)
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def mono_to_json(mono: Monomial) -> list:
    return [[SPECIES_NAMES[sp], idx, mode] for sp, idx, mode in mono]


def mono_from_json(obj) -> Monomial:
    return tuple((SPECIES_BY_NAME[name], int(idx), int(mode)) for name, idx, mode in obj)


def state_to_json(s: State) -> dict:
    items = sorted(s.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return {"terms": [[mono_to_json(m), format_scalar(c)] for m, c in items]}


def state_from_json(obj: dict) -> State:
    return State({mono_from_json(m): parse_scalar(c) for m, c in obj["terms"]})


def mono_to_text(mono: Monomial) -> str:
    """Expression-language text of a monomial (parseable back by the CLI)."""
    if not mono:
        return "vac"
    parts = []
    for sp, idx, mode in mono:
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
    for mono in sorted(s.terms, key=lambda m: (len(m), m)):
        c = Fraction(s.terms[mono])
        for sp, idx, mode in mono:
            k = -mode - 1
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
