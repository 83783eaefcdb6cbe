"""The vacuum module of the extended differential-operator algebra.

PBW words: a creation letter is a pair (l, k) with k >= l+1 standing
for J^l_{-k}; it raises conformal weight by k.  Words are tuples of
letters, weakly decreasing in the key (k, l); the vacuum is the empty
word.  Every operator J^l_k with l+k >= 0 kills the vacuum, and the
central element acts by the chosen charge c.

On top of the module sit the three computations that drive the
structure theory at desk scale:

  * singular vectors: exact kernels of the positive-mode conditions
    J^l_j (1 <= j <= j_cap, l <= l_cap) on a weight slice;
  * the kernel of the projection onto the free-field realization,
    word by word (no caps needed);
  * decoupling relations: exact solves expressing a realized current
    as a normally ordered polynomial in lower currents and their
    derivatives.

The module also hosts the spanning-set comparisons for cyclic modules
under the annihilation-free part of the parabolic (letters J^l(k) with
0 <= k < l): the full span, the length-bounded span, and the
length-and-mode-bounded ordered span must agree weight by weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .fock import AlgebraDescriptor, State, vacuum, words_of_weight
from .linalg import ONE, add_into, format_scalar, scalar
from .ope import circle, derive, iterated_wick
from .winfinity import bracket_basis, field_mode, realize_current

# letter (l, k) means J^l_{-k}, k >= l+1; PBW key orders by weight first
Letter = tuple[int, int]
Word = tuple[Letter, ...]


def letter_key(letter: Letter) -> tuple[int, int]:
    l, k = letter
    return (k, l)


def word_weight(word: Word) -> int:
    return sum(k for _, k in word)


class VermaElement:
    """Finite rational combination of PBW words."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms: dict[Word, Fraction] = {w: scalar(c) for w, c in terms.items() if c != 0}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, VermaElement) and self.terms == other.terms

    def __add__(self, other):
        acc = dict(self.terms)
        for w, c in other.terms.items():
            add_into(acc, w, c)
        return VermaElement(acc)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        c = scalar(c)
        return VermaElement({w: c * v for w, v in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "VermaElement(0)"
        bits = []
        for w in sorted(self.terms, key=lambda ww: (len(ww), ww)):
            word = " ".join(f"J^{l}_(-{k})" for l, k in w) or "|0>"
            bits.append(f"{format_scalar(self.terms[w])}*{word}")
        return "VermaElement(" + " + ".join(bits) + ")"

    def to_json(self) -> list:
        items = sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        return [[[list(letter) for letter in w], format_scalar(c)] for w, c in items]


def vacuum_module_basis(weight_n: int) -> list[Word]:
    """All PBW words of the given conformal weight, deterministically ordered.

    Letters (l, k) require k >= l+1; words are weakly decreasing in
    (k, l).
    """
    if weight_n < 0:
        return []
    letters: list[Letter] = []
    for k in range(1, weight_n + 1):
        for l in range(0, k):
            letters.append((l, k))
    letters.sort(key=letter_key, reverse=True)
    return words_of_weight(letters, [k for _, k in letters], weight_n)


_ACT_MEMO: dict[tuple[int, int, Word, Fraction], dict[Word, Fraction]] = {}


def _act_basis(l: int, k: int, word: Word, c: Fraction) -> dict[Word, Fraction]:
    """J^l_k applied to a PBW word, straightened back into PBW form.

    Creation letters (l+k < 0) insert in order; everything else
    commutes rightward via the bracket until it kills the vacuum.
    """
    key = (l, k, word, c)
    hit = _ACT_MEMO.get(key)
    if hit is not None:
        return hit
    if not word:
        res = {} if l + k >= 0 else {((l, -k),): ONE}
        _ACT_MEMO[key] = res
        return res
    lead = word[0]
    if l + k < 0 and letter_key((l, -k)) >= letter_key(lead):
        res = {((l, -k),) + word: ONE}
        _ACT_MEMO[key] = res
        return res
    rest = word[1:]
    acc: dict[Word, Fraction] = {}
    # g (h w') = h (g w') + [g, h] w'
    inner = _act_basis(l, k, rest, c)
    l1, k1 = lead
    for w2, c2 in inner.items():
        for w3, c3 in _act_basis(l1, -k1, w2, c).items():
            add_into(acc, w3, c2 * c3)
    br = bracket_basis(l, k, l1, -k1)
    for (l2, k2), coef in br.terms.items():
        for w3, c3 in _act_basis(l2, k2, rest, c).items():
            add_into(acc, w3, coef * c3)
    if br.kappa != 0:
        add_into(acc, rest, br.kappa * c)
    _ACT_MEMO[key] = acc
    return acc


def act(x, v: VermaElement, c) -> VermaElement:
    """Induced action of a Lie algebra element (DOp) on the vacuum module
    of central charge c."""
    c = scalar(c)
    acc: dict[Word, Fraction] = {}
    for word, coef in v.terms.items():
        for (l, k), xc in x.terms.items():
            for w2, c2 in _act_basis(l, k, word, c).items():
                add_into(acc, w2, xc * coef * c2)
        if x.kappa != 0:
            add_into(acc, word, x.kappa * c * coef)
    return VermaElement(acc)


def singular_vectors(
    c,
    weight_n: int,
    l_cap: int | None = None,
    j_cap: int | None = None,
) -> list[VermaElement]:
    """Exact basis of the weight-N solutions of J^l_j v = 0 for
    0 <= l <= l_cap, 1 <= j <= j_cap (defaults l_cap = N+2, j_cap = N).

    Only these capped conditions are imposed, so the result is a basis
    of singular vectors up to the caps: it contains every singular
    vector of weight N, and may contain vectors that a condition past
    the caps would exclude.  Nothing here compares it with the capless
    projection kernel (``ideal_kernel``).
    """
    c = scalar(c)
    if l_cap is None:
        l_cap = weight_n + 2
    if j_cap is None:
        j_cap = weight_n
    j_cap = min(j_cap, weight_n) if weight_n > 0 else j_cap
    words = vacuum_module_basis(weight_n)
    if not words:
        return []
    conditions = [(l, j) for l in range(l_cap + 1) for j in range(1, j_cap + 1)]
    columns = [
        {(l, j, w2): v for (l, j) in conditions for w2, v in _act_basis(l, j, word, c).items()}
        for word in words
    ]
    return [
        VermaElement({words[i]: v for i, v in rel.items()})
        for rel in linalg.kernel_of_columns(columns)
    ]


def project_word(word: Word, alg: AlgebraDescriptor) -> State:
    """Image of a PBW word under the free-field realization: letters act
    right to left as realized modes on the bosonic or fermionic vacuum."""
    s = vacuum()
    for l, k in reversed(word):
        s = circle(realize_current(l, alg), field_mode(l, -k), s)
    return s


def project(v: VermaElement, alg: AlgebraDescriptor) -> State:
    out = State()
    for word, c in v.terms.items():
        out = out + c * project_word(word, alg)
    return out


def ideal_kernel(n: int, weight_n: int, kind: str = "bg") -> list[VermaElement]:
    """Exact kernel of the projection onto the realized algebra, on the
    weight-N slice of the vacuum module (central charge -n for bg)."""
    alg = AlgebraDescriptor(kind, n)
    words = vacuum_module_basis(weight_n)
    if not words:
        return []
    columns = [project_word(w, alg).terms for w in words]
    return [
        VermaElement({words[i]: v for i, v in rel.items()})
        for rel in linalg.kernel_of_columns(columns)
    ]


# ---------------------------------------------------------------------------
# normally ordered words in the currents, and decoupling relations
# ---------------------------------------------------------------------------

# free-word letter (b, t) means the t-th derivative of the current J^b;
# its weight is b + 1 + t
FreeLetter = tuple[int, int]
FreeWord = tuple[FreeLetter, ...]


def free_letter_weight(letter: FreeLetter) -> int:
    b, t = letter
    return b + 1 + t


def free_words(weight_n: int, g_max: int) -> list[FreeWord]:
    """All normally ordered words of the given weight in the currents
    J^0..J^{g_max} and their derivatives, letters weakly decreasing.

    Canonical (sorted) words suffice to span: reordering defects are
    derivatives of lower circle products, which the solver's redundancy
    absorbs.
    """
    letters: list[FreeLetter] = []
    for b in range(g_max + 1):
        for t in range(0, weight_n - b):
            if free_letter_weight((b, t)) <= weight_n:
                letters.append((b, t))
    letters.sort(reverse=True)
    return words_of_weight(letters, [free_letter_weight(x) for x in letters], weight_n, min_len=1)


def evaluate_free_word(word: FreeWord, alg: AlgebraDescriptor) -> State:
    states = [derive(realize_current(b, alg), t) for b, t in word]
    return iterated_wick(states)


def free_word_text(word: FreeWord) -> str:
    bits = []
    for b, t in word:
        bits.append((f"d^{t} " if t > 1 else ("d " if t == 1 else "")) + f"J^{b}")
    return ":" + " ".join(bits) + ":"


@dataclass
class DecouplingRelation:
    """A current expressed exactly as a combination of normally ordered
    words in strictly lower currents and their derivatives."""

    target: int
    weight: int
    terms: list[tuple[FreeWord, Fraction]]

    def to_json(self) -> dict:
        return {
            "target": f"J^{self.target}",
            "weight": self.weight,
            "relation": [
                [[list(letter) for letter in w], format_scalar(c)] for w, c in self.terms
            ],
        }

    def to_text(self) -> str:
        bits = [
            (f"{format_scalar(c)} * " if c != 1 else "") + free_word_text(w)
            for w, c in self.terms
        ]
        return f"J^{self.target} = " + " + ".join(bits)


def decoupling_relation(l: int, n: int, g_max: int, kind: str = "bg") -> DecouplingRelation | None:
    """Solve for the realized current J^l in the exact span of normally
    ordered words of weight l+1 in J^0..J^{g_max}; None if it is not in
    the span."""
    if g_max > l - 1:
        raise ValueError("the generator bound must be below the target current")
    alg = AlgebraDescriptor(kind, n)
    target = realize_current(l, alg)
    words = free_words(l + 1, g_max)
    columns = [evaluate_free_word(w, alg).terms for w in words]
    sol = linalg.solve_in_span(columns, target.terms)
    if sol is None:
        return None
    terms = [(words[i], c) for i, c in sorted(sol.items())]
    return DecouplingRelation(l, l + 1, terms)


def verify_decoupling(rel: DecouplingRelation, n: int, kind: str = "bg") -> bool:
    """Re-evaluate both sides of a found relation from scratch."""
    alg = AlgebraDescriptor(kind, n)
    rhs = State()
    for w, c in rel.terms:
        rhs = rhs + c * evaluate_free_word(w, alg)
    return rhs == realize_current(rel.target, alg)


# ---------------------------------------------------------------------------
# spanning-set comparisons for cyclic modules
# ---------------------------------------------------------------------------

# raising letter (l, k) with 0 <= k < l: the realized mode J^l(k), of
# conformal weight l - k > 0
RaisingLetter = tuple[int, int]


def _raising_letters(weight_cap: int, k_cap: int) -> list[RaisingLetter]:
    # ascending in the letter order J^l(k) > J^l'(k') iff l > l' or
    # (l = l', k < k'); a DFS that walks this list monotonically applies
    # the smallest letter first, so the resulting word is weakly
    # decreasing read outermost-first.
    out = []
    for k in range(0, k_cap + 1):
        for raise_w in range(1, weight_cap + 1):
            out.append((k + raise_w, k))
    out.sort(key=lambda lk: (lk[0], -lk[1]))
    return out


def _span_dims_by_weight(vectors_by_weight: dict[int, list[State]]) -> dict[int, int]:
    dims = {}
    for w, vecs in sorted(vectors_by_weight.items()):
        dims[w] = linalg.rank_of_columns([v.terms for v in vecs if v])
    return dims


@dataclass
class SpanReport:
    degree: int
    symbol_cap: int
    weight_cap: int
    letter_cap_full: int
    dims_full: dict[int, int]
    dims_short: dict[int, int]
    dims_ordered: dict[int, int]

    @property
    def ok(self) -> bool:
        weights = set(self.dims_full) | set(self.dims_short) | set(self.dims_ordered)
        return all(
            self.dims_full.get(w, 0) == self.dims_short.get(w, 0) == self.dims_ordered.get(w, 0)
            for w in weights
        )

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "symbol_cap": self.symbol_cap,
            "weight_cap": self.weight_cap,
            "letter_cap_full": self.letter_cap_full,
            "dims": {
                str(w): [
                    self.dims_full.get(w, 0),
                    self.dims_short.get(w, 0),
                    self.dims_ordered.get(w, 0),
                ]
                for w in sorted(set(self.dims_full) | set(self.dims_short) | set(self.dims_ordered))
            },
            "equal": self.ok,
        }


def cyclic_span_check(
    f: State,
    symbol_cap: int,
    alg: AlgebraDescriptor,
    weight_cap: int,
    margin: int = 3,
) -> SpanReport:
    """Compare three spanning sets of raising words applied to f, per
    added weight up to the cap:

      (i)   all words in letters J^l(k), 0 <= k < l (letter modes capped
            at 2*symbol_cap+1+margin as a finite surrogate for the
            unbounded set; lengths are bounded by the weight cap);
      (ii)  words of length <= degree(f);
      (iii) words of length <= degree(f) with k <= 2*symbol_cap+1 and
            letters weakly decreasing (l descending, then k ascending).

    The three spans must agree as exact subspaces, weight by weight.
    """
    from .fock import degree as state_degree

    d = state_degree(f) if f else 0
    k_full = 2 * symbol_cap + 1 + margin
    k_ordered = 2 * symbol_cap + 1
    letters_full = _raising_letters(weight_cap, k_full)
    letters_ordered = _raising_letters(weight_cap, k_ordered)

    def collect(letters, max_len, ordered):
        by_weight: dict[int, list[State]] = {}
        stack: list[RaisingLetter] = []

        def dfs(pos: int, raised: int, s: State):
            if not s:
                return
            by_weight.setdefault(raised, []).append(s)
            if max_len is not None and len(stack) >= max_len:
                return
            start = pos if ordered else 0
            for p in range(start, len(letters)):
                l, k = letters[p]
                if raised + (l - k) > weight_cap:
                    continue
                stack.append((l, k))
                dfs(p, raised + (l - k), circle(realize_current(l, alg), k, s))
                stack.pop()

        dfs(0, 0, f)
        return _span_dims_by_weight(by_weight)

    dims_full = collect(letters_full, None, False)
    dims_short = collect(letters_full, d, False)
    dims_ordered = collect(letters_ordered, d, True)
    return SpanReport(d, symbol_cap, weight_cap, k_full, dims_full, dims_short, dims_ordered)
