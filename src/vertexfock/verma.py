"""The vacuum module of the extended differential-operator algebra.

PBW words: a creation letter is a pair (l, k) with k >= l+1 standing
for J^l_{-k}; it raises conformal weight by k.  Words are tuples of
letters, weakly decreasing in the key (k, l); the vacuum is the empty
word.  Every operator J^l_k with l+k >= 0 kills the vacuum, and the
central element acts by the chosen charge c.

On top of the module sit the three computations that drive the
structure theory at desk scale:

  * singular vectors: exact kernels of the positive-mode conditions
    J^l_j (1 <= j <= j_cap, l <= l_cap) on a weight slice, which the
    j = 1 conditions alone give once l_cap >= 2;
  * the kernel of the projection onto the free-field realization,
    word by word (no caps needed);
  * decoupling relations: exact solves expressing a realized current
    as a normally ordered polynomial in lower currents and their
    derivatives.

The last two take the realizing algebra, bg or bc of rank n, as an
``AlgebraDescriptor``, as every function here that realizes a current does.

The module also hosts the spanning-set comparisons for cyclic modules
under the annihilation-free part of the parabolic (letters J^l(k) with
0 <= k < l): the full span, the length-bounded span, and the
length-and-mode-bounded ordered span must agree weight by weight.
"""

from __future__ import annotations

from . import linalg
from .fock import AlgebraDescriptor, State, degree, vacuum, words_of_weight
from .linalg import Combination, Record, Scalar, add_into, format_scalar, scalar
from .ope import circle, derivative_words, word_products
from .winfinity import bracket_basis, field_mode, realize_current

# letter (l, k) means J^l_{-k}, k >= l+1; PBW key orders by weight first
Letter = tuple[int, int]
Word = tuple[Letter, ...]


def letter_key(letter: Letter) -> tuple[int, int]:
    l, k = letter
    return (k, l)


class VermaElement(Combination):
    """Finite rational combination of PBW words."""

    __slots__ = ()

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


# (l, k, word, c) -> (word, coefficient, word, coefficient, ...)
_ACT_MEMO: dict[tuple[int, int, Word, Scalar], tuple] = {}


def clear_cache() -> None:
    _ACT_MEMO.clear()


def _act_basis(l: int, k: int, word: Word, c: Scalar) -> tuple:
    """J^l_k applied to a PBW word, straightened back into PBW form, as
    the flat tuple (word, coefficient, word, ...) that ``_ACT_MEMO`` keeps.

    Creation letters (l+k < 0) insert in order; everything else
    commutes rightward via the bracket until it kills the vacuum.
    """
    key = (l, k, word, c)
    hit = _ACT_MEMO.get(key)
    if hit is not None:
        return hit
    if not word or l + k < 0 and letter_key((l, -k)) >= letter_key(word[0]):
        res = _ACT_MEMO[key] = () if l + k >= 0 else (((l, -k),) + word, 1)
        return res
    lead = word[0]
    rest = word[1:]
    acc: dict[Word, Scalar] = {}
    # g (h w') = h (g w') + [g, h] w'
    inner = iter(_act_basis(l, k, rest, c))
    l1, k1 = lead
    for w2, c2 in zip(inner, inner):
        img = iter(_act_basis(l1, -k1, w2, c))
        for w3, c3 in zip(img, img):
            add_into(acc, w3, c2 * c3)
    br = bracket_basis(l, k, l1, -k1)
    for (l2, k2), coef in br.terms.items():
        img = iter(_act_basis(l2, k2, rest, c))
        for w3, c3 in zip(img, img):
            add_into(acc, w3, coef * c3)
    if br.kappa != 0:
        add_into(acc, rest, br.kappa * c)
    res = _ACT_MEMO[key] = tuple([x for item in acc.items() for x in item])
    return res


def act(x, v: VermaElement, c) -> VermaElement:
    """Induced action of a Lie algebra element (DOp) on the vacuum module
    of central charge c."""
    c = scalar(c)
    acc: dict[Word, Scalar] = {}
    for word, coef in v.terms.items():
        for (l, k), xc in x.terms.items():
            img = iter(_act_basis(l, k, word, c))
            for w2, c2 in zip(img, img):
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
    At N > 0, j_cap < 1 would impose no condition at all and raises
    ValueError.

    For l_cap >= 2 the j = 1 conditions alone are solved: they imply
    the rest.  J^l_k = -t^k (D)_l with D = t d/dt, so the J^l_k, l <= L,
    span t^k P_L (P_L: polynomials in D of degree <= L), and
    [t f(D), t^b g(D)] = t^{b+1} (f(D+b) g(D) - f(D) g(D+1)), with no
    central term at positive degree.  The operators that kill v form a
    Lie algebra, and t P_L with t^b P_L give all of t^{b+1} P_L when
    L >= 2: f = 1 gives every degree < L, f = D with g = D^L gives
    (b - L) D^L + ..., and f = D^2 with g = D^{L-1} gives (L + 1) D^L + ...
    at b = L.  So the kernel is the same subspace, and its RREF basis
    (fixed by the subspace and the order of the words) the same.  For
    l_cap <= 1 this fails (c = -1, N = 4, l_cap = 0: 7 vectors from
    j = 1, 4 from all), and every capped condition is imposed, in one
    system too.

    Only the capped conditions are imposed, so the result is a basis
    of singular vectors up to the caps: it contains every singular
    vector of weight N, and may contain vectors that a condition past
    the caps would exclude.  This function does not compare it with the
    capless projection kernel (``ideal_kernel``); the tests check at
    c = -1, N = 4 and c = -2, N = 9 that the span lies in it.
    """
    c = scalar(c)
    if l_cap is None:
        l_cap = weight_n + 2
    if j_cap is None:
        j_cap = weight_n
    if weight_n > 0 and j_cap < 1:
        raise ValueError(
            f"j_cap {j_cap} imposes no condition at weight {weight_n}; it must be >= 1"
        )
    j_cap = min(j_cap, weight_n) if weight_n > 0 else j_cap
    words = vacuum_module_basis(weight_n)
    if not words:
        return []
    j_top = 1 if l_cap >= 2 else j_cap  # the j = 1 conditions imply the rest
    conditions = [(l, j) for l in range(l_cap + 1) for j in range(1, j_top + 1)]
    columns = [{} for _ in words]
    for column, word in zip(columns, words):
        for l, j in conditions:
            img = iter(_act_basis(l, j, word, c))
            for w2, v in zip(img, img):
                column[l, j, w2] = v
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


def ideal_kernel(alg: AlgebraDescriptor, weight_n: int) -> list[VermaElement]:
    """Exact kernel of the projection onto the currents realized in alg,
    on the weight-N slice of the vacuum module (central charge -n for
    bg, +n for bc, n the rank)."""
    realize_current(0, alg)  # refuses an algebra that realizes no current, at weight 0 too
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


def free_words(weight_n: int, g_max: int) -> list[FreeWord]:
    """All normally ordered words of the given weight in the currents
    J^0..J^{g_max} and their derivatives (``ope.derivative_words``).

    Canonical (sorted) words suffice to span: reordering defects are
    derivatives of lower circle products, which the solver's redundancy
    absorbs.
    """
    return derivative_words(range(1, g_max + 2), weight_n)


def free_word_text(word: FreeWord) -> str:
    bits = []
    for b, t in word:
        bits.append((f"d^{t} " if t > 1 else ("d " if t == 1 else "")) + f"J^{b}")
    return ":" + " ".join(bits) + ":"


class DecouplingRelation(Record):
    """A current expressed exactly as a combination of normally ordered
    words in strictly lower currents and their derivatives: terms lists
    (word, coefficient)."""

    __slots__ = ("target", "weight", "terms")

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


def decoupling_relation(l: int, alg: AlgebraDescriptor, g_max: int) -> DecouplingRelation | None:
    """Solve for the current J^l realized in alg in the exact span of
    normally ordered words of weight l+1 in J^0..J^{g_max}; None if it
    is not in the span."""
    if g_max > l - 1:
        raise ValueError("the generator bound must be below the target current")
    target = realize_current(l, alg)
    words = free_words(l + 1, g_max)
    currents = [realize_current(b, alg) for b in range(g_max + 1)]
    columns = [s.terms for s in word_products(currents, words)]
    sol = linalg.solve_in_span(columns, target.terms)
    if sol is None:
        return None
    terms = [(words[i], c) for i, c in sorted(sol.items())]
    return DecouplingRelation(l, l + 1, terms)


def verify_decoupling(rel: DecouplingRelation, alg: AlgebraDescriptor) -> bool:
    """Re-evaluate both sides of a relation found in alg from scratch."""
    currents = [realize_current(b, alg) for b in range(rel.target)]
    products = word_products(currents, [w for w, _ in rel.terms])
    rhs = State()
    for s, (_, c) in zip(products, rel.terms):
        rhs = rhs + c * s
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


class SpanReport(Record):
    __slots__ = ("degree", "symbol_cap", "weight_cap", "letter_cap_full",
                 "dims_full", "dims_short", "dims_ordered")

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
) -> SpanReport:
    """Compare three spanning sets of raising words applied to f, per
    added weight up to the cap:

      (i)   all words in letters J^l(k), 0 <= k < l (letter modes capped
            at 2*symbol_cap+4 as a finite surrogate for the unbounded
            set; lengths are bounded by the weight cap);
      (ii)  words of length <= degree(f);
      (iii) words of length <= degree(f) with k <= 2*symbol_cap+1 and
            letters weakly decreasing (l descending, then k ascending).

    The three spans must agree as exact subspaces, weight by weight.
    One walk over the words of (i) finds all three: a word is in (ii)
    if it is short enough, and in (iii) too if its letter positions
    never decrease and its modes stay within the cap.
    """
    d = degree(f) if f else 0
    k_full = 2 * symbol_cap + 4
    k_ordered = 2 * symbol_cap + 1
    letters = _raising_letters(weight_cap, k_full)
    spans: tuple[dict[int, list[State]], ...] = ({}, {}, {})

    def dfs(pos: int, length: int, ordered: bool, raised: int, s: State):
        if not s:
            return
        for span, member in zip(spans, (True, length <= d, length <= d and ordered)):
            if member:
                span.setdefault(raised, []).append(s)
        for p, (l, k) in enumerate(letters):
            if raised + (l - k) <= weight_cap:
                dfs(p, length + 1, ordered and p >= pos and k <= k_ordered,
                    raised + (l - k), circle(realize_current(l, alg), k, s))

    dfs(0, 0, True, 0, f)
    dims_full, dims_short, dims_ordered = (
        {w: linalg.rank_of_columns([s.terms for s in span[w]]) for w in sorted(span)}
        for span in spans
    )
    return SpanReport(d, symbol_cap, weight_cap, k_full, dims_full, dims_short, dims_ordered)
