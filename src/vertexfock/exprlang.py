"""Expression language for vertex-operator states.

Grammar (whitespace insignificant, rationals as p or p/q):

    expr := sum
    sum  := ["-"] prod (("+" | "-") prod)*
    prod := [rational "*"] atom
    atom := "vac" | gen
          | "D" ["^" int] "(" expr ")"
          | "NO(" expr ("," expr)+ ")"
          | "CP(" expr "," int "," expr ")"
          | "(" expr ")"
    gen  := ("beta" | "gamma" | "bb" | "cc") "[" int "]" | "J" "[" int "]"

NO is the right-nested normal order, CP the circle product, D the
derivative, J[l] the realized current.  Syntax errors carry the byte
offset and the expected-token set.  Printing a canonical tree and
reparsing is the identity; parse-then-print is idempotent.
"""

from __future__ import annotations

from fractions import Fraction

from .fock import (
    AlgebraDescriptor,
    B,
    BETA,
    C,
    GAMMA,
    State,
    generator_state,
    mono_weight,
    vacuum,
)
from .linalg import Frozen, format_scalar
from .ope import circle, derive, iterated_wick
from .winfinity import realize_current

GEN_SPECIES = {"beta": BETA, "gamma": GAMMA, "bb": B, "cc": C}
SPECIES_GEN = {v: k for k, v in GEN_SPECIES.items()}


class ExprSyntaxError(ValueError):
    """Syntax error with byte offset and the expected-token set."""

    def __init__(self, offset: int, expected, found: str):
        self.offset = offset
        self.expected = sorted(expected)
        self.found = found
        super().__init__(
            f"syntax error at byte {offset}: expected one of {self.expected}, found {found!r}"
        )


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Gen(Frozen):
    __slots__ = ("species", "index")


class JGen(Frozen):
    __slots__ = ("level",)


class Vac(Frozen):
    __slots__ = ()


class Deriv(Frozen):
    __slots__ = ("power", "arg")


class NormalOrder(Frozen):
    __slots__ = ("args",)


class CircleProd(Frozen):
    __slots__ = ("left", "n", "right")


class Scaled(Frozen):
    __slots__ = ("coeff", "arg")  # a Fraction and an Expr


class Sum(Frozen):
    # a tuple of (sign, prod) with sign in {+1, -1}
    __slots__ = ("parts",)


Expr = Gen | JGen | Vac | Deriv | NormalOrder | CircleProd | Scaled | Sum


# ---------------------------------------------------------------------------
# tokenizer / recursive descent parser
# ---------------------------------------------------------------------------

_PUNCT = "+-*/()[],^"


def _tokens(text: str):
    """Yield (kind, value, offset); kinds are int, name, or a punct char."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield ("int", text[i:j], i)
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            yield ("name", text[i:j], i)
            i = j
            continue
        if ch in _PUNCT:
            yield (ch, ch, i)
            i += 1
            continue
        raise ExprSyntaxError(i, {"token"}, ch)
    yield ("end", "", n)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = list(_tokens(text))
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.peek()
        if t[0] != kind:
            raise ExprSyntaxError(t[2], {kind}, t[1] or "end of input")
        return self.next()

    def parse(self) -> Expr:
        e = self.sum()
        t = self.peek()
        if t[0] != "end":
            raise ExprSyntaxError(t[2], {"+", "-", "end"}, t[1])
        return e

    def sum(self) -> Expr:
        parts = []
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        parts.append((sign, self.prod()))
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            parts.append((1 if op == "+" else -1, self.prod()))
        if len(parts) == 1 and parts[0][0] == 1:
            return parts[0][1]
        return Sum(tuple(parts))

    def _rational(self) -> Fraction:
        p = int(self.expect("int")[1])
        if self.peek()[0] == "/":
            self.next()
            q = int(self.expect("int")[1])
            return Fraction(p, q)
        return Fraction(p)

    def _signed_int(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        return sign * int(self.expect("int")[1])

    def prod(self) -> Expr:
        if self.peek()[0] == "int":
            coeff = self._rational()
            self.expect("*")
            return Scaled(coeff, self.atom())
        return self.atom()

    def atom(self) -> Expr:
        t = self.peek()
        if t[0] == "(":
            self.next()
            e = self.sum()
            self.expect(")")
            return e
        if t[0] != "name":
            raise ExprSyntaxError(t[2], {"vac", "gen", "D", "NO", "CP", "("}, t[1] or "end of input")
        name = t[1]
        if name == "vac":
            self.next()
            return Vac()
        if name in GEN_SPECIES:
            self.next()
            self.expect("[")
            idx = int(self.expect("int")[1])
            self.expect("]")
            return Gen(GEN_SPECIES[name], idx)
        if name == "J":
            self.next()
            self.expect("[")
            lvl = int(self.expect("int")[1])
            self.expect("]")
            return JGen(lvl)
        if name == "D":
            self.next()
            power = 1
            if self.peek()[0] == "^":
                self.next()
                power = int(self.expect("int")[1])
            self.expect("(")
            e = self.sum()
            self.expect(")")
            return Deriv(power, e)
        if name == "NO":
            self.next()
            self.expect("(")
            args = [self.sum()]
            self.expect(",")
            args.append(self.sum())
            while self.peek()[0] == ",":
                self.next()
                args.append(self.sum())
            self.expect(")")
            return NormalOrder(tuple(args))
        if name == "CP":
            self.next()
            self.expect("(")
            a = self.sum()
            self.expect(",")
            n = self._signed_int()
            self.expect(",")
            b = self.sum()
            self.expect(")")
            return CircleProd(a, n, b)
        raise ExprSyntaxError(t[2], {"vac", "beta", "gamma", "bb", "cc", "J", "D", "NO", "CP"}, name)


def parse(text: str) -> Expr:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing and evaluation
# ---------------------------------------------------------------------------


def to_text(e: Expr) -> str:
    if isinstance(e, Vac):
        return "vac"
    if isinstance(e, Gen):
        return f"{SPECIES_GEN[e.species]}[{e.index}]"
    if isinstance(e, JGen):
        return f"J[{e.level}]"
    if isinstance(e, Deriv):
        head = "D" if e.power == 1 else f"D^{e.power}"
        return f"{head}({to_text(e.arg)})"
    if isinstance(e, NormalOrder):
        return "NO(" + ", ".join(to_text(a) for a in e.args) + ")"
    if isinstance(e, CircleProd):
        return f"CP({to_text(e.left)}, {e.n}, {to_text(e.right)})"
    if isinstance(e, Scaled):
        arg = to_text(e.arg)
        if isinstance(e.arg, Sum):
            arg = f"({arg})"
        return f"{format_scalar(e.coeff)} * {arg}"
    if isinstance(e, Sum):
        bits = []
        for i, (sign, part) in enumerate(e.parts):
            txt = to_text(part)
            if isinstance(part, Sum):
                txt = f"({txt})"
            if i == 0:
                bits.append(("-" if sign < 0 else "") + txt)
            else:
                bits.append(("- " if sign < 0 else "+ ") + txt)
        return " ".join(bits)
    raise TypeError(f"not an expression node: {e!r}")


def size_parameters(e: Expr):
    """Yield every D^k power, J[l] level and CP index |n| in the tree:
    the numbers that set the cost of evaluating it (J[l] takes D^l)."""
    stack = [e]
    while stack:
        e = stack.pop()
        if isinstance(e, Deriv):
            yield e.power
            stack.append(e.arg)
        elif isinstance(e, JGen):
            yield e.level
        elif isinstance(e, CircleProd):
            yield abs(e.n)
            stack += (e.left, e.right)
        elif isinstance(e, NormalOrder):
            stack += e.args
        elif isinstance(e, Scaled):
            stack.append(e.arg)
        elif isinstance(e, Sum):
            stack += (part for _, part in e.parts)


def _top_weight(s: State) -> int | None:
    """The largest weight of a term of s; None for the zero state."""
    return max(map(mono_weight, s.terms), default=None)


def _top_degree(s: State) -> int | None:
    """The largest degree of a term of s; None for the zero state."""
    return max(map(len, s.terms), default=None)


def _check_bound(what: str, grading: str, values, shift: int, bound: int | None) -> None:
    """Refuse a product whose result would have a term of weight (or
    degree) above bound: it is at most sum(values) + shift.  A zero
    factor gives a zero result, so nothing is refused then."""
    if bound is None or None in values:
        return
    v = sum(values) + shift
    if v > bound:
        raise ValueError(f"{what} would have {grading} {v}, above the bound {bound}")


def evaluate(
    e: Expr, alg: AlgebraDescriptor, max_weight: int | None = None, max_degree: int | None = None
) -> State:
    """The state of an expression.  With max_weight set, every D^k, NO
    and CP whose result could have weight above it is refused
    (ValueError) before it is computed: D^k adds k to the weight, NO
    adds the weights, and CP(a, n, b) has weight wt a + wt b - n - 1.
    With max_degree set, every NO and CP whose result could have degree
    above it is refused likewise: both add the degrees at most, and D^k
    keeps the degree."""
    if isinstance(e, Vac):
        return vacuum()
    if isinstance(e, Gen):
        alg.check_mode((e.species, e.index, -1))
        return generator_state(e.species, e.index)
    if isinstance(e, JGen):
        if alg.kind not in ("bg", "bc"):
            raise ValueError("J[l] is only defined in the bg or bc algebra")
        return realize_current(e.level, alg)
    if isinstance(e, Deriv):
        a = evaluate(e.arg, alg, max_weight, max_degree)
        _check_bound(f"D^{e.power}", "weight", [_top_weight(a)], e.power, max_weight)
        return derive(a, e.power)
    if isinstance(e, NormalOrder):
        args = [evaluate(x, alg, max_weight, max_degree) for x in e.args]
        _check_bound("NO", "weight", [_top_weight(a) for a in args], 0, max_weight)
        _check_bound("NO", "degree", [_top_degree(a) for a in args], 0, max_degree)
        return iterated_wick(args)
    if isinstance(e, CircleProd):
        a = evaluate(e.left, alg, max_weight, max_degree)
        b = evaluate(e.right, alg, max_weight, max_degree)
        what = f"CP(., {e.n}, .)"
        _check_bound(what, "weight", [_top_weight(a), _top_weight(b)], -e.n - 1, max_weight)
        _check_bound(what, "degree", [_top_degree(a), _top_degree(b)], 0, max_degree)
        return circle(a, e.n, b)
    if isinstance(e, Scaled):
        return e.coeff * evaluate(e.arg, alg, max_weight, max_degree)
    if isinstance(e, Sum):
        out = State()
        for sign, part in e.parts:
            out = out + sign * evaluate(part, alg, max_weight, max_degree)
        return out
    raise TypeError(f"not an expression node: {e!r}")
