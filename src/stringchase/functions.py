"""User-defined maps: a small total expression language plus a builtin catalog.

Grammar (whitespace-insensitive)::

    map      := expr (";" expr)*
    expr     := term (("+"|"-") term)*
    term     := factor ("*" factor)*
    factor   := ("-")? atom ("^" INTEGER)?
    atom     := NUMBER | VAR | FUNC "(" expr ")" | "(" expr ")"
    VAR      := "x" INTEGER
    FUNC     := sin | cos | expneg | sqrt | abs | min2 | max2
                (min2/max2 take two comma-separated arguments)

NUMBER is a nonnegative decimal with optional fraction (no exponents).
Unary minus binds tighter than "^", so ``-x1^2`` means ``(-x1)^2``.
Expressions nest at most MAX_DEPTH (100) levels deep, counting every
operator, function call and parenthesized group; deeper input is an
ExprSyntaxError.  The bound keeps the parser's recursion, and the bracket
nesting of the Python source each map is compiled to, within Python's limits.
Division is deliberately absent and sqrt is totalized as sqrt(max(t, 0)),
so evaluation never faults on [0,1]^n; outputs are clamped into [0,1]
componentwise, which keeps every parseable map usable as a labeling source.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Union

from .labeling import MapFn


class MapParseError(ValueError):
    """Base for parse-time failures; carries a character position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ExprSyntaxError(MapParseError):
    pass


class ArityError(MapParseError):
    pass


class UnknownIdentifier(MapParseError):
    pass


class IndexOutOfRange(MapParseError):
    pass


class ComponentCountMismatch(MapParseError):
    pass


class UnknownBuiltin(ValueError):
    pass


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Unary:
    op: str  # a key of UNARY_OPS
    arg: "ExprNode"


@dataclass(frozen=True)
class Binary:
    op: str  # a key of BINARY_OPS
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Pow:
    base: "ExprNode"
    exponent: int  # nonnegative


ExprNode = Union[Const, Var, Unary, Binary, Pow]

# Operator tables: node op -> float function.  A compiled tree calls these
# directly.  The ops outside _INFIX are also the grammar's FUNC names;
# sqrt is totalized as sqrt(max(t, 0)).
UNARY_OPS = {"neg": operator.neg, "sin": math.sin, "cos": math.cos,
             "expneg": lambda t: math.exp(-t), "sqrt": lambda t: math.sqrt(max(t, 0.0)),
             "abs": abs}
BINARY_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
              "min2": min, "max2": max}
_INFIX = frozenset({"neg", "add", "sub", "mul"})  # spelled -, +, -, *

# Deepest allowed nesting: every operator, function call and parenthesized
# group counts one level.  The parser and the emitter recurse a few times per
# level, which this keeps far below Python's recursion limit, and the emitted
# source nests one bracket per level, where CPython's parser stops at 200.
MAX_DEPTH = 100


def _emit(node: ExprNode, names: dict[str, object]) -> str:
    """The tree as one Python expression over the point ``p``.

    Every op is a call of its table function and every power is bracketed,
    so the source needs no precedence rules.  Constants and functions are
    bound in ``names``, and an op is named only after its table lookup, so
    no text from the input reaches the source.
    """
    if isinstance(node, Const):
        key = f"c{len(names)}"  # fresh, since names only grows
        names[key] = node.value
        return key
    if isinstance(node, Var):
        return f"p[{node.index - 1:d}]"
    if isinstance(node, Pow):
        return f"({_emit(node.base, names)} ** {node.exponent:d})"
    if isinstance(node, Unary):
        names[node.op] = UNARY_OPS[node.op]
        return f"{node.op}({_emit(node.arg, names)})"
    names[node.op] = BINARY_OPS[node.op]
    return f"{node.op}({_emit(node.left, names)}, {_emit(node.right, names)})"


@dataclass(frozen=True)
class MapSpec:
    """A parsed map: one expression tree per output component."""

    n: int
    components: tuple[ExprNode, ...]

    def as_map_fn(self, name: str = "expr") -> MapFn:
        """The map compiled once, behind MapFn's clamp and checks."""
        names: dict[str, object] = {"__builtins__": {}}
        body = "".join(_emit(c, names) + ", " for c in self.components)
        return MapFn(n=self.n, fn=eval(f"lambda p: ({body})", names), name=name)


_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^();,]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {text[at]!r}", at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent.  The parse_* methods return (node, depth), the
    depth counted as MAX_DEPTH describes."""

    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens = _tokenize(text)
        self.i = 0
        self.nesting = 0  # open parenthesized groups and calls

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, pos = self.take()
        if kind != "op" or value != symbol:
            raise ExprSyntaxError(f"expected {symbol!r}, found {value!r}", pos)

    def at_op(self, *symbols: str) -> bool:
        kind, value, _ = self.peek()
        return kind == "op" and value in symbols

    def bounded(self, depth: int, pos: int) -> int:
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", pos)
        return depth

    def parse_nested(self, pos: int) -> tuple[ExprNode, int]:
        """An expression one group or call deeper.  Checking on the way in
        stops runaway parentheses before the parser's own recursion does."""
        self.nesting = self.bounded(self.nesting + 1, pos)
        node, depth = self.parse_expr()
        self.nesting -= 1
        return node, depth

    def parse_map(self) -> MapSpec:
        components = [self.parse_expr()[0]]
        while self.at_op(";"):
            self.take()
            components.append(self.parse_expr()[0])
        kind, value, pos = self.peek()
        if kind is not None:
            raise ExprSyntaxError(f"trailing input {value!r}", pos)
        if len(components) != self.n:
            raise ComponentCountMismatch(
                f"map has {len(components)} components, dimension is {self.n}"
            )
        return MapSpec(self.n, tuple(components))

    def parse_expr(self) -> tuple[ExprNode, int]:
        node, depth = self.parse_term()
        while self.at_op("+", "-"):
            _, op, pos = self.take()
            right, right_depth = self.parse_term()
            node = Binary("add" if op == "+" else "sub", node, right)
            depth = self.bounded(max(depth, right_depth) + 1, pos)
        return node, depth

    def parse_term(self) -> tuple[ExprNode, int]:
        node, depth = self.parse_factor()
        while self.at_op("*"):
            _, _, pos = self.take()
            right, right_depth = self.parse_factor()
            node = Binary("mul", node, right)
            depth = self.bounded(max(depth, right_depth) + 1, pos)
        return node, depth

    def parse_factor(self) -> tuple[ExprNode, int]:
        _, _, pos = self.peek()
        negate = self.at_op("-")
        if negate:
            self.take()
        node, depth = self.parse_atom()
        if negate:
            node, depth = Unary("neg", node), self.bounded(depth + 1, pos)
        if self.at_op("^"):
            self.take()
            kind, value, pos = self.take()
            if kind != "number" or "." in value:
                raise ExprSyntaxError("exponent must be a nonnegative integer", pos)
            try:
                exponent = int(value)
            except ValueError:  # more digits than int() converts
                raise ExprSyntaxError(f"exponent too large ({len(value)} digits)", pos) from None
            node, depth = Pow(node, exponent), self.bounded(depth + 1, pos)
        return node, depth

    def parse_atom(self) -> tuple[ExprNode, int]:
        kind, value, pos = self.take()
        if kind == "number":
            return Const(float(value)), 0
        if kind == "op" and value == "(":
            node, depth = self.parse_nested(pos)
            self.expect_op(")")
            return node, self.bounded(depth + 1, pos)
        if kind == "ident":
            if value not in _INFIX and (value in UNARY_OPS or value in BINARY_OPS):
                return self.parse_call(value, pos)
            m = re.fullmatch(r"x(\d+)", value)
            if m:
                try:
                    index = int(m.group(1))
                except ValueError:  # more digits than int() converts
                    raise IndexOutOfRange(
                        f"variable index has {len(m.group(1))} digits, "
                        f"out of range for dimension {self.n}", pos
                    ) from None
                if not 1 <= index <= self.n:
                    raise IndexOutOfRange(
                        f"variable x{index} out of range for dimension {self.n}", pos
                    )
                return Var(index), 0
            raise UnknownIdentifier(f"unknown identifier {value!r}", pos)
        raise ExprSyntaxError(f"expected a number, variable or '(', found {value!r}", pos)

    def parse_call(self, func: str, pos: int) -> tuple[ExprNode, int]:
        self.expect_op("(")
        first, depth = self.parse_nested(pos)
        if self.at_op(","):
            if func in UNARY_OPS:
                raise ArityError(f"{func} takes one argument", pos)
            self.take()
            second, second_depth = self.parse_nested(pos)
            self.expect_op(")")
            return Binary(func, first, second), self.bounded(max(depth, second_depth) + 1, pos)
        if func in BINARY_OPS:
            raise ArityError(f"{func} takes two comma-separated arguments", pos)
        self.expect_op(")")
        return Unary(func, first), self.bounded(depth + 1, pos)


def parse(text: str, n: int) -> MapSpec:
    """Parse ``n`` semicolon-separated component expressions."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return _Parser(text, n).parse_map()


# Builtin catalog.  Parameterized entries take their constants in the name,
# e.g. "const-0.5,0.5" or "avg-0.8".

DOTTIE = 0.7390851332151607  # cos's fixed point, correct to double precision


def _parse_params(text: str, what: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise UnknownBuiltin(f"bad parameter list {text!r} for {what}") from None
    if any(not 0.0 <= v <= 1.0 for v in values):
        raise UnknownBuiltin(f"{what} parameters must lie in [0,1], got {text!r}")
    return values


def builtin(name: str) -> MapFn:
    """Catalog of maps with documented fixed points and Lipschitz constants:

    reflect1d        1 - x                 fixed point 1/2, L = 1
    dottie           cos x                 fixed point 0.7390851332..., L = sin 1
    rot90            (x, y) -> (1-y, x)    fixed point (1/2, 1/2), L = 1
    squeeze          x^2                   fixed points 0 and 1, L = 2
    const-<c,...>    constant c            fixed point c, L = 0
    avg-<c,...>      (x + c) / 2           fixed point c, L = 1/2
    """
    if name == "reflect1d":
        return MapFn(1, lambda p: (1.0 - p[0],), name=name,
                     lipschitz=1.0, fixed_points=((0.5,),))
    if name == "dottie":
        return MapFn(1, lambda p: (math.cos(p[0]),), name=name,
                     lipschitz=math.sin(1.0), fixed_points=((DOTTIE,),))
    if name == "rot90":
        return MapFn(2, lambda p: (1.0 - p[1], p[0]), name=name,
                     lipschitz=1.0, fixed_points=((0.5, 0.5),))
    if name == "squeeze":
        return MapFn(1, lambda p: (p[0] * p[0],), name=name,
                     lipschitz=2.0, fixed_points=((0.0,), (1.0,)))
    if name.startswith("const-"):
        c = _parse_params(name[len("const-"):], "const")
        return MapFn(len(c), lambda p, _c=c: _c, name=name,
                     lipschitz=0.0, fixed_points=(c,))
    if name.startswith("avg-"):
        c = _parse_params(name[len("avg-"):], "avg")
        return MapFn(len(c), lambda p, _c=c: tuple((x + ci) / 2.0 for x, ci in zip(p, _c)),
                     name=name, lipschitz=0.5, fixed_points=(c,))
    raise UnknownBuiltin(
        f"unknown builtin {name!r}; available: reflect1d, dottie, rot90, squeeze, "
        f"const-<c,...>, avg-<c,...>"
    )
