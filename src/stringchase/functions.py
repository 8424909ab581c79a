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

NUMBER is a nonnegative decimal of ASCII digits, with optional fraction
(no exponents).  Unary minus binds tighter than "^", so ``-x1^2`` means ``(-x1)^2``.
Expressions nest at most MAX_DEPTH (100) levels deep, counting every
operator, function call and parenthesized group; deeper input is an
ExprSyntaxError.  The bound keeps the parser's recursion, and the bracket
nesting of the Python source each map is compiled to (``_emit``), within
Python's limits.  The parser reads the token texts of one regex scan by
index, and only an error scans the text again, to find its position.
Division is deliberately absent and sqrt is totalized as sqrt(max(t, 0)),
so evaluation never faults on [0,1]^n; outputs are clamped into [0,1]
componentwise, which keeps every parseable map usable as a labeling source.
The builtin catalog is built as trees and compiled the same way, and the
compile step is cached by source, so maps of one shape share one code object.
"""

from __future__ import annotations

import functools
import math
import operator
import re

from .grid import Record, check_size
from .labeling import MapFn, clamp_kernel


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


def _quote(token: str | None) -> str:
    """``token`` as an error message shows it: quoted, and past 20
    characters cut to its first 20 plus its length, so that an error on
    long input stays one short line.  None, the token past the end of the
    input, reads ``end of input``."""
    if token is None:
        return "end of input"
    if len(token) <= 20:
        return repr(token)
    return f"{token[:20]!r}... ({len(token)} characters)"


class Const(Record):
    __slots__ = ("value",)
    def __init__(self, value: float) -> None:
        self._setters[0](self, value)


class Var(Record):
    __slots__ = ("index",)  # 1-based
    def __init__(self, index: int) -> None:
        self._setters[0](self, index)


class Unary(Record):
    __slots__ = ("op", "arg")  # op: a key of UNARY_OPS
    def __init__(self, op: str, arg: ExprNode) -> None:
        set_op, set_arg = self._setters
        set_op(self, op)
        set_arg(self, arg)


class Binary(Record):
    __slots__ = ("op", "left", "right")  # op: a key of BINARY_OPS
    def __init__(self, op: str, left: ExprNode, right: ExprNode) -> None:
        set_op, set_left, set_right = self._setters
        set_op(self, op)
        set_left(self, left)
        set_right(self, right)


class Pow(Record):
    __slots__ = ("base", "exponent")  # exponent nonnegative
    def __init__(self, base: ExprNode, exponent: int) -> None:
        set_base, set_exponent = self._setters
        set_base(self, base)
        set_exponent(self, exponent)


ExprNode = Const | Var | Unary | Binary | Pow

# Operator tables: node op -> float function, the reference semantics of
# each op.  The ops outside _INFIX are also the grammar's FUNC names; sqrt is
# totalized as sqrt(max(t, 0)).
UNARY_OPS = {"neg": operator.neg, "sin": math.sin, "cos": math.cos,
             "expneg": lambda t: math.exp(-t), "sqrt": lambda t: math.sqrt(max(t, 0.0)),
             "abs": abs}
BINARY_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
              "min2": min, "max2": max}
_INFIX = {"neg": "-", "add": "+", "sub": "-", "mul": "*"}  # the compiled spelling

# Deepest allowed nesting: every operator, function call and parenthesized
# group counts one level.  The parser and the emitter recurse a few times per
# level, which this keeps far below Python's recursion limit, and the emitted
# source nests one bracket per level, where CPython's parser stops at 200.
MAX_DEPTH = 100


def _emit(node: ExprNode, names: dict[str, object]) -> str:
    """The tree as one Python expression over the point ``p``.

    +, -, * and unary minus are written infix, which evaluates as their
    ``operator`` functions do, ``expneg(t)`` as ``exp(-t)``, and every other
    op as a call of its table function.  Each op and power is bracketed, so
    the source needs no precedence rules and nests one bracket per level.
    sqrt stays a call: ``sqrt(max(t, 0.0))`` inline would nest two, and
    MAX_DEPTH of them would pass CPython's 200.  Constants and functions are
    bound in ``names``, and an op is spelled only after its table lookup, so
    no text from the input reaches the source.
    """
    if isinstance(node, Binary):  # the commonest node first
        left, right = _emit(node.left, names), _emit(node.right, names)
        if node.op in _INFIX:
            return f"({left} {_INFIX[node.op]} {right})"
        names[node.op] = BINARY_OPS[node.op]
        return f"{node.op}({left}, {right})"
    if isinstance(node, Const):
        key = f"c{len(names)}"  # fresh, since names only grows
        names[key] = node.value
        return key
    if isinstance(node, Var):
        return f"p[{node.index - 1:d}]"
    if isinstance(node, Pow):
        return f"({_emit(node.base, names)} ** {node.exponent:d})"
    arg = _emit(node.arg, names)
    if node.op in _INFIX:
        return f"({_INFIX[node.op]}{arg})"
    if node.op == "expneg":
        names["exp"] = math.exp
        return f"exp(-{arg})"
    names[node.op] = UNARY_OPS[node.op]
    return f"{node.op}({arg})"


class MapSpec(Record):
    """A parsed map: one expression tree per output component."""

    __slots__ = ("n", "components")

    def __post_init__(self) -> None:
        check_size("dimension", self.n, 1)
        if len(self.components) != self.n:
            raise ComponentCountMismatch(
                f"map has {len(self.components)} components, dimension is {self.n}")

    def as_map_fn(self, name: str = "expr") -> MapFn:
        """The map compiled once, behind the clamp kernel for n (``CompiledMap``)."""
        return _compile(self.n, self.components, name)


class CompiledMap(MapFn):
    """A MapFn whose ``fn`` returns a tuple of n floats, as ``_compile``'s do.

    Its ``image`` is the clamp kernel for n (``labeling.clamp_kernel``)
    bound to ``fn``, in place of the generic ``_image``.  The kernel calls
    ``fn``, so ``dataclasses.replace(g, fn=...)``, which keeps the class,
    binds it to the new ``fn``, which must return a tuple of n floats too.
    ``Labeling.sweep`` calls ``fn`` itself, through the same checks.
    """

    fn_gives_floats = True

    def __post_init__(self):
        super().__post_init__()  # checks n
        object.__setattr__(self, "image", clamp_kernel(self.n)(self.fn))


_compile_source = functools.lru_cache(maxsize=256)(lambda src: compile(src, "<map>", "eval"))


def _compile(n: int, components: tuple[ExprNode, ...], name: str) -> CompiledMap:
    """The trees as one function of ``p``, with its own ``names`` bound,
    behind the clamp kernel for n (``CompiledMap``)."""
    names: dict[str, object] = {"__builtins__": {}}
    body = "".join(_emit(c, names) + ", " for c in components)
    return CompiledMap(n=n, fn=eval(_compile_source(f"lambda p: ({body})"), names), name=name)


# after any whitespace: a NUMBER (ASCII digits only), an identifier or an operator
_TOKEN = re.compile(r"\s*([0-9]+(?:\.[0-9]+)?|[A-Za-z_][A-Za-z_0-9]*|[-+*^();,])")
_FUNCS = (UNARY_OPS.keys() | BINARY_OPS.keys()) - _INFIX.keys()
_BINARY_INFIX = {"+": ("add", 1), "-": ("sub", 1), "*": ("mul", 2)}  # op and precedence


class _Parser:
    """Recursive descent over the token texts, read by index.  ``toks`` ends
    in None, the end of input, and a token's kind is its first character's:
    a digit starts a number, a letter or "_" an identifier.  The parse_*
    methods return (node, depth), the depth counted as MAX_DEPTH describes.
    The grammar's ``expr`` and ``term`` are one loop by precedence:
    ``parse_expr(floor)`` reads a factor, then each operator of precedence
    >= floor with its right operand read at one precedence higher, so both
    levels stay left-associative.  Errors carry the position ``where``
    finds for their token's index."""

    def __init__(self, text: str, n: int):
        self.text, self.n = text, n
        self.toks = _TOKEN.findall(text)
        # findall skips what no token matches; then the tokens cover fewer
        # characters than the text has outside whitespace
        if len("".join(self.toks)) != len("".join(text.split())):
            at = self.where(None)
            raise ExprSyntaxError(f"unexpected character {text[at]!r}", at)
        self.toks.append(None)
        self.i = 0
        self.nesting = 0  # open parenthesized groups and calls

    def where(self, index: int | None) -> int:
        """Where token ``index`` starts, or the end of the text past the
        last token; with None, the first character no token matches."""
        end = 0
        for i, m in enumerate(_TOKEN.finditer(self.text)):
            if m.start() != end:  # findall skipped a character here
                break
            if i == index:
                return m.start(1)
            end = m.end()
        return len(self.text) - len(self.text[end:].lstrip())

    def expect(self, symbol: str) -> None:
        if (tok := self.toks[self.i]) != symbol:
            raise ExprSyntaxError(f"expected {symbol!r}, found {_quote(tok)}", self.where(self.i))
        self.i += 1

    def bounded(self, depth: int, at: int) -> int:
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels", self.where(at))
        return depth

    def parse_nested(self, at: int) -> tuple[ExprNode, int]:
        """An expression one group or call deeper.  Checking on the way in
        stops runaway parentheses before the parser's own recursion does."""
        self.nesting = self.bounded(self.nesting + 1, at)
        node, depth = self.parse_expr()
        self.nesting -= 1
        return node, depth

    def parse_map(self) -> MapSpec:
        components = [self.parse_expr()[0]]
        while self.toks[self.i] == ";":
            self.i += 1
            components.append(self.parse_expr()[0])
        if (tok := self.toks[self.i]) is not None:
            raise ExprSyntaxError(f"trailing input {_quote(tok)}", self.where(self.i))
        return MapSpec(self.n, tuple(components))

    def parse_expr(self, floor: int = 1) -> tuple[ExprNode, int]:
        node, depth = self.parse_factor()
        while (op := _BINARY_INFIX.get(self.toks[self.i])) and op[1] >= floor:
            at = self.i
            self.i += 1
            right, right_depth = self.parse_expr(op[1] + 1)
            node = Binary(op[0], node, right)
            depth = self.bounded(max(depth, right_depth) + 1, at)
        return node, depth

    def parse_factor(self) -> tuple[ExprNode, int]:
        at = self.i
        negate = self.toks[at] == "-"
        self.i += negate
        node, depth = self.parse_atom()
        if negate:
            node, depth = Unary("neg", node), self.bounded(depth + 1, at)
        if self.toks[self.i] == "^":
            at = self.i + 1
            self.i += 2
            tok = self.toks[at]
            if tok is None or not tok[0].isdigit() or "." in tok:
                raise ExprSyntaxError("exponent must be a nonnegative integer", self.where(at))
            try:
                exponent = int(tok)
            except ValueError:  # more digits than int() converts
                raise ExprSyntaxError(
                    f"exponent too large ({len(tok)} digits)", self.where(at)) from None
            node, depth = Pow(node, exponent), self.bounded(depth + 1, at)
        return node, depth

    def parse_atom(self) -> tuple[ExprNode, int]:
        at = self.i
        tok = self.toks[at]
        self.i += 1
        if tok is None or tok in "+-*^);,":  # the end, or an operator but "("
            raise ExprSyntaxError(
                f"expected a number, variable or '(', found {_quote(tok)}", self.where(at))
        if tok[0].isdigit():
            return Const(float(tok)), 0
        if tok == "(":
            node, depth = self.parse_nested(at)
            self.expect(")")
            return node, self.bounded(depth + 1, at)
        if tok in _FUNCS:
            return self.parse_call(tok, at)
        if tok[0] == "x" and tok[1:].isdigit():
            try:
                index = int(tok[1:])
            except ValueError:  # more digits than int() converts
                index = 0
            if not 1 <= index <= self.n:
                raise IndexOutOfRange(
                    f"variable {_quote(tok)} out of range for dimension {self.n}", self.where(at))
            return Var(index), 0
        raise UnknownIdentifier(f"unknown identifier {_quote(tok)}", self.where(at))

    def parse_call(self, func: str, at: int) -> tuple[ExprNode, int]:
        self.expect("(")
        first, depth = self.parse_nested(at)
        if self.toks[self.i] == ",":
            if func in UNARY_OPS:
                raise ArityError(f"{func} takes one argument", self.where(at))
            self.i += 1
            second, second_depth = self.parse_nested(at)
            self.expect(")")
            return Binary(func, first, second), self.bounded(max(depth, second_depth) + 1, at)
        if func in BINARY_OPS:
            raise ArityError(f"{func} takes two comma-separated arguments", self.where(at))
        self.expect(")")
        return Unary(func, first), self.bounded(depth + 1, at)


def parse(text: str, n: int) -> MapSpec:
    """Parse ``n`` semicolon-separated component expressions."""
    check_size("dimension", n, 1)
    return _Parser(text, n).parse_map()


def _parse_params(text: str, what: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise UnknownBuiltin(f"bad parameter list {_quote(text)} for {what}") from None
    if any(not 0.0 <= v <= 1.0 for v in values):
        raise UnknownBuiltin(f"{what} parameters must lie in [0,1], got {_quote(text)}")
    return values


_FIXED = {"reflect1d": (Binary("sub", Const(1.0), Var(1)),), "dottie": (Unary("cos", Var(1)),),
          "rot90": (Binary("sub", Const(1.0), Var(2)), Var(1)),
          "squeeze": (Binary("mul", Var(1), Var(1)),)}


def builtin(name: str) -> MapFn:
    """Catalog of maps with documented fixed points and Lipschitz constants,
    built as trees and compiled as ``--map`` maps are (the compile step is
    cached by source); parameterized entries take constants in the name,
    e.g. "const-0.5,0.5" or "avg-0.8":

    reflect1d        1 - x                 fixed point 1/2, L = 1
    dottie           cos x                 fixed point 0.7390851332..., L = sin 1
    rot90            (x, y) -> (1-y, x)    fixed point (1/2, 1/2), L = 1
    squeeze          x^2                   fixed points 0 and 1, L = 2
    const-<c,...>    constant c            fixed point c, L = 0
    avg-<c,...>      0.5*(x + c)           fixed point c, L = 1/2
    """
    kind, dash, params = name.partition("-")
    tree = _FIXED.get(name)
    if dash and kind == "const":
        tree = tuple(map(Const, _parse_params(params, kind)))
    elif dash and kind == "avg":
        half = Const(0.5)
        tree = tuple(Binary("mul", half, Binary("add", Var(i), Const(c)))
                     for i, c in enumerate(_parse_params(params, kind), 1))
    if tree is None:
        raise UnknownBuiltin(
            f"unknown builtin {_quote(name)}; available: reflect1d, dottie, rot90, squeeze, "
            f"const-<c,...>, avg-<c,...>"
        )
    return _compile(len(tree), tree, name)
