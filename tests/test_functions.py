"""Expression parsing, compiled evaluation, builtin catalog."""

import dataclasses
import importlib.util
import itertools
import json
import math
import operator
import random
import re
import subprocess
import sys
from collections import Counter
from functools import partial, reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ACCEPTANCE_BUILTINS, CATALOG_REFERENCE, DOTTIE, recipe_maps
from stringchase import (
    ArityError,
    ComponentCountMismatch,
    ExprSyntaxError,
    GridSpec,
    IndexOutOfRange,
    Labeling,
    MapEvaluationFailed,
    MapFn,
    MapParseError,
    MapSpec,
    UnknownBuiltin,
    UnknownIdentifier,
    builtin,
    parse,
)
from stringchase.cli import main
from stringchase.functions import (
    BINARY_OPS,
    MAX_DEPTH,
    UNARY_OPS,
    Binary,
    CompiledMap,
    Const,
    Pow,
    Unary,
    Var,
    _quote,
)
from stringchase.labeling import _image, clamp_kernel, induced_label
from stringchase.solver import residual


def test_parse_simple_shapes():
    spec = parse("1 - x1", 1)
    assert spec.components == (Binary("sub", Const(1.0), Var(1)),)

    spec = parse("cos(x1)", 1)
    assert spec.components == (Unary("cos", Var(1)),)

    spec = parse("1 - x2; x1", 2)
    assert spec.n == 2
    assert spec.components == (Binary("sub", Const(1.0), Var(2)), Var(1))


def test_parse_precedence():
    spec = parse("1 - x1*x1 + 0.5", 1)
    (tree,) = spec.components
    assert tree == Binary(
        "add", Binary("sub", Const(1.0), Binary("mul", Var(1), Var(1))), Const(0.5)
    )
    # unary minus binds tighter than the power
    (tree,) = parse("-x1^2", 1).components
    assert tree == Pow(Unary("neg", Var(1)), 2)
    (tree,) = parse("x1^2 * x1", 1).components
    assert tree == Binary("mul", Pow(Var(1), 2), Var(1))


def test_parse_min2_max2():
    (tree,) = parse("min2(x1, 1 - x1)", 1).components
    assert tree == Binary("min2", Var(1), Binary("sub", Const(1.0), Var(1)))


def test_parse_errors():
    with pytest.raises(IndexOutOfRange):
        parse("x3", 2)
    with pytest.raises(IndexOutOfRange):
        parse("x0", 2)
    with pytest.raises(UnknownIdentifier):
        parse("y1 + 1", 1)
    with pytest.raises(ComponentCountMismatch):
        parse("x1; x1", 1)
    with pytest.raises(ComponentCountMismatch):
        parse("x1", 2)
    # a spec built by hand is held to the same count, with the same message
    for components, n in (((Var(1), Var(1)), 1), ((Var(1),), 2)):
        with pytest.raises(ComponentCountMismatch) as built:
            MapSpec(n, components)
        assert str(built.value) == f"map has {len(components)} components, dimension is {n}"
    with pytest.raises(ArityError):
        parse("sin(x1, x1)", 1)
    with pytest.raises(ArityError):
        parse("min2(x1)", 1)
    with pytest.raises(ExprSyntaxError):
        parse("x1 +", 1)
    with pytest.raises(ExprSyntaxError):
        parse("(x1", 1)
    with pytest.raises(ExprSyntaxError):
        parse("x1 ^ 2.5", 1)
    with pytest.raises(ExprSyntaxError):
        parse("x1 & x1", 1)
    with pytest.raises(ExprSyntaxError):
        parse("x1) ", 1)


def test_syntax_error_reports_position():
    with pytest.raises(MapParseError) as err:
        parse("x1 + $", 1)
    assert err.value.position == 5
    # integers with more digits than int() converts by default (4300)
    for text, error, position in (("x1^" + "9" * 5000, ExprSyntaxError, 3),
                                  ("x" + "9" * 5000, IndexOutOfRange, 0)):
        with pytest.raises(error) as err:
            parse(text, 1)
        assert err.value.position == position


@pytest.mark.parametrize("n, message", [
    pytest.param(n, message, id=str(n)) for n, message in (
        (0, "dimension must be >= 1, got 0"),
        (-1, "dimension must be >= 1, got -1"),
        (2.0, "dimension must be an integer, got 2.0"),
        (True, "dimension must be an integer, got True"),
        ("1", "dimension must be an integer, got '1'"))])
def test_parse_rejects_a_dimension_below_1(n, message):
    # a bool or a float is no dimension, even one equal to an int: True, 1.0
    # and 1 are one key of the clamp kernel cache
    with pytest.raises(ValueError) as err:
        parse("x1; x2", n)
    assert type(err.value) is ValueError and str(err.value) == message


def nested_value(fn, x, d):
    """``fn`` applied ``d`` times to ``x``."""
    for _ in range(d):
        x = fn(x)
    return x


def test_depth_bound():
    """Each FUNC and operator nested exactly MAX_DEPTH deep parses, compiles
    (one bracket of emitted source per level) and evaluates; deeper is
    rejected."""
    d, half = MAX_DEPTH, MAX_DEPTH // 2
    nested_sin = "sin(" * d + "x1" + ")" * d
    long_sum = " + ".join(["0.001*x1"] * d)  # d - 1 additions over products
    # the parsed sums add left to right, as reduce does; sum compensates
    # from Python 3.12 on
    cases = [  # (text, x1, value of the raw evaluator)
        ("-(" * half + "x1" + ")" * half, 0.5, 0.5),  # neg and group per pair
        ("-cos(" * half + "x1" + ")" * half, 0.5,  # neg and call per pair
         nested_value(lambda t: -math.cos(t), 0.5, half)),
        (nested_sin, 0.5, nested_value(math.sin, 0.5, d)),
        ("cos(" * d + "x1" + ")" * d, 0.5, nested_value(math.cos, 0.5, d)),
        ("expneg(" * d + "x1" + ")" * d, 0.5, nested_value(lambda t: math.exp(-t), 0.5, d)),
        ("sqrt(" * d + "x1" + ")" * d, 0.5, nested_value(math.sqrt, 0.5, d)),
        ("abs(" * d + "x1" + ")" * d, 0.5, 0.5),
        ("min2(" * d + "x1" + ", 0.25)" * d, 0.5, 0.25),
        ("max2(" * d + "x1" + ", 0.25)" * d, 0.125, 0.25),
        ("(" * half + "x1" + "^1)" * half, 0.5, 0.5),  # ((x1^1)^1)...
        (" + ".join(["x1"] * (d + 1)), 0.001, reduce(operator.add, [0.001] * (d + 1))),
        (long_sum, 0.5, reduce(operator.add, [0.001 * 0.5] * d)),
        ("1" + " - x1" * d, 0.001, reduce(operator.sub, [1.0] + [0.001] * d)),
        ("*".join(["x1"] * (d + 1)), 0.999, reduce(operator.mul, [0.999] * (d + 1))),
    ]
    for text, x, value in cases:
        assert parse(text, 1).as_map_fn().fn((x,)) == (value,), text[:12]
        with pytest.raises(ExprSyntaxError, match="deeper than"):
            parse("(" + text + ")", 1)

    for text in ("sin(" + nested_sin + ")", long_sum + " + x1",
                 nested_sin[:-d] + "^2" + ")" * d):
        with pytest.raises(ExprSyntaxError, match="deeper than"):
            parse(text, 1)


def test_eval_examples():
    assert parse("1 - x1", 1).as_map_fn()((0.25,)) == (0.75,)
    assert parse("cos(x1)", 1).as_map_fn()((0.0,)) == (1.0,)
    assert parse("x1 + 1", 1).as_map_fn()((0.5,)) == (1.0,)  # clamped
    assert parse("x1 - 1", 1).as_map_fn()((0.5,)) == (0.0,)  # clamped
    assert parse("sqrt(x1 - 1)", 1).as_map_fn()((0.0,)) == (0.0,)  # sqrt totalized
    assert parse("expneg(x1)", 1).as_map_fn()((0.0,)) == (1.0,)
    assert parse("abs(0 - x1)", 1).as_map_fn()((0.25,)) == (0.25,)
    assert parse("x1^0", 1).as_map_fn()((0.3,)) == (1.0,)
    assert parse("max2(x1, 0.9)", 1).as_map_fn()((0.2,)) == (0.9,)


def test_eval_stays_in_cube_at_random_points():
    rng = random.Random(4)
    specs = [
        parse("x1^2 - 0.3; 2*x2 + x1", 2),
        parse("sin(x1) + cos(x2); x1*x2 - 0.8", 2),
        parse("1 - x1*3", 1),
    ]
    for spec in specs:
        g = spec.as_map_fn()
        for _ in range(10_000):
            p = tuple(rng.random() for _ in range(spec.n))
            out = g(p)
            assert all(0.0 <= v <= 1.0 for v in out)


# compiled maps against a reference evaluator

def expr_trees(n: int):
    # inf, 1e300 and 1e-300 are what huge and tiny literals parse to; with
    # powers up to 8 they reach NaN, OverflowError and math domain errors
    leaves = st.one_of(
        st.builds(
            Const,
            st.floats(min_value=0.0, max_value=1000.0, allow_nan=False).map(abs)
            | st.sampled_from([math.inf, 1e300, 1e-300]),
        ),
        st.builds(Var, st.integers(1, n)),
    )

    def extend(children):
        return st.one_of(
            st.builds(Unary, st.sampled_from(["neg", "sin", "cos", "expneg", "sqrt", "abs"]), children),
            st.builds(Binary, st.sampled_from(["add", "sub", "mul", "min2", "max2"]), children, children),
            st.builds(Pow, children, st.integers(0, 8)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def reference_eval(node, p):
    """Direct recursive evaluation of a tree over the op tables."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return p[node.index - 1]
    if isinstance(node, Pow):
        return reference_eval(node.base, p) ** node.exponent
    if isinstance(node, Unary):
        return UNARY_OPS[node.op](reference_eval(node.arg, p))
    return BINARY_OPS[node.op](reference_eval(node.left, p), reference_eval(node.right, p))


def outcome(g, p):
    try:
        return g(p)
    except MapEvaluationFailed as exc:
        return str(exc)


unit = st.floats(min_value=0.0, max_value=1.0)


@given(st.lists(expr_trees(3), min_size=3, max_size=3),
       st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=4))
@settings(max_examples=400)
def test_compiled_map_matches_reference(trees, points):
    compiled = MapSpec(3, tuple(trees)).as_map_fn()
    reference = MapFn(3, lambda p: [reference_eval(t, p) for t in trees])
    for p in points:
        assert outcome(compiled, p) == outcome(reference, p)


# the clamp kernel of compiled maps against the generic _image

SPECIAL = (0.0, -0.0, 5e-324, 0.5, 1.0, 1e300, -1e300, math.inf, -math.inf, math.nan)


def image_outcome(image, p):
    """``image(p)`` as data: each component's bits (so the sign of a zero
    counts), or the error's class, message, point and cause."""
    try:
        out = image(p)
    except MapEvaluationFailed as exc:
        cause = exc.__cause__
        return type(exc), str(exc), repr(exc.point), type(cause), str(cause)
    assert type(out) is tuple and all(type(v) is float for v in out)
    return [v.hex() for v in out]


def assert_kernel_is_image(g, points):
    # the kernel bound, not _image: two bindings of one n share its code
    assert type(g) is CompiledMap
    assert g.image.__code__ is clamp_kernel(g.n)(g.fn).__code__
    for p in points:
        p = tuple(p)
        assert image_outcome(g.image, p) == image_outcome(partial(_image, g.fn, g.n), p), p


def kernel_points(n: int, rng: random.Random) -> list[tuple[float, ...]]:
    """Every special value on every axis at once and on one axis at a time,
    a grid at m = 3 for n <= 4, and random points of the cube."""
    points = [(s,) * n for s in SPECIAL]
    points += [(0.5,) * i + (s,) + (0.5,) * (n - 1 - i) for s in SPECIAL for i in range(min(n, 4))]
    if n <= 4:
        points += itertools.product([0.0, 1 / 3, 2 / 3, 1.0], repeat=n)
    return points + [tuple(rng.random() for _ in range(n)) for _ in range(20)]


WIDE = ["avg-" + ",".join(str(round(i / 299, 6)) for i in range(300)),
        "const-" + ",".join(str((i % 7) / 6) for i in range(300))]


@pytest.mark.parametrize("name", sorted(set(CATALOG_REFERENCE) | set(ACCEPTANCE_BUILTINS)) + WIDE,
                         ids=lambda name: name[:24])
def test_the_clamp_kernel_gives_what_image_gives_on_the_catalog(name):
    g = builtin(name)
    assert_kernel_is_image(g, kernel_points(g.n, random.Random(name)))


def test_the_clamp_kernel_gives_what_image_gives_on_the_recipe_family():
    rng = random.Random(7)
    for g in recipe_maps():
        assert_kernel_is_image(g, kernel_points(g.n, rng))


@pytest.mark.parametrize("text, n, p, expected", [
    ("x1 - 1; -x2; x1 + x3", 3, (0.5, 0.0, 0.75), [0.0, -0.0, 1.0]),  # both clamps, a -0.0
    ("x1^2", 1, (1e300,), OverflowError),
    ("expneg(x1)", 1, (-1000.0,), OverflowError),
    ("cos(x1); x1", 2, (math.inf, 0.5), ValueError),
    ("x1; x2", 2, (0.5, math.nan), "evaluator produced NaN"),
    ("9" * 400 + "*x1 - " + "9" * 400 + "*x1", 1, (0.5,), "evaluator produced NaN"),  # inf - inf
], ids=["clamps", "pow-overflow", "exp-overflow", "domain", "nan-input", "nan"])
def test_the_clamp_kernel_gives_what_image_gives_at_each_edge(text, n, p, expected):
    # expected: the image, the failure's message end, or its cause's class
    g = parse(text, n).as_map_fn()
    assert_kernel_is_image(g, [p])
    outcome = image_outcome(g.image, p)
    if isinstance(expected, list):
        assert outcome == [v.hex() for v in expected]
    elif isinstance(expected, str):
        assert outcome[1].endswith(expected)
    else:
        assert outcome[3] is expected


def test_the_clamp_kernel_passes_a_map_evaluation_failure_through():
    # an evaluator that evaluates another map raises that map's failure,
    # which reaches the caller unwrapped, as _image lets it
    inner = parse("x1 - 9" + "9" * 400 + "*x1 + " + "9" * 400 + "*x1", 1).as_map_fn()
    g = dataclasses.replace(builtin("avg-0.5"), fn=inner)
    assert_kernel_is_image(g, [(0.5,)])
    with pytest.raises(MapEvaluationFailed, match=r"NaN$") as err:
        g.image((0.5,))
    assert err.value.__cause__ is None


@given(st.lists(expr_trees(3), min_size=3, max_size=3),
       st.lists(st.tuples(*[unit | st.sampled_from(SPECIAL)] * 3), min_size=1, max_size=4))
@settings(max_examples=400)
def test_the_clamp_kernel_gives_what_image_gives_on_random_trees(trees, points):
    assert_kernel_is_image(MapSpec(3, tuple(trees)).as_map_fn(), points)


def test_huge_literal_is_a_constant_not_source(capsys):
    digits = "9" * 400  # parses to inf
    assert main(["solve", "--map", digits, "--n", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["z"] == [1]
    # inf*x1 - inf*x1 is NaN at every x1; the walk's first unforced point is 1/2
    assert main(["solve", "--map", f"{digits}*x1 - {digits}*x1", "--n", "1"]) == 1
    assert capsys.readouterr().err == (
        "error: map evaluation failed at (0.5,): evaluator produced NaN\n")


def test_map_faulting_only_at_forced_points_solves(capsys):
    # inf*x1 is NaN only at x1 = 0, where the label is forced to 0 and g is
    # never read; everywhere else it clamps to 1, the fixed point
    digits = "9" * 400
    assert main(["solve", "--map", digits + "*x1", "--n", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["z"] == [1]
    assert main(["labels", "--map", digits + "*x1", "--n", "1", "--m", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "0,0,0", "1,0.25,0", "2,0.5,0", "3,0.75,0", "4,1,1"]
    assert main(["verify-parity", "--map", digits + "*x1", "--n", "1", "--m", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["levels"][0]["S1"] == 1
    # the witness still reads g at every certificate vertex: inf*(1 - x1) is
    # NaN only at the forced x1 = 1, a vertex of the certificate
    assert main(["solve", "--map", f"{digits}*(1 - x1)", "--n", "1"]) == 1
    assert capsys.readouterr().err == (
        "error: map evaluation failed at (1.0,): evaluator produced NaN\n")


def test_unknown_op_fails_at_compile_time():
    spec = MapSpec(1, (Unary("__import__('os').getcwd() or sin", Var(1)),))
    with pytest.raises(KeyError):
        spec.as_map_fn()


# builtins

def test_builtin_values():
    assert builtin("const-0.5,0.5")((0.0, 1.0)) == (0.5, 0.5)
    assert builtin("avg-0.8")((0.2,)) == (0.5,)
    assert builtin("squeeze")((0.5,)) == (0.25,)
    assert builtin("reflect1d")((0.25,)) == (0.75,)
    assert builtin("rot90")((0.0, 1.0)) == (0.0, 0.0)


# the catalog's formulas as hand-written lambdas, the reference the compiled
# trees must reproduce bit for bit
CATALOG_FORMULAS = {
    "reflect1d": lambda p, c: (1.0 - p[0],),
    "dottie": lambda p, c: (math.cos(p[0]),),
    "rot90": lambda p, c: (1.0 - p[1], p[0]),
    "squeeze": lambda p, c: (p[0] * p[0],),
    "const": lambda p, c: c,
    "avg": lambda p, c: tuple([(x + ci) / 2.0 for x, ci in zip(p, c)]),
}


def test_compiled_catalog_matches_reference_formulas_bit_for_bit():
    rng = random.Random(26)
    for _ in range(250):
        n = rng.randint(1, 8)
        m = rng.choice([rng.randint(1, 64), rng.randint(1, 2**40)])
        c = tuple(rng.choice([rng.random(), 0.0, 1.0, 1e-20, 5e-324]) for _ in range(n))
        params = ",".join(map(repr, c))
        for name, formula in CATALOG_FORMULAS.items():
            g = builtin(f"{name}-{params}" if name in ("const", "avg") else name)
            for _ in range(20):
                p = tuple(rng.randint(0, m) / m for _ in range(g.n))
                got, want = g.fn(p), formula(p, c)
                assert [v.hex() for v in got] == [v.hex() for v in want], (g.name, p)


def test_wide_builtins_build_and_evaluate():
    rng = random.Random(300)
    c = tuple(rng.random() for _ in range(300))
    p = tuple(rng.randint(0, 7) / 7 for _ in range(300))
    params = ",".join(map(repr, c))
    for name in ("const", "avg"):
        g = builtin(f"{name}-{params}")
        assert g.n == 300 and g(p) == CATALOG_FORMULAS[name](p, c)


def test_maps_of_one_shape_share_code_but_not_constants():
    # the compile step is cached by source; each map still binds its own
    # constants, so a cache of compiled functions would mix them up
    pairs = [
        (builtin("avg-0.2,0.9"), builtin("avg-0.7,0.1"),
         lambda p: ((p[0] + 0.2) / 2.0, (p[1] + 0.9) / 2.0),
         lambda p: ((p[0] + 0.7) / 2.0, (p[1] + 0.1) / 2.0)),
        (parse("0.3*x1 + 0.1", 1).as_map_fn(), parse("0.6*x1 + 0.2", 1).as_map_fn(),
         lambda p: (0.3 * p[0] + 0.1,), lambda p: (0.6 * p[0] + 0.2,)),
    ]
    for a, b, fa, fb in pairs:
        assert a.fn.__code__ is b.fn.__code__
        for p in ((0.5, 0.25), (1.0, 0.0)):
            p = p[:a.n]
            assert a.fn(p) == fa(p) != b.fn(p) == fb(p)


def test_builtin_fixed_points_verify():
    for name, (fixed_points, _) in CATALOG_REFERENCE.items():
        g = builtin(name)
        for fp in fixed_points:
            assert residual(g, fp) <= 1e-12, name


def test_dottie_fixed_point_against_bisection():
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if math.cos(mid) - mid > 0:
            lo = mid
        else:
            hi = mid
    reference = (lo + hi) / 2
    assert abs(DOTTIE - reference) <= 1e-9
    assert residual(builtin("dottie"), (DOTTIE,)) <= 1e-9


def test_unknown_builtin():
    with pytest.raises(UnknownBuiltin):
        builtin("nope")
    with pytest.raises(UnknownBuiltin):
        builtin("const-abc")
    with pytest.raises(UnknownBuiltin):
        builtin("avg-1.5")  # parameter outside the cube


def test_induced_label_matches_labeling():
    for name in ("reflect1d", "dottie", "rot90", "squeeze", "const-0.3,0.7", "avg-0.8"):
        g = builtin(name)
        for m in range(1, 5):
            spec = GridSpec(g.n, m)
            lab = Labeling(spec, g)
            for x in spec.points():
                real = spec.to_real(x)
                # forcing the top faces changes no label of a whole grid
                forced = induced_label(x, m, real, g(real))
                assert forced == induced_label(x, m + 1, real, g(real)) == lab.label(x)


def test_builtin_metadata():
    # the catalog's Lipschitz constants bound the sup-norm slope on sampled pairs
    rnd = random.Random(7)
    for name, (fixed_points, lipschitz) in CATALOG_REFERENCE.items():
        g = builtin(name)
        assert g.n == len(fixed_points[0]) and g.name == name
        for _ in range(200):
            x, y = ([rnd.random() for _ in range(g.n)] for _ in range(2))
            gap = max(abs(a - b) for a, b in zip(g(x), g(y)))
            assert gap <= lipschitz * max(abs(a - b) for a, b in zip(x, y)) + 1e-15, name


REIMPORT = """
import gc, sys
import stringchase
for _ in range(3):
    for name in [m for m in sys.modules if m.startswith("stringchase")]:
        del sys.modules[name]
    import stringchase
gc.collect()
print(sum(1 for o in gc.get_objects() if isinstance(o, type) and o.__name__ == "Const"
          and o.__module__ == "stringchase.functions"))
"""


def test_reimport_leaves_no_old_package_alive():
    # a typing.Union over the node classes was cached by typing and kept
    # every earlier import of the package alive
    proc = subprocess.run([sys.executable, "-c", REIMPORT], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


# the parser against the one it replaced

_REFERENCE_TOKEN = re.compile(
    r"\s*(?:(?P<number>[0-9]+(?:\.[0-9]+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^();,]))"
)


def _reference_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
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


class _ReferenceParser:
    """The parser before token lists: (kind, text, position) tuples read
    through peek and take.  Its NUMBER takes ASCII digits only, the one
    change from that parser, whose ``\\d`` also took other scripts' digits."""

    def __init__(self, text, n):
        self.text = text
        self.n = n
        self.tokens = _reference_tokenize(text)
        self.i = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, symbol):
        kind, value, pos = self.take()
        if kind != "op" or value != symbol:
            raise ExprSyntaxError(f"expected {symbol!r}, found {_quote(value)}", pos)

    def at_op(self, *symbols):
        kind, value, _ = self.peek()
        return kind == "op" and value in symbols

    def bounded(self, depth, pos):
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", pos)
        return depth

    def parse_nested(self, pos):
        self.nesting = self.bounded(self.nesting + 1, pos)
        node, depth = self.parse_expr()
        self.nesting -= 1
        return node, depth

    def parse_map(self):
        components = [self.parse_expr()[0]]
        while self.at_op(";"):
            self.take()
            components.append(self.parse_expr()[0])
        kind, value, pos = self.peek()
        if kind is not None:
            raise ExprSyntaxError(f"trailing input {_quote(value)}", pos)
        if len(components) != self.n:
            raise ComponentCountMismatch(
                f"map has {len(components)} components, dimension is {self.n}"
            )
        return MapSpec(self.n, tuple(components))

    def parse_expr(self):
        node, depth = self.parse_term()
        while self.at_op("+", "-"):
            _, op, pos = self.take()
            right, right_depth = self.parse_term()
            node = Binary("add" if op == "+" else "sub", node, right)
            depth = self.bounded(max(depth, right_depth) + 1, pos)
        return node, depth

    def parse_term(self):
        node, depth = self.parse_factor()
        while self.at_op("*"):
            _, _, pos = self.take()
            right, right_depth = self.parse_factor()
            node = Binary("mul", node, right)
            depth = self.bounded(max(depth, right_depth) + 1, pos)
        return node, depth

    def parse_factor(self):
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
            except ValueError:
                raise ExprSyntaxError(f"exponent too large ({len(value)} digits)", pos) from None
            node, depth = Pow(node, exponent), self.bounded(depth + 1, pos)
        return node, depth

    def parse_atom(self):
        kind, value, pos = self.take()
        if kind == "number":
            return Const(float(value)), 0
        if kind == "op" and value == "(":
            node, depth = self.parse_nested(pos)
            self.expect_op(")")
            return node, self.bounded(depth + 1, pos)
        if kind == "ident":
            if value not in ("neg", "add", "sub", "mul") and (
                    value in UNARY_OPS or value in BINARY_OPS):
                return self.parse_call(value, pos)
            m = re.fullmatch(r"x(\d+)", value)
            if m:
                try:
                    index = int(m.group(1))
                except ValueError:
                    index = 0
                if not 1 <= index <= self.n:
                    raise IndexOutOfRange(
                        f"variable {_quote(value)} out of range for dimension {self.n}", pos
                    )
                return Var(index), 0
            raise UnknownIdentifier(f"unknown identifier {_quote(value)}", pos)
        raise ExprSyntaxError(f"expected a number, variable or '(', found {_quote(value)}", pos)

    def parse_call(self, func, pos):
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


def reference_parse(text, n):
    return _ReferenceParser(text, n).parse_map()


def parse_outcome(parser, text, n):
    """The parsed spec, or the error's class, message and position."""
    try:
        return parser(text, n)
    except MapParseError as exc:
        return type(exc), str(exc), exc.position


def _benchmark_texts():
    """The ``--map`` texts of the refine and parity benchmark tasks, seeds 1-3."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    loader = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(loader)
    sys.modules[loader.name] = workloads  # dataclasses look their module up
    try:
        loader.loader.exec_module(workloads)
        tasks = [t for seed in (1, 2, 3)
                 for t in workloads.refine(seed).tasks + workloads.parity(seed).tasks]
    finally:
        del sys.modules[loader.name]
    return [(t.option("--map"), int(t.option("--n"))) for t in tasks if t.option("--map")]


# what mutations insert: the grammar's characters, whitespace (the
# no-break space too), words, and characters no token takes, among them
# digits of other scripts
_INSERTS = list("0123456789.x+-*^();, _") + [
    "\t", " ", "sin(", "min2(", "x0", "x12", "neg", "add", "xx1", "x1_", "1.", ".5",
    "٣", "١", "é", "$", "\n", "9" * 5000, "(" * 40, ")" * 40,
]


def _mutated(rng, text):
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 4))
        kind = rng.randrange(5)
        if kind == 0:
            text = text[:i] + text[j:]  # delete
        elif kind == 1:
            text = text[:i] + rng.choice(_INSERTS) + text[i:]  # insert
        elif kind == 2:
            text = text[:i] + rng.choice(_INSERTS) + text[j:]  # replace
        elif kind == 3:
            text = text[:j] + text[i:j] + text[j:]  # repeat
        else:
            text = text[:i]  # cut
    return text


def _edge_texts():
    """Nesting either side of MAX_DEPTH in every nesting form, and literals
    past int()'s 4300 digits, well formed and not."""
    texts = []
    for d in range(MAX_DEPTH - 5, MAX_DEPTH + 6):
        half = d // 2
        texts += [
            "(" * d + "x1" + ")" * d, "sin(" * d + "x1" + ")" * d, "-(" * half + "x1" + ")" * half,
            "min2(" * d + "x1" + ", 0.25)" * d, "max2(0.5, " * d + "x1" + ")" * d,
            "(" * half + "x1" + "^1)" * half, " + ".join(["x1"] * d), "*".join(["x1"] * d),
            "1" + " - x1" * d, " + ".join(["0.1*x1"] * d), "(" * d + "x1" + ")" * (d - 1),
            "(" * d, "-" * d + "x1", "sin(" * d + "x1" + ")" * d + "^2",
        ]
    # a sum over a product in every group: three levels a group, mixing precedences
    texts += ["(x1+0.5*" * k + "x1" + ")" * k for k in range(31, 37)]
    big = "9" * 5000
    texts += [big, big + "." + big, "x1^" + big, "x" + big, "x" + big + " + 1", "x1^" + big + ".5",
              big + "*x1 - " + big + "*x1", "x1^" + "0" * 4999 + "7", "x" + "0" * 4999 + "1"]
    return texts


def test_parser_matches_the_reference_parser():
    rng = random.Random(27)
    bases = _benchmark_texts()
    bases += [(g.name, g.n) for g in recipe_maps()]
    cases = [(t, n) for t in _edge_texts() for n in (1, 2)]
    while len(cases) < 20_500:
        text, n = rng.choice(bases)
        cases.append((_mutated(rng, text), n + rng.choice((0, 0, 0, 0, -1, 1)) or 1))
    kinds = Counter()
    for text, n in cases:
        got = parse_outcome(parse, text, n)
        assert got == parse_outcome(reference_parse, text, n), (text[:80], n)
        kinds[got[0].__name__ if isinstance(got, tuple) else "parsed"] += 1
    # the mutations reach every outcome
    assert set(kinds) == {"parsed", "ExprSyntaxError", "ArityError", "UnknownIdentifier",
                          "IndexOutOfRange", "ComponentCountMismatch"}, kinds


@pytest.mark.parametrize("text, position", [("٣*x1", 0), ("x1^٢", 3), ("x١", 1), ("0.٥", 1)])
def test_digits_of_other_scripts_are_unexpected_characters(text, position, capsys):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text, 1)
    message = f"unexpected character {text[position]!r} (at position {position})"
    assert err.value.position == position and str(err.value) == message
    assert main(["solve", "--map", text, "--n", "1"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
