"""Expression parsing, compiled evaluation, builtin catalog."""

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

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
    Const,
    Pow,
    Unary,
    Var,
)
from stringchase.labeling import induced_label
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


def test_depth_bound():
    """Each node kind nested exactly MAX_DEPTH deep parses, compiles (one
    bracket of emitted source per level) and evaluates; deeper is rejected."""
    d, half = MAX_DEPTH, MAX_DEPTH // 2
    nested_sin = "sin(" * d + "x1" + ")" * d
    sin_value = 0.5
    for _ in range(d):
        sin_value = math.sin(sin_value)
    long_sum = " + ".join(["0.001*x1"] * d)  # d - 1 additions over products
    cases = [  # (text, x1, value)
        ("-(" * half + "x1" + ")" * half, 0.5, 0.5),  # neg and group per pair
        (nested_sin, 0.5, sin_value),
        ("min2(" * d + "x1" + ", 0.25)" * d, 0.5, 0.25),
        ("(" * half + "x1" + "^1)" * half, 0.5, 0.5),  # ((x1^1)^1)...
        (" + ".join(["x1"] * (d + 1)), 0.001, sum([0.001] * (d + 1))),
        (long_sum, 0.5, sum([0.001 * 0.5] * d)),
    ]
    for text, x, value in cases:
        assert parse(text, 1).as_map_fn()((x,)) == (value,)
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
    leaves = st.one_of(
        st.builds(
            Const,
            st.floats(min_value=0.0, max_value=1000.0, allow_nan=False).map(abs),
        ),
        st.builds(Var, st.integers(1, n)),
    )

    def extend(children):
        return st.one_of(
            st.builds(Unary, st.sampled_from(["neg", "sin", "cos", "expneg", "sqrt", "abs"]), children),
            st.builds(Binary, st.sampled_from(["add", "sub", "mul", "min2", "max2"]), children, children),
            st.builds(Pow, children, st.integers(0, 4)),
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


def test_huge_literal_is_a_constant_not_source(capsys):
    digits = "9" * 400  # parses to inf
    assert main(["solve", "--map", digits, "--n", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["z"] == [1]
    assert main(["solve", "--map", digits + "*x1", "--n", "1"]) == 1
    assert capsys.readouterr().err == (
        "error: map evaluation failed at (0.0,): evaluator produced NaN\n")


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


def test_builtin_fixed_points_verify():
    for name in ("reflect1d", "rot90", "squeeze", "const-0.3,0.7", "avg-0.8"):
        g = builtin(name)
        for fp in g.fixed_points:
            assert residual(g, fp) <= 1e-12


def test_dottie_fixed_point_against_bisection():
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if math.cos(mid) - mid > 0:
            lo = mid
        else:
            hi = mid
    reference = (lo + hi) / 2
    g = builtin("dottie")
    assert abs(g.fixed_points[0][0] - reference) <= 1e-9
    assert residual(g, g.fixed_points[0]) <= 1e-9


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
    g = builtin("avg-0.3,0.6")
    assert g.n == 2
    assert g.lipschitz == 0.5
    assert g.fixed_points == ((0.3, 0.6),)
