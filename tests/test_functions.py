"""Expression parsing, evaluation, printing, builtin catalog."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from stringchase import (
    ArityError,
    ComponentCountMismatch,
    ExprSyntaxError,
    IndexOutOfRange,
    MapParseError,
    UnknownBuiltin,
    UnknownIdentifier,
    builtin,
    format_expr,
    format_map,
    parse,
)
from stringchase.functions import MAX_DEPTH, Binary, Const, Pow, Unary, Var
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


def test_depth_bound():
    d = MAX_DEPTH
    nested_sin = "sin(" * d + "x1" + ")" * d
    long_sum = " + ".join(["0.001*x1"] * d)  # d - 1 additions over products
    groups = "(" * (d - 1) + "-x1" + ")" * (d - 1)
    for text in (nested_sin, long_sum, groups):
        spec = parse(text, 1)
        assert parse(format_map(spec), 1) == spec
    value = 0.5
    for _ in range(d):
        value = math.sin(value)
    assert parse(nested_sin, 1).as_map_fn()((0.5,)) == (value,)
    assert parse(long_sum, 1).as_map_fn()((0.5,)) == (sum([0.001 * 0.5] * d),)
    assert parse(groups, 1).as_map_fn()((0.5,)) == (0.0,)

    for text in ("sin(" + nested_sin + ")", long_sum + " + x1", "(" + groups + ")",
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


# print / reparse round trip

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


@given(st.lists(expr_trees(3), min_size=3, max_size=3))
@settings(max_examples=400)
def test_format_then_parse_is_identity(trees):
    from stringchase import MapSpec

    spec = MapSpec(3, tuple(trees))
    assert parse(format_map(spec), 3) == spec
    for tree in trees:
        assert format_expr(tree)  # printable on its own as well


def test_format_map_round_trip():
    spec = parse("1 - x2*x1; min2(x1, x2)^3 + 0.25", 2)
    assert parse(format_map(spec), 2) == spec


def test_number_formatting_has_no_exponent():
    tree = Const(1e-05)
    text = format_expr(tree)
    assert "e" not in text and "E" not in text
    (reparsed,) = parse(text, 1).components
    assert reparsed == tree


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


def test_builtin_metadata():
    g = builtin("avg-0.3,0.6")
    assert g.n == 2
    assert g.lipschitz == 0.5
    assert g.fixed_points == ((0.3, 0.6),)
