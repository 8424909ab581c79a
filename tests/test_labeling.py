"""Induced labelings, boundary rules, fully labeled queries."""

import dataclasses
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ExplicitLabeling, forced_label, random_affine_map, validate_brouwer
from stringchase import (
    GridSpec,
    Labeling,
    MapEvaluationFailed,
    MapFn,
    StringK,
    builtin,
    count_fully_labeled_faces,
    enumerate_strings,
    is_fully_labeled,
    labels_of,
    parse,
    vertices,
)
from stringchase.labeling import induced_label

REFLECT = builtin("reflect1d")
CONST_HALF = builtin("const-0.5,0.5")


def induced(g, m):
    spec = GridSpec(g.n, m)
    return spec, Labeling(spec, g)


def test_reflect_label_table():
    _, lab = induced(REFLECT, 4)
    assert [lab.label((i,)) for i in range(5)] == [0, 0, 1, 1, 1]


def test_const_half_label_table():
    _, lab = induced(CONST_HALF, 2)
    table = {p: lab.label(p) for p in itertools.product(range(3), repeat=2)}
    # label 2 wherever y >= 1/2, else 1 wherever x >= 1/2, else 0
    assert table[(0, 0)] == 0
    assert table[(1, 0)] == 1
    assert table[(2, 0)] == 1
    for p, value in table.items():
        if p[1] >= 1:
            assert value == 2
        elif p[0] >= 1:
            assert value == 1
        else:
            assert value == 0


def test_origin_is_labeled_zero():
    for g in (REFLECT, CONST_HALF, builtin("dottie"), builtin("rot90")):
        _, lab = induced(g, 3)
        assert lab.label((0,) * g.n) == 0


def test_label_zero_means_map_dominates():
    # wherever the label is 0 the map moves no coordinate down
    for g in (CONST_HALF, builtin("rot90")):
        spec, lab = induced(g, 4)
        for p in spec.points():
            if lab.label(p) == 0:
                real = spec.to_real(p)
                image = g(real)
                assert all(gi >= xi for gi, xi in zip(image, real))


def test_label_memoizes_single_evaluation():
    calls = 0

    def fn(p):
        nonlocal calls
        calls += 1
        return (0.5,)

    g = MapFn(1, fn)
    _, lab = induced(g, 4)
    for _ in range(3):
        lab.label((2,))
    assert calls == 1
    assert lab.evals == 1


def test_label_rejects_points_outside_grid():
    # a wrong length, a negative coordinate and one above m, on a whole grid
    # and on a box of 8 cells at (28, 3) in a grid of 64, whose points are 0..8
    _, lab = induced(builtin("rot90"), 4)
    box = Labeling(GridSpec(2, 8), builtin("rot90"), GridSpec(2, 64), (28, 3))
    for labeling, top in ((lab, 4), (box, 8)):
        for c in ((1,), (1, 1, 1), (-1, 2), (2, -3), (top + 1, 0), (0, top + 1)):
            with pytest.raises(ValueError) as err:
                labeling.label(c)
            assert str(err.value) == f"{c} is not a point of GridSpec(n=2, m={top})"
        assert labeling.evals == 0
    with pytest.raises(ValueError):
        Labeling(GridSpec(1, 8), REFLECT, GridSpec(1, 64), (57,))


def test_labeling_rejects_a_map_of_another_dimension():
    for spec, g in ((GridSpec(2, 3), builtin("dottie")), (GridSpec(1, 3), CONST_HALF)):
        with pytest.raises(ValueError) as err:
            Labeling(spec, g)
        assert str(err.value) == f"grid dimension {spec.n} != map dimension {g.n}"


def test_a_box_fits_when_every_offset_is_between_0_and_m_minus_w():
    rot90, box, grid = builtin("rot90"), GridSpec(2, 8), GridSpec(2, 64)
    # lo_i = M - w is the last offset that fits, on either axis
    for lo in ((56, 56), (56, 0), (0, 56), (0, 0), (28, 3)):
        lab = Labeling(box, rot90, grid, lo)
        assert lab.lo == lo and lab.grid_point((8, 8)) == (lo[0] + 8, lo[1] + 8)
    assert Labeling(GridSpec(1, 64), REFLECT, GridSpec(1, 64), [0]).lo == (0,)
    misfits = [
        (box, grid, (57, 0)), (box, grid, (0, 57)), (box, grid, (57, 57)),
        (GridSpec(1, 64), GridSpec(1, 64), (1,)),
        (box, grid, (-1, 0)), (box, grid, (0, -1)),
        (box, grid, (0,)), (box, grid, (0, 0, 0)), (box, grid, ()),
        # a grid of another dimension, at its own or the box's length of lo
        (box, GridSpec(1, 64), (0,)), (box, GridSpec(1, 64), None),
        (box, GridSpec(3, 64), (0, 0, 0)), (box, GridSpec(3, 64), None),
    ]
    for spec, enclosing, lo in misfits:
        g = rot90 if spec.n == 2 else REFLECT
        with pytest.raises(ValueError) as err:
            Labeling(spec, g, enclosing, lo)
        shown = (0,) * spec.n if lo is None else lo
        assert str(err.value) == f"box {spec} at {shown} does not fit in {enclosing}", lo


def test_one_cell_box_labels_ignore_the_map():
    # in a box of width 1 every coordinate is 0 or the forced top, so every
    # label is max{k : c_k = 1} whatever g(x) is, and none is evaluated: the
    # solver's boxes start at 2 cells, the smallest width whose labels read
    # the map
    for name in ("reflect1d", "dottie", "squeeze", "rot90", "const-0,1", "avg-0.3,0.6,0.9"):
        g = builtin(name)
        grid = GridSpec(g.n, 16)
        for lo in itertools.product((0, 7, 15), repeat=g.n):
            box = Labeling(GridSpec(g.n, 1), g, grid, lo)
            assert box.label((0,) * g.n) == 0
            for c in box.spec.points():
                top = [k for k in range(1, g.n + 1) if c[k - 1] == 1]
                assert box.label(c) == max(top, default=0)
            assert box.evals == 0


def test_map_evaluation_failure_carries_point():
    def fn(p):
        raise RuntimeError("boom")

    _, lab = induced(MapFn(1, fn), 2)
    with pytest.raises(MapEvaluationFailed) as err:
        lab.label((1,))
    assert err.value.point == (0.5,)


@pytest.mark.parametrize("component", ["a", None, 1j, "0.25", b"0.3"],
                         ids=["str", "None", "complex", "numeric-str", "bytes"])
def test_non_numeric_component_is_evaluation_failure(component):
    g = MapFn(1, lambda p: (component,))
    with pytest.raises(MapEvaluationFailed, match="evaluator raised") as err:
        g((0.5,))
    assert err.value.point == (0.5,)
    # the sweep labels 0 and 1 by the boundary rules alone and fails at 1/2
    with pytest.raises(MapEvaluationFailed, match="evaluator raised") as err:
        list(Labeling(GridSpec(1, 2), g).sweep())
    assert err.value.point == (0.5,)


def test_map_clamps_and_rejects_nan():
    g = MapFn(1, lambda p: (2.0,))
    assert g((0.0,)) == (1.0,)
    g = MapFn(1, lambda p: (-0.25,))
    assert g((0.0,)) == (0.0,)
    g = MapFn(2, lambda p: (float("inf"), float("-inf")))
    assert g((0.0, 0.0)) == (1.0, 0.0)
    out = MapFn(3, lambda p: (0, 1, True))((0.0, 0.0, 0.0))
    assert out == (0.0, 1.0, 1.0) and all(type(v) is float for v in out)
    for raw in ((float("nan"),), (0.2, float("nan"), 0.9), (float("inf"), float("nan"))):
        g = MapFn(len(raw), lambda p, raw=raw: raw)
        with pytest.raises(MapEvaluationFailed, match="evaluator produced NaN"):
            g((0.0,) * len(raw))
    g = MapFn(2, lambda p: (0.5,))
    with pytest.raises(MapEvaluationFailed, match="expected 2 components, got 1"):
        g((0.0, 0.0))


# the whole-box sweep

SWEEP_CATALOG = ("reflect1d", "dottie", "squeeze", "rot90", "const-0.5,0.25",
                 "avg-0.3,0.6,0.9", "avg-0.2,0.9,0.4,0.7", "const-0,1,0.5,0.25")


def random_box(data, n):
    """A box of at most 6 cells per axis: a whole grid or shifted in one."""
    w = data.draw(st.integers(1, 6))
    if not data.draw(st.booleans()):
        return GridSpec(n, w), None, None
    grid = GridSpec(n, w + data.draw(st.integers(1, 6)))
    lo = tuple(data.draw(st.integers(0, grid.m - w)) for _ in range(n))
    return GridSpec(n, w), grid, lo


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sweep_equals_per_point_labels(data):
    # on top of any earlier label calls, the sweep reads the cached points,
    # gives the forced ones their label without evaluating, evaluates
    # exactly the others, matches a fresh labelling point by point and
    # leaves the cache, the image table and evals as they were
    rnd = data.draw(st.randoms(use_true_random=False))
    if data.draw(st.booleans()):
        g = builtin(data.draw(st.sampled_from(SWEEP_CATALOG)))
    else:
        g = random_affine_map(data.draw(st.integers(1, 4)), rnd)
    spec, grid, lo = random_box(data, g.n)
    calls = Counter()

    def counted(x):
        calls[x] += 1
        return g.fn(x)

    lab = Labeling(spec, dataclasses.replace(g, fn=counted), grid, lo, images={})
    points = list(spec.points())
    cached = set(data.draw(st.lists(st.sampled_from(points), max_size=12)))
    for c in cached:
        lab.label(c)
    images, evals = dict(lab.images), lab.evals
    uncached = Counter(lab.grid.to_real(lab.grid_point(c)) for c in points
                       if c not in cached and forced_label(c, spec.m) is None)
    calls.clear()
    fresh = Labeling(spec, g, grid, lo)
    assert list(lab.sweep()) == [fresh.label(c) for c in points]
    assert calls == uncached
    assert (lab.images, lab.evals) == (images, evals)
    # label then evaluates what the sweep evaluated once more: it cached
    # none, and neither reads g at a forced point
    calls.clear()
    assert [lab.label(c) for c in points] == [fresh.label(c) for c in points]
    assert calls == uncached


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(["raise", "nan", "count", "text", "bytes"]))
def test_sweep_fails_at_the_first_bad_point_in_flat_order(data, fault):
    # bad points are drawn from the whole box; the sweep fails at the first
    # one in flat order whose label is not forced, or not at all when every
    # bad point is forced, since a forced label reads no g(x)
    rnd = data.draw(st.randoms(use_true_random=False))
    n = data.draw(st.integers(1, 3))
    spec, grid, lo = random_box(data, n)
    bad = set()

    def fn(x):
        if x not in bad:
            return (0.5,) * n
        if fault == "raise":
            raise ZeroDivisionError("boom")
        return {"nan": (0.5,) * (n - 1) + (float("nan"),), "count": (0.5,) * (n + 1),
                "text": ("0.25",) * n, "bytes": (b"0.3",) * n}[fault]

    g = MapFn(n, fn)
    lab = Labeling(spec, g, grid, lo)
    points = list(spec.points())
    real = [lab.grid.to_real(lab.grid_point(c)) for c in points]
    bad.update(rnd.sample(real, rnd.randint(1, min(4, len(real)))))
    failing = [i for i, (c, x) in enumerate(zip(points, real))
               if x in bad and forced_label(c, spec.m) is None]
    first = failing[0] if failing else len(points)
    before = rnd.sample(points[:first], rnd.randint(0, first))
    for c in before:
        lab.label(c)  # cached points are read, never evaluated again
    evals = lab.evals
    labels = lab.sweep()
    fresh = Labeling(spec, g, grid, lo)
    assert [next(labels) for _ in range(first)] == [fresh.label(c) for c in points[:first]]
    if failing:
        with pytest.raises(MapEvaluationFailed) as expected:
            g(real[first])
        with pytest.raises(MapEvaluationFailed) as err:
            next(labels)
        assert err.value.point == expected.value.point == real[first]
        assert str(err.value) == str(expected.value)
    else:
        assert next(labels, None) is None
    assert lab.evals == evals == sum(forced_label(c, spec.m) is None for c in before)


def map_fn_reference(lab, g, c):
    """Label and image of box point ``c`` through ``grid.to_real`` and the
    ``MapFn`` ``g`` that ``lab`` labels by."""
    x = lab.grid.to_real(lab.grid_point(c))
    gx = g(x)
    return induced_label(c, lab.spec.m, x, gx), gx


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_label_equals_the_map_fn_reference(data):
    # label forms (lo + c) / M itself and calls the raw evaluator; it must
    # give the label, and store under the real point the image, that
    # to_real and MapFn give.  A forced label is the reference label too,
    # and stores no image
    rnd = data.draw(st.randoms(use_true_random=False))
    if data.draw(st.booleans()):
        g = builtin(data.draw(st.sampled_from(SWEEP_CATALOG)))
    else:
        g = random_affine_map(data.draw(st.integers(1, 4)), rnd)
    spec, grid, lo = random_box(data, g.n)
    lab = Labeling(spec, g, grid, lo, images={})
    points = list(spec.points())
    rnd.shuffle(points)
    unforced = set()
    for c in points:
        expected, gx = map_fn_reference(lab, g, c)
        assert lab.label(c) == expected
        x = lab.grid.to_real(lab.grid_point(c))
        if forced_label(c, spec.m) is None:
            unforced.add(x)
            assert lab.images[x] == gx and all(type(v) is float for v in gx)
    assert set(lab.images) == unforced
    assert lab.evals == len(unforced)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(["raise", "nan", "count", "text", "bytes"]))
def test_label_fails_as_the_map_fn_does(data, fault):
    # at a faulting point label raises MapFn's MapEvaluationFailed, with the
    # same message and point, and caches nothing for it; at a forced point it
    # gives the forced label without calling the evaluator, faulting or not
    rnd = data.draw(st.randoms(use_true_random=False))
    n = data.draw(st.integers(1, 4))
    spec, grid, lo = random_box(data, n)
    bad, called = set(), set()

    def fn(x):
        called.add(x)
        if x not in bad:
            return [0.25 * (i % 4) for i in range(n)]
        if fault == "raise":
            raise ZeroDivisionError("boom")
        return {"nan": (0.5,) * (n - 1) + (float("nan"),), "count": (0.5,) * (n + 1),
                "text": ("0.25",) * n, "bytes": (b"0.3",) * n}[fault]

    g = MapFn(n, fn)
    lab = Labeling(spec, g, grid, lo, images={})
    points = list(spec.points())
    bad.update(lab.grid.to_real(lab.grid_point(c))
               for c in rnd.sample(points, rnd.randint(1, min(4, len(points)))))
    rnd.shuffle(points)
    unforced = [c for c in points if forced_label(c, spec.m) is None]
    for c in points:
        x = lab.grid.to_real(lab.grid_point(c))
        if (forced := forced_label(c, spec.m)) is not None:
            assert lab.label(c) == forced and x not in called and x not in lab.images
            continue
        try:
            expected = map_fn_reference(lab, g, c)
        except MapEvaluationFailed as exc:
            with pytest.raises(MapEvaluationFailed) as err:
                lab.label(c)
            assert err.value.point == exc.point == lab.grid.to_real(lab.grid_point(c))
            assert str(err.value) == str(exc)
            assert exc.point not in lab.images
        else:
            assert (lab.label(c), lab.images[x]) == expected
    failed = sum(lab.grid.to_real(lab.grid_point(c)) in bad for c in unforced)
    assert lab.evals == len(lab.images) == len(unforced) - failed


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_labellings_sharing_an_image_table_evaluate_each_real_point_once(data):
    # boxes of grid m and of grid 2m, as a solve's resolutions: the second
    # reads the images the first stored, and every label is the one an
    # unshared labelling gives.  The real points evaluated are those of the
    # points either box does not force, each once
    rnd = data.draw(st.randoms(use_true_random=False))
    if data.draw(st.booleans()):
        g = builtin(data.draw(st.sampled_from(SWEEP_CATALOG)))
    else:
        g = random_affine_map(data.draw(st.integers(1, 4)), rnd)
    calls = Counter()

    def counted(x):
        calls[x] += 1
        return g.fn(x)

    shared = dataclasses.replace(g, fn=counted)
    spec, grid, lo = random_box(data, g.n)
    grid = grid or spec
    w2 = data.draw(st.integers(1, 2 * grid.m))
    lo2 = tuple(data.draw(st.integers(0, 2 * grid.m - w2)) for _ in range(g.n))
    images, unforced = {}, set()
    boxes = [(spec, grid, lo), (GridSpec(g.n, w2), GridSpec(g.n, 2 * grid.m), lo2)]
    for box, whole, at in boxes:
        lab, fresh = Labeling(box, shared, whole, at, images), Labeling(box, g, whole, at)
        assert [lab.label(c) for c in box.points()] == [fresh.label(c) for c in box.points()]
        unforced.update(whole.to_real(lab.grid_point(c)) for c in box.points()
                        if forced_label(c, box.m) is None)
    assert set(calls) == set(images) == unforced and max(calls.values(), default=1) == 1
    assert all(images[x] == g(x) for x in calls)


# fully labeled queries
# fully labeled queries

def test_labels_of_and_fully_labeled():
    _, lab = induced(REFLECT, 4)
    assert labels_of(lab, StringK(1, (1,), (1,))) == [0, 1]
    assert is_fully_labeled(lab, StringK(1, (1,), (1,)))
    assert not is_fully_labeled(lab, StringK(1, (0,), (1,)))

    _, lab2 = induced(CONST_HALF, 2)
    assert labels_of(lab2, StringK(2, (0, 0), (1, 2))) == [0, 1, 2]
    assert is_fully_labeled(lab2, StringK(2, (0, 0), (1, 2)))
    assert labels_of(lab2, StringK(2, (0, 0), (2, 1))) == [0, 2, 2]
    assert not is_fully_labeled(lab2, StringK(2, (0, 0), (2, 1)))


def test_zero_string_is_fully_labeled():
    _, lab = induced(CONST_HALF, 2)
    assert labels_of(lab, StringK(0, (0, 0), ())) == [0]
    assert is_fully_labeled(lab, StringK(0, (0, 0), ()))


def _explicit_for_string(s, labels):
    spec = GridSpec(len(s.base), 8)
    return ExplicitLabeling(spec, dict(zip(vertices(s), labels)))


@pytest.mark.parametrize(
    "labels, expected_count",
    [
        ((0, 1, 2), 1),   # the single door omits the label-2 vertex
        ((0, 0, 1), 2),   # either 0-labeled vertex may be dropped
        ((1, 1, 2), 0),
        ((0, 1, 1), 2),
        ((2, 2, 2), 0),
    ],
)
def test_count_fully_labeled_faces_cases(labels, expected_count):
    s = StringK(2, (1, 0), (1, 2))
    lab = _explicit_for_string(s, labels)
    count, doors = count_fully_labeled_faces(lab, s)
    assert count == expected_count
    if labels == (0, 1, 2):
        assert doors == [2]


@pytest.mark.parametrize(
    "labels, expected_doors",
    [
        ((1, 3, 0), [1]),   # a label above k is the single door
        ((-1, 0, 1), [0]),  # so is a negative one
        ((0, -1, 3), []),   # two leftovers: label 1 is missing
    ],
)
def test_doors_with_labels_outside_the_level(labels, expected_doors):
    s = StringK(2, (1, 0), (1, 2))
    lab = _explicit_for_string(s, labels)
    assert count_fully_labeled_faces(lab, s) == (len(expected_doors), expected_doors)


def test_count_faces_requires_positive_dimension():
    _, lab = induced(REFLECT, 2)
    with pytest.raises(ValueError):
        count_fully_labeled_faces(lab, StringK(0, (0,), ()))


def brute_force_doors(lab, s):
    """Omitted indices, ascending, of the k-subsets labeled {0..k-1}."""
    verts = vertices(s)
    want = set(range(s.k))
    doors = []
    for subset in itertools.combinations(range(s.k + 1), s.k):
        if {lab.label(verts[i]) for i in subset} == want:
            (omitted,) = set(range(s.k + 1)) - set(subset)
            doors.append(omitted)
    return sorted(doors)


def test_count_agrees_with_brute_force_on_induced_labelings():
    for g in (REFLECT, CONST_HALF, builtin("rot90"), builtin("dottie")):
        for m in (1, 2, 3):
            spec, lab = induced(g, m)
            for k in range(1, spec.n + 1):
                for s in enumerate_strings(spec, k):
                    count, doors = count_fully_labeled_faces(lab, s)
                    assert doors == brute_force_doors(lab, s)
                    assert len(doors) == count


@given(
    k=st.integers(1, 4),
    seed=st.integers(0, 2 ** 20),
)
@settings(max_examples=300)
def test_door_count_iff_fully_labeled_random_labels(k, seed):
    # labels drawn from -1..k+2, so some break every rule: at most two
    # doors, the same ones the subset enumeration finds, and exactly one
    # door labeled k iff fully labeled
    import random

    rng = random.Random(seed)
    s = StringK(k, (1,) * k, tuple(range(1, k + 1)))
    labels = [rng.randint(-1, k + 2) for _ in range(k + 1)]
    lab = _explicit_for_string(s, labels)
    count, doors = count_fully_labeled_faces(lab, s)
    assert count == len(doors) <= 2
    assert doors == brute_force_doors(lab, s)
    one_door_labeled_k = count == 1 and labels[doors[0]] == k
    assert one_door_labeled_k == is_fully_labeled(lab, s)
    assert is_fully_labeled(lab, s) == (set(labels) == set(range(k + 1)))


@pytest.mark.parametrize("g", [
    builtin("avg-0.3,0.6,0.2"), builtin("rot90"),
    parse("0.5*x1 + 0.3*x2^2; expneg(x1) - 0.2*x2", 2).as_map_fn(),
], ids=["avg", "rot90", "parsed"])
def test_a_replaced_evaluator_counts_each_evaluation_once(g):
    # what the benchmark's counters rely on: they patch MapFn.__call__ on the
    # class and replace each resolved map's fn; label, sweep and __call__
    # then each read the new fn once per evaluation, through the clamp kernel
    assert type(g).__call__ is MapFn.__call__
    calls = Counter()

    def counted(x):
        calls[x] += 1
        return g.fn(x)

    h = dataclasses.replace(g, fn=counted)
    assert type(h) is type(g) and h.image.__code__ is g.image.__code__
    spec = GridSpec(g.n, 5)
    unforced = Counter(spec.to_real(c) for c in spec.points() if forced_label(c, spec.m) is None)
    lab = Labeling(spec, h)
    assert [lab.label(c) for c in spec.points()] == list(Labeling(spec, g).sweep())
    assert calls == unforced
    calls.clear()
    assert list(Labeling(spec, h).sweep()) == list(Labeling(spec, g).sweep())
    assert calls == unforced
    calls.clear()
    assert [h(x) for x in unforced] == [g(x) for x in unforced]
    assert calls == unforced


# Brouwer validation

def test_induced_labelings_pass_brouwer_rules(corpus, lab_cache):
    for g in corpus[:20]:
        spec, lab = lab_cache(g, 3)
        report = validate_brouwer(lab)
        assert report.ok
        assert report.checked == spec.point_count


def test_slab_bound_follows_from_zero_face_rule():
    # points with zeros beyond axis k never get labels above k
    for g in (CONST_HALF, builtin("rot90")):
        spec, lab = induced(g, 4)
        for p in spec.points():
            value = lab.label(p)
            for k in range(spec.n, 0, -1):
                if all(c == 0 for c in p[k:]):
                    assert value <= k


def test_validate_brouwer_flags_hand_built_violation():
    spec = GridSpec(2, 2)
    lab = ExplicitLabeling(spec, lambda p: 1 if p == (0, 1) else 0)
    report = validate_brouwer(lab)
    assert not report.ok
    kinds = {(v.rule, v.point) for v in report.violations}
    assert ("zero-face", (0, 1)) in kinds  # label 1 where coordinate 1 is 0
    # the all-zero labeling also breaks the one-face rule at the far corner
    assert any(v.rule == "one-face" for v in report.violations)
