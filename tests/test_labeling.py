"""Induced labelings, boundary rules, fully labeled queries."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from stringchase import (
    ExplicitLabeling,
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
    validate_brouwer,
    vertices,
)

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
    _, lab = induced(REFLECT, 4)
    with pytest.raises(ValueError):
        lab.label((5,))
    # a box of 8 cells at 28 in a grid of 64: its points are 0..8
    box = Labeling(GridSpec(1, 8), builtin("dottie"), GridSpec(1, 64), (28,))
    for c in ((9,), (-3,), (1, 1)):
        with pytest.raises(ValueError):
            box.label(c)
    assert box.evals == 0
    with pytest.raises(ValueError):
        Labeling(GridSpec(1, 8), REFLECT, GridSpec(1, 64), (57,))


def test_map_evaluation_failure_carries_point():
    def fn(p):
        raise RuntimeError("boom")

    _, lab = induced(MapFn(1, fn), 2)
    with pytest.raises(MapEvaluationFailed) as err:
        lab.label((1,))
    assert err.value.point == (0.5,)


def test_map_clamps_and_rejects_nan():
    g = MapFn(1, lambda p: (2.0,))
    assert g((0.0,)) == (1.0,)
    g = MapFn(1, lambda p: (-0.25,))
    assert g((0.0,)) == (0.0,)
    g = MapFn(1, lambda p: (float("nan"),))
    with pytest.raises(MapEvaluationFailed):
        g((0.0,))
    g = MapFn(2, lambda p: (0.5,))
    with pytest.raises(MapEvaluationFailed):
        g((0.0, 0.0))


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
    spec = GridSpec(s.n, 8)
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
