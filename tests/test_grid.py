"""Grid combinatorics: strings, faces, lift and pivot."""

import itertools

import pytest
from hypothesis import given, strategies as st

from conftest import FLOOR_DOOR_TABLE, ExplicitLabeling, assert_slotted_record
from stringchase import (
    BoundaryFace,
    GridSpec,
    StringK,
    enumerate_strings,
    face_vertices,
    lift,
    path_follow,
    pivot,
    string_count,
    vertices,
)


def all_small_specs(max_n=3, max_m=3):
    for n in range(1, max_n + 1):
        for m in range(1, max_m + 1):
            yield GridSpec(n, m)


@st.composite
def specs_and_strings(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    k = draw(st.integers(0, n))
    base = tuple(draw(st.integers(0, m - 1)) if i < k else 0 for i in range(n))
    perm = tuple(draw(st.permutations(list(range(1, k + 1)))))
    return GridSpec(n, m), StringK(k, base, perm)


# vertices

def test_zero_string_vertices():
    s = StringK(0, (0, 0, 0), ())
    assert vertices(s) == [(0, 0, 0)]


def test_vertices_follow_perm_order():
    assert vertices(StringK(2, (0, 0), (1, 2))) == [(0, 0), (1, 0), (1, 1)]
    assert vertices(StringK(2, (0, 0), (2, 1))) == [(0, 0), (0, 1), (1, 1)]


def test_vertices_start_and_end():
    s = StringK(3, (1, 2, 0), (2, 1, 3))
    vs = vertices(s)
    assert vs[0] == (1, 2, 0)
    assert vs[3] == (2, 3, 1)  # one step on each axis


def test_vertex_sets_are_canonical():
    # distinct strings have distinct vertex sets, so a vertex set names its
    # string; parity_check keys faces on vertex tuples and relies on this
    for spec in all_small_specs(max_n=4, max_m=4):
        for k in range(spec.n + 1):
            sets = {frozenset(vertices(s)) for s in enumerate_strings(spec, k)}
            assert len(sets) == string_count(spec, k)


def _string_of(vertex_set):
    # read a string back from its unordered vertex set: the vertices climb
    # one coordinate sum per step, each step a unit step along its perm axis
    ladder = sorted(vertex_set, key=sum)
    perm = tuple(
        next(i + 1 for i, (a, b) in enumerate(zip(lo, hi)) if a != b)
        for lo, hi in zip(ladder, ladder[1:])
    )
    return StringK(len(ladder) - 1, ladder[0], perm)


def test_round_trip_exhaustive_small():
    for spec in all_small_specs():
        for k in range(spec.n + 1):
            for s in enumerate_strings(spec, k):
                assert _string_of(set(vertices(s))) == s


@given(specs_and_strings())
def test_round_trip_random(sp):
    _, s = sp
    assert _string_of(set(vertices(s))) == s


def test_string_invariants_enforced():
    with pytest.raises(ValueError):
        StringK(1, (0, 0), (2,))  # perm not a permutation of 1..1
    with pytest.raises(ValueError):
        StringK(1, (0, 1), (1,))  # nonzero coordinate beyond axis k
    with pytest.raises(ValueError):
        StringK(2, (0,), (1, 2))  # k exceeds dimension
    with pytest.raises(ValueError):
        StringK(0, (-1,), ())


def test_coordinate_sum_ladder():
    for spec in all_small_specs():
        for k in range(spec.n + 1):
            for s in enumerate_strings(spec, k):
                sums = [sum(v) for v in vertices(s)]
                assert sums == [sums[0] + j for j in range(k + 1)]


# enumerate_strings

def test_enumeration_counts():
    assert string_count(GridSpec(1, 4), 1) == 4
    assert string_count(GridSpec(2, 2), 2) == 8
    for spec in all_small_specs():
        for k in range(spec.n + 1):
            listed = list(enumerate_strings(spec, k))
            assert len(listed) == string_count(spec, k)
            assert len(set(listed)) == len(listed)
            assert listed == sorted(listed, key=lambda s: (s.base, s.perm))
            assert all(spec.contains(v) for s in listed for v in vertices(s))


def test_enumeration_1d_m4():
    listed = list(enumerate_strings(GridSpec(1, 4), 1))
    assert [vertices(s) for s in listed] == [
        [(0,), (1,)], [(1,), (2,)], [(2,), (3,)], [(3,), (4,)]
    ]


def test_single_zero_string():
    for spec in all_small_specs():
        assert list(enumerate_strings(spec, 0)) == [StringK(0, (0,) * spec.n, ())]


# lift

def test_lift_examples():
    assert lift(StringK(0, (0, 0), ())) == StringK(1, (0, 0), (1,))
    assert lift(StringK(1, (0, 0), (1,))) == StringK(2, (0, 0), (1, 2))
    assert lift(StringK(1, (1, 0), (1,))) == StringK(2, (1, 0), (1, 2))
    assert vertices(lift(StringK(1, (1, 0), (1,))))[-1] == (2, 1)


def test_lift_dimension_exceeded():
    with pytest.raises(ValueError, match="exceeds dimension"):
        lift(StringK(2, (0, 0), (2, 1)))


def test_lift_is_unique_container():
    # the lift is the only k-string whose vertex set contains the lower string
    for spec in all_small_specs():
        for k in range(1, spec.n + 1):
            for c in enumerate_strings(spec, k - 1):
                cset = set(vertices(c))
                containers = [
                    b for b in enumerate_strings(spec, k)
                    if cset <= set(vertices(b))
                ]
                assert containers == [lift(c)]


# pivot

def test_pivot_examples():
    spec = GridSpec(1, 4)
    assert pivot(spec, StringK(1, (0,), (1,)), 0) == (StringK(1, (1,), (1,)), 1)
    with pytest.raises(BoundaryFace):
        pivot(spec, StringK(1, (0,), (1,)), 1)

    b = StringK(2, (0, 0), (1, 2))
    assert pivot(GridSpec(2, 2), b, 1) == (StringK(2, (0, 0), (2, 1)), 1)
    assert pivot(GridSpec(2, 2), b, 0) == (StringK(2, (1, 0), (2, 1)), 2)
    assert pivot(GridSpec(2, 2), StringK(2, (1, 0), (2, 1)), 2) == (b, 0)


def test_pivot_boundary_top():
    spec = GridSpec(1, 4)
    with pytest.raises(BoundaryFace):
        pivot(spec, StringK(1, (3,), (1,)), 0)  # would need vertex (5)


def test_pivot_floor_door_is_boundary():
    # omitting the top vertex of a string flat against the floor of its
    # last axis leaves the grid downward
    spec = GridSpec(2, 2)
    with pytest.raises(BoundaryFace):
        pivot(spec, StringK(2, (0, 0), (1, 2)), 2)


@pytest.mark.parametrize("call, message", [
    (lambda: pivot(GridSpec(1, 4), StringK(0, (0,), ()), 0),
     "a 0-string has no faces to pivot through"),
    (lambda: pivot(GridSpec(1, 4), StringK(1, (0,), (1,)), 2), "omitted index 2 outside 0..1"),
    (lambda: pivot(GridSpec(2, 4), StringK(2, (0, 0), (1, 2)), -1),
     "omitted index -1 outside 0..2"),
    (lambda: next(enumerate_strings(GridSpec(2, 3), 3)), "k=3 outside 0..2"),
    (lambda: next(enumerate_strings(GridSpec(2, 3), -1)), "k=-1 outside 0..2"),
])
def test_pivot_and_enumeration_reject_arguments_out_of_range(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value) == message


def _pivot_cases(spec):
    for k in range(1, spec.n + 1):
        for b in enumerate_strings(spec, k):
            for h in range(k + 1):
                try:
                    yield b, h, *pivot(spec, b, h)
                except BoundaryFace:
                    continue


def test_pivot_preserves_face_and_changes_one_vertex():
    for spec in all_small_specs():
        for b, h, other, _ in _pivot_cases(spec):
            old = vertices(b)
            shared = face_vertices(b, h)
            new_set = set(vertices(other))
            assert shared < new_set
            (fresh,) = new_set - set(shared)
            assert fresh != old[h]
            assert all(spec.contains(v) for v in vertices(other))
            assert other != b


def test_pivot_involution():
    # pivoting back through the returned entry face restores string and face
    for spec in all_small_specs():
        for b, h, other, entry in _pivot_cases(spec):
            assert pivot(spec, other, entry) == (b, h)


@given(specs_and_strings(), st.integers(0, 4))
def test_pivot_involution_random(sp, h):
    spec, b = sp
    if b.k < 1:
        return
    h = h % (b.k + 1)
    try:
        other, entry = pivot(spec, b, h)
    except BoundaryFace:
        return
    assert pivot(spec, other, entry) == (b, h)
    assert face_vertices(b, h) == face_vertices(other, entry)


def test_derived_strings_pass_the_checked_constructor():
    # pivot, lift, enumerate_strings and the walk's descent through a floor
    # door skip StringK's checks; what they build must be exactly what the
    # checked constructor accepts, with the same slotted layout
    derived = []
    for spec in all_small_specs():
        strings = [s for k in range(spec.n + 1) for s in enumerate_strings(spec, k)]
        derived += strings + [other for _, _, other, _ in _pivot_cases(spec)]
        derived += [lift(c) for c in strings if c.k < spec.n]
    spec = GridSpec(2, 3)
    steps = path_follow(spec, ExplicitLabeling(spec, FLOOR_DOOR_TABLE))[1].steps
    descended = [b.string for a, b in zip(steps, steps[1:]) if b.level < a.level]
    assert len(descended) == 1
    for s in derived + descended:
        checked = StringK(s.k, s.base, s.perm)
        assert checked == s and hash(checked) == hash(s)
        assert_slotted_record(s)
        assert_slotted_record(checked)


def test_pivot_exactly_two_strings_share_interior_face():
    # brute-force check of the two-containers rule for faces pivot accepts
    for spec in all_small_specs():
        by_level = {
            k: list(enumerate_strings(spec, k)) for k in range(1, spec.n + 1)
        }
        for b, h, other, _ in _pivot_cases(spec):
            shared = face_vertices(b, h)
            containers = [s for s in by_level[b.k] if shared <= set(vertices(s))]
            assert sorted(containers, key=str) == sorted([b, other], key=str)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 3)
    with pytest.raises(ValueError):
        GridSpec(2, 0)
    spec = GridSpec(2, 3)
    assert spec.point_count == 16
    assert spec.contains((3, 0))
    assert not spec.contains((4, 0))
    assert spec.to_real((1, 3)) == (1 / 3, 1.0)
    assert len(list(spec.points())) == 16


@given(st.integers(1, 2 ** 51), st.data())
def test_a_point_of_grid_m_is_the_same_float_in_grid_2m(m, data):
    # c / m is a correctly rounded quotient of integers below 2^53, so the
    # same rational at m and at 2m is the same float: a solve's image table
    # keyed by real point finds grid m's points again in grid 2m
    n = data.draw(st.integers(1, 3))
    p = tuple(data.draw(st.integers(0, m)) for _ in range(n))
    assert GridSpec(n, m).to_real(p) == GridSpec(n, 2 * m).to_real(tuple(2 * c for c in p))


@pytest.mark.parametrize(
    "k, base, perm, message",
    [
        (2, (0, 0), (1,), "k=2 but perm has 1 entries"),
        (2, (0, 0), (1, 1), "perm (1, 1) is not a permutation of 1..2"),
        (2, (0,), (2, 1), "k=2 exceeds dimension 1"),
        (1, (0, -1), (1,), "negative coordinate in base (0, -1)"),
        (1, (0, 2), (1,), "base (0, 2) has nonzero coordinate beyond axis 1"),
        (0, (0, 0, 1), (), "base (0, 0, 1) has nonzero coordinate beyond axis 0"),
    ],
)
def test_string_validation(k, base, perm, message):
    with pytest.raises(ValueError) as err:
        StringK(k, base, perm)
    assert str(err.value) == message


def test_string_with_empty_base_is_accepted():
    assert vertices(StringK(0, (), ())) == [()]
