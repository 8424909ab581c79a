"""Oracle enumeration, parity bookkeeping, and the door-in/door-out walk."""

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FLOOR_DOOR_TABLE,
    ExplicitLabeling,
    assert_slotted_record,
    forced_label,
    random_affine_map,
    random_steep_affine_map,
    reference_walk,
)
from stringchase import (
    BudgetExceeded,
    GridSpec,
    Labeling,
    LabelingInvalid,
    LevelParity,
    ParityReport,
    StringK,
    builtin,
    enumerate_strings,
    exhaustive_fully_labeled,
    is_fully_labeled,
    face_vertices,
    labels_of,
    parity_check,
    path_follow,
    verify_trace,
    vertices,
)
from stringchase.labeling import doors_of
from stringchase.search import (
    OUTCOME_FOUND,
    PathTrace,
    StepLimitExceeded,
    TraceInvalid,
    TraceStep,
)


def induced(g, m):
    spec = GridSpec(g.n, m)
    return spec, Labeling(spec, g)


def test_oracle_reflect_1d():
    spec, lab = induced(builtin("reflect1d"), 4)
    found = exhaustive_fully_labeled(spec, lab, 1)
    assert [vertices(s) for s in found] == [[(1,), (2,)]]


def test_oracle_const_half_2d():
    spec, lab = induced(builtin("const-0.5,0.5"), 2)
    assert exhaustive_fully_labeled(spec, lab, 2) == [StringK(2, (0, 0), (1, 2))]


def test_oracle_level_zero():
    spec, lab = induced(builtin("dottie"), 3)
    assert exhaustive_fully_labeled(spec, lab, 0) == [StringK(0, (0,), ())]


def test_oracle_budget():
    spec, lab = induced(builtin("rot90"), 100)
    with pytest.raises(BudgetExceeded) as err:
        exhaustive_fully_labeled(spec, lab, 2, budget=1000)
    assert err.value.required == 100 * 100 * 2


def test_parity_reflect_m4():
    spec, lab = induced(builtin("reflect1d"), 4)
    report = parity_check(spec, lab)
    (level,) = report.levels
    assert (level.s1, level.s2, level.t1, level.t2) == (1, 1, 1, 1)
    assert level.fully_labeled == 1
    assert level.identity_ok and level.odd_ok
    assert report.ok


def test_parity_const_half():
    spec, lab = induced(builtin("const-0.5,0.5"), 2)
    report = parity_check(spec, lab)
    assert report.levels[-1].s1 == 1
    assert report.ok


def test_parity_budget():
    spec, lab = induced(builtin("rot90"), 50)
    with pytest.raises(BudgetExceeded):
        parity_check(spec, lab, budget=100)


def test_parity_flags_degenerate_labeling():
    # all-zero labels break the one-face rule; oddness must fail, and the
    # double count still balances at level 1
    spec = GridSpec(1, 4)
    lab = ExplicitLabeling(spec, lambda p: 0)
    report = parity_check(spec, lab)
    (level,) = report.levels
    assert level.s1 == 0
    assert not level.odd_ok
    assert not report.ok


def test_parity_t1_counts_lower_level_strings(corpus, lab_cache):
    # the doors contained in exactly one string are exactly the fully
    # labeled strings one level down
    for g in corpus[:12]:
        for m in (1, 2, 3):
            spec, lab = lab_cache(g, m)
            report = parity_check(spec, lab)
            below = 1  # unique fully labeled 0-string
            for level in report.levels:
                assert level.t1 == below
                assert level.s1 == level.fully_labeled
                below = level.fully_labeled


# path following

def test_path_const_half_is_two_lifts():
    spec, lab = induced(builtin("const-0.5,0.5"), 2)
    found, trace = path_follow(spec, lab)
    assert found == StringK(2, (0, 0), (1, 2))
    assert [s.level for s in trace.steps] == [0, 1, 2]
    assert all(s.exit is None for s in trace.steps)  # no sideways pivots
    assert trace.outcome == OUTCOME_FOUND
    verify_trace(lab, trace)


def test_path_reflect_one_pivot():
    spec, lab = induced(builtin("reflect1d"), 4)
    found, trace = path_follow(spec, lab)
    assert vertices(found) == [(1,), (2,)]
    level1 = [s for s in trace.steps if s.level == 1]
    assert [s.string for s in level1] == [StringK(1, (0,), (1,)), StringK(1, (1,), (1,))]
    assert level1[0].exit == 0
    verify_trace(lab, trace)


def test_path_trivial_resolution():
    # at m=1 the boundary rules force the two corner labels
    for g in (builtin("reflect1d"), builtin("dottie"), builtin("squeeze")):
        spec, lab = induced(g, 1)
        found, trace = path_follow(spec, lab)
        assert is_fully_labeled(lab, found)
        assert labels_of(lab, found) == [0, 1]
        verify_trace(lab, trace)


def test_path_result_always_in_oracle_list(corpus, lab_cache):
    for g in corpus[:25]:
        for m in (1, 2, 3):
            spec, lab = lab_cache(g, m)
            found, trace = path_follow(spec, lab)
            verify_trace(lab, trace)
            assert found in exhaustive_fully_labeled(spec, lab, spec.n)


def test_path_is_deterministic():
    g = builtin("rot90")
    runs = []
    for _ in range(2):
        spec, lab = induced(g, 5)
        runs.append(path_follow(spec, lab))
    assert runs[0] == runs[1]


def test_path_rejects_invalid_labeling():
    spec = GridSpec(1, 4)
    lab = ExplicitLabeling(spec, lambda p: 0)  # breaks the one-face rule
    with pytest.raises(LabelingInvalid, match="pinned to the grid boundary"):
        path_follow(spec, lab)  # the door at x = 4 would pivot out of the grid
    lab = ExplicitLabeling(spec, lambda p: 1)  # breaks the zero-face rule at 0
    with pytest.raises(LabelingInvalid, match="the origin must carry label 0"):
        path_follow(spec, lab)


def test_path_rejects_a_labeling_that_changes_its_answer():
    # with fixed labels the face a walk enters by is a door of both strings,
    # so only a labelling that answers a second read differently can break
    # the entry rule: the origin reads 0, then 1, which makes the first
    # 1-string fully labeled with links [0, None] and no face 1 among them
    reads = Counter()

    def fickle(p):
        reads[p] += 1
        return int(p == (0,) and reads[p] > 1)

    spec = GridSpec(1, 4)
    with pytest.raises(LabelingInvalid, match=r"entry 1 of .* is not one of its links \[0, None\]"):
        path_follow(spec, ExplicitLabeling(spec, fickle))
    # with fixed labels the walk is a simple path, so only such a labelling
    # can take it over more strings of a level than the level has.  Drawing
    # each read afresh from the labels the boundary rules allow, seed 77
    # reads (1, 0) as 0 and later as 1: the walk crosses the bottom edge,
    # lifts, comes back down to the edge and crosses it again
    spec, rnd = GridSpec(2, 3), random.Random(77)
    lab = ExplicitLabeling(spec, lambda p: rnd.choice(_legal_labels(p, 3, 2)))
    with pytest.raises(StepLimitExceeded, match="^more than 4 strings visited at level 1$"):
        path_follow(spec, lab)


def test_path_rejects_labels_above_level():
    # a label above the slab dimension makes a one-door string that is not
    # fully labeled; the walk must refuse it
    spec = GridSpec(2, 2)
    table = {p: 0 for p in spec.points()}
    table[(1, 0)] = 2
    table[(2, 0)] = 2
    table[(0, 1)] = 2
    table[(1, 1)] = 2
    table[(2, 1)] = 2
    table[(0, 2)] = 2
    table[(1, 2)] = 2
    table[(2, 2)] = 2
    lab = ExplicitLabeling(spec, table)
    with pytest.raises(LabelingInvalid, match="labels exceed the level"):
        path_follow(spec, lab)


def test_trace_adjacency_from_serialized_form(corpus, lab_cache):
    # the shared-face invariants are checkable from (base, perm) data alone
    g = corpus[10]
    spec, lab = lab_cache(g, 3)
    _, trace = path_follow(spec, lab)
    rebuilt = [
        StringK(len(step.string.perm), step.string.base, step.string.perm)
        for step in trace.steps
    ]
    for a, b in zip(rebuilt, rebuilt[1:]):
        level = max(a.k, b.k)
        shared = set(vertices(a)) & set(vertices(b))
        assert len(shared) == level
        assert {lab.label(p) for p in shared} == set(range(level))


def test_verify_trace_rejects_tampering():
    spec, lab = induced(builtin("const-0.5,0.5"), 2)
    _, trace = path_follow(spec, lab)
    broken = type(trace)(steps=trace.steps[1:], outcome=trace.outcome)
    with pytest.raises(TraceInvalid):
        verify_trace(lab, broken)
    broken = type(trace)(steps=trace.steps[:-1], outcome=trace.outcome)
    with pytest.raises(TraceInvalid):
        verify_trace(lab, broken)
    # a step moved off the grid is reported, not left to fail in labelling
    spec, lab = induced(builtin("rot90"), 3)
    _, trace = path_follow(spec, lab)
    last = trace.steps[-1]
    moved = TraceStep(last.level, StringK(2, (3, 3), last.string.perm), last.entry, last.exit)
    broken = type(trace)(steps=trace.steps[:-1] + (moved,), outcome=trace.outcome)
    with pytest.raises(TraceInvalid, match="leaves the grid"):
        verify_trace(lab, broken)
    # a pivot step's recorded entry face is checked like its exit face
    spec, lab = induced(builtin("rot90"), 4)
    _, trace = path_follow(spec, lab)
    i = next(i for i, s in enumerate(trace.steps)
             if i and s.entry == 1 and trace.steps[i - 1].level == s.level)
    step = trace.steps[i]
    for entry, message in ((0, "recorded entry face"), (None, "descent recorded")):
        tampered = TraceStep(step.level, step.string, entry, step.exit)
        broken = type(trace)(trace.steps[:i] + (tampered,) + trace.steps[i + 1:], trace.outcome)
        with pytest.raises(TraceInvalid, match=message):
            verify_trace(lab, broken)
    first = trace.steps[0]
    seed = TraceStep(first.level, first.string, 0, first.exit)
    with pytest.raises(TraceInvalid, match="first step records an entry face"):
        verify_trace(lab, type(trace)((seed,) + trace.steps[1:], trace.outcome))

    # one tampered trace per remaining check, on the same rot90 m = 4 walk
    steps = trace.steps
    assert steps[-1].level == 2 and not is_fully_labeled(lab, StringK(2, (0, 0), (1, 2)))
    j = next(j for j, s in enumerate(steps) if s.level == 2 and s.exit is not None)

    def replaced(i, **changes):
        fields = {name: getattr(steps[i], name) for name in TraceStep.__slots__}
        return steps[:i] + (TraceStep(**{**fields, **changes}),) + steps[i + 1:]

    origin_one = ExplicitLabeling(spec, lambda p: 1 if p == (0, 0) else lab.label(p))
    cases = [
        ((), lab, "empty trace"),
        (replaced(1, level=2), lab, "step level 2 != string dimension 1"),
        (replaced(len(steps) - 1, exit=0), lab, "final step records an exit face"),
        (replaced(len(steps) - 1, string=StringK(2, (0, 0), (1, 2))), lab,
         "final string is not fully labeled"),
        (steps[:2] + steps[1:], lab, "a string repeats"),
        (steps[:j] + steps[j + 1:], lab, "consecutive strings share 1 vertices, expected 2"),
        (steps, origin_one, "shared face is not fully labeled"),
        (replaced(j, exit=(steps[j].exit + 1) % 3), lab, "recorded exit face does not match"),
        (replaced(j, exit=None), lab, "lift recorded where levels do not rise"),
    ]
    for broken_steps, labeling, message in cases:
        with pytest.raises(TraceInvalid, match=message):
            verify_trace(labeling, type(trace)(broken_steps, trace.outcome))
    with pytest.raises(TraceInvalid, match="unexpected outcome 'lost'"):
        verify_trace(lab, type(trace)(steps, "lost"))




def test_path_descends_through_floor_door():
    # hand-built valid labeling on the 4x4 grid whose walk must leave the
    # square level through the floor, continue along the bottom edge, and
    # climb back up; checks every step against the worked-out trace
    spec = GridSpec(2, 3)
    lab = ExplicitLabeling(spec, FLOOR_DOOR_TABLE)
    found, trace = path_follow(spec, lab)
    assert found == StringK(2, (2, 0), (1, 2))
    expected = [
        (0, StringK(0, (0, 0), ()), None, None),
        (1, StringK(1, (0, 0), (1,)), 1, None),
        (2, StringK(2, (0, 0), (1, 2)), 2, 0),
        (2, StringK(2, (1, 0), (2, 1)), 2, 1),
        (2, StringK(2, (1, 0), (1, 2)), 1, 2),
        (1, StringK(1, (1, 0), (1,)), None, 0),
        (1, StringK(1, (2, 0), (1,)), 1, None),
        (2, StringK(2, (2, 0), (1, 2)), 2, None),
    ]
    assert [(s.level, s.string, s.entry, s.exit) for s in trace.steps] == expected
    verify_trace(lab, trace)


def test_downward_door_reconstructs_as_string():
    # the face the walk leaves a level through is the vertex set of a
    # string one level down, and the walk goes on from that string
    spec = GridSpec(2, 3)
    lab = ExplicitLabeling(spec, FLOOR_DOOR_TABLE)
    _, trace = path_follow(spec, lab)
    descents = 0
    for prev, step in zip(trace.steps, trace.steps[1:]):
        if step.level < prev.level:
            door = face_vertices(prev.string, prev.exit)
            assert door in {frozenset(vertices(c)) for c in enumerate_strings(spec, step.level)}
            assert door == frozenset(vertices(step.string))
            descents += 1
    assert descents == 1


def _legal_labels(p, m, n):
    """Labels the boundary rules allow at grid point p: at least every axis
    whose coordinate is m, and never an axis whose coordinate is 0."""
    floor = max((k for k in range(1, n + 1) if p[k - 1] == m), default=0)
    return [k for k in range(floor, n + 1) if k == 0 or p[k - 1] > 0]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.randoms(use_true_random=False))
def test_walk_on_random_boundary_rule_labelings(n, m, rnd):
    # a wider class than induced labellings (box labellings belong to it)
    spec = GridSpec(n, m)
    table = {p: rnd.choice(_legal_labels(p, m, n)) for p in spec.points()}
    lab = ExplicitLabeling(spec, table)
    s, trace = path_follow(spec, lab)
    assert s in exhaustive_fully_labeled(spec, lab, n)
    verify_trace(lab, trace)
    assert parity_check(spec, lab).ok


def reference_parity(spec, lab):
    """Per-level (s1, s2, t1, t2, fully labeled) the long way: doors by
    dropping each vertex in turn, faces keyed by their vertex sets, and the
    fully labeled test on every string."""
    levels = []
    for k in range(1, spec.n + 1):
        s1 = s2 = fully = 0
        containment = Counter()
        for b in enumerate_strings(spec, k):
            labels = labels_of(lab, b)
            doors = [h for h in range(k + 1)
                     if set(labels[:h] + labels[h + 1:]) == set(range(k))]
            s1 += len(doors) == 1
            s2 += len(doors) == 2
            fully += is_fully_labeled(lab, b)
            for h in doors:
                containment[face_vertices(b, h)] += 1
        t1 = sum(1 for c in containment.values() if c == 1)
        t2 = sum(1 for c in containment.values() if c == 2)
        levels.append((k, s1, s2, t1, t2, fully))
    return levels


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.booleans(), st.randoms(use_true_random=False))
def test_parity_check_matches_reference_on_random_labelings(n, m, brouwer, rnd):
    # with or without the boundary rules, labels in 0..n
    spec = GridSpec(n, m)
    if brouwer:
        table = {p: rnd.choice(_legal_labels(p, m, n)) for p in spec.points()}
    else:
        table = {p: rnd.randint(0, n) for p in spec.points()}
    lab = ExplicitLabeling(spec, table)
    got = [(lv.k, lv.s1, lv.s2, lv.t1, lv.t2, lv.fully_labeled)
           for lv in parity_check(spec, lab).levels]
    assert got == reference_parity(spec, lab)


def tuple_keyed_parity(spec, lab):
    """``parity_check`` as it was before flat indices: every string built as
    a ``StringK``, its k+1 labels read through ``lab.label``, and each door
    keyed by the tuple of its vertices in string order."""
    levels = []
    for k in range(1, spec.n + 1):
        s1 = s2 = fully = 0
        containment = Counter()
        for b in enumerate_strings(spec, k):
            verts = tuple(vertices(b))
            labels = [lab.label(v) for v in verts]
            doors = doors_of(labels, k)
            if len(doors) == 1:
                s1 += 1
                if labels[doors[0]] == k:
                    fully += 1
            elif doors:
                s2 += 1
            for h in doors:
                containment[verts[:h] + verts[h + 1:]] += 1
        t1 = sum(1 for c in containment.values() if c == 1)
        t2 = sum(1 for c in containment.values() if c == 2)
        levels.append(LevelParity(k, s1, s2, t1, t2, fully))
    return ParityReport(tuple(levels))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5),
       st.sampled_from(["induced", "steep", "brouwer", "any"]), st.randoms(use_true_random=False))
def test_parity_check_matches_the_tuple_keyed_count(n, m, kind, rnd):
    # flat indices change how strings and faces are addressed, not the counts
    spec = GridSpec(n, m)
    if kind == "induced":
        lab = Labeling(spec, random_affine_map(n, rnd))
    elif kind == "steep":
        lab = Labeling(spec, random_steep_affine_map(n, rnd))
    elif kind == "brouwer":
        lab = ExplicitLabeling(spec, {p: rnd.choice(_legal_labels(p, m, n)) for p in spec.points()})
    else:  # boundary rules broken, so levels fail
        lab = ExplicitLabeling(spec, {p: rnd.randint(-1, n + 1) for p in spec.points()})
    assert parity_check(spec, lab) == tuple_keyed_parity(spec, lab)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 2), st.integers(6, 40), st.sampled_from(["induced", "steep"]),
       st.randoms(use_true_random=False))
def test_parity_check_matches_the_tuple_keyed_count_on_fine_grids(n, m, kind, rnd):
    # on a fine grid most cells of an induced labelling lack one of the
    # labels 0..k-1, so parity_check skips their strings unread
    spec = GridSpec(n, m)
    g = random_affine_map(n, rnd) if kind == "induced" else random_steep_affine_map(n, rnd)
    lab = Labeling(spec, g)
    assert parity_check(spec, lab) == tuple_keyed_parity(spec, lab)


class CountingLabeling:
    """A labelling that counts how often each point's label is read."""

    def __init__(self, lab):
        self.spec, self._lab, self.reads = lab.spec, lab, Counter()

    def label(self, p):
        self.reads[tuple(p)] += 1
        return self._lab.label(p)


@pytest.mark.parametrize("name, m", [("rot90", 5), ("avg-0.3,0.6,0.2", 4), ("reflect1d", 6)])
def test_parity_reads_each_label_once(name, m):
    spec, lab = induced(builtin(name), m)
    counting = CountingLabeling(lab)
    parity_check(spec, counting)
    assert set(counting.reads) == set(spec.points())
    assert sum(counting.reads.values()) == spec.point_count


@pytest.mark.parametrize("name, m", [("rot90", 5), ("avg-0.3,0.6,0.2", 4), ("reflect1d", 6)])
def test_parity_evaluates_each_point_once_on_a_labeling(name, m):
    # the README example: a walk, then a parity check on the same labelling,
    # which sweeps the grid, reads the points the walk cached and evaluates
    # only the others, caching none of them.  Neither evaluates a point whose
    # label the boundary rules force
    g = builtin(name)
    calls = Counter()

    def counted(x):
        calls[x] += 1
        return g.fn(x)

    spec = GridSpec(g.n, m)
    lab = Labeling(spec, dataclasses.replace(g, fn=counted))
    path_follow(spec, lab)
    walked = sum(calls.values())
    unforced = {spec.to_real(p) for p in spec.points() if forced_label(p, m) is None}
    assert 0 < walked < len(unforced)
    assert parity_check(spec, lab) == parity_check(spec, Labeling(spec, g))
    assert set(calls) == unforced
    assert sum(calls.values()) == len(unforced)
    assert lab.evals == walked


def test_some_steep_affine_walks_descend():
    # the steep family is what takes the random-map tests through descents
    descending = 0
    for seed in range(40):
        rnd = random.Random(seed)
        n, m = 1 + seed % 4, rnd.randint(1, 8)
        spec, lab = induced(random_steep_affine_map(n, rnd), m)
        _, trace = path_follow(spec, lab)
        verify_trace(lab, trace)
        levels = [s.level for s in trace.steps]
        descending += any(b < a for a, b in zip(levels, levels[1:]))
    assert descending > 0


@pytest.mark.parametrize("case", ["rot90", "floor-door"])
def test_walk_reads_one_label_per_move(case):
    # the origin and the first 1-string are read in full (3 reads); after
    # that a lift or pivot reads the one vertex it brings in, a descent none
    if case == "rot90":
        spec, lab = induced(builtin("rot90"), 5)
    else:
        spec = GridSpec(2, 3)
        lab = ExplicitLabeling(spec, FLOOR_DOOR_TABLE)
    counting = CountingLabeling(lab)
    _, trace = path_follow(spec, counting)
    levels = [s.level for s in trace.steps]
    descents = sum(b < a for a, b in zip(levels, levels[1:]))
    assert descents == (case == "floor-door")
    assert sum(counting.reads.values()) == len(trace.steps) + 1 - descents


class RecordingLabeling:
    """A labelling that records every point read, in order."""

    def __init__(self, lab):
        self.spec, self._lab, self.reads = lab.spec, lab, []

    def label(self, p):
        self.reads.append(tuple(p))
        return self._lab.label(p)


def _outcome(walk, spec, lab):
    """A walk's (string, trace), or the class and message it raised."""
    try:
        return walk(spec, lab)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_walk_matches_reference(spec, lab):
    """path_follow gives what reference_walk gives, and every vertex the walk
    brings in is the vertex at the entry index of the string it enters."""
    recording = RecordingLabeling(lab)
    got = _outcome(path_follow, spec, recording)
    assert got == _outcome(reference_walk, spec, lab)
    if not isinstance(got[1], PathTrace):
        return got
    steps = got[1].steps
    # the origin and the first 1-string are read in full, then one new
    # vertex per lift or pivot and none on a descent (entry None)
    assert recording.reads[:3] == [steps[0].string.base] + vertices(steps[1].string)
    brought_in = [vertices(s.string)[s.entry] for s in steps[2:] if s.entry is not None]
    assert recording.reads[3:] == brought_in
    return got


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6),
       st.sampled_from(["steep", "box", "brouwer", "any"]), st.randoms(use_true_random=False))
def test_walk_matches_the_reference_walk(n, m, kind, rnd):
    spec = GridSpec(n, m)
    if kind == "steep":
        lab = Labeling(spec, random_steep_affine_map(n, rnd))
    elif kind == "box":
        # a box of width m away from the origin of a finer grid, labelled
        # with its own top faces forced, as the solver's restarts label it
        grid = GridSpec(n, m + rnd.randint(1, 2 * m))
        lo = [rnd.randint(0, grid.m - m) for _ in range(n)]
        lo[rnd.randrange(n)] = rnd.randint(1, grid.m - m)
        g = rnd.choice([random_affine_map, random_steep_affine_map])(n, rnd)
        lab = Labeling(spec, g, grid=grid, lo=tuple(lo))
    elif kind == "brouwer":
        lab = ExplicitLabeling(spec, {p: rnd.choice(_legal_labels(p, m, n)) for p in spec.points()})
    else:  # boundary rules broken, so most walks raise
        table = {p: rnd.randint(0, n) for p in spec.points()}
        if rnd.random() < 0.8:  # mostly past the origin's check
            table[(0,) * n] = 0
        lab = ExplicitLabeling(spec, table)
    got = _assert_walk_matches_reference(spec, lab)
    if kind != "any":
        assert isinstance(got[1], PathTrace)


def test_descending_walks_match_the_reference_walk():
    # the steep seeds of test_some_steep_affine_walks_descend, some of which
    # leave a level through its floor door
    descending = 0
    for seed in range(40):
        rnd = random.Random(seed)
        n, m = 1 + seed % 4, rnd.randint(1, 8)
        spec, lab = induced(random_steep_affine_map(n, rnd), m)
        _, trace = _assert_walk_matches_reference(spec, lab)
        descending += any(s.entry is None for s in trace.steps[1:])
    assert descending > 0


@pytest.mark.parametrize("case", ["rot90", "floor-door"])
def test_walk_steps_are_frozen_trace_steps(case):
    # each step path_follow records, and the string it holds, must be the
    # frozen slotted record the constructor gives, and survive pickle and copy
    if case == "rot90":
        spec, lab = induced(builtin("rot90"), 5)
    else:
        spec = GridSpec(2, 3)
        lab = ExplicitLabeling(spec, FLOOR_DOOR_TABLE)
    _, trace = path_follow(spec, lab)
    for s in trace.steps:
        built = TraceStep(s.level, s.string, s.entry, s.exit)
        assert type(s) is TraceStep
        assert s == built and hash(s) == hash(built) and repr(s) == repr(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.exit = 0
        assert_slotted_record(s)
        assert_slotted_record(s.string)
