"""Finding fully labeled strings: exhaustive oracle and path following.

Two independent routes to the same certificates.  The exhaustive route
enumerates every k-string and filters; it also verifies the parity
structure that makes the fast route work.  Its count reads only the
strings that can count: a string with a door carries every label
0..k-1, all on corners of the unit cell at its base, so the strings of a
cell whose corners miss one of those labels are skipped unread and the
counts stay exhaustive.  The fast route walks a single
door-in/door-out path.  A k-string's links are its doors (faces labeled
{0, ..., k-1}) plus, when it is fully labeled, the lift to the level
above.  Under the boundary rules every string has two links except the
0-string at the origin and the fully labeled strings of the top
dimension, which have one, so the walk leaves each string by the link it
did not enter by.  Starting at the origin it therefore always terminates
at a fully labeled n-string, without enumerating anything.
"""

from __future__ import annotations

from itertools import accumulate, permutations
from operator import mul

from .grid import (
    BoundaryFace,
    GridSpec,
    Record,
    StringK,
    _new,
    _set,
    enumerate_strings,
    face_vertices,
    lift,
    pivot,
    string_count,
    vertices,
)
# count_fully_labeled_faces is not called here (the walk and the parity
# check take doors from the label vector they hold), but bench/tracer.py
# looks it up in this module.
from .labeling import (  # noqa: F401
    Labeling,
    count_fully_labeled_faces,
    doors_of,
    is_fully_labeled,
)

DEFAULT_BUDGET = 10_000_000

OUTCOME_FOUND = "found_fully_labeled"


class BudgetExceeded(RuntimeError):
    """An exhaustive enumeration would visit more strings (or points) than allowed."""

    def __init__(self, required: int, budget: int, unit: str):
        super().__init__(f"enumeration needs {required} {unit}, budget is {budget}")
        self.required = required
        self.budget = budget

    @classmethod
    def check(cls, required: int, budget: int, unit: str = "strings") -> None:
        if required > budget:
            raise cls(required, budget, unit)


class StepLimitExceeded(RuntimeError):
    """The walk visited more strings than can exist; an internal bug."""


class LabelingInvalid(RuntimeError):
    """The walk met a configuration impossible under the Brouwer rules."""


class TraceInvalid(ValueError):
    """A path trace fails one of its structural invariants."""


class LevelParity(Record):
    """Double-count bookkeeping for one level k.

    s1/s2: k-strings with exactly one / exactly two fully labeled faces.
    t1/t2: fully labeled faces contained in exactly one / two k-strings.
    Counting (string, face) incidences both ways gives s1 + 2*s2 =
    t1 + 2*t2, and t1 equals the number of fully labeled strings one level
    down, so s1 is odd at every level by induction.
    """

    __slots__ = ("k", "s1", "s2", "t1", "t2", "fully_labeled")

    @property
    def identity_ok(self) -> bool:
        return self.s1 + 2 * self.s2 == self.t1 + 2 * self.t2

    @property
    def odd_ok(self) -> bool:
        return self.s1 % 2 == 1


class ParityReport(Record):
    __slots__ = ("levels",)

    @property
    def ok(self) -> bool:
        return all(lv.identity_ok and lv.odd_ok for lv in self.levels)


class TraceStep(Record):
    """One visited string.

    ``entry``/``exit`` are omitted-vertex indices of the faces used to come
    in and go out.  entry None on the first step means the seed; on a later
    step it means the string was entered from the level above (it was that
    walk's downward door).  exit None on the last step marks the found
    string; on an earlier step it marks a lift to the level above.
    """

    __slots__ = ("level", "string", "entry", "exit")


class PathTrace(Record):
    __slots__ = ("steps", "outcome")


def exhaustive_fully_labeled(
    spec: GridSpec, lab, k: int, budget: int = DEFAULT_BUDGET
) -> list[StringK]:
    """All k-fully-labeled k-strings, lexicographic by base then perm."""
    BudgetExceeded.check(string_count(spec, k), budget)
    return [s for s in enumerate_strings(spec, k) if is_fully_labeled(lab, s)]


def parity_check(spec: GridSpec, lab, budget: int = DEFAULT_BUDGET) -> ParityReport:
    """Count doors and door-bearing strings at every level 1..n.

    Each grid point's label is read once, into a list in flat order, the
    order of ``GridSpec.points()``, so axis i has stride (m+1)^(n-i).  A
    ``Labeling`` of ``spec`` fills the list in one sweep
    (``Labeling.sweep``), row by row along axis n.  It reads the points it
    has cached (only when it has any), labels the rest without caching
    them, evaluating the map only where the boundary rules do not force
    the label (each row's c_n = m point, and its c_n = 0 point when the
    rest of the row fixes it), and skips ``label``'s bounds check, since
    every point comes from the grid; any other labeling is read point by
    point through ``label``.  A k-string is its flat base plus
    one of k! offset rows, and its doors follow from its labels in O(k)
    (``doors_of``).  Within a level, strings with equal label vectors have
    equal doors, and there are at most (n+1)^(k+1) distinct vectors under
    the boundary rules, so each level keeps a door table keyed by the
    vector.  A door is counted under its flat vertices in string order,
    which is canonical because coordinate sums rise along a string.

    Only the strings of some cells are read.  A string with a door holds
    every label 0..k-1, and its k+1 vertices are corners of the unit cell
    at its base, so a cell whose 2^k corners lack one of those labels
    holds no string with a door, and its k! strings add nothing to any
    count.  So each level first gives every cell the OR of ``1 << label``
    over its corners (labels outside 0..n-1 give 0) and reads only the
    bases whose mask has bits 0..k-1.  The masks grow axis by axis: at
    level k every point's mask takes in that of the point one step on
    along axis k, one OR per point.  Under an induced labelling few cells
    qualify: over the parity benchmark's seed 1 the check reads 2,390 of
    391,720 strings, 1,613 of which have a door, so the per-string work
    follows the strings that count and not the size of the grid.

    For a labeling obeying the Brouwer boundary rules every level passes
    both the double-count identity and the oddness check; a failed level
    is reported, not raised.
    """
    BudgetExceeded.check(sum(string_count(spec, k) for k in range(1, spec.n + 1)), budget)

    # the exact type: a subclass may label otherwise than the sweep does
    if type(lab) is Labeling and lab.spec == spec:
        labels = list(lab.sweep())
    else:
        labels = [lab.label(p) for p in spec.points()]
    n = spec.n
    strides = [(spec.m + 1) ** (n - i) for i in range(1, n + 1)]
    # at level k, corners[p] is the mask of the 2^k corners of the cell at
    # p, wherever p's first k coordinates are below m
    corners = [1 << v if 0 <= v < n else 0 for v in labels]
    bases = [0]
    levels = []
    for k in range(1, n + 1):
        stride = strides[k - 1]
        corners = [a | b for a, b in zip(corners, corners[stride:])]
        bases = [b + c * stride for c in range(spec.m) for b in bases]
        low = (1 << k) - 1
        live = [b for b in bases if corners[b] & low == low]
        s1 = s2 = fully = 0
        containment: dict[tuple[int, ...], int] = {}
        door_table: dict[tuple[int, ...], list[int]] = {}
        for axes in permutations(strides[:k]):
            row = tuple(accumulate(axes, initial=0))
            columns = [[labels[b + o] for b in live] for o in row]
            for base, vector in zip(live, zip(*columns)):
                doors = door_table.get(vector)
                if doors is None:
                    doors = door_table[vector] = doors_of(vector, k)
                if len(doors) == 1:
                    s1 += 1
                    fully += vector[doors[0]] == k
                elif doors:
                    s2 += 1
                for h in doors:
                    face = tuple(base + o for o in row[:h] + row[h + 1:])
                    containment[face] = containment.get(face, 0) + 1
        t1 = sum(1 for c in containment.values() if c == 1)
        t2 = sum(1 for c in containment.values() if c == 2)
        levels.append(LevelParity(k, s1, s2, t1, t2, fully))
    return ParityReport(tuple(levels))


def path_follow(spec: GridSpec, lab) -> tuple[StringK, PathTrace]:
    """Walk door-in/door-out from the origin to a fully labeled n-string.

    A k-string's links are its doors (``doors_of``) plus, when it is fully
    labeled, the lift to the k+1-string containing it, encoded None.  Under
    the boundary rules every string has two links except the origin
    0-string and a fully labeled n-string, which have one, so the walk
    leaves each string by the link it did not enter by.  Exit None lifts,
    or stops at k = n; any other exit pivots through that face, except the
    floor door in the zero slab of level k, where the walk descends to the
    face, which it enters through that face's lift (None).  Since no string
    has more than two links, the walk is a simple path and can only end at
    a fully labeled n-string.  The vertices and their labels are carried
    from string to string, in two lists beside the current string: a lift
    or pivot forms and labels only the vertex it brings in, a descent none.
    The new vertex at entry 0 is the new base; at any other entry e it is
    vertex e - 1 plus one step on axis ``perm[e - 1]`` of the new string
    (after a lift, the old top plus a step on axis k + 1), so no vertex is
    rebuilt from the base.  A string's links depend on its label vector
    alone, so the walk keeps a link table keyed by the vector, filled from
    ``doors_of`` (and the one-door check) the first time a vector occurs.
    Long walks repeat few vectors: over the 40 ``avg-`` walks of a
    benchmark seed (n = 4..8, about 65,000 steps) 1,120 are distinct, so
    98% of lookups hit; the short box walks of a solve hit about 22% of
    the time.

    Raises LabelingInvalid as soon as the labeling breaks one of the
    boundary rules the walk relies on, and StepLimitExceeded if more
    strings are visited at some level than exist there (a bug guard;
    cycles are impossible when the degree bound holds).
    """
    n, m = spec.n, spec.m
    label = lab.label
    origin = StringK._derived(0, (0,) * n, ())
    if label(origin.base) != 0:
        raise LabelingInvalid("the origin must carry label 0")
    steps = [TraceStep(0, origin, None, None)]
    # string_count(spec, k) + 1 at each level k, m^k * k! = m * 2m * ... * km
    limits = [c + 1 for c in accumulate(range(m, m * n + 1, m), mul, initial=1)]
    visits = [0] * (n + 1)
    current, entry = lift(origin), 1
    verts = vertices(current)
    labels = [label(v) for v in verts]
    link_table: dict[tuple[int, ...], list[int | None]] = {}

    while True:
        k = current.k
        visits[k] += 1
        if visits[k] > limits[k]:
            raise StepLimitExceeded(f"more than {limits[k]} strings visited at level {k}")

        vector = tuple(labels)
        links = link_table.get(vector)
        if links is None:
            links = doors_of(labels, k)
            if len(links) == 1:
                if labels[links[0]] != k:
                    raise LabelingInvalid(
                        f"{current} has one door but is not fully labeled; "
                        "labels exceed the level"
                    )
                links.append(None)
            link_table[vector] = links
        if entry not in links:
            raise LabelingInvalid(f"entry {entry} of {current} is not one of its links {links}")
        exit_h = links[1] if links[0] == entry else links[0]
        step = _new(TraceStep)  # built unchecked, as StringK._derived builds strings
        _set(step, "level", k)
        _set(step, "string", current)
        _set(step, "entry", entry)
        _set(step, "exit", exit_h)
        steps.append(step)

        if exit_h is None:
            if k == n:
                return current, PathTrace(tuple(steps), OUTCOME_FOUND)
            current, entry = lift(current), k + 1
        else:
            try:
                current, entry = pivot(spec, current, exit_h)
            except BoundaryFace:
                floor_door = (
                    exit_h == k and current.perm[-1] == k and current.base[k - 1] == 0
                )
                if not floor_door:
                    raise LabelingInvalid(
                        f"door {exit_h} of {current} is pinned to the grid boundary, "
                        "which the boundary rules forbid"
                    ) from None
                if k == 1:
                    raise LabelingInvalid(
                        "walk descended back to the origin; labeling is not Brouwer"
                    ) from None
                current, entry = StringK._derived(k - 1, current.base, current.perm[:-1]), None
                labels.pop()
                verts.pop()
                continue
            del labels[exit_h], verts[exit_h]
        # the vertex brought in is the base, or its neighbour below it in
        # the string plus one step on the axis between them
        if entry:
            v = list(verts[entry - 1])
            v[current.perm[entry - 1] - 1] += 1
            v = tuple(v)
        else:
            v = current.base
        verts.insert(entry, v)
        labels.insert(entry, label(v))


def verify_trace(lab, trace: PathTrace) -> None:
    """Check a trace's structural invariants; raise TraceInvalid if broken.

    Works from the trace alone: every string must lie in the labeling's
    grid, consecutive strings must share exactly max(level, next level)
    vertices whose labels are exactly the set below that level, recorded
    exit and entry faces must match the shared set (None only where levels
    rise and fall respectively), no string may repeat, and the walk must
    run from the origin seed to a fully labeled string of the top
    dimension.
    """
    steps = trace.steps
    if not steps:
        raise TraceInvalid("empty trace")

    for step in steps:
        if step.string.k != step.level:
            raise TraceInvalid(f"step level {step.level} != string dimension {step.string.k}")
        if not all(lab.spec.contains(v) for v in vertices(step.string)):
            raise TraceInvalid(f"string {step.string} leaves the grid {lab.spec}")

    first, last = steps[0], steps[-1]
    if first.level != 0 or any(c != 0 for c in first.string.base):
        raise TraceInvalid("trace does not start at the origin 0-string")
    if first.entry is not None:
        raise TraceInvalid("first step records an entry face")
    if last.level != lab.spec.n:
        raise TraceInvalid(f"trace ends at level {last.level}, not {lab.spec.n}")
    if last.exit is not None:
        raise TraceInvalid("final step records an exit face")
    if not is_fully_labeled(lab, last.string):
        raise TraceInvalid("final string is not fully labeled")

    if len({s.string for s in steps}) != len(steps):
        raise TraceInvalid("a string repeats within the trace")

    for a, b in zip(steps, steps[1:]):
        level = max(a.level, b.level)
        shared = set(vertices(a.string)) & set(vertices(b.string))
        if len(shared) != level:
            raise TraceInvalid(
                f"consecutive strings share {len(shared)} vertices, expected {level}"
            )
        if {lab.label(p) for p in shared} != set(range(level)):
            raise TraceInvalid("shared face is not fully labeled one level down")
        if a.exit is not None and face_vertices(a.string, a.exit) != shared:
            raise TraceInvalid("recorded exit face does not match the shared vertices")
        if a.exit is None and a.level != level - 1:
            raise TraceInvalid("lift recorded where levels do not rise")
        if b.entry is not None and face_vertices(b.string, b.entry) != shared:
            raise TraceInvalid("recorded entry face does not match the shared vertices")
        if b.entry is None and b.level != level - 1:
            raise TraceInvalid("descent recorded where levels do not fall")

    if trace.outcome != OUTCOME_FOUND:
        raise TraceInvalid(f"unexpected outcome {trace.outcome!r}")
