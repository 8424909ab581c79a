"""Finding fully labeled strings: exhaustive oracle and path following.

Two independent routes to the same certificates.  The exhaustive route
enumerates every k-string and filters; it also verifies the parity
structure that makes the fast route work.  Its count reads only the
strings that can count: a string with a door carries every label
0..k-1, all on corners of the unit cell at its base, so the strings of a
cell whose corners miss one of those labels are skipped unread and the
counts stay exhaustive.  It finds those cells on byte-lane bitsets, one
Python int per label with one byte per grid point, so each level costs a
few big-int shifts, ORs and ANDs rather than a Python pass per point.  The
bitset of a level's cells is built by repeating bytes, which is linear in
the grid's size: CPython multiplies and divides big ints in superlinear
time, and a product of geometric-series quotients for the same bitset
made the check at n = 3, m = 90 (753,571 points) take 2.5 s, against
0.27 s with repetition and 0.48 s for the per-point passes it replaces
(CPython 3.11.7, shared 2-core machine).  The fast route walks a single
door-in/door-out path.  A k-string's links are its doors (faces labeled
{0, ..., k-1}) plus, when it is fully labeled, the lift to the level
above.  Under the boundary rules every string has two links except the
0-string at the origin and the fully labeled strings of the top
dimension, which have one, so the walk leaves each string by the link it
did not enter by.  Starting at the origin it therefore always terminates
at a fully labeled n-string, without enumerating anything.  It records
each step as a row (level, base, perm, entry, exit), and its trace keeps
the rows: the ``TraceStep``s are built when the trace's steps are first
read, so ``trace`` prints the rows and a solve's box walks, which keep
only the end string, build none.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate, permutations
from operator import mul

# lift, pivot and count_fully_labeled_faces are not called here (the walk
# moves from the vertices it carries, and the walk and the parity check
# take doors from the label vector they hold), but bench/tracer.py patches
# them by name in this module and raises if one is missing.
from .grid import (  # noqa: F401
    GridSpec,
    Record,
    StringK,
    enumerate_strings,
    face_vertices,
    lift,
    pivot,
    string_count,
    vertices,
)
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
    ``path_follow`` records a step as a row and builds its ``TraceStep``
    only when the trace's steps are first read (``WalkSteps``).
    """

    __slots__ = ("level", "string", "entry", "exit")


class PathTrace(Record):
    """A walk's ``steps``, a sequence of ``TraceStep``s, and its ``outcome``.

    A hand-built trace holds its steps as given, a tuple as a rule;
    ``path_follow``'s holds a ``WalkSteps``, which reads as that tuple.
    """

    __slots__ = ("steps", "outcome")


class WalkSteps(Sequence):
    """A walk's steps as ``path_follow`` records them: one row (level, base,
    perm, entry, exit) a step, in ``rows``.

    Read as the tuple of ``TraceStep``s the rows stand for: its length comes
    from the rows, and the steps are built once, their strings unchecked, on
    the first read of a step.  It equals, hashes, prints, slices (to tuples)
    and pickles as that tuple.
    """

    __slots__ = ("rows", "_steps")

    def __init__(self, rows: list[tuple]) -> None:
        self.rows = rows
        self._steps = None

    def _built(self) -> tuple[TraceStep, ...]:
        if self._steps is None:
            derived = StringK._derived
            self._steps = tuple([TraceStep(level, derived(level, base, perm), entry, exit_h)
                                 for level, base, perm, entry, exit_h in self.rows])
        return self._steps

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        return self._built()[i]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other):
        return self._built() == other

    def __hash__(self) -> int:
        return hash(self._built())

    def __repr__(self) -> str:
        return repr(self._built())

    def __reduce__(self):
        return tuple, (self._built(),)


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
    (``Labeling.sweep``), the sweep kernel compiled for n, row by row
    along axis n.  It reads the points it has cached (only when it has
    any), labels the rest without caching them, evaluating the map once
    (one call of a compiled map's ``fn``) only where the boundary rules do
    not force the label (each row's c_n = m point, and its c_n = 0 point
    when the rest of the row fixes it), and skips ``label``'s bounds
    check, since every point comes from the grid; any other labeling is
    read point by point through ``label``.  A k-string is its flat base
    plus one of k! offset rows, and its doors follow from its labels in
    O(k) (``doors_of``).  A door is counted under its flat vertices in
    string order, which is canonical because coordinate sums rise along a
    string.

    Only the strings of some cells are read.  A string with a door holds
    every label 0..k-1, and its k+1 vertices are corners of the unit cell
    at its base, so a cell whose 2^k corners lack one of those labels
    holds no string with a door, and its k! strings add nothing to any
    count.  The cells are found on byte lanes: ``bytes(labels)``, with
    each label outside 0..255 written as 255, is translated once per label
    l < n into one int, byte p of which (little-endian) is 1 where point p
    is labelled l.  The lanes grow axis by axis: at level k each takes in
    the point one step on along axis k, ``c | c >> 8 * stride``, so byte p
    then says whether a corner of the cell at p carries l.  The level's
    bases (c_1..c_k below m, the other coordinates 0) are a byte block
    built by repetition: one base byte and stride_k - 1 zeros, then, for
    each axis i from k down to 1, the block m times and a zero row of
    stride_i bytes for c_i = m.  It is ANDed with the lanes of labels
    0..k-1, and ``bytes.find`` reads the live bases back.  Each step is
    linear in the grid's size; building the block by big-int division or
    multiplication, whose CPython cost is superlinear, is what the module
    docstring warns against.  Labels outside 0..n-1 take part in no lane,
    and the string loop reads the original labels.  Under an induced
    labelling few cells qualify: over the parity benchmark's seed 1 the
    check reads 2,390 of 391,720 strings, 1,613 of which have a door, so
    the per-string work follows the strings that count and not the size
    of the grid.

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
    n, m = spec.n, spec.m
    strides = [(m + 1) ** (n - i) for i in range(1, n + 1)]
    # one byte lane a point; a label outside 0..255 is written as 255,
    # which is no lane's label, since n < 255 on any grid that fits in memory
    try:
        buf = bytes(labels)
    except ValueError:
        buf = bytes(v if 0 <= v < 256 else 255 for v in labels)
    # lanes[l] holds byte 1 at p where point p is labelled l; after level
    # k's shift, where a corner of the cell at p is (wherever p's first k
    # coordinates are below m)
    lanes = [int.from_bytes(buf.translate(bytes(l) + b"\x01" + bytes(255 - l)), "little")
             for l in range(n)]
    levels = []
    for k in range(1, n + 1):
        stride = strides[k - 1]
        lanes = [c | c >> 8 * stride for c in lanes]
        # byte 1 at each base: c_1..c_k below m, the other coordinates 0
        block = b"\x01" + bytes(stride - 1)
        for s in reversed(strides[:k]):
            block = block * m + bytes(s)
        mask = int.from_bytes(block, "little")
        for c in lanes[:k]:
            mask &= c
        cells = mask.to_bytes(len(buf), "little")
        live = []
        p = cells.find(1)
        while p >= 0:
            live.append(p)
            p = cells.find(1, p + 1)
        s1 = s2 = fully = 0
        containment: dict[tuple[int, ...], int] = {}
        for axes in permutations(strides[:k]):
            row = tuple(accumulate(axes, initial=0))
            columns = [[labels[b + o] for b in live] for o in row]
            for base, vector in zip(live, zip(*columns)):
                doors = doors_of(vector, k)
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
    a fully labeled n-string.  The current string is held as three locals,
    its level k, ``base`` and ``perm``, and its vertices and their labels
    are carried from string to string in two lists: a lift or pivot forms
    and labels only the vertex it brings in, a descent none.  Each move is
    made from the carried vertices as ``lift`` and ``pivot`` make it, but
    without calling them: a lift appends axis k + 1 to ``perm``, exit 0
    takes vertex 1 as the new base and brings in the old top one step on
    along ``perm[0]``, 0 < h < k swaps the steps around vertex h, and exit
    k brings in the base one step back along ``perm[-1]``.  Exit 0 from a
    top at m on that axis, or exit k from a base at 0 on an axis other than
    k, is refused; at 0 on axis k it is the floor door.  The new vertex at
    entry 0 is the new base; at any other entry e it is vertex e - 1 plus
    one step on axis ``perm[e - 1]`` of the new string (after a lift, the
    old top plus a step on axis k + 1), so no vertex is rebuilt from the
    base.  A string's links depend on its label vector alone, so the walk
    keeps a link table keyed by the vector, filled from ``doors_of`` (and
    the one-door check) the first time a vector occurs.  Long walks repeat
    few vectors: over the 40 ``avg-`` walks of a benchmark seed (n = 4..8,
    about 65,000 steps) 1,120 are distinct, so 98% of lookups hit; the
    short box walks of a solve hit about 22% of the time.

    Each step is recorded as one row (level, base, perm, entry, exit), the
    trace payload's own shape, and the trace keeps the rows (``WalkSteps``):
    its ``TraceStep``s and their strings are built when ``trace.steps`` is
    first read, so a walk whose trace is only printed or thrown away builds
    one ``StringK``, the end string, and no ``TraceStep``.

    Raises LabelingInvalid as soon as the labeling breaks one of the
    boundary rules the walk relies on (a door pinned to the grid boundary
    is refused before its outside vertex is read), and StepLimitExceeded
    if more strings are visited at some level than exist there (a bug
    guard; cycles are impossible when the degree bound holds).
    """
    n, m = spec.n, spec.m
    label = lab.label
    base = (0,) * n
    if label(base) != 0:
        raise LabelingInvalid("the origin must carry label 0")
    rows = [(0, base, (), None, None)]
    # string_count(spec, k) + 1 at each level k, m^k * k! = m * 2m * ... * km
    limits = [c + 1 for c in accumulate(range(m, m * n + 1, m), mul, initial=1)]
    visits = [0] * (n + 1)
    # the origin's lift, the 1-string from the origin along axis 1
    k, perm, entry = 1, (1,), 1
    verts = [base, (1,) + base[1:]]
    labels = [label(v) for v in verts]
    link_table: dict[tuple[int, ...], list[int | None]] = {}
    derived = StringK._derived

    while True:
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
                        f"{derived(k, base, perm)} has one door but is not fully labeled; "
                        "labels exceed the level"
                    )
                links.append(None)
            link_table[vector] = links
        if entry not in links:
            raise LabelingInvalid(
                f"entry {entry} of {derived(k, base, perm)} is not one of its links {links}")
        exit_h = links[1] if links[0] == entry else links[0]
        rows.append((k, base, perm, entry, exit_h))

        if exit_h is None:
            if k == n:
                return derived(k, base, perm), PathTrace(WalkSteps(rows), OUTCOME_FOUND)
            k += 1
            perm, entry = perm + (k,), k
        else:
            if exit_h == k:  # drop the top, step below the base on perm's last axis
                axis = perm[-1]
                if not base[axis - 1]:
                    if axis != k:
                        raise _pinned(exit_h, derived(k, base, perm))
                    # the floor door into the dimension below
                    if k == 1:
                        raise LabelingInvalid(
                            "walk descended back to the origin; labeling is not Brouwer")
                    k -= 1
                    perm, entry = perm[:-1], None
                    labels.pop()
                    verts.pop()
                    continue
                v = list(base)
                v[axis - 1] -= 1
                base, perm, entry = tuple(v), (axis,) + perm[:-1], 0
            elif exit_h:  # swap the two steps around vertex exit_h
                swapped = list(perm)
                swapped[exit_h - 1], swapped[exit_h] = perm[exit_h], perm[exit_h - 1]
                perm, entry = tuple(swapped), exit_h
            else:  # drop the base, step past the top on perm's first axis
                axis = perm[0]
                if verts[k][axis - 1] == m:
                    raise _pinned(exit_h, derived(k, base, perm))
                base, perm, entry = verts[1], perm[1:] + (axis,), k
            del labels[exit_h], verts[exit_h]
        # the vertex brought in is the base, or its neighbour below it in
        # the string plus one step on the axis between them
        if entry:
            v = list(verts[entry - 1])
            v[perm[entry - 1] - 1] += 1
            v = tuple(v)
        else:
            v = base
        verts.insert(entry, v)
        labels.insert(entry, label(v))


def _pinned(exit_h: int, s: StringK) -> LabelingInvalid:
    return LabelingInvalid(
        f"door {exit_h} of {s} is pinned to the grid boundary, which the boundary rules forbid")


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
