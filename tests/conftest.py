"""Shared corpus: builtin maps plus deterministic random polynomial maps.

The random maps are generated as expression text and go through the real
parser, so the corpus exercises the whole input path.  Labelings are cached
per (map, resolution) for the session; label memoization makes them cheap
to share between tests.
"""

from __future__ import annotations

import copy
import math
import pickle
import random
from collections import Counter
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import pytest

from stringchase import GridPoint, GridSpec, Labeling, MapFn, StringK, builtin, parse
from stringchase.grid import BoundaryFace, lift, pivot, string_count
from stringchase.labeling import doors_of, labels_of
from stringchase.search import (
    OUTCOME_FOUND,
    LabelingInvalid,
    PathTrace,
    StepLimitExceeded,
    TraceStep,
)

CORPUS_SEED = 20260810
N_RANDOM_MAPS = 100

DOTTIE = 0.7390851332151607  # cos's fixed point, correct to double precision

# The builtin catalog's fixed points and sup-norm Lipschitz constants, as the
# README's catalog table gives them; the library itself keeps none of them.
CATALOG_REFERENCE = {
    "reflect1d": (((0.5,),), 1.0),
    "dottie": (((DOTTIE,),), math.sin(1.0)),
    "rot90": (((0.5, 0.5),), 1.0),
    "squeeze": (((0.0,), (1.0,)), 2.0),
    "const-0.3,0.7": (((0.3, 0.7),), 0.0),
    "const-0.5,0.5": (((0.5, 0.5),), 0.0),
    "avg-0.8": (((0.8,),), 0.5),
    "avg-0.3,0.6": (((0.3, 0.6),), 0.5),
}

ACCEPTANCE_BUILTINS = (
    "reflect1d",
    "dottie",
    "squeeze",
    "avg-0.8",
    "rot90",
    "const-0.5,0.5",
    "avg-0.3,0.6",
    "const-0.25,0.75,0.5",
    "avg-0.2,0.9,0.4",
)


def random_component_text(rng: random.Random, n: int) -> str:
    """One polynomial component: a few signed coefficient*monomial terms."""
    parts = []
    for t in range(rng.randint(1, 3)):
        coeff = f"{rng.uniform(0.05, 0.95):.2f}"
        factors = [coeff]
        for axis in range(1, n + 1):
            e = rng.choice((0, 0, 1, 1, 2))
            if e == 1:
                factors.append(f"x{axis}")
            elif e == 2:
                factors.append(f"x{axis}^2")
        term = "*".join(factors)
        if t == 0:
            parts.append(term if rng.random() < 0.8 else f"-{term}")
        else:
            parts.append(f"{rng.choice('+-')} {term}")
    return " ".join(parts)


def random_poly_maps(count: int = N_RANDOM_MAPS, seed: int = CORPUS_SEED) -> list[MapFn]:
    """``count`` parsed polynomial maps spread over dimensions 1..3."""
    rng = random.Random(seed)
    dims = [1 + i % 3 for i in range(count)]
    maps = []
    for i, n in enumerate(dims):
        text = "; ".join(random_component_text(rng, n) for _ in range(n))
        maps.append(parse(text, n).as_map_fn(name=f"poly-{i:03d}"))
    return maps


RECIPE_SEED = 5
N_RECIPE_MAPS = 120
RECIPE_TEMPLATES = ("x{i}", "x{i}^2", "sin(3*x{i})", "cos(5*x{j})", "x{i}*x{j}",
                    "abs(x{i}-0.5)", "max2(x{i},x{j})", "expneg(4*x{j})")


def _recipe_map(rng: random.Random, n: int) -> MapFn:
    """One map of dimension n, drawn as the recipe family's are: per
    component the term count, then per term i, j, the coefficient and the
    template; the component's constant comes last and is kept even when it
    is 0.  The map is named by its expression text."""
    components = []
    for _ in range(n):
        terms = []
        for _ in range(rng.randint(1, 3)):
            i, j = rng.randint(1, n), rng.randint(1, n)
            coef = rng.choice([0.3, 0.5, 0.9, 1.5, 2])
            terms.append(f"{coef}*" + rng.choice(RECIPE_TEMPLATES).format(i=i, j=j))
        terms.append(str(rng.choice([0, 0.1, 0.2])))
        components.append(" + ".join(terms))
    text = "; ".join(components)
    return parse(text, n).as_map_fn(name=text)


def recipe_maps(count: int = N_RECIPE_MAPS, seed: int = RECIPE_SEED) -> list[MapFn]:
    """The recipe family: clamped sums of 1-3 weighted terms per component,
    mostly not contractions, in dimensions 1..4.

    The draw order is fixed (ROADMAP, "The recipe family"): n, then the
    map's components (``_recipe_map``).
    """
    rng = random.Random(seed)
    return [_recipe_map(rng, rng.randint(1, 4)) for _ in range(count)]


def highdim_maps(n: int) -> list[MapFn]:
    """The high-dimensional draw (ROADMAP): 10 maps of dimension n, each
    component drawn as in the recipe family, from ``random.Random(n)``."""
    rng = random.Random(n)
    return [_recipe_map(rng, n) for _ in range(10)]


# a labelling of GridSpec(2, 3) whose walk leaves the square level through
# the floor, goes on along the bottom edge and climbs back up
FLOOR_DOOR_TABLE = {
    (0, 0): 0, (1, 0): 1, (2, 0): 0, (3, 0): 1,
    (0, 1): 0, (1, 1): 0, (2, 1): 0, (3, 1): 2,
    (0, 2): 0, (1, 2): 0, (2, 2): 0, (3, 2): 1,
    (0, 3): 2, (1, 3): 2, (2, 3): 2, (3, 3): 2,
}


class ExplicitLabeling:
    """A labeling given directly as a table or function.

    No Brouwer conditions are assumed; feed it to ``validate_brouwer`` or
    the search routines to exercise their failure paths.
    """

    def __init__(self, spec: GridSpec, source: Mapping[GridPoint, int] | Callable[[GridPoint], int]):
        self.spec = spec
        self._fn = source.__getitem__ if isinstance(source, Mapping) else source

    def label(self, x: GridPoint) -> int:
        return self._fn(tuple(x))


@dataclass(frozen=True)
class RuleViolation:
    """One grid point breaking a Brouwer boundary rule."""

    point: GridPoint
    axis: int
    label: int
    rule: str  # "zero-face" or "one-face"


@dataclass(frozen=True)
class BrouwerReport:
    """Result of checking the two boundary rules at every grid point."""

    checked: int
    violations: tuple[RuleViolation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_brouwer(lab) -> BrouwerReport:
    """Check the zero-face and one-face rules at every grid point.

    Violations are data, not errors: labelings induced from a map never
    produce any, hand-built ones may.
    """
    spec = lab.spec
    violations = []
    for p in spec.points():
        value = lab.label(p)
        for k in range(1, spec.n + 1):
            if p[k - 1] == 0 and value == k:
                violations.append(RuleViolation(p, k, value, "zero-face"))
            if p[k - 1] == spec.m and value < k:
                violations.append(RuleViolation(p, k, value, "one-face"))
    return BrouwerReport(spec.point_count, tuple(violations))


def forced_label(c: GridPoint, top: int) -> int | None:
    """The label the boundary rules fix at point ``c`` of a box {0..top}^n,
    or None where it depends on the map: 0 at the origin, and K where the
    highest nonzero coordinate K is on the top face (c_K = top)."""
    nonzero = [k for k in range(1, len(c) + 1) if c[k - 1]]
    if not nonzero:
        return 0
    return nonzero[-1] if c[nonzero[-1] - 1] == top else None


def assert_slotted_record(record) -> None:
    """``record`` has no ``__dict__``, and every pickle protocol's round
    trip, ``copy.copy`` and ``copy.deepcopy`` give an equal record with an
    equal hash."""
    assert not hasattr(record, "__dict__")
    twins = [pickle.loads(pickle.dumps(record, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in twins + [copy.copy(record), copy.deepcopy(record)]:
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record)


def count_builds(monkeypatch) -> Counter:
    """From now on, count the calls of ``StringK._derived`` and of
    ``TraceStep``'s constructor, under those two names."""
    counts: Counter = Counter()
    derived, init = StringK._derived.__func__, TraceStep.__init__

    def counted_derived(cls, *args):
        counts["StringK._derived"] += 1
        return derived(cls, *args)

    def counted_init(self, *args, **kwargs):
        counts["TraceStep"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(StringK, "_derived", classmethod(counted_derived))
    monkeypatch.setattr(TraceStep, "__init__", counted_init)
    return counts


def reference_walk(spec: GridSpec, lab) -> tuple[StringK, PathTrace]:
    """``path_follow``'s walk the long way: every string's labels read
    afresh with ``labels_of``, its links from ``doors_of``, and every move
    made by ``pivot`` or ``lift``.  It raises where ``path_follow`` raises,
    with the same exception class and message."""
    n = spec.n
    origin = StringK(0, (0,) * n, ())
    if lab.label(origin.base) != 0:
        raise LabelingInvalid("the origin must carry label 0")
    steps = [TraceStep(0, origin, None, None)]
    visits = [0] * (n + 1)
    current, entry = lift(origin), 1
    while True:
        k = current.k
        visits[k] += 1
        limit = string_count(spec, k) + 1
        if visits[k] > limit:
            raise StepLimitExceeded(f"more than {limit} strings visited at level {k}")
        labels = labels_of(lab, current)
        links: list[int | None] = doors_of(labels, k)
        if len(links) == 1:
            if labels[links[0]] != k:
                raise LabelingInvalid(
                    f"{current} has one door but is not fully labeled; labels exceed the level"
                )
            links.append(None)
        if entry not in links:
            raise LabelingInvalid(f"entry {entry} of {current} is not one of its links {links}")
        exit_h = links[1] if links[0] == entry else links[0]
        steps.append(TraceStep(k, current, entry, exit_h))
        if exit_h is None:
            if k == n:
                return current, PathTrace(tuple(steps), OUTCOME_FOUND)
            current, entry = lift(current), k + 1
            continue
        try:
            current, entry = pivot(spec, current, exit_h)
        except BoundaryFace:
            if not (exit_h == k and current.perm[-1] == k and current.base[k - 1] == 0):
                raise LabelingInvalid(
                    f"door {exit_h} of {current} is pinned to the grid boundary, "
                    "which the boundary rules forbid"
                ) from None
            if k == 1:
                raise LabelingInvalid(
                    "walk descended back to the origin; labeling is not Brouwer"
                ) from None
            current, entry = StringK(k - 1, current.base, current.perm[:-1]), None


def random_affine_map(n: int, rnd: random.Random) -> MapFn:
    """x -> A x + b with entries in [-1, 1], clamped into the cube by MapFn."""
    rows = [[rnd.uniform(-1, 1) for _ in range(n + 1)] for _ in range(n)]
    return _affine(n, rows)


def random_steep_affine_map(n: int, rnd: random.Random) -> MapFn:
    """``random_affine_map`` with each diagonal entry of A drawn from [1, 4].

    g_k(x) - x_k then rises along axis k, and some walks descend to a floor
    door: 13 of 160 walks (n = 1..4, 40 seeds each, m <= 8), against 1 of
    160 for ``random_affine_map``.
    """
    rows = [[rnd.uniform(1, 4) if i == j else rnd.uniform(-1, 1) for j in range(n + 1)]
            for i in range(n)]
    return _affine(n, rows)


def _affine(n: int, rows: list[list[float]]) -> MapFn:
    return MapFn(n, lambda x: [r[n] + sum(a * c for a, c in zip(r, x)) for r in rows])


@pytest.fixture(scope="session")
def corpus() -> list[MapFn]:
    return [builtin(name) for name in ACCEPTANCE_BUILTINS] + random_poly_maps()


@pytest.fixture(scope="session")
def lab_cache():
    cache: dict[tuple[str, int], tuple[GridSpec, Labeling]] = {}

    def get(g: MapFn, m: int) -> tuple[GridSpec, Labeling]:
        key = (g.name, m)
        if key not in cache:
            spec = GridSpec(g.n, m)
            cache[key] = (spec, Labeling(spec, g))
        return cache[key]

    return get
