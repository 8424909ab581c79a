"""Shared corpus: builtin maps plus deterministic random polynomial maps.

The random maps are generated as expression text and go through the real
parser, so the corpus exercises the whole input path.  Labelings are cached
per (map, resolution) for the session; label memoization makes them cheap
to share between tests.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import pytest

from stringchase import GridPoint, GridSpec, Labeling, MapFn, builtin, parse

CORPUS_SEED = 20260810
N_RANDOM_MAPS = 100

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


def random_affine_map(n: int, rnd: random.Random) -> MapFn:
    """x -> A x + b with entries in [-1, 1], clamped into the cube by MapFn."""
    rows = [[rnd.uniform(-1, 1) for _ in range(n + 1)] for _ in range(n)]
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
