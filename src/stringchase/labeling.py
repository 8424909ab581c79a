"""Labelings of grid points induced by a self-map of the cube.

The induced label of a grid point x is the largest axis k whose coordinate
is positive and not pushed up by the map, i.e. g_k(x) <= x_k; when no axis
qualifies the label is 0.  Labels computed this way always satisfy the two
Brouwer boundary rules that the string search relies on:

  * zero-face rule: a point with coordinate k equal to 0 is never labeled k;
  * one-face rule:  a point with coordinate k equal to 1 is labeled >= k.

Map outputs are clamped componentwise into [0,1] before comparison, so a
map that drifts epsilon outside the cube through floating-point roundoff
cannot break the one-face rule.  The comparison itself is an exact float
``<=`` with no tolerance band.

A labeling may also cover a box of w cells per axis inside a finer grid,
as the solver's restarts do.  The rule (``induced_label``) then forces the
box's own top faces, so both rules hold on the box, and a box label is
genuine when it equals the point's label in the whole grid.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import product

from .grid import GridPoint, GridSpec, StringK, vertices


class MapEvaluationFailed(RuntimeError):
    """The map's evaluator faulted; carries the offending input point."""

    def __init__(self, point: tuple[float, ...], reason: str):
        super().__init__(f"map evaluation failed at {point}: {reason}")
        self.point = point
        self.reason = reason


@dataclass(frozen=True)
class MapFn:
    """A map of [0,1]^n into itself, evaluated with an unconditional clamp.

    ``fn`` may return any sequence of n numbers; calling the MapFn clamps
    each component into [0,1].  Evaluator exceptions, components that are
    not numbers, wrong component counts and NaNs are reported as
    MapEvaluationFailed together with the input point.  ``lipschitz`` and
    ``fixed_points`` are optional metadata for maps whose behaviour is
    known exactly (see the builtin catalog).
    """

    n: int
    fn: Callable[[tuple[float, ...]], Sequence[float]]
    name: str = "map"
    lipschitz: float | None = None
    fixed_points: tuple[tuple[float, ...], ...] = ()

    def __call__(self, p: Sequence[float]) -> tuple[float, ...]:
        return _image(self.fn, self.n, tuple(map(float, p)))


def _image(fn: Callable, n: int, pt: tuple[float, ...]) -> tuple[float, ...]:
    """``fn(pt)`` clamped into [0,1]^n, with MapFn's checks and messages."""
    try:
        # text, None or a complex does not compare with a float, so the
        # clamp raises on a component that is not a number
        out = tuple([0.0 if v < 0.0 else 1.0 if v > 1.0 else float(v) for v in fn(pt)])
    except MapEvaluationFailed:
        raise
    except Exception as exc:
        raise MapEvaluationFailed(pt, f"evaluator raised {exc!r}") from exc
    if len(out) != n:
        raise MapEvaluationFailed(pt, f"expected {n} components, got {len(out)}")
    # the clamp keeps NaN and nothing else outside [0, 1], so the sum is
    # NaN exactly when a component is
    s = sum(out)
    if s != s:
        raise MapEvaluationFailed(pt, "evaluator produced NaN")
    return out


def induced_label(c: GridPoint, top: int, x: Sequence[float], gx: Sequence[float]) -> int:
    """The label of point ``c`` of a box {0..top}^n at real point ``x``.

    The largest k with c_k > 0 and either c_k == top or g_k(x) <= x_k, else
    0; ``gx`` is g(x), already clamped.  On a whole grid (top = m, x = c/m)
    the c_k == top alternative changes nothing, since g_k(x) <= 1 = x_k
    there; on a smaller box it forces the box's top faces.
    """
    for k in range(len(c), 0, -1):
        if c[k - 1] > 0 and (c[k - 1] == top or gx[k - 1] <= x[k - 1]):
            return k
    return 0


class Labeling:
    """Memoized induced labeling of a box of a grid by a map.

    The box ``spec`` = {0..w}^n sits at offset ``lo`` in the enclosing
    ``grid``; both default to the whole grid.  Box point c stands for grid
    point lo + c at the real point ``grid.to_real(lo + c)`` and gets
    ``induced_label(c, w, x, g(x))``, so both boundary rules hold on the
    box.  Each point is labeled at most once; the map is evaluated exactly
    once per labeled point.  With ``keep_images`` each g(x) is kept in
    ``images``, keyed by box point.  Instances may be queried concurrently
    (label computation is idempotent), and the cache is never invalidated
    within a resolution.

    Points are labeled one at a time by ``label``, which bounds-checks its
    argument, or all at once in flat order, the order of
    ``GridSpec.points()``, by ``flat_labels``, which visits only box points.
    Neither goes through ``MapFn.__call__``: both form the real point as
    (lo_i + c_i) / M, the floats ``grid.to_real`` gives, and label it in
    one miss path (``_miss``) that calls the raw evaluator ``source.fn``
    behind MapFn's clamp and checks (``_image``).  Both share the cache, so
    neither evaluates a point the other has labeled.
    """

    def __init__(
        self,
        spec: GridSpec,
        source: MapFn,
        grid: GridSpec | None = None,
        lo: GridPoint | None = None,
        keep_images: bool = False,
    ):
        if spec.n != source.n:
            raise ValueError(f"grid dimension {spec.n} != map dimension {source.n}")
        self.spec = spec
        self.source = source
        self.grid = spec if grid is None else grid
        self.lo = (0,) * spec.n if lo is None else tuple(lo)
        corner = self.grid_point((spec.m,) * spec.n)
        if not (self.grid.contains(self.lo) and self.grid.contains(corner)):
            raise ValueError(f"box {spec} at {self.lo} does not fit in {self.grid}")
        self.images: dict[GridPoint, tuple[float, ...]] | None = {} if keep_images else None
        self._cache: dict[GridPoint, int] = {}

    def grid_point(self, c: GridPoint) -> GridPoint:
        """The grid point that box point ``c`` stands for."""
        return tuple(a + b for a, b in zip(self.lo, c))

    def label(self, c: GridPoint) -> int:
        c = tuple(c)
        lab = self._cache.get(c)
        if lab is None:
            spec = self.spec
            if len(c) != spec.n or min(c) < 0 or max(c) > spec.m:
                raise ValueError(f"{c} is not a point of {spec}")
            m = self.grid.m
            lab = self._miss(c, tuple([(lo + a) / m for lo, a in zip(self.lo, c)]))
        return lab

    def _miss(self, c: GridPoint, x: tuple[float, ...]) -> int:
        """Evaluate the map at ``x``, the real point of box point ``c``, and
        cache (and, with ``keep_images``, keep) what ``c`` gets."""
        gx = _image(self.source.fn, self.spec.n, x)
        if self.images is not None:
            self.images[c] = gx
        lab = self._cache[c] = induced_label(c, self.spec.m, x, gx)
        return lab

    def flat_labels(self) -> list[int]:
        """The label of every box point, in flat order: ``spec.points()`` order.

        Real coordinates come from one table per axis, (lo_i + c) / M for c
        in 0..w, the floats ``to_real`` gives.  Cached points are read, the
        others evaluated and cached, so a failing map raises
        MapEvaluationFailed at its first new failing point in flat order,
        with the message ``MapFn`` gives.
        """
        cache, miss = self._cache, self._miss
        reals = [[(lo + c) / self.grid.m for c in range(self.spec.m + 1)] for lo in self.lo]
        labels = []
        for c, x in zip(self.spec.points(), product(*reals)):
            lab = cache.get(c)
            if lab is None:
                lab = miss(c, x)
            labels.append(lab)
        return labels

    @property
    def evals(self) -> int:
        """Number of distinct points labeled so far (= map evaluations)."""
        return len(self._cache)


def labels_of(lab, s: StringK) -> list[int]:
    """Labels of the k+1 vertices of ``s``, in vertex order."""
    return [lab.label(v) for v in vertices(s)]


def is_fully_labeled(lab, s: StringK) -> bool:
    """True iff the labels of ``s`` are exactly {0, ..., k}."""
    return set(labels_of(lab, s)) == set(range(s.k + 1))


def doors_of(labels: Sequence[int], k: int) -> list[int]:
    """Omitted indices, ascending, of the faces labeled exactly {0, ..., k-1}.

    ``labels`` are the k+1 vertex labels of a k-string, of any values.  In
    O(k): the k labels 0..k-1 fill k of the k+1 places, so there are doors
    only when each occurs and one entry is left over.  A leftover that
    repeats a label l < k makes the two places holding l the doors; any
    other leftover is the single door.  The string is fully labeled exactly
    when it has one door and that door's label is k.
    """
    first = [-1] * k
    extra = -1
    for i, value in enumerate(labels):
        if 0 <= value < k and first[value] < 0:
            first[value] = i
        elif extra < 0:
            extra = i
        else:
            return []  # two leftovers: some label below k is missing
    value = labels[extra]
    return [first[value], extra] if 0 <= value < k else [extra]


def count_fully_labeled_faces(lab, s: StringK) -> tuple[int, list[int]]:
    """Faces of ``s`` carrying the label set {0, ..., k-1}.

    Returns (count, omitted indices in ascending order), from one label
    pass over the vertices and the O(k) rule of ``doors_of``.  The count
    is 0, 1 or 2 for any labels, and it is 1 with the door labeled k
    exactly when ``s`` itself is fully labeled.
    """
    if s.k < 1:
        raise ValueError("faces are defined for strings of dimension >= 1")
    doors = doors_of(labels_of(lab, s), s.k)
    return len(doors), doors
