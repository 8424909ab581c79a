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
box's own top faces, so both rules hold on the box; a point on a forced
face may carry a label that differs from its label in the whole grid.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
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
    MapEvaluationFailed together with the input point.
    """

    n: int
    fn: Callable[[tuple[float, ...]], Sequence[float]]
    name: str = "map"

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
    k = len(c)
    while k:
        k -= 1
        ck = c[k]
        if ck > 0 and (ck == top or gx[k] <= x[k]):
            return k + 1
    return 0


class Labeling:
    """Memoized induced labeling of a box of a grid by a map.

    The box ``spec`` = {0..w}^n sits at offset ``lo`` in the enclosing
    ``grid``; both default to the whole grid.  Box point c stands for grid
    point lo + c at the real point ``grid.to_real(lo + c)`` and gets
    ``induced_label(c, w, x, g(x))``, so both boundary rules hold on the
    box.

    Points are labeled one at a time by ``label``, which bounds-checks its
    argument and caches.  Given ``images``, a table from the real point x
    to the clamped g(x), it reads g(x) there and stores every image it
    evaluates, so the labellings of one table (a solve's boxes) evaluate g
    once per real point.  The whole box is labeled in flat order, the order
    of ``GridSpec.points()``, by ``sweep``, which reads cached points and
    caches nothing.  Neither goes through ``MapFn.__call__``: both form the
    real point as (lo_i + c_i) / M, the floats ``grid.to_real`` gives (a
    correctly rounded quotient, so one rational is one key at every m),
    call the raw evaluator ``source.fn`` behind MapFn's clamp and checks
    (``_image``) and label it with ``induced_label``.

    The per-box constants are bound once, at construction: the box width
    w, n, the grid's M and ``source.fn``.  A miss in ``label`` then does
    the bounds check, forms one real-point tuple, evaluates and labels;
    at ``lo`` = 0 it forms c_i / M, the same float as (0 + c_i) / M.
    """

    def __init__(
        self,
        spec: GridSpec,
        source: MapFn,
        grid: GridSpec | None = None,
        lo: GridPoint | None = None,
        images: dict | None = None,
    ):
        if spec.n != source.n:
            raise ValueError(f"grid dimension {spec.n} != map dimension {source.n}")
        self.spec = spec
        self.grid = spec if grid is None else grid
        self.lo = (0,) * spec.n if lo is None else tuple(lo)
        corner = self.grid_point((spec.m,) * spec.n)
        if not (self.grid.contains(self.lo) and self.grid.contains(corner)):
            raise ValueError(f"box {spec} at {self.lo} does not fit in {self.grid}")
        self.images = images
        self._cache: dict[GridPoint, int] = {}
        self._w, self._n, self._m, self._fn = spec.m, spec.n, self.grid.m, source.fn
        self._offset = any(self.lo)

    def grid_point(self, c: GridPoint) -> GridPoint:
        """The grid point that box point ``c`` stands for."""
        return tuple(a + b for a, b in zip(self.lo, c))

    def label(self, c: GridPoint) -> int:
        c = tuple(c)
        lab = self._cache.get(c)
        if lab is None:
            n, w, m = self._n, self._w, self._m
            if len(c) != n or min(c) < 0 or max(c) > w:
                raise ValueError(f"{c} is not a point of {self.spec}")
            if self._offset:
                x = tuple([(lo + a) / m for lo, a in zip(self.lo, c)])
            else:
                x = tuple([a / m for a in c])
            if (images := self.images) is None:
                gx = _image(self._fn, n, x)
            elif (gx := images.get(x)) is None:
                gx = images[x] = _image(self._fn, n, x)
            lab = self._cache[c] = induced_label(c, w, x, gx)
        return lab

    def sweep(self) -> Iterator[int]:
        """The label of every box point, in flat order: ``spec.points()`` order.

        Real coordinates come from one table per axis, (lo_i + c) / M for c
        in 0..w, the floats ``to_real`` gives.  Cached points are read and
        every other point is labeled from the map, but a sweep, which
        visits each point once, neither caches nor uses ``images``.  A
        failing map raises MapEvaluationFailed at its first uncached
        failing point in flat order, with the message ``MapFn`` gives.
        """
        cache, fn, n, w, m = self._cache, self._fn, self._n, self._w, self._m
        reals = [[(lo + c) / m for c in range(w + 1)] for lo in self.lo]
        for c, x in zip(self.spec.points(), product(*reals)):
            lab = cache.get(c)
            yield induced_label(c, w, x, _image(fn, n, x)) if lab is None else lab

    @property
    def evals(self) -> int:
        """Distinct points labeled through ``label`` so far, not a sweep's:
        its map evaluations, unless a shared ``images`` table saved some."""
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
