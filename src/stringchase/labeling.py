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
``<=`` with no tolerance band.  Every reading of g goes through the map's
``MapFn.image``: the generic clamp and checks (``_image``) for any
evaluator, or for a compiled map the clamp kernel written out for its n
(``clamp_kernel``), with the same results and errors.  A label that is not
cached is found by the label kernel for n (``label_kernel``), the miss
path of ``Labeling.label`` written out with the rule unrolled.  One source
per n holds both kernels and is compiled once, when the first map or
labeling of that n is made.

A labeling may also cover a box of w cells per axis inside a finer grid,
as the solver's restarts do.  The rule (``induced_label``) then forces the
box's own top faces, so both rules hold on the box; a point on a forced
face may carry a label that differs from its label in the whole grid.

Where the rule fixes a label, the label does not depend on g: at the
origin it is 0, and at a point whose highest nonzero coordinate K is on
the top face (x_K = 1 in a whole grid, c_K = w in a box) it is K.
``Labeling`` gives those points their label without evaluating g there, so
a map that faults only at such points labels without error.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import product

from .grid import GridPoint, GridSpec, StringK, check_size, vertices


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

    n is checked as a ``GridSpec`` dimension is.  ``image``, set from ``fn``
    and n on construction, is that clamp and those checks on a tuple of
    floats: ``_image`` bound to ``fn`` here, the clamp kernel for n in
    ``functions.CompiledMap``.  Calling the MapFn and
    ``Labeling`` both evaluate through it, so a map made by
    ``dataclasses.replace(g, fn=...)`` evaluates its new ``fn`` everywhere.
    """

    n: int
    fn: Callable[[tuple[float, ...]], Sequence[float]]
    name: str = "map"
    image: Callable[[tuple[float, ...]], tuple[float, ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        check_size("dimension", self.n, 1)
        object.__setattr__(self, "image", partial(_image, self.fn, self.n))

    def __call__(self, p: Sequence[float]) -> tuple[float, ...]:
        return self.image(tuple(map(float, p)))


def _image(fn: Callable, n: int, pt: tuple[float, ...]) -> tuple[float, ...]:
    """``fn(pt)`` clamped into [0,1]^n, with MapFn's checks and messages."""
    try:
        return _clamped(pt, n, fn(pt))
    except MapEvaluationFailed:
        raise
    except Exception as exc:
        raise MapEvaluationFailed(pt, f"evaluator raised {exc!r}") from exc


def _clamped(pt: tuple[float, ...], n: int, values) -> tuple[float, ...]:
    """``values``, the evaluator's output at ``pt``, clamped into [0,1]^n.

    A wrong count or a NaN raises MapEvaluationFailed.  Text, None or a
    complex does not compare with a float, so a component that is not a
    number raises a TypeError, which the caller reports as the evaluator's.
    """
    out = tuple([0.0 if v < 0.0 else 1.0 if v > 1.0 else float(v) for v in values])
    if len(out) != n:
        raise MapEvaluationFailed(pt, f"expected {n} components, got {len(out)}")
    # the clamp keeps NaN and nothing else outside [0, 1], so the sum is
    # NaN exactly when a component is
    s = sum(out)
    if s != s:
        raise MapEvaluationFailed(pt, "evaluator produced NaN")
    return out


_KERNEL = """\
def bind(fn):
    def image(p):
        try:
            out = fn(p)
            {vs}, = out
            if {inside}:
                return out
            return clamped(p, {n}, out)
        except MapEvaluationFailed:
            raise
        except Exception as exc:
            raise MapEvaluationFailed(p, f"evaluator raised {{exc!r}}") from exc
    return image

def bind_label(image, cache, forced, spec, lo, m, w, images):
    {los}, = lo
    def label(c):
        try:
            {cs}, = c
        except ValueError:
            inside = False
        else:
            inside = {bounds}
        if not inside:
            raise ValueError(f"{{c}} is not a point of {{spec}}")
        k = {highest}
        if not k or c[k - 1] == w:
            forced[0] += 1
            cache[c] = k
            return k
        {xs}
        x = ({xt},)
        if images is None:
            gx = image(x)
        else:
            gx = images.get(x)
            if gx is None:
                gx = images[x] = image(x)
        {gs}, = gx
        {rule}
        else:
            lab = 0
        cache[c] = lab
        return lab
    return label
"""


@lru_cache(maxsize=64)
def _kernels(n: int) -> dict:
    """``bind`` (the clamp) and ``bind_label`` (a label miss) for n, compiled from one source."""
    axes, down = range(n), range(n - 1, -1, -1)

    def names(a: str) -> str:
        return ", ".join(f"{a}{i}" for i in axes)

    src = _KERNEL.format(
        n=n, vs=names("v"), los=names("lo"), cs=names("c"), xt=names("x"), gs=names("g"),
        inside=" and ".join(f"0.0 <= v{i} <= 1.0" for i in axes),
        bounds=" and ".join(f"0 <= c{i} <= w" for i in axes),
        # the axis of c's highest nonzero coordinate, the label when that
        # coordinate is on the top face (or c is the origin)
        highest=" else ".join([f"{i + 1} if c{i}" for i in down] + ["0"]),
        xs="\n        ".join(f"x{i} = (lo{i} + c{i}) / m" for i in axes),
        rule="\n        el".join(
            f"if c{i} and (c{i} == w or g{i} <= x{i}):\n            lab = {i + 1}" for i in down))
    names = {"MapEvaluationFailed": MapEvaluationFailed, "clamped": _clamped}
    exec(compile(src, f"<kernel n={n}>", "exec"), names)
    return names


def clamp_kernel(n: int) -> Callable[[Callable], Callable[[tuple[float, ...]], tuple[float, ...]]]:
    """``_image`` written out for an ``fn`` that returns a tuple of n floats.

    ``clamp_kernel(n)(fn)`` is a function of the point with the result and
    the errors of ``_image(fn, n, ·)`` when ``fn`` returns a tuple of n
    floats, as every map that ``functions`` compiles does.  It unpacks the
    n components and, when each lies in [0,1] (so none is NaN), returns
    ``fn``'s tuple as it is, with no loop, ``float``, ``len`` or ``sum``;
    any other output goes through ``_image``'s own clamp and checks.  Its
    source for n also holds ``label_kernel(n)``; the one source is compiled
    once per n and bound to each map's ``fn``.
    """
    return _kernels(n)["bind"]


def label_kernel(n: int) -> Callable[..., Callable[[GridPoint], int]]:
    """``Labeling.label``'s miss path written out for n, from the clamp kernel's source.

    ``label_kernel(n)(image, cache, forced, spec, lo, m, w, images)`` labels
    a tuple ``c`` not in ``cache`` as ``Labeling.label`` describes: it
    unpacks c, checks 0 <= c_i <= w on every axis (else the ValueError that
    ``label`` raises), gives a forced point its label and counts it in
    ``forced[0]``, forms x = ((lo_i + c_i) / m, ...), reads g(x) from
    ``images`` or evaluates it through ``image`` (storing it there), and
    applies ``induced_label``'s rule, unrolled from axis n down.  It stores
    the label in ``cache``.
    """
    return _kernels(n)["bind_label"]


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
    ``grid``; both default to the whole grid.  The box must fit: a grid of
    M cells in n dimensions and 0 <= lo_i <= M - w on every axis, else
    ValueError.  Box point c stands for grid point lo + c at the real point
    ``grid.to_real(lo + c)`` and gets ``induced_label(c, w, x, g(x))``, so
    both boundary rules hold on the box.

    The forced points, the origin and the points whose highest nonzero
    coordinate is w, get their label without reading g; every other point
    is evaluated.  Points are labeled one at a time by ``label``, which
    reads the cache and, on a miss, runs the label kernel for n
    (``label_kernel``): it bounds-checks the point, labels it and caches
    it.  Given ``images``, a table from the real point x to the clamped
    g(x), it reads g(x) there and stores every image it evaluates, so the
    labellings of one table (a solve's boxes) evaluate g once per real
    point.  The whole box is labeled in flat order, the order of
    ``GridSpec.points()``, by ``sweep``, which caches nothing.  Neither
    goes through ``MapFn.__call__``: both form the real point as
    (lo_i + c_i) / M, the floats ``grid.to_real`` gives (a correctly
    rounded quotient, so one rational is one key at every m), evaluate it
    through ``source.image``, the map's clamp and checks around its
    ``fn``, and label it by ``induced_label``'s rule.

    The kernel is bound at construction to w, M, ``lo``, ``images``,
    ``source.image`` and the cache.  It counts the forced points in a
    one-item list it shares with the labeling, and holds no reference to
    the labeling itself, so no reference cycle keeps a labeling alive.
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
        n, w = spec.n, spec.m
        self.spec = spec
        self.grid = spec if grid is None else grid
        self.lo = (0,) * n if lo is None else tuple(lo)
        if self.grid.n != n or len(self.lo) != n or not (
                min(self.lo) >= 0 and max(self.lo) <= self.grid.m - w):
            raise ValueError(f"box {spec} at {self.lo} does not fit in {self.grid}")
        self.images = images
        self._cache: dict[GridPoint, int] = {}
        self._forced = [0]  # cached points whose label was forced, counted by the kernel
        self._w, self._n, self._m, self._image = w, n, self.grid.m, source.image
        self._miss = label_kernel(n)(
            source.image, self._cache, self._forced, spec, self.lo, self._m, w, images)

    def grid_point(self, c: GridPoint) -> GridPoint:
        """The grid point that box point ``c`` stands for."""
        return tuple([a + b for a, b in zip(self.lo, c)])

    def label(self, c: GridPoint) -> int:
        c = tuple(c)
        lab = self._cache.get(c)
        if lab is None:
            lab = self._miss(c)
        return lab

    def sweep(self) -> Iterator[int]:
        """The label of every box point, in flat order: ``spec.points()`` order.

        The box is read as rows along axis n, the last, fastest axis: one row
        per head, the first n-1 coordinates in flat order.  A head's highest
        nonzero axis f and its real coordinates, (lo_i + c) / M as
        ``to_real`` gives them, are found once per row.  c_n = w is forced
        to label n, cached or not.  Below it, a point in the cache is read,
        the cache only when it is non-empty, and c_n = 0 is forced to label
        f when f = 0 or head_f = w.  Every other point is evaluated through
        ``source.image`` and gets ``induced_label``'s label: n when c_n > 0
        and g_n(x) <= x_n, else the largest k <= f with head_k > 0 and
        (head_k = w or g_k(x) <= x_k), else 0.  A sweep, which visits each
        point once, neither caches nor uses ``images``.  A failing map
        raises MapEvaluationFailed at its first failing point in flat order
        that is neither cached nor forced, with the message ``MapFn`` gives.
        """
        cache, image, n, w, m = self._cache, self._image, self._n, self._w, self._m
        reals = [[(lo + c) / m for c in range(w + 1)] for lo in self.lo]
        row = list(enumerate(reals[-1][:w]))  # (c_n, x_n) for c_n < w
        for head, prefix in zip(product(range(w + 1), repeat=n - 1), product(*reals[:-1])):
            # the axes k <= f that g decides, from f down to the first on
            # the top face, whose label k is then the row's fallback
            checks, low = [], 0
            for i in range(n - 2, -1, -1):
                if head[i] == w:
                    low = i + 1
                    break
                if head[i]:
                    checks.append((i, prefix[i]))
            for cn, xn in row:
                if cache and (lab := cache.get(head + (cn,))) is not None:
                    yield lab
                    continue
                if not checks and not cn:  # forced: f = 0 or head_f = w
                    yield low
                    continue
                gx = image(prefix + (xn,))
                if cn and gx[-1] <= xn:
                    yield n
                    continue
                for i, xi in checks:
                    if gx[i] <= xi:
                        yield i + 1
                        break
                else:
                    yield low
            yield n

    @property
    def evals(self) -> int:
        """Distinct points labeled through ``label`` so far whose label read
        g(x), not a sweep's and not the forced ones: its map evaluations,
        unless a shared ``images`` table saved some."""
        return len(self._cache) - self._forced[0]


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
