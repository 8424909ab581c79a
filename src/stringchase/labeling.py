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
``<=`` with no tolerance band.  A reading of g goes through the map's
``MapFn.image``: the generic clamp and checks (``_image``) for any
evaluator, or for a compiled map the clamp kernel written out for its n
(``clamp_kernel``), with the same results and errors.  A label that is not
cached is found by the label kernel for n (``label_kernel``), the miss
path of ``Labeling.label`` written out with the rule unrolled.  One source
per n holds both kernels and is compiled once, when the first map or
labeling of that n is made.  A whole box is labeled by the sweep kernel
for n (``Labeling.sweep``), from its own source, compiled on the first
sweep of that n: it calls a compiled map's ``fn`` itself, with the clamp
kernel's checks inline, and reads any other map through ``image``.

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
from itertools import chain, product

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
    ``Labeling`` both evaluate through it (a sweep of a ``CompiledMap``
    calls ``fn`` itself, with the clamp kernel's checks), so a map made by
    ``dataclasses.replace(g, fn=...)`` evaluates its new ``fn`` everywhere.
    """

    n: int
    fn: Callable[[tuple[float, ...]], Sequence[float]]
    name: str = "map"
    image: Callable[[tuple[float, ...]], tuple[float, ...]] = field(
        init=False, repr=False, compare=False)

    # whether ``fn`` returns a tuple of n floats, as ``functions.CompiledMap``'s
    # does, so that a sweep can call it and check its tuple inline
    fn_gives_floats = False

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
            {gs}, = out
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

# Rows along axis n, c_n = w forced to n.  A row whose head leaves c_n = 0
# to the boundary rules starts with that label and walks the rest.  A row
# that fails yields the labels before the failing point, then raises.
_SWEEP = """\
def sweep(f, cache, lo, m, w):
    def rows():
        {los}, = lo
        {heads}
        row_n = [(c, (lo{t} + c) / m) for c in range(w)]
        rest = row_n[1:]
        for {pairs} in product({hs}):
            if {free}:
                row, points = [], row_n
            else:
                row, points = [{low}], rest
            try:
                for c{t}, x{t} in points:
                    if cache and (lab := cache.get(({cs},))) is not None:
                        row.append(lab)
                        continue
                    x = ({xt},)
                    out = f(x)
                    {gs}, = out
                    if not ({inside}):
                        {gs}, = clamped(x, {n}, out)
                    {sweep_rule}
                    else:
                        lab = 0
                    row.append(lab)
            except Exception as exc:
                yield row
                if isinstance(exc, MapEvaluationFailed):
                    raise
                raise MapEvaluationFailed(x, f"evaluator raised {{exc!r}}") from exc
            row.append({n})
            yield row
    return chain.from_iterable(rows())
"""


def _source(template: str, n: int) -> str:
    """``template`` written out for n, with its tests unrolled over the axes."""
    t = n - 1

    def names(a: str, k: int = n) -> str:
        return ", ".join(f"{a}{i}" for i in range(k))

    def highest(k: int) -> str:
        # the axis of the highest nonzero of c_1..c_k, the label when that
        # coordinate is on the top face (or all k are 0)
        return " else ".join([f"{i + 1} if c{i}" for i in reversed(range(k))] + ["0"])

    def rule(indent: str, top: str) -> str:
        # induced_label's rule from axis n down; ``top`` is axis n's test
        tests = [top] + [f"c{i} and (c{i} == w or g{i} <= x{i})" for i in reversed(range(t))]
        return f"\n{indent}el".join(
            f"if {test}:\n{indent}    lab = {n - j}" for j, test in enumerate(tests))

    return template.format(
        n=n, t=t, los=names("lo"), cs=names("c"), xt=names("x"), gs=names("g"),
        inside=" and ".join(f"0.0 <= g{i} <= 1.0" for i in range(n)),
        bounds=" and ".join(f"0 <= c{i} <= w" for i in range(n)),
        highest=highest(n),
        xs="\n        ".join(f"x{i} = (lo{i} + c{i}) / m" for i in range(n)),
        rule=rule(" " * 8, f"c{t} and (c{t} == w or g{t} <= x{t})"),
        # a sweep row's head: the (c_i, x_i) pairs of each axis before n, and
        # whether its highest nonzero axis leaves c_n = 0 to g; else the
        # boundary rules give that point the axis as its label (``low``)
        heads="\n        ".join(
            f"h{i} = [(c, (lo{i} + c) / m) for c in range(w + 1)]" for i in range(t)),
        pairs="".join(f"(c{i}, x{i}), " for i in range(t)).rstrip() or "()",
        hs=names("h", t),
        free=" else ".join([f"c{i} != w if c{i}" for i in reversed(range(t))] + ["False"]),
        low=highest(t),
        sweep_rule=rule(" " * 20, f"c{t} and g{t} <= x{t}"))


def _run(src: str, filename: str) -> dict:
    """The names that ``src``, compiled as ``filename``, defines."""
    names = {"MapEvaluationFailed": MapEvaluationFailed, "clamped": _clamped,
             "chain": chain, "product": product}
    exec(compile(src, filename, "exec"), names)
    return names


@lru_cache(maxsize=64)
def _kernels(n: int) -> dict:
    """``bind`` (the clamp) and ``bind_label`` (a label miss) for n, compiled from one source."""
    return _run(_source(_KERNEL, n), f"<kernel n={n}>")


@lru_cache(maxsize=64)
def _sweep_kernel(n: int) -> Callable[..., Iterator[int]]:
    """``Labeling.sweep`` written out for n, compiled from its own source on the first sweep of n."""
    return _run(_source(_SWEEP, n), f"<sweep n={n}>")["sweep"]


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
    ``GridSpec.points()``, by ``sweep``, which runs the sweep kernel for n
    and caches nothing.  Neither goes through ``MapFn.__call__``: both form
    the real point as (lo_i + c_i) / M, the floats ``grid.to_real`` gives
    (a correctly rounded quotient, so one rational is one key at every m),
    evaluate it with the map's clamp and checks around its ``fn`` (the
    sweep calls a compiled map's ``fn`` and checks it inline, one call a
    point), and label it by ``induced_label``'s rule.

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
        self._w, self._n, self._m, self._map = w, n, self.grid.m, source
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

        The sweep kernel for n (``_sweep_kernel``), compiled on the first
        sweep of n, reads the box as rows along axis n, the last, fastest
        axis: one row per head, the first n-1 coordinates in flat order, in
        one loop over the heads.  c_n = w is forced to label n, and c_n = 0
        to the head's highest nonzero axis f when f = 0 or head_f = w; a
        point in the cache is read, the cache only when it is non-empty.
        Every other point is x = ((lo_i + c_i) / M, ...), as ``to_real``
        gives it, evaluated once, and gets ``induced_label``'s label, the
        rule unrolled from axis n down.  A ``CompiledMap``'s ``fn`` is
        called directly and its tuple checked in [0,1] inline, as the clamp
        kernel does; any other map is read through its ``image``.  Rows
        are built as lists and flattened by ``chain.from_iterable``, so the
        sweep stays lazy a row at a time.  A sweep, which visits each point
        once, neither caches nor uses ``images``.  A failing map raises
        MapEvaluationFailed at its first failing point in flat order that
        is neither cached nor forced, with the message ``MapFn`` gives,
        after the labels before it.
        """
        g = self._map
        f = g.fn if g.fn_gives_floats else g.image
        return _sweep_kernel(self._n)(f, self._cache, self.lo, self._m, self._w)

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
