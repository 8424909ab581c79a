"""Grid refinement loop: fully labeled strings to approximate fixed points.

At each resolution m a fully labeled n-string is located; its vertices
sandwich a fixed point componentwise, and the string's diameter sqrt(n)/m
shrinks as m grows.  The loop stops when the best vertex's residual
||g(z) - z||_inf reaches the tolerance, which is the computable surrogate
for exact fixedness (it is 0 exactly at true fixed points).  Residuals are
not promised to fall monotonically between resolutions, only the diameter
is; on a blown resolution budget the best witness seen so far is returned
with converged=False.

The first resolution searches the whole grid.  Each later one restarts the
walk in a box of BOX_WIDTH cells per axis around the previous witness
(Merrill's restart), with the box's own top faces forced into the labels so
that the walk's boundary rules hold inside it.  The box's certificate is
kept only when every vertex's box label is its label in the whole grid;
then it is a fully labeled string of the whole grid.  Otherwise the whole
grid is walked.  A walk's labelling keeps g(x) next to each label, so the
witness costs no map evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grid import GridPoint, GridSpec, StringK, vertices
from .labeling import MapFn, labels_of
from .search import DEFAULT_BUDGET, LabelingInvalid, exhaustive_fully_labeled, path_follow

ENGINE_PATH = "path"
ENGINE_ORACLE = "oracle"

BOX_WIDTH = 8  # cells per axis of the box walked after the first resolution
MAX_M = 2 ** 52  # (lo + c) / m stays exact in binary64 up to here


class ConfigInvalid(ValueError):
    pass


@dataclass(frozen=True)
class SolveConfig:
    initial_m: int = 2
    growth: int = 2
    max_m: int = MAX_M
    tol: float = 1e-6
    engine: str = ENGINE_PATH
    budget: int = DEFAULT_BUDGET  # oracle engine only

    def __post_init__(self) -> None:
        if self.initial_m < 1:
            raise ConfigInvalid(f"initial_m must be >= 1, got {self.initial_m}")
        if self.growth < 2:
            raise ConfigInvalid(f"growth must be >= 2, got {self.growth}")
        if self.max_m < self.initial_m:
            raise ConfigInvalid(f"max_m {self.max_m} below initial_m {self.initial_m}")
        if self.max_m > MAX_M:
            raise ConfigInvalid(f"max_m must be <= 2^52, got {self.max_m}")
        if not self.tol > 0:
            raise ConfigInvalid(f"tol must be positive, got {self.tol}")
        if self.engine not in (ENGINE_PATH, ENGINE_ORACLE):
            raise ConfigInvalid(f"engine must be 'path' or 'oracle', got {self.engine!r}")


@dataclass(frozen=True)
class Certificate:
    """A fully labeled n-string at resolution m, with its vertex labels."""

    m: int
    string: StringK
    labels: tuple[int, ...]


@dataclass(frozen=True)
class ResolutionRecord:
    m: int
    residual: float
    diameter: float  # sqrt(n)/m, the certificate string's diameter
    evals: int       # map evaluations spent at this resolution
    fallback: bool = False  # the box walk's certificate was not genuine


@dataclass(frozen=True)
class SolveReport:
    n: int
    z: tuple[float, ...]
    residual: float
    m_final: int
    converged: bool
    certificate: Certificate
    history: tuple[ResolutionRecord, ...]


class BoxLabeling:
    """Labelling of the box ``lo + {0..w}^n`` of ``grid``, in box coordinates.

    Box point c stands for grid point lo + c at the real point
    ``grid.to_real(lo + c)``, the one the whole grid's labelling uses.  Its
    label is the largest k with c_k > 0 and either c_k == w or
    g_k(x) <= x_k, else 0, so both boundary rules hold on the box.  With
    lo = 0 and w = m this is the induced labelling of the grid, since
    g_k(x) <= 1 = x_k on the top faces anyway.  Each label is kept with
    g(x); the map is evaluated once per labelled point.
    """

    def __init__(self, g: MapFn, grid: GridSpec, lo: GridPoint, w: int):
        if grid.n != g.n:
            raise ValueError(f"grid dimension {grid.n} != map dimension {g.n}")
        self.spec = GridSpec(grid.n, w)
        self.grid = grid
        self.lo = lo
        self.source = g
        self._cache: dict[GridPoint, tuple[int, tuple[float, ...]]] = {}

    def grid_point(self, c: GridPoint) -> GridPoint:
        return tuple(a + b for a, b in zip(self.lo, c))

    def _entry(self, c: GridPoint) -> tuple[int, tuple[float, ...]]:
        entry = self._cache.get(c)
        if entry is None:
            x = self.grid.to_real(self.grid_point(c))
            gx = self.source(x)
            entry = self._cache[c] = (_top_forced_label(c, self.spec.m, x, gx), gx)
        return entry

    def label(self, c: GridPoint) -> int:
        return self._entry(tuple(c))[0]

    def image(self, c: GridPoint) -> tuple[float, ...]:
        """g at the real point of box point ``c`` (labelling it if needed)."""
        return self._entry(tuple(c))[1]

    def is_genuine(self, c: GridPoint) -> bool:
        """True iff the box label of ``c`` is its induced label in the grid."""
        label, gx = self._entry(tuple(c))
        p = self.grid_point(c)
        return label == _top_forced_label(p, self.grid.m, self.grid.to_real(p), gx)

    @property
    def evals(self) -> int:
        """Number of distinct points labeled so far (= map evaluations)."""
        return len(self._cache)


def _top_forced_label(c: GridPoint, top: int, x: tuple[float, ...], gx: tuple[float, ...]) -> int:
    """The largest k with c_k > 0 and either c_k == top or g_k(x) <= x_k,
    else 0.  With top = m, the grid's top faces, it is the induced label."""
    for k in range(len(c), 0, -1):
        if c[k - 1] > 0 and (c[k - 1] == top or gx[k - 1] <= x[k - 1]):
            return k
    return 0


def residual(g: MapFn, p) -> float:
    """Sup-norm distance ||g(p) - p||_inf, with g clamped into the cube."""
    pt = tuple(float(c) for c in p)
    q = g(pt)
    return max(abs(qi - pi) for qi, pi in zip(q, pt))


def select_witness(lab: BoxLabeling, s: StringK) -> tuple[tuple[float, ...], float]:
    """The vertex of ``s`` (as a real point of the grid) with the smallest
    residual, and that residual; ties go to the earlier vertex.  The
    residuals come from the images ``lab`` kept when it labelled ``s``."""
    best_p = None
    best_r = math.inf
    for c in vertices(s):
        p = lab.grid.to_real(lab.grid_point(c))
        r = max(abs(qi - pi) for qi, pi in zip(lab.image(c), p))
        if r < best_r:
            best_p, best_r = p, r
    return best_p, best_r


def solve_at(
    g: MapFn, spec: GridSpec, cfg: SolveConfig, near: tuple[float, ...] | None = None
) -> tuple[Certificate, tuple[float, ...], ResolutionRecord]:
    """One resolution: a fully labeled n-string of ``spec`` and its witness.

    Given the previous witness ``near``, the path engine first walks the
    BOX_WIDTH box around it, clamped into the grid, and keeps that
    certificate when all its labels are genuine.  Otherwise, and for the
    oracle engine, the whole grid is searched.  The record's evals count
    every map evaluation of the resolution, both walks included.
    """
    n, m = spec.n, spec.m
    spent, fallback = 0, False
    if near is not None and cfg.engine == ENGINE_PATH:
        w = min(BOX_WIDTH, m)
        lo = tuple(min(max(round(zi * m) - w // 2, 0), m - w) for zi in near)
        lab = BoxLabeling(g, spec, lo, w)
        s, _ = path_follow(lab.spec, lab)
        if all(lab.is_genuine(v) for v in vertices(s)):
            return _resolution(lab, s, 0, False)
        spent, fallback = lab.evals, True

    lab = BoxLabeling(g, spec, (0,) * n, m)
    if cfg.engine == ENGINE_ORACLE:
        found = exhaustive_fully_labeled(spec, lab, n, budget=cfg.budget)
        if not found:
            raise LabelingInvalid(f"no fully labeled string at m={m}")
        s = found[0]
    else:
        s, _ = path_follow(lab.spec, lab)
    return _resolution(lab, s, spent, fallback)


def _resolution(lab: BoxLabeling, s: StringK, spent: int, fallback: bool):
    n, m = lab.grid.n, lab.grid.m
    cert = Certificate(m, StringK(n, lab.grid_point(s.base), s.perm), tuple(labels_of(lab, s)))
    z, r = select_witness(lab, s)
    return cert, z, ResolutionRecord(m, r, math.sqrt(n) / m, spent + lab.evals, fallback)


def solve(g: MapFn, cfg: SolveConfig | None = None) -> SolveReport:
    """Refine the grid until a witness meets the residual tolerance.

    Each resolution gets fresh labellings (cache keys depend on m, and
    points of successive grids only partially coincide), and each walk
    after the first starts near the previous witness (see ``solve_at``).
    Engine errors propagate.
    """
    cfg = cfg or SolveConfig()
    n = g.n
    history: list[ResolutionRecord] = []
    best: tuple[float, tuple[float, ...], Certificate] | None = None
    z = None

    m = cfg.initial_m
    while m <= cfg.max_m:
        cert, z, record = solve_at(g, GridSpec(n, m), cfg, z)
        history.append(record)
        r = record.residual
        if best is None or r < best[0]:
            best = (r, z, cert)
        if r <= cfg.tol:
            return SolveReport(n, z, r, m, True, cert, tuple(history))
        m *= cfg.growth

    r, z, cert = best
    return SolveReport(n, z, r, cert.m, False, cert, tuple(history))
