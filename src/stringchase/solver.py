"""Grid refinement loop: fully labeled strings to approximate fixed points.

The resolutions are powers of two from m = 2 up to max_m.  At each one a
fully labeled n-string is located; its vertices sandwich a fixed point
componentwise, and the string's diameter sqrt(n)/m shrinks as m grows.
The loop stops when the witness's residual ||g(z) - z||_inf reaches the
tolerance, which is the computable surrogate for exact fixedness (it
is 0 exactly at true fixed points).  Residuals are not promised to fall
monotonically between resolutions, only the diameter is; past max_m the
best witness seen so far is returned with converged=False.

After a resolution at m with residual r, the next one is at the power of
two 2^ceil(log2(1/(4r))), the coarsest whose cells are at most 4r wide, or
at 2m if that is finer; at most at the largest power of two <= max_m.  Near a
smooth fixed point the witness's residual falls like O(1/m^2), so each
jump about squares the residual (Saigal 1977), where doubling m would only
quarter it.

The first resolution searches the whole grid.  Each later one restarts the
search in a box of 2 cells per axis around the previous witness (Merrill's
restart), with the box's own top faces forced into the labels so that the
walk's boundary rules hold inside it.  The box's string, moved into grid
coordinates, is kept when it is fully labeled in the whole grid, the
paper's certificate.  Otherwise the box doubles in width around the same
centre (4, 8, ... cells) and is searched again, up to a bound after a jump
(see ``solve_at``).  Two cells is the smallest box whose labels
depend on the map: in a box of one cell every coordinate is 0 or the
forced top, so every label is fixed, and ``Labeling`` labels such a box
without a single evaluation.  Both engines search the same boxes.

The witness is the best of the certificate's vertices and one more point.
A fully labeled n-string is a Kuhn simplex, and the affine zero of
g(x) - x over it, clamped into the cube, is evaluated once and kept when
its residual is strictly below the best vertex's (Kuhn 1968; Saigal
1977).  Near a fixed point where g is smooth and I - Dg invertible, its
residual falls like O(1/m^2), against the vertices' O(1/m).  The boxes
and secant points of a solve share one table of images, so the witness
costs at most the secant point's one evaluation, plus one for each
certificate vertex whose label the cube's boundary rules forced (the
origin, a point on a top face), which no labelling evaluated.
"""

from __future__ import annotations

import math
from operator import mul, sub

from .grid import GridSpec, Record, StringK, check_size, vertices
from .labeling import Labeling, MapFn
from .search import DEFAULT_BUDGET, LabelingInvalid, exhaustive_fully_labeled, path_follow

ENGINE_PATH = "path"
ENGINE_ORACLE = "oracle"

MAX_M = 2 ** 52  # (lo + c) / m stays exact in binary64 up to here
DEFAULT_TOL = 1e-6

# After a residual r the next grid has about 1/(JUMP*r) cells per axis (see
# ``solve``).  Solving to 1e-6, box bound included, CPython 3.11, evals:
#   rule      recipe family  worst map  resolutions  refine seed 1  dottie m
#   double    22,411         4,949      844          298            2, 4, ..., 256
#   JUMP = 1  14,975         2,988      434          306            2, 64, 65536
#   JUMP = 2  14,776         3,002      475          211            2, 32, 8192
#   JUMP = 4  14,413         2,996      509          205            2, 16, 2048
# JUMP = 1 costs more than doubling on refine; JUMP = 4 is cheapest on both.
JUMP = 4


class ConfigInvalid(ValueError):
    pass


class SolveConfig(Record):
    """The resolutions are powers of two from m = 2 up to ``max_m``, each
    chosen from the last residual (see ``solve``); ``budget`` caps the
    strings the oracle enumerates in one box (oracle engine only)."""

    __slots__ = ("max_m", "tol", "engine", "budget")
    def __init__(self, max_m: int = MAX_M, tol: float = DEFAULT_TOL, engine: str = ENGINE_PATH,
                 budget: int = DEFAULT_BUDGET) -> None:
        super().__init__(max_m, tol, engine, budget)

    def __post_init__(self) -> None:
        check_size("max_m", self.max_m, 2, ConfigInvalid)
        check_size("budget", self.budget, 1, ConfigInvalid)
        if self.max_m > MAX_M:
            raise ConfigInvalid(f"max_m must be <= 2^52, got {self.max_m}")
        if isinstance(self.tol, bool) or not isinstance(self.tol, (int, float)):
            raise ConfigInvalid(f"tol must be a number, got {self.tol!r}")
        if not self.tol > 0:
            raise ConfigInvalid(f"tol must be positive, got {self.tol}")
        if self.engine not in (ENGINE_PATH, ENGINE_ORACLE):
            raise ConfigInvalid(f"engine must be 'path' or 'oracle', got {self.engine!r}")


class Certificate(Record):
    """A fully labeled n-string at resolution m, with its vertex labels."""

    __slots__ = ("m", "string", "labels")


class ResolutionRecord(Record):
    """One resolution of a solve: ``diameter`` is sqrt(n)/m, the certificate string's
    diameter; ``evals`` the fresh map evaluations at this resolution; ``boxes`` the boxes
    searched at this resolution, of which the last is kept."""

    __slots__ = ("m", "residual", "diameter", "evals", "boxes")


class Resolution(Record):
    """One resolution's certificate, its witness ``z`` and its ``record``: the
    state the next resolution of a solve restarts from (see ``solve_at``)."""

    __slots__ = ("certificate", "z", "record")


class SolveReport(Record):
    __slots__ = ("n", "z", "residual", "m_final", "converged", "certificate", "history")


def residual(g: MapFn, p) -> float:
    """Sup-norm distance ||g(p) - p||_inf, with g clamped into the cube."""
    pt = tuple(float(c) for c in p)
    return max(abs(qi - pi) for qi, pi in zip(g(pt), pt))


def select_witness(g: MapFn, images: dict, points: list) -> tuple[tuple[float, ...], float]:
    """The witness of the simplex with vertices ``points`` and its residual.

    Every image is read from the table ``images``, from the real point x
    to g(x), or evaluated and stored there.  The best vertex (ties go to
    the earlier one) is replaced, unless its residual is 0, by the secant
    point when that is strictly better: the weights lambda with
    sum_i lambda_i (g(v_i) - v_i) = 0 and sum_i lambda_i = 1 applied to the
    vertices and clamped into the cube.  A singular system or a weight
    that is not finite keeps the vertex without an evaluation.
    """
    steps = []
    best_p, best_r = None, math.inf
    for p in points:
        if (gp := images.get(p)) is None:
            gp = images[p] = g(p)
        d = list(map(sub, gp, p))
        r = max(map(abs, d))
        steps.append(d)
        if r < best_r:
            best_p, best_r = p, r
    weights = _affine_zero(steps) if best_r > 0 else None
    if weights is None:
        return best_p, best_r
    z = tuple([min(max(sum(map(mul, weights, col)), 0.0), 1.0) for col in zip(*points)])
    if (gz := images.get(z)) is None:
        gz = images[z] = g(z)
    r = max(map(abs, map(sub, gz, z)))
    return (z, r) if r < best_r else (best_p, best_r)


def _affine_zero(steps: list[list[float]]) -> list[float] | None:
    """Weights lambda_0..lambda_n with sum_i lambda_i steps[i] = 0 and
    sum_i lambda_i = 1, for n+1 vectors of length n, by Gaussian
    elimination with partial pivoting (the first largest pivot); None when
    a pivot is 0 or a weight is not finite."""
    size = len(steps)
    rows = [list(col) + [0.0] for col in zip(*steps)]
    rows.append([1.0] * size + [1.0])
    for col in range(size):
        top, big = col, abs(rows[col][col])
        for i in range(col + 1, size):
            if abs(rows[i][col]) > big:
                top, big = i, abs(rows[i][col])
        pivot = rows[top]
        if pivot[col] == 0.0:
            return None
        rows[col], rows[top] = pivot, rows[col]
        for i in range(col + 1, size):
            row = rows[i]
            f = row[col] / pivot[col]
            for j in range(col, size + 1):
                row[j] -= f * pivot[j]
    weights = [0.0] * size
    for i in range(size - 1, -1, -1):
        row = rows[i]
        weights[i] = (row[size] - sum(map(mul, row[i + 1:size], weights[i + 1:]))) / row[i]
    return weights if all(map(math.isfinite, weights)) else None


def solve_at(g: MapFn, spec: GridSpec, cfg: SolveConfig, prev: Resolution | None = None,
             images: dict | None = None) -> Resolution:
    """One resolution: a fully labeled n-string of ``spec`` and its witness.

    The first resolution (``prev`` None) searches the whole grid.  After
    ``prev``, with witness z, the box of 2 cells per axis centred on
    round(z_i m), clamped into the grid, is searched, and its string, moved
    into grid coordinates, is kept when it is fully labeled in the whole
    grid.  Otherwise the width doubles around the same centre and the box
    is searched again; at width m it is the whole grid.  A box may grow
    only to 2m' cells, for ``prev``'s resolution m': the whole grid that
    doubling m' would search.  One that would grow wider gives the jump up:
    the resolution is made at 2m' instead, from a box of 2 cells around the
    same witness, with a fresh whole-grid labelling.  So a witness beside a
    fixed point that no box around it certifies costs what doubling would,
    not a search of the whole grid jumped to (``1.5*x1^2 + 0.124998``
    jumps from m = 2 to 2^17).  The engine decides only how a box is
    searched: the path engine walks it, the oracle enumerates its n-strings
    and takes the first fully labeled one.  Each box's string is labelled
    in the whole grid once: those labels decide whether it is fully labeled
    and are the certificate's, and the vertices formed for them give the
    witness its real points.  Every labelling reads and fills ``images`` (a
    fresh table if None), and so does the witness.  The record counts the
    boxes searched at the certificate's resolution and the map evaluations
    since entry (the table's growth), those of a resolution given up
    included.
    """
    n, m = spec.n, spec.m
    w = m if prev is None else min(2, m)
    images = {} if images is None else images
    known, boxes = len(images), 0
    whole = Labeling(spec, g, images=images)
    full = set(range(n + 1))
    while True:
        boxes += 1
        lo = None if w == m else tuple([min(max(round(x * m) - w // 2, 0), m - w) for x in prev.z])
        lab = whole if lo is None else Labeling(GridSpec(n, w), g, spec, lo, images)
        if cfg.engine == ENGINE_ORACLE:
            found = exhaustive_fully_labeled(lab.spec, lab, n, budget=cfg.budget)
            if not found:
                raise LabelingInvalid(f"no fully labeled string at m={m}")
            s = found[0]
        else:
            s, _ = path_follow(lab.spec, lab)
        # a box string moved by lo >= 0 with lo + w <= m stays a string of the grid
        s = StringK._derived(n, lab.grid_point(s.base), s.perm)
        verts = vertices(s)
        labels = [whole.label(v) for v in verts]
        if set(labels) == full:
            break
        w = min(2 * w, m)
        if prev is not None and w > 2 * prev.certificate.m:  # no wider box at m = 2m', so once only
            spec = GridSpec(n, m := 2 * prev.certificate.m)
            w, boxes, whole = min(2, m), 0, Labeling(spec, g, images=images)

    z, r = select_witness(g, images, [spec.to_real(v) for v in verts])
    return Resolution(Certificate(m, s, tuple(labels)), z,
                      ResolutionRecord(m, r, math.sqrt(n) / m, len(images) - known, boxes))


def solve(g: MapFn, cfg: SolveConfig | None = None) -> SolveReport:
    """Refine the grid until a witness meets the residual tolerance.

    After a resolution at m with residual r > tol the next is at
    min(max(2m, 2^ceil(log2(1/(JUMP*r)))), cap), where cap is the largest
    power of two <= max_m; a solve not converged at cap stops there and
    reports its best resolution.  Each resolution after the first restarts
    from the one before, and a jump whose box outgrows 2m cells is made at
    2m instead (see ``solve_at``).  Each box gets a fresh labelling, but all
    share one image table, so no real point is evaluated twice (every point
    of grid m is one of every finer power-of-two grid).  Engine errors
    propagate.
    """
    cfg = cfg or SolveConfig()
    n = g.n
    cap = 1 << (cfg.max_m.bit_length() - 1)
    history: list[ResolutionRecord] = []
    m, prev, images, best = 2, None, {}, None
    while True:
        prev = solve_at(g, GridSpec(n, m), cfg, prev, images)
        r = prev.record.residual
        history.append(prev.record)
        if best is None or r < best.record.residual:  # a converged r is below every earlier one
            best = prev
        if r <= cfg.tol or prev.record.m == cap:
            break
        # 0 < tol < r <= 1, so the exponent is finite
        m = min(max(2 * prev.record.m, 1 << max(math.ceil(-math.log2(JUMP * r)), 0)), cap)

    r = best.record.residual
    return SolveReport(n, best.z, r, best.record.m, r <= cfg.tol, best.certificate, tuple(history))
