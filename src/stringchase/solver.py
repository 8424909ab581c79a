"""Grid refinement loop: fully labeled strings to approximate fixed points.

The resolutions are m = 2, 4, 8, ... up to max_m.  At each one a fully
labeled n-string is located; its vertices sandwich a fixed point
componentwise, and the string's diameter sqrt(n)/m shrinks as m grows.
The loop stops when the best vertex's residual ||g(z) - z||_inf reaches
the tolerance, which is the computable surrogate for exact fixedness (it
is 0 exactly at true fixed points).  Residuals are not promised to fall
monotonically between resolutions, only the diameter is; past max_m the
best witness seen so far is returned with converged=False.

The first resolution searches the whole grid.  Each later one restarts the
search in a box of BOX_WIDTH cells per axis around the previous witness
(Merrill's restart), with the box's own top faces forced into the labels so
that the walk's boundary rules hold inside it.  The box's certificate is
kept only when every vertex's box label is its label in the whole grid;
then it is a fully labeled string of the whole grid.  Otherwise the box
doubles in width around the same centre and is searched again, so the
whole grid is searched only as the last doubling, where every label is
genuine.  Both engines search the same boxes.
The solver's labellings keep g(x) next to each label, so the witness costs
no map evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grid import GridPoint, GridSpec, StringK, vertices
from .labeling import Labeling, MapFn, induced_label, labels_of
from .search import DEFAULT_BUDGET, LabelingInvalid, exhaustive_fully_labeled, path_follow

ENGINE_PATH = "path"
ENGINE_ORACLE = "oracle"

BOX_WIDTH = 8  # cells per axis of the box walked after the first resolution
MAX_M = 2 ** 52  # (lo + c) / m stays exact in binary64 up to here


class ConfigInvalid(ValueError):
    pass


@dataclass(frozen=True)
class SolveConfig:
    """The resolutions are always m = 2, 4, 8, ... up to ``max_m``;
    ``budget`` caps the strings the oracle enumerates in one box."""

    max_m: int = MAX_M
    tol: float = 1e-6
    engine: str = ENGINE_PATH
    budget: int = DEFAULT_BUDGET  # oracle engine only

    def __post_init__(self) -> None:
        if self.max_m < 2:
            raise ConfigInvalid(f"max_m must be >= 2, got {self.max_m}")
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
    fallback: bool = False  # the first box's certificate was not genuine


@dataclass(frozen=True)
class SolveReport:
    n: int
    z: tuple[float, ...]
    residual: float
    m_final: int
    converged: bool
    certificate: Certificate
    history: tuple[ResolutionRecord, ...]


def is_genuine(lab: Labeling, c: GridPoint) -> bool:
    """True iff the box label of ``c`` is its induced label in the grid,
    from the image ``lab`` kept when it labelled ``c``."""
    p = lab.grid_point(c)
    return lab.label(c) == induced_label(p, lab.grid.m, lab.grid.to_real(p), lab.images[c])


def residual(g: MapFn, p) -> float:
    """Sup-norm distance ||g(p) - p||_inf, with g clamped into the cube."""
    pt = tuple(float(c) for c in p)
    q = g(pt)
    return max(abs(qi - pi) for qi, pi in zip(q, pt))


def select_witness(lab: Labeling, s: StringK) -> tuple[tuple[float, ...], float]:
    """The vertex of ``s`` (as a real point of the grid) with the smallest
    residual, and that residual; ties go to the earlier vertex.  The
    residuals come from the images ``lab`` keeps for the points it labels."""
    best_p = None
    best_r = math.inf
    for c in vertices(s):
        lab.label(c)
        p = lab.grid.to_real(lab.grid_point(c))
        r = max(abs(qi - pi) for qi, pi in zip(lab.images[c], p))
        if r < best_r:
            best_p, best_r = p, r
    return best_p, best_r


def solve_at(
    g: MapFn, spec: GridSpec, cfg: SolveConfig, near: tuple[float, ...] | None = None
) -> tuple[Certificate, tuple[float, ...], ResolutionRecord]:
    """One resolution: a fully labeled n-string of ``spec`` and its witness.

    Given the previous witness ``near``, the box of BOX_WIDTH cells per
    axis around it, clamped into the grid, is searched, and its certificate
    is kept when all its labels are genuine.  Otherwise the width doubles
    around the same centre and the box is searched again.  At width m the
    box is the whole grid, where every label is genuine; without ``near``
    that is the first box.  The engine decides only how a box is searched:
    the path engine walks it, the oracle enumerates its n-strings and takes
    the first fully labeled one.  The record's evals count every map
    evaluation of the resolution, all searches included.
    """
    n, m = spec.n, spec.m
    w = m if near is None else min(BOX_WIDTH, m)
    spent, fallback = 0, False
    while True:
        lo = None if w == m else tuple(min(max(round(zi * m) - w // 2, 0), m - w) for zi in near)
        lab = Labeling(GridSpec(n, w), g, spec, lo, keep_images=True)
        if cfg.engine == ENGINE_ORACLE:
            found = exhaustive_fully_labeled(lab.spec, lab, n, budget=cfg.budget)
            if not found:
                raise LabelingInvalid(f"no fully labeled string at m={m}")
            s = found[0]
        else:
            s, _ = path_follow(lab.spec, lab)
        spent += lab.evals
        if w == m or all(is_genuine(lab, v) for v in vertices(s)):
            break
        w, fallback = min(2 * w, m), True

    cert = Certificate(m, StringK(n, lab.grid_point(s.base), s.perm), tuple(labels_of(lab, s)))
    z, r = select_witness(lab, s)
    return cert, z, ResolutionRecord(m, r, math.sqrt(n) / m, spent, fallback)


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

    m = 2
    while m <= cfg.max_m:
        cert, z, record = solve_at(g, GridSpec(n, m), cfg, z)
        history.append(record)
        r = record.residual
        if best is None or r < best[0]:
            best = (r, z, cert)
        if r <= cfg.tol:
            return SolveReport(n, z, r, m, True, cert, tuple(history))
        m *= 2

    r, z, cert = best
    return SolveReport(n, z, r, cert.m, False, cert, tuple(history))
