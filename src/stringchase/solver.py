"""Grid refinement loop: fully labeled strings to approximate fixed points.

At each resolution m a fully labeled n-string is located; its vertices
sandwich a fixed point componentwise, and the string's diameter sqrt(n)/m
shrinks as m grows.  The loop stops when the best vertex's residual
||g(z) - z||_inf reaches the tolerance, which is the computable surrogate
for exact fixedness (it is 0 exactly at true fixed points).  Residuals are
not promised to fall monotonically between resolutions, only the diameter
is; on a blown resolution budget the best witness seen so far is returned
with converged=False.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grid import GridSpec, StringK, vertices
from .labeling import Labeling, MapFn, labels_of
from .search import DEFAULT_BUDGET, LabelingInvalid, exhaustive_fully_labeled, path_follow

ENGINE_PATH = "path"
ENGINE_ORACLE = "oracle"


class ConfigInvalid(ValueError):
    pass


@dataclass(frozen=True)
class SolveConfig:
    initial_m: int = 2
    growth: int = 2
    max_m: int = 2 ** 16
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


@dataclass(frozen=True)
class SolveReport:
    n: int
    z: tuple[float, ...]
    residual: float
    m_final: int
    converged: bool
    certificate: Certificate
    history: tuple[ResolutionRecord, ...]


def residual(g: MapFn, p) -> float:
    """Sup-norm distance ||g(p) - p||_inf, with g clamped into the cube."""
    pt = tuple(float(c) for c in p)
    q = g(pt)
    return max(abs(qi - pi) for qi, pi in zip(q, pt))


def select_witness(g: MapFn, spec: GridSpec, s: StringK) -> tuple[tuple[float, ...], float]:
    """The vertex of ``s`` (as a real point) with the smallest residual, and
    that residual; ties go to the earlier vertex."""
    best_p = None
    best_r = math.inf
    for v in vertices(s):
        p = spec.to_real(v)
        r = residual(g, p)
        if r < best_r:
            best_p, best_r = p, r
    return best_p, best_r


def solve(g: MapFn, cfg: SolveConfig | None = None) -> SolveReport:
    """Refine the grid until a witness meets the residual tolerance.

    Each resolution gets a fresh labeling (cache keys depend on m, and
    points of successive grids only partially coincide).  The chosen
    engine locates a fully labeled n-string; the best vertex becomes the
    witness.  A resolution's evals are its labelling evaluations plus one
    per certificate vertex for the witness.  Engine errors propagate.
    """
    cfg = cfg or SolveConfig()
    n = g.n
    history: list[ResolutionRecord] = []
    best: tuple[float, tuple[float, ...], Certificate] | None = None

    m = cfg.initial_m
    while m <= cfg.max_m:
        spec = GridSpec(n, m)
        lab = Labeling(spec, g)

        if cfg.engine == ENGINE_ORACLE:
            found = exhaustive_fully_labeled(spec, lab, n, budget=cfg.budget)
            if not found:
                raise LabelingInvalid(f"no fully labeled string at m={m}")
            cert_string = found[0]
        else:
            cert_string, _ = path_follow(spec, lab)

        cert = Certificate(m, cert_string, tuple(labels_of(lab, cert_string)))
        z, r = select_witness(g, spec, cert_string)
        history.append(ResolutionRecord(m, r, math.sqrt(n) / m, lab.evals + n + 1))

        if best is None or r < best[0]:
            best = (r, z, cert)
        if r <= cfg.tol:
            return SolveReport(n, z, r, m, True, cert, tuple(history))
        m *= cfg.growth

    r, z, cert = best
    return SolveReport(n, z, r, cert.m, False, cert, tuple(history))
