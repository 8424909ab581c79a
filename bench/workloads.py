"""Seeded task lists for the three benchmark workloads.

Every workload is a list of CLI argument vectors generated from the seed.
Each task carries what the benchmark knows about its map independently of
the program (the exact fixed point and a sup-norm Lipschitz bound, where
known), so that the correctness checks do not trust the program's own
metadata.

The inputs are built so that the seed changes *which* maps run but hardly
the amount of work, because the benchmark is judged on the spread of its
figures across seeds:

* ``walk`` runs every generated centre c together with its mirror 1 - c.
  The walk from the origin towards c and towards 1 - c have lengths that
  add up to an almost constant total.
* ``refine``'s generated maps have their fixed point at z_i = 1/3 + d_i
  (or its mirror 2/3 - d_i) with d_i a multiple of 1/8.  On the dyadic
  grids the solver visits, every coordinate of such a point then sits a
  third of a cell from the nearest corner of its cell, and that corner is a
  vertex of the certificate, so a solve to 1e-4 always stops at m = 4096.
  Without this, the resolution a map stops at, and with it the cost of the
  whole batch, jumps by factors of two from seed to seed.
* ``parity`` fixes (n, m) per task; the cost of an exhaustive parity check
  depends on the number of strings, not on the map.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from decimal import Decimal


@dataclass(frozen=True)
class Task:
    """One CLI invocation and, for solves, what is known about its map."""

    argv: tuple[str, ...]
    fixed_point: tuple[float, ...] | None = None  # exact, when known
    lipschitz: float | None = None  # sup-norm bound, when known

    @property
    def command(self) -> str:
        return self.argv[0]

    def option(self, flag: str) -> str | None:
        if flag in self.argv:
            return self.argv[self.argv.index(flag) + 1]
        return None


@dataclass(frozen=True)
class Workload:
    name: str
    tasks: tuple[Task, ...]
    min_passes: int  # timed passes made even when --seconds has run out


def _num(x: float) -> str:
    """A nonnegative float as grammar-compatible decimal text (no exponent)."""
    text = repr(float(x))
    if "e" in text:
        text = format(Decimal(text), "f")
    return text


# Smooth unary pieces for generated maps: (grammar template, value,
# bound on |derivative| over [0,1]).
_PIECES = {
    "sin": ("sin({})", math.sin, 1.0),
    "cos": ("cos({})", math.cos, 1.0),
    "expneg": ("expneg({})", lambda t: math.exp(-t), 1.0),
    "square": ("({})^2", lambda t: t * t, 2.0),
}
_SLOPES = (0.02, 0.03, 0.04)
_OFFSETS = (0.0, 0.125, 0.25, 0.375, 0.5)


def contraction_pair(rng: random.Random, offsets: list[float]) -> tuple[Task, Task]:
    """A smooth contraction with fixed point z_i = 1/3 + offsets[i], and its
    mirror.

    Component i is ``z_i + s*f(x_j) + t*h(x_k) - (s*f(z_j) + t*h(z_k))``,
    so z is its fixed point; the mirror x -> 1 - g(1 - x) has fixed point
    1 - z.  The Lipschitz bound is the largest row sum of s*|f'| + t*|h'|.
    """
    n = len(offsets)
    z = [1.0 / 3.0 + d for d in offsets]
    forward, mirror = [], []
    lipschitz = 0.0
    for i in range(n):
        row = 0.0
        terms = []
        for _ in range(2):
            piece = rng.choice(sorted(_PIECES))
            j = rng.randrange(n)
            slope = rng.choice(_SLOPES)
            terms.append((piece, j, slope))
            row += slope * _PIECES[piece][2]
        lipschitz = max(lipschitz, row)
        shift = sum(s * _PIECES[p][1](z[j]) for p, j, s in terms)
        fwd = " + ".join(f"{s}*{_PIECES[p][0].format(f'x{j + 1}')}" for p, j, s in terms)
        forward.append(f"{_num(z[i])} + {fwd} - {_num(shift)}")
        mir = " - ".join(f"{s}*{_PIECES[p][0].format(f'1-x{j + 1}')}" for p, j, s in terms)
        mirror.append(f"{_num(1.0 - z[i] + shift)} - {mir}")
    tol = ("--tol", "1e-4")
    a = Task(("solve", "--map", "; ".join(forward), "--n", str(n)) + tol,
             tuple(z), lipschitz)
    b = Task(("solve", "--map", "; ".join(mirror), "--n", str(n)) + tol,
             tuple(1.0 - zi for zi in z), lipschitz)
    return a, b


POLY3D = "0.5*x1+0.3*x2^2; cos(x1*x3); expneg(x2)"
ABS_MAX2 = "max2(0.2, 0.5*x2); 0.3 + 0.4*abs(x1 - 0.5)"


def refine(seed: int, quick: bool = False) -> Workload:
    """``solve`` through the path engine with the default growth and initial m.

    The default-tolerance dottie solve does not converge at the seed commit
    (exit 2); it stays in on purpose so that the defect shows as a failed
    task.
    """
    rng = random.Random(f"refine-{seed}")
    tasks = [Task(("solve", "--builtin", "dottie"),
                  (0.7390851332151607,), math.sin(1.0))]
    if not quick:
        tasks += [
            Task(("solve", "--map", POLY3D, "--n", "3", "--tol", "1e-4")),
            Task(("solve", "--map", "1-x2; x3; x1", "--n", "3", "--tol", "1e-3"),
                 (0.5, 0.5, 0.5)),
            Task(("solve", "--map", ABS_MAX2, "--n", "2", "--tol", "1e-4"),
                 (5 / 24, 5 / 12), 0.5),
        ]
    # How far a walk goes, and so what a solve costs, follows the fixed
    # point; every seed draws the same offsets, in its own order.
    batches = [[d] for d in _OFFSETS * 2] + [[0.125, 0.375], [0.0, 0.25, 0.5]]
    if quick:
        batches = [[0.25]]
    for offsets in batches:
        rng.shuffle(offsets)
        tasks.extend(contraction_pair(rng, offsets))
    return Workload("refine", tuple(tasks), min_passes=1 if quick else 4)


# Walk resolutions, sized for about 1-3k steps per walk.
_WALK_M = {4: 256, 5: 224, 6: 160, 7: 128, 8: 96}


def walk(seed: int, quick: bool = False) -> Workload:
    """``trace`` of ``avg-`` maps at n = 4..8, each centre with its mirror."""
    rng = random.Random(f"walk-{seed}")
    sizes = {4: 16, 6: 8} if quick else _WALK_M
    pairs = 1 if quick else 4
    tasks = []
    for n, m in sizes.items():
        for _ in range(pairs):
            c = [rng.randrange(200, 801) / 1000 for _ in range(n)]
            for centre in (c, [round(1.0 - ci, 3) for ci in c]):
                name = "avg-" + ",".join(_num(ci) for ci in centre)
                tasks.append(Task(("trace", "--builtin", name, "--m", str(m))))
    return Workload("walk", tuple(tasks), min_passes=1 if quick else 5)


# Parity resolutions: about 1.6e4 strings per task over levels 1..n.
_PARITY_M = {2: 90, 3: 14, 4: 5}


def parity(seed: int, quick: bool = False) -> Workload:
    """``verify-parity`` on builtin and expression maps at n = 2..4."""
    rng = random.Random(f"parity-{seed}")
    sizes = {2: 12, 3: 4} if quick else _PARITY_M
    per_size = 1 if quick else 8
    tasks = []
    for n, m in sizes.items():
        for i in range(per_size):
            m_args = ("--m", str(m))
            kind = i % 4
            if kind == 0:
                c = tuple(rng.randrange(1, 1000) / 1000 for _ in range(n))
                name = "avg-" + ",".join(_num(ci) for ci in c)
                tasks.append(Task(("verify-parity", "--builtin", name) + m_args))
            elif kind == 1:
                c = tuple(rng.randrange(0, 1001) / 1000 for _ in range(n))
                name = "const-" + ",".join(_num(ci) for ci in c)
                tasks.append(Task(("verify-parity", "--builtin", name) + m_args))
            else:
                offsets = [rng.choice(_OFFSETS) for _ in range(n)]
                text = contraction_pair(rng, offsets)[kind - 2].option("--map")
                tasks.append(Task(("verify-parity", "--map", text, "--n", str(n)) + m_args))
    return Workload("parity", tuple(tasks), min_passes=1 if quick else 3)


WORKLOADS = {"refine": refine, "walk": walk, "parity": parity}
