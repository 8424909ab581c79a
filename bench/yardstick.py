"""Timing in seconds at a reference machine speed.

On a machine shared with other tenants, single-thread speed drops by up to
half for seconds to minutes at a time, so measured seconds move with the
neighbours' load rather than with the program.  The yardstick is a short
fixed pure-Python loop (the probe), timed right before and right after each
measured call.  The call's measured seconds are scaled by PROBE_REF_S over
the mean of those two probe times: seconds at the speed at which the probe
takes PROBE_REF_S.  PROBE_REF_S is the probe's time on the benchmark's home
machine (a 2-vCPU VM, CPython 3.11.7) when nothing else slows it down, so
there reference seconds read as quiet-machine seconds.

The probe slows down somewhat more than the program does: on the home
machine, a run under heavy load reads up to about an eighth lower than a
run on a quiet machine, where measured seconds differ by up to a half.
"""

from __future__ import annotations

import time

PROBE_REF_S = 330e-6


def probe() -> float:
    """Seconds taken by a fixed loop of dict, tuple and float work."""
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0.0
    for i in range(500):
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + 1
        acc += (i * 0.5) % 3.0
        key = tuple(c + 1 for c in key)
    return time.perf_counter() - t0


def reading() -> float:
    """A probe time taken with the probe's code and data already warm.

    The first probe after other code runs up to a fifth slower than the
    next one, cold caches and branch history being part of what it times.
    """
    probe()
    return probe()


def timed(fn):
    """Call ``fn()``; return (its result, measured seconds, reference seconds)."""
    before = reading()
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    speed = (before + reading()) / 2
    return result, seconds, seconds * PROBE_REF_S / speed
