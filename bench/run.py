"""Benchmark of stringchase: one workload, one seed, one process, one thread.

Run from the repository root::

    python3 bench/run.py --workload refine|walk|parity --seed N --seconds S --trace 0|1

The benchmark imports the library from ``src/`` and feeds it only
generated argument vectors, through ``stringchase.cli.main`` in-process
with stdout captured: a closed loop with one caller, each task started
after the previous one finished.  A run is

1. set-up: import ``stringchase`` and resolve every map of the workload,
   timed several times before the first task and again after each timed
   pass (``setup_s`` is the median);
2. a first pass over the task list with map evaluations and walk steps
   counted, whose every output is checked for correctness (not timed);
3. timed passes over the task list, unpatched, for ``--seconds`` seconds
   and at least the workload's minimum number of passes; every output must
   repeat the first pass's byte for byte;
4. with ``--trace 1``, half the time untraced and half traced: the layers'
   entry points are wrapped from outside (see tracer.py) and the per-layer
   metrics and the tracing overhead are reported instead.

Times are in reference seconds (see yardstick.py): measured seconds scaled
to a fixed machine speed, so that other tenants' load on a shared machine
does not move them.  A task's time is the median over the timed passes;
the measured seconds are printed alongside.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits 2 without a result when the library's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from checks import check, resolve_map
from tracer import LAYERS, Counters, Tracer
from workloads import WORKLOADS
from yardstick import timed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_FIRST = 5  # set-ups timed before the first task
SETUP_PER_PASS = 2  # and after each timed pass
TAIL_BEYOND = 10  # samples beyond the reported tail percentile

# (name, unit) in the order printed; the JSON result carries those that
# BENCHMARK.json lists.
END_TO_END = (
    ("wall_s", "s"),
    ("task_p50_ms", "ms"),
    ("task_tail_ms", "ms"),
    ("map_evals", "count"),
    ("walk_steps", "count"),
    ("failed_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Zero on some workloads (no walk in parity, no failures in walk), so they
# are printed but not gated; attempted/failed carry the failure count.
UNGATED = ("walk_steps", "failed_frac")

PER_LAYER = (
    ("functions.evals", "count"),
    ("functions.eval_us", "us"),
    ("functions.parse_ms", "ms"),
    ("labeling.label_calls", "count"),
    ("labeling.hit_ratio", "ratio"),
    ("labeling.label_us", "us"),
    ("labeling.clamp_us", "us"),
    ("labeling.cached_points", "count"),
    ("grid.strings_built", "count"),
    ("grid.validate_us", "us"),
    ("grid.pivot_calls", "count"),
    ("grid.pivot_us", "us"),
    ("search.door_calls", "count"),
    ("search.door_us", "us"),
    ("search.walk_steps", "count"),
    ("search.walk_us_per_step", "us"),
    ("search.pivots", "count"),
    ("search.lifts", "count"),
    ("search.descents", "count"),
    ("search.strings_enumerated", "count"),
    ("search.parity_self_s", "s"),
    ("solver.resolutions", "count"),
    ("solver.witness_evals", "count"),
    ("solver.final_share", "ratio"),
    ("solver.self_s", "s"),
    ("cli.serialize_ms", "ms"),
    ("cli.stdout_bytes", "count"),
    ("cli.self_ms", "ms"),
    ("trace.overhead", "ratio"),
)


class Program:
    """The imported package; importing it again times another set-up."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.sc = None
        self.setup_times: list[tuple[float, float]] = []  # measured, reference

    def setup(self) -> None:
        """Import the package afresh and resolve every map of the workload.

        Standard-library modules stay imported, so this times the package
        and the workload's maps only.
        """
        for name in [m for m in sys.modules if m == "stringchase" or m.startswith("stringchase.")]:
            del sys.modules[name]
        gc.collect()

        def load():
            sc = importlib.import_module("stringchase")
            importlib.import_module("stringchase.cli")
            for task in self.tasks:
                resolve_map(sc, task)
            return sc

        self.sc, *seconds = timed(load)
        self.setup_times.append(tuple(seconds))


def run_task(sc, task) -> tuple:
    """(exit code, stdout, error) of one CLI invocation, stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return sc.cli.main(list(task.argv)), out.getvalue(), None
    except Exception as exc:  # a crashing task is a failed task; the run goes on
        return None, out.getvalue(), repr(exc)


def run_pass(sc, tasks, yardstick: bool = False, keep_stdout: bool = False) -> list[tuple]:
    """Run every task once.

    Returns (exit code, stdout digest, stdout bytes, measured seconds,
    reference seconds, error, stdout) per task.  Reference seconds only
    with ``yardstick``; stdout itself only with ``keep_stdout``, so that the
    timed passes' outputs do not pile up in the benchmark's memory.
    """
    gc.collect()
    results = []
    for task in tasks:
        if yardstick:
            (code, text, error), dt, ref = timed(lambda: run_task(sc, task))
        else:
            t0 = time.perf_counter()
            code, text, error = run_task(sc, task)
            dt, ref = time.perf_counter() - t0, None
        data = f"{code}\n{text}".encode()
        results.append((code, hashlib.sha256(data).hexdigest(), len(text.encode()), dt, ref,
                        error, text if keep_stdout else None))
    return results


def timed_passes(program: Program, seconds: float, min_passes: int, setups: int = 0,
                 tracers: list | None = None) -> list:
    """Repeat passes until ``seconds`` have passed and ``min_passes`` are done.

    Untraced passes are timed with the yardstick, and ``setups`` more
    set-ups are timed after each, so that set-up is sampled across the run
    and not in one stretch of it.  With ``tracers``, each pass runs under a
    fresh Tracer instead, appended to it together with the pass's wall time
    and the harness's own share of it.
    """
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        if tracers is None:
            passes.append(run_pass(program.sc, program.tasks, yardstick=True))
        else:
            with Tracer(program.sc) as tracer:
                tracer.root()
                t0 = time.perf_counter()
                passes.append(run_pass(program.sc, program.tasks))
                wall = time.perf_counter() - t0
            tracers.append((tracer, wall, tracer.close_root(wall)))
        for _ in range(setups):
            program.setup()
    return passes


def task_times(passes, column: int, pick=statistics.median) -> list[float]:
    """Each task's time over the passes: the median, by default, of
    measured (column 3) or reference (column 4) seconds."""
    return [pick(p[i][column] for p in passes) for i in range(len(passes[0]))]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile with
    TAIL_BEYOND values beyond it, or the maximum when there are too few."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > 2 * TAIL_BEYOND else len(ordered)
    return rank / len(ordered), ordered[rank - 1]


def per_layer(tracer: Tracer, tasks: int, stdout_bytes: int) -> dict:
    t = tracer

    def per_call(name: str, scale: float) -> float:
        calls = t.calls(name)
        return t.self_time(name) / calls * scale if calls else 0.0

    evals = t.calls("functions.eval")
    labels = t.calls("labeling.label")
    return {
        "functions.evals": evals,
        "functions.eval_us": per_call("functions.eval", 1e6),
        "functions.parse_ms": per_call("functions.parse", 1e3),
        "labeling.label_calls": labels,
        "labeling.hit_ratio": t.hits / labels if labels else 0.0,
        "labeling.label_us": per_call("labeling.label", 1e6),
        "labeling.clamp_us": per_call("labeling.clamp", 1e6),
        "labeling.cached_points": t.cached_points,
        "grid.strings_built": t.calls("grid.validate"),
        "grid.validate_us": per_call("grid.validate", 1e6),
        "grid.pivot_calls": t.calls("grid.pivot"),
        "grid.pivot_us": per_call("grid.pivot", 1e6),
        "search.door_calls": t.calls("search.doors"),
        "search.door_us": per_call("search.doors", 1e6),
        "search.walk_steps": t.walk_steps,
        "search.walk_us_per_step":
            t.self_time("search.path_follow") / t.walk_steps * 1e6 if t.walk_steps else 0.0,
        "search.pivots": t.moves[0],
        "search.lifts": t.moves[1],
        "search.descents": t.moves[2],
        "search.strings_enumerated": t.strings_enumerated,
        "search.parity_self_s": t.self_time("search.parity_check"),
        "solver.resolutions": t.resolutions,
        "solver.witness_evals": t.witness_evals,
        "solver.final_share": t.final_evals / t.solve_evals if t.solve_evals else 0.0,
        "solver.self_s": t.self_time("solver.solve") + t.self_time("solver.witness"),
        "cli.serialize_ms": t.total_time("cli.serialize") / tasks * 1e3,
        "cli.stdout_bytes": stdout_bytes,
        "cli.self_ms": t.self_time("cli.main") / tasks * 1e3,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="small task lists and one timed pass, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "stringchase" / "__init__.py").is_file():
        print(f"error: no stringchase sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload](args.seed, quick=args.quick)
    tasks = workload.tasks
    print(f"# workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} quick={int(args.quick)} tasks={len(tasks)}")

    program = Program(tasks)
    for _ in range(SETUP_FIRST):
        program.setup()
    problems: list[str] = []

    with Counters(program.sc) as counters:
        first = run_pass(program.sc, tasks, keep_stdout=True)
    failed = 0
    for i, (task, (code, _, nbytes, _, _, error, out)) in enumerate(zip(tasks, first)):
        try:
            found = [error] if error else check(program.sc, task, code, out)
        except Exception as exc:  # a malformed payload is a wrong output
            found = [f"check raised {exc!r}"]
        problems += [f"task {i}: {p}" for p in found]
        failed += bool(code != 0 or found)
        print(f"task {i:2d} exit {code} bytes {nbytes:7d}  " + " ".join(task.argv))
    reference = [r[1] for r in first]
    stdout_bytes = sum(r[2] for r in first)
    del first

    if args.trace:
        passes = timed_passes(program, args.seconds / 2, 1)
        traced: list = []
        traced_passes = timed_passes(program, args.seconds / 2, 1, tracers=traced)
    else:
        min_passes = 1 if args.quick else workload.min_passes
        passes = timed_passes(program, args.seconds, min_passes, setups=SETUP_PER_PASS)
        traced_passes = []
    for p in passes + traced_passes:
        for i, (code, sha, _, _, _, error, _) in enumerate(p):
            drift = error or sha != reference[i]
            if drift:
                problems.append(f"task {i}: output differs from the first pass ({error})")
            failed += bool(code != 0 or drift)
    attempted = len(tasks) * (1 + len(passes) + len(traced_passes))

    times = task_times(passes, 4)
    q, tail_value = tail(times)
    e2e = {
        "wall_s": sum(times),
        "task_p50_ms": statistics.median(times) * 1e3,
        "task_tail_ms": tail_value * 1e3,
        "map_evals": counters.evals,
        "walk_steps": counters.walk_steps,
        "failed_frac": failed / attempted,
        "setup_s": statistics.median(ref for _, ref in program.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    measured_wall = sum(task_times(passes, 3))
    measured_setup = statistics.median(raw for raw, _ in program.setup_times)
    print(f"# {len(passes)} timed passes; times are medians in reference seconds (measured: "
          f"wall {measured_wall:.4f} s, set-up {measured_setup:.4f} s); tail is "
          f"p{q * 100:.0f} of {len(times)} tasks; setup is the median of "
          f"{len(program.setup_times)}; {failed} of {attempted} task runs failed")
    for name, unit in END_TO_END:
        print(f"e2e {name:<14} {e2e[name]:.6g} {unit}")

    if not args.trace:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END if name not in UNGATED}
    else:
        layer_values, traced_best = traced_report(
            traced, traced_passes, len(tasks), stdout_bytes, counters, problems)
        untraced = sum(task_times(passes, 3, min))
        overhead = sum(traced_best) / untraced - 1.0
        layer_values["trace.overhead"] = overhead
        print(f"# fastest runs: traced {sum(traced_best):.4f} s vs untraced {untraced:.4f} s "
              f"measured; tracing overhead {overhead:.1%}")
        for name, unit in PER_LAYER:
            print(f"layer {name:<26} {layer_values[name]:.6g} {unit}")
        metrics = {name: {"value": layer_values[name], "unit": unit} for name, unit in PER_LAYER}

    for p in problems:
        print(f"PROBLEM {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_report(traced, traced_passes, tasks: int, stdout_bytes: int, counters,
                  problems: list[str]):
    """Per-layer metrics (medians over the traced passes) and the traced
    per-task best times; checks counts and the self-time sum."""
    rows = []
    for tracer, wall, harness in traced:
        values = per_layer(tracer, tasks, stdout_bytes)
        rows.append(values)
        layers = tracer.layer_self_times()
        gap = sum(layers.values()) + harness - wall
        print("# traced pass {:.4f} s: ".format(wall) + ", ".join(
            f"{name} {layers[name]:.4f}" for name in LAYERS) + f", harness {harness:.4f}")
        if abs(gap) > 1e-6 * wall:
            problems.append(f"layer self times miss the traced wall time by {gap:.3g} s")
        if (values["functions.evals"], values["search.walk_steps"]) != \
                (counters.evals, counters.walk_steps):
            problems.append("traced evals/walk steps differ from the counted first pass")
    counts = {name for name, unit in PER_LAYER if unit == "count"}
    for row in rows[1:]:
        if any(row[name] != rows[0][name] for name in counts):
            problems.append("layer counts differ between traced passes")
    merged = {name: rows[0][name] if name in counts
              else statistics.median(row[name] for row in rows) for name in rows[0]}
    return merged, task_times(traced_passes, 3, min)


if __name__ == "__main__":
    sys.exit(main())
