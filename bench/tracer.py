"""Counting and span tracing of stringchase, installed from outside.

The program is not edited: each layer's entry points are replaced, for the
duration of a pass, by wrappers that count calls or record spans.  Every
entry point is patched where the consuming module looks it up (for
example ``stringchase.search.pivot``, not only ``stringchase.grid.pivot``),
and methods are patched on their class.

A span is (name, start, end, parent).  Spans are folded into per-name
totals as they close instead of being stored one by one: a parity task
opens about a million of them.  A span's self time is its duration minus
the time covered by its child spans, so the self times of all spans plus
the harness's own time add up to the traced wall time.
"""

from __future__ import annotations

import dataclasses
import time

# Layer of each span name is the part before the first dot.
LAYERS = ("functions", "labeling", "grid", "search", "solver", "cli")


class Patches:
    """Attribute replacements that are undone together."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        if not hasattr(owner, attr):
            raise AttributeError(f"{owner!r} has no attribute {attr!r} to patch")
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _walk_moves(trace) -> tuple[int, int, int]:
    """(pivots, lifts, descents) between consecutive steps of a PathTrace."""
    pivots = lifts = descents = 0
    for a, b in zip(trace.steps, trace.steps[1:]):
        if b.level > a.level:
            lifts += 1
        elif b.level < a.level:
            descents += 1
        else:
            pivots += 1
    return pivots, lifts, descents


class Counters:
    """Map evaluations and walk steps, with one cheap wrapper each.

    Used on the untimed first pass, which also produces the outputs that
    are checked, so the timed passes run the program unpatched.
    """

    def __init__(self, sc):
        self.evals = 0
        self.walk_steps = 0
        self._patches = Patches()
        self._sc = sc

    def _count_evals(self, fn):
        def counted(p):
            self.evals += 1
            return fn(p)
        return counted

    def _count_steps(self, follow):
        def counted(spec, lab):
            result = follow(spec, lab)
            self.walk_steps += len(result[1].steps)
            return result
        return counted

    def __enter__(self):
        sc, p = self._sc, self._patches
        _wrap_map_sources(sc, p, self._count_evals)
        p.set(sc.cli, "path_follow", self._count_steps(sc.cli.path_follow))
        p.set(sc.solver, "path_follow", self._count_steps(sc.solver.path_follow))
        return self

    def __exit__(self, *exc):
        self._patches.undo()


def _wrap_map_sources(sc, patches: Patches, wrap_fn) -> None:
    """Wrap the raw evaluator of every map the CLI resolves."""
    builtin = sc.cli.builtin

    def traced_builtin(name):
        g = builtin(name)
        return dataclasses.replace(g, fn=wrap_fn(g.fn))

    patches.set(sc.cli, "builtin", traced_builtin)
    as_map_fn = sc.functions.MapSpec.as_map_fn

    def traced_as_map_fn(spec, *args, **kwargs):
        g = as_map_fn(spec, *args, **kwargs)
        return dataclasses.replace(g, fn=wrap_fn(g.fn))

    patches.set(sc.functions.MapSpec, "as_map_fn", traced_as_map_fn)


class Tracer:
    """Span recorder for one traced pass, patched into the program."""

    def __init__(self, sc):
        self._sc = sc
        self._patches = Patches()
        self._clock = time.perf_counter
        # name -> [calls, total seconds, seconds covered by child spans]
        self.spans: dict[str, list] = {}
        self._stack: list[list] = []  # open spans: [child seconds, name]
        self.hits = 0
        self.cached_points = 0
        self.witness_evals = 0
        self.walk_steps = 0
        self.moves = [0, 0, 0]  # pivots, lifts, descents
        self.strings_enumerated = 0
        self.resolutions = 0
        self.solve_evals = 0
        self.final_evals = 0
        self._resolution_marks: list[int] | None = None

    # -- span primitives ---------------------------------------------------

    def _record(self, name: str) -> list:
        return self.spans.setdefault(name, [0, 0.0, 0.0])

    def span(self, name: str, fn):
        """Wrap ``fn`` so that each call is a span named ``name``."""
        rec = self._record(name)
        stack, clock = self._stack, self._clock

        def spanned(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[0]
                stack[-1][0] += dt

        return spanned

    def iteration_span(self, name: str, gen_fn):
        """Wrap a generator function so that each ``next`` is a span."""
        rec = self._record(name)
        stack, clock = self._stack, self._clock
        tracer = self

        def spanned(*args, **kwargs):
            it = gen_fn(*args, **kwargs)
            while True:
                frame = [0.0, name]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stack.pop()
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += frame[0]
                    stack[-1][0] += dt
                tracer.strings_enumerated += 1
                yield item

        return spanned

    def outermost_span(self, owner, attr: str, name: str):
        """Span only the outermost call of a recursive module function.

        While the outermost call runs, the module global is the original
        function again, so the recursion inside pays no wrapper cost.
        """
        original = getattr(owner, attr)
        inner = self.span(name, original)

        def outermost(*args, **kwargs):
            setattr(owner, attr, original)
            try:
                return inner(*args, **kwargs)
            finally:
                setattr(owner, attr, outermost)

        return outermost

    # -- the layers' entry points ------------------------------------------

    def __enter__(self):
        sc, p = self._sc, self._patches
        cli, search, solver = sc.cli, sc.search, sc.solver
        evals = self._record("functions.eval")

        # functions: parsing, builtin lookup, raw evaluation of the map
        p.set(cli, "parse", self.span("functions.parse", cli.parse))
        _wrap_map_sources(sc, p, lambda fn: self.span("functions.eval", fn))

        # labeling: the clamp around the evaluator, and the cached label
        p.set(sc.labeling.MapFn, "__call__",
              self.span("labeling.clamp", self._clamp(sc.labeling.MapFn.__call__)))
        p.set(sc.labeling.Labeling, "label",
              self.span("labeling.label", self._label(sc.labeling.Labeling.label, evals)))

        # grid: string validation, moves, enumeration
        p.set(sc.grid.StringK, "__post_init__",
              self.span("grid.validate", sc.grid.StringK.__post_init__))
        p.set(search, "pivot", self.span("grid.pivot", search.pivot))
        p.set(search, "lift", self.span("grid.lift", search.lift))
        p.set(search, "enumerate_strings",
              self.iteration_span("grid.enumerate", search.enumerate_strings))

        # search: door counting, the walk, the parity check
        for attr in ("count_fully_labeled_faces", "is_fully_labeled"):
            p.set(search, attr, self.span("search.doors", getattr(search, attr)))
        follow = self.span("search.path_follow", self._walk(search.path_follow, evals))
        p.set(cli, "path_follow", follow)
        p.set(solver, "path_follow", follow)
        p.set(cli, "parity_check", self.span("search.parity_check", cli.parity_check))

        # solver: the refinement loop and witness selection
        p.set(cli, "solve", self.span("solver.solve", self._solve(cli.solve, evals)))
        p.set(solver, "select_witness", self.span("solver.witness", solver.select_witness))

        # cli: the command itself and serialization
        p.set(cli, "main", self.span("cli.main", cli.main))
        p.set(cli, "dump_json", self.outermost_span(cli, "dump_json", "cli.serialize"))
        return self

    def __exit__(self, *exc):
        self._patches.undo()

    # The helpers below do their bookkeeping inside the span they belong to.

    def _clamp(self, call):
        stack = self._stack
        tracer = self

        def clamp(g, p):
            # stack[-1] is this clamp's span; stack[-2] is whoever called it
            if stack[-2][1] != "labeling.label":
                tracer.witness_evals += 1
            return call(g, p)

        return clamp

    def _label(self, label, evals: list):
        tracer = self

        def counted(lab, x):
            before = evals[0]
            result = label(lab, x)
            if evals[0] == before:
                tracer.hits += 1
            elif lab.evals > tracer.cached_points:
                tracer.cached_points = lab.evals
            return result

        return counted

    def _walk(self, follow, evals: list):
        tracer = self

        def counted(spec, lab):
            if tracer._resolution_marks is not None:
                tracer._resolution_marks.append(evals[0])
            result = follow(spec, lab)
            tracer.walk_steps += len(result[1].steps)
            for i, count in enumerate(_walk_moves(result[1])):
                tracer.moves[i] += count
            return result

        return counted

    def _solve(self, solve, evals: list):
        tracer = self

        def counted(g, cfg=None):
            start = evals[0]
            tracer._resolution_marks = marks = []
            try:
                report = solve(g, cfg)
            finally:
                tracer._resolution_marks = None
            tracer.resolutions += len(report.history)
            tracer.solve_evals += evals[0] - start
            if marks:
                tracer.final_evals += evals[0] - marks[-1]
            return report

        return counted

    # -- reading the result ------------------------------------------------

    def root(self):
        """Open the harness's root span; call before the traced pass."""
        self._stack.append([0.0, "bench"])

    def close_root(self, wall: float) -> float:
        """Close the root span; return the harness's own (untraced) time."""
        frame = self._stack.pop()
        if self._stack:
            raise RuntimeError("spans left open after the traced pass")
        return wall - frame[0]

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0])[0]

    def self_time(self, name: str) -> float:
        rec = self.spans.get(name)
        return rec[1] - rec[2] if rec else 0.0

    def total_time(self, name: str) -> float:
        rec = self.spans.get(name)
        return rec[1] if rec else 0.0

    def layer_self_times(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name in self.spans:
            out[name.split(".", 1)[0]] += self.self_time(name)
        return out
