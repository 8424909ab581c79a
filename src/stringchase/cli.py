"""Command line surface: solve, verify-parity, trace, labels.

Outputs are machine-readable and byte-deterministic: JSON objects use a
fixed key order and floats are printed with 17 significant digits, so the
same invocation always produces identical stdout.  The parity payload and
a record's head are built as dicts and written by ``dump_json``; the trace
and solve payloads, of one fixed shape each, are formatted directly
(``trace_json``, ``solve_json``) into the same bytes.  Exit codes: 0 success
(or converged), 1 usage or evaluation errors, 2 checks failed or not
converged, 3 enumeration budget exceeded, 4 internal error (a walk broke
an invariant that induced labellings guarantee).  Each error is one line
on stderr.

``main(argv)`` returns the exit code and may be called any number of times
in one process.  The argument parser does not depend on argv, so the first
call builds it and later calls reuse it; importing the module builds nothing.
When argv starts with a command's name, the rest of argv is read by that
command's parser alone; any other argv goes through the whole parser.
argparse checks required arguments before it looks for unrecognized ones,
so an argv that fails is read once more by a parser that requires nothing
(built on the first failure), and an unrecognized argument is reported in
place of a missing one.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import os
import re
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .functions import MapParseError, UnknownBuiltin, _quote, builtin, parse
from .grid import GridSpec, check_size
from .labeling import Labeling, MapEvaluationFailed, MapFn
from .search import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    LabelingInvalid,
    ParityReport,
    PathTrace,
    StepLimitExceeded,
    WalkSteps,
    parity_check,
    path_follow,
)
from .solver import DEFAULT_TOL, MAX_M, ConfigInvalid, SolveConfig, SolveReport, solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

BUDGET_ENV = "STRINGCHASE_BUDGET"


class UsageError(Exception):
    pass


# Deterministic JSON: insertion-ordered keys, floats at 17 significant digits.

def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def dump_json(value) -> str:
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    kind = type(value)  # exact types only; strings escaped as json.dumps does
    if kind is int:
        return str(value)
    if kind is float:
        return fmt_float(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is dict:
        inner = ", ".join([f"{encode_basestring_ascii(k)}: {dump_json(v)}"
                           for k, v in value.items()])
        return "{" + inner + "}"
    if kind is list or kind is tuple:
        return "[" + ", ".join([dump_json(v) for v in value]) + "]"
    raise TypeError(f"cannot serialize {kind.__name__}")


def parity_payload(report: ParityReport) -> dict:
    return {"levels": [{"k": lv.k, "S1": lv.s1, "S2": lv.s2, "T1": lv.t1, "T2": lv.t2,
                        "identity_ok": lv.identity_ok, "odd_ok": lv.odd_ok}
                       for lv in report.levels]}


def trace_json(trace: PathTrace) -> str:
    """The trace payload as ``dump_json`` writes it, in one pass over the steps.

    The payload is {"steps": [...], "outcome": ...}, each step
    {"level", "base", "perm", "entry", "exit"}.  Every step has the same
    shape and holds only ints and None, so each is formatted directly
    instead of being built as a dict and walked again.  A walk's trace
    keeps its steps as rows of that shape (``WalkSteps``), which are read
    as they are, so no ``TraceStep`` is built; a hand-built trace's steps
    are turned into rows first.  Most steps keep their predecessor's base
    object (only a pivot through the first or last vertex makes a new one),
    so a base is formatted again only when it is a different object; each
    perm's text is kept by value.
    """
    steps = trace.steps
    if type(steps) is WalkSteps:
        rows = steps.rows
    else:
        rows = [(s.level, s.string.base, s.string.perm, s.entry, s.exit) for s in steps]
    out = []
    base = base_text = None
    perm_texts: dict[tuple[int, ...], str] = {}
    for level, row_base, perm, entry, exit_h in rows:
        if row_base is not base:
            base = row_base
            base_text = str(list(base))
        perm_text = perm_texts.get(perm)
        if perm_text is None:
            perm_text = perm_texts[perm] = str(list(perm))
        out.append('{"level": %d, "base": %s, "perm": %s, "entry": %s, "exit": %s}' % (
            level, base_text, perm_text,
            "null" if entry is None else entry,
            "null" if exit_h is None else exit_h,
        ))
    return '{"steps": [%s], "outcome": %s}' % (
        ", ".join(out), encode_basestring_ascii(trace.outcome))


def solve_json(report: SolveReport) -> str:
    """The solve payload (README, "JSON payloads") as ``dump_json`` writes
    it.  The shape is fixed and holds only ints, floats and one bool, so it
    is formatted directly instead of being built as a dict and walked again.
    """
    cert = report.certificate
    z = ", ".join([format(zi, ".17g") for zi in report.z])
    history = ", ".join([
        f'{{"m": {h.m}, "residual": {h.residual:.17g}, "diameter": {h.diameter:.17g}, '
        f'"evals": {h.evals}}}' for h in report.history])
    return (f'{{"n": {report.n}, "z": [{z}], "residual": {report.residual:.17g}, '
            f'"m_final": {report.m_final}, "converged": {"true" if report.converged else "false"}, '
            f'"certificate": {{"base": {list(cert.string.base)}, "perm": {list(cert.string.perm)}, '
            f'"labels": {list(cert.labels)}}}, "history": [{history}]}}')


def _write_record(args, payload_json: str) -> None:
    """--record: the payload's JSON bytes with their provenance (inputs, UTC time, version)."""
    if args.record:
        head = dump_json({
            "command": args.command,
            "arguments": list(args._argv),
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "version": __version__,
        })
        # the payload goes in as the head object's last value, byte for byte
        with open(args.record, "w", encoding="utf-8") as fh:
            fh.write(f'{head[:-1]}, "payload": {payload_json}}}\n')


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2
        # argparse echoes a bad value whole; cut long ones as map errors do
        raise UsageError(re.sub(r"'?([^\s'\\]{21,})'?", lambda v: _quote(v[1]), message))


def _add_map_arguments(sp, required: bool) -> None:
    group = sp.add_mutually_exclusive_group(required=required)
    group.add_argument("--map", help="semicolon-separated component expressions")
    group.add_argument("--builtin", help="builtin map name (see 'functions' catalog)")
    sp.add_argument("--n", type=int, help="dimension (required with --map)")


def _add_budget_argument(sp) -> None:
    sp.add_argument(
        "--budget",
        type=int,
        default=None,
        help=f"enumeration budget (default {DEFAULT_BUDGET}, or ${BUDGET_ENV})",
    )


@functools.cache
def build_parser() -> _Parser:
    """The parser of every command, built on the first call and shared after.

    Each handler looks up the library functions it calls (``solve``,
    ``path_follow``, ...) when it runs, so patching those names still works.
    ``commands`` maps each command's name to its own parser.
    """
    return _new_parser(required=True)


@functools.cache
def _lenient_parser() -> _Parser:
    """``build_parser``'s parser with no argument required, which reports
    an unrecognized argument where ``build_parser``'s reports a missing one."""
    return _new_parser(required=False)


def _new_parser(required: bool) -> _Parser:
    p = _Parser(prog="stringchase", description="Combinatorial fixed-point solver on [0,1]^n.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=required)
    p.commands = {}

    sp = p.commands["solve"] = sub.add_parser(
        "solve", help="refine the grid until a fixed-point residual is met")
    _add_map_arguments(sp, required)
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL, help="residual tolerance (sup norm)")
    sp.add_argument("--max-m", type=int, default=MAX_M,
                    help="largest resolution; m runs over powers of two from 2, "
                         "jumping by the last residual (at most 2^52)")
    sp.add_argument("--engine", choices=["path", "oracle"], default="path")
    sp.add_argument("--csv", action="store_true",
                    help="print the per-resolution history as CSV instead of JSON")
    _add_budget_argument(sp)
    sp.add_argument("--record", help="write a JSON record with provenance")
    sp.set_defaults(handler=cmd_solve)

    sp = p.commands["verify-parity"] = sub.add_parser(
        "verify-parity", help="exhaustively check oddness and the double count")
    _add_map_arguments(sp, required)
    sp.add_argument("--m", type=int, required=required, help="grid resolution")
    _add_budget_argument(sp)
    sp.add_argument("--record", help="write a JSON record with provenance")
    sp.set_defaults(handler=cmd_verify_parity)

    sp = p.commands["trace"] = sub.add_parser(
        "trace", help="emit the door-in/door-out walk at a fixed resolution")
    _add_map_arguments(sp, required)
    sp.add_argument("--m", type=int, required=required, help="grid resolution")
    sp.add_argument("--svg", help="also render the walk to this SVG file (n=2 only)")
    sp.add_argument("--record", help="write a JSON record with provenance")
    sp.set_defaults(handler=cmd_trace)

    sp = p.commands["labels"] = sub.add_parser(
        "labels", help="dump every grid point's label as CSV")
    _add_map_arguments(sp, required)
    sp.add_argument("--m", type=int, required=required, help="grid resolution")
    _add_budget_argument(sp)
    sp.set_defaults(handler=cmd_labels)

    return p


def _resolve_map(args) -> MapFn:
    if args.builtin is not None:
        g = builtin(args.builtin)
        if args.n is not None and args.n != g.n:
            raise UsageError(f"--n {args.n} does not match builtin {args.builtin!r} (n={g.n})")
        return g
    if args.n is None:
        raise UsageError("--n is required with --map")
    check_size("--n: dimension", args.n, 1, UsageError)
    return parse(args.map, args.n).as_map_fn(name=args.map)


def _grid(args, g: MapFn) -> GridSpec:
    check_size("--m: resolution", args.m, 1, UsageError)
    return GridSpec(g.n, args.m)


def _resolve_budget(args) -> int:
    budget, source = args.budget, "--budget"
    if budget is None:
        env = os.environ.get(BUDGET_ENV)
        if env is None:
            return DEFAULT_BUDGET
        try:
            budget, source = int(env), f"${BUDGET_ENV}"
        except ValueError:
            raise UsageError(f"${BUDGET_ENV} must be an integer, got {env!r}") from None
    if budget <= 0:
        raise UsageError(f"{source} must be positive, got {budget}")
    return budget


def cmd_solve(args) -> int:
    g = _resolve_map(args)
    cfg = SolveConfig(
        max_m=args.max_m, tol=args.tol, engine=args.engine, budget=_resolve_budget(args)
    )
    report = solve(g, cfg)
    text = solve_json(report)
    _write_record(args, text)
    if args.csv:
        lines = ["m,residual,diameter,evals"]
        lines += [
            f"{h.m},{fmt_float(h.residual)},{fmt_float(h.diameter)},{h.evals}"
            for h in report.history
        ]
        print("\n".join(lines))
    else:
        print(text)
    return EXIT_OK if report.converged else EXIT_CHECK_FAILED


def cmd_verify_parity(args) -> int:
    g = _resolve_map(args)
    spec = _grid(args, g)
    lab = Labeling(spec, g)
    report = parity_check(spec, lab, budget=_resolve_budget(args))
    text = dump_json(parity_payload(report))
    _write_record(args, text)
    print(text)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_trace(args) -> int:
    g = _resolve_map(args)
    if args.svg is not None and g.n != 2:
        raise UsageError(f"--svg requires n=2, got n={g.n}")
    spec = _grid(args, g)
    lab = Labeling(spec, g)
    _, trace = path_follow(spec, lab)
    text = trace_json(trace)
    if args.svg is not None:
        from .render import trace_svg  # imported here alone: no other command renders
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(trace_svg(spec, lab, trace))
    _write_record(args, text)
    print(text)
    return EXIT_OK


def cmd_labels(args) -> int:
    g = _resolve_map(args)
    spec = _grid(args, g)
    budget = _resolve_budget(args)
    BudgetExceeded.check(spec.point_count, budget, "points")
    n, m = spec.n, spec.m
    header = [f"i{j}" for j in range(1, n + 1)] + [f"x{j}" for j in range(1, n + 1)] + ["label"]
    # each axis value's index and real text, formatted once, not per point
    index_text = [str(c) for c in range(m + 1)]
    real_text = [fmt_float(c / m) for c in range(m + 1)]
    write = sys.stdout.write
    write(",".join(header) + "\n")
    for p, label in zip(spec.points(), Labeling(spec, g).sweep()):
        cells = [index_text[c] for c in p] + [real_text[c] for c in p]
        cells.append(str(label))
        write(",".join(cells) + "\n")
    return EXIT_OK


def _parse_args(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    # the whole parser would first match a command's options against its own
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = command.parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        try:
            args = _parse_args(build_parser(), argv)
        except UsageError:
            # an unrecognized argument is reported before a missing one
            _parse_args(_lenient_parser(), argv)
            raise
        args._argv = argv
        return args.handler(args)
    except (UsageError, MapParseError, UnknownBuiltin, ConfigInvalid, MapEvaluationFailed,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (LabelingInvalid, StepLimitExceeded) as exc:
        # every labelling the CLI walks is induced, so these are bugs
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
