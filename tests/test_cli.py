"""CLI behaviour: exit codes, payload schemas, byte determinism."""

import dataclasses
import hashlib
import json
import math
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    CATALOG_REFERENCE,
    forced_label,
    random_affine_map,
    random_steep_affine_map,
    recipe_maps,
)
from stringchase import (
    GridSpec,
    Labeling,
    MapFn,
    MapSpec,
    __version__,
    builtin,
    cli,
    parse,
    path_follow,
    solver,
)
from stringchase.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from stringchase.grid import StringK, vertices
from stringchase.render import trace_svg
from stringchase.search import LabelingInvalid, PathTrace, StepLimitExceeded, TraceStep


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_builtin_converges(capsys):
    code, out, _ = run_cli(capsys, "solve", "--builtin", "reflect1d", "--tol", "1e-9")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["z"] == [0.5]
    assert payload["residual"] == 0.0
    assert payload["converged"] is True
    assert payload["m_final"] == 2
    assert set(payload["certificate"]) == {"base", "perm", "labels"}
    assert sorted(payload["certificate"]["labels"]) == [0, 1]
    assert list(payload["history"][0]) == ["m", "residual", "diameter", "evals"]


def test_solve_map_expression(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--map", "cos(x1)", "--n", "1", "--tol", "1e-3"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert abs(payload["z"][0] - 0.739085) <= 1e-3


def test_solve_bad_variable_index(capsys):
    code, out, err = run_cli(capsys, "solve", "--map", "x3", "--n", "2")
    assert code == EXIT_USAGE
    assert out == ""
    assert "x3" in err


def test_solve_not_converged_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--builtin", "dottie", "--tol", "1e-15", "--max-m", "16"
    )
    assert code == EXIT_CHECK_FAILED
    payload = json.loads(out)
    assert payload["converged"] is False


def test_an_unconverged_solve_reports_its_best_resolution_not_its_last(capsys):
    # stopped at --max-m 4: m = 2 leaves residual 0.0748, m = 4 leaves 0.4,
    # and the report is m = 2's
    text = "2*cos(5*x1) + 1.5*abs(x1-0.5) + 0.2"
    code, out, _ = run_cli(capsys, "solve", "--map", text, "--n", "1", "--max-m", "4",
                           "--tol", "1e-12")
    assert code == EXIT_CHECK_FAILED
    payload = json.loads(out)
    history = payload["history"]
    assert [h["m"] for h in history] == [2, 4]
    assert history[0]["residual"] < history[1]["residual"]
    assert payload["converged"] is False and payload["m_final"] == 2
    g = parse(text, 1).as_map_fn()
    assert payload["residual"] == history[0]["residual"] == solver.residual(g, payload["z"])


def test_solve_requires_map_or_builtin(capsys):
    code, _, err = run_cli(capsys, "solve", "--tol", "1e-3")
    assert code == EXIT_USAGE
    assert err


def test_solve_n_mismatch(capsys):
    code, _, err = run_cli(capsys, "solve", "--builtin", "rot90", "--n", "1")
    assert code == EXIT_USAGE
    assert "rot90" in err


def test_solve_csv_history(capsys):
    code, out, _ = run_cli(capsys, "solve", "--builtin", "avg-0.8", "--tol", "1e-2", "--csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "m,residual,diameter,evals"
    assert len(lines) > 1
    first = lines[1].split(",")
    assert first[0] == "2"


def test_verify_parity_builtin(capsys):
    code, out, _ = run_cli(capsys, "verify-parity", "--builtin", "reflect1d", "--m", "4")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["levels"] == [
        {"k": 1, "S1": 1, "S2": 1, "T1": 1, "T2": 1, "identity_ok": True, "odd_ok": True}
    ]


def test_verify_parity_const_2d(capsys):
    code, out, _ = run_cli(
        capsys, "verify-parity", "--builtin", "const-0.5,0.5", "--m", "2"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["levels"][1]["k"] == 2
    assert payload["levels"][1]["S1"] == 1


def test_verify_parity_budget_exceeded(capsys):
    code, _, err = run_cli(
        capsys,
        "verify-parity", "--map", "x1; x2; x3", "--n", "3", "--m", "50",
        "--budget", "1000",
    )
    assert code == EXIT_BUDGET
    assert "budget" in err


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("STRINGCHASE_BUDGET", "2")
    code, _, err = run_cli(capsys, "verify-parity", "--builtin", "reflect1d", "--m", "4")
    assert code == EXIT_BUDGET
    # explicit flag wins over the environment
    code, out, _ = run_cli(
        capsys, "verify-parity", "--builtin", "reflect1d", "--m", "4", "--budget", "1000"
    )
    assert code == EXIT_OK


def test_trace_json_shape(capsys):
    code, out, _ = run_cli(capsys, "trace", "--builtin", "reflect1d", "--m", "4")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["outcome"] == "found_fully_labeled"
    assert [s["level"] for s in payload["steps"]] == [0, 1, 1]
    final = payload["steps"][-1]
    assert final["exit"] is None
    assert set(final) == {"level", "base", "perm", "entry", "exit"}


def test_trace_adjacency_checkable_from_json(capsys):
    code, out, _ = run_cli(
        capsys, "trace", "--builtin", "const-0.5,0.5", "--m", "2"
    )
    assert code == EXIT_OK
    steps = json.loads(out)["steps"]

    def verts(step):
        pts = [tuple(step["base"])]
        cur = list(step["base"])
        for axis in step["perm"]:
            cur[axis - 1] += 1
            pts.append(tuple(cur))
        return set(pts)

    for a, b in zip(steps, steps[1:]):
        assert len(verts(a) & verts(b)) == max(a["level"], b["level"])


def test_trace_svg_output(capsys, tmp_path):
    svg_path = tmp_path / "walk.svg"
    code, out, _ = run_cli(
        capsys, "trace", "--builtin", "const-0.5,0.5", "--m", "2", "--svg", str(svg_path)
    )
    assert code == EXIT_OK
    body = svg_path.read_text()
    assert body.startswith("<svg")
    assert body.count("<polyline") >= 2
    assert "<circle" in body
    assert "#d62728" in body  # highlighted certificate string


def test_trace_svg_rejects_wrong_dimension(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "trace", "--map", "x1; x2; x3", "--n", "3", "--m", "2",
        "--svg", str(tmp_path / "walk.svg"),
    )
    assert code == EXIT_USAGE
    assert "n=2" in err


@pytest.mark.parametrize("name, n", [("dottie", 1), ("const-0.5,0.5,0.5", 3)])
def test_trace_svg_itself_rejects_wrong_dimension(name, n):
    g = builtin(name)
    lab = Labeling(GridSpec(n, 2), g)
    _, trace = path_follow(lab.spec, lab)
    with pytest.raises(ValueError) as err:
        trace_svg(lab.spec, lab, trace)
    assert str(err.value) == f"SVG rendering needs a 2-D grid, got n={n}"


def test_labels_csv_reflect(capsys):
    code, out, _ = run_cli(capsys, "labels", "--builtin", "reflect1d", "--m", "4")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "i1,x1,label"
    assert len(lines) == 6
    assert [line.split(",")[-1] for line in lines[1:]] == ["0", "0", "1", "1", "1"]
    assert lines[1].split(",")[0] == "0"


def test_labels_csv_const_2d(capsys):
    code, out, _ = run_cli(capsys, "labels", "--builtin", "const-0.5,0.5", "--m", "2")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "i1,i2,x1,x2,label"
    assert len(lines) == 10
    origin = lines[1].split(",")
    assert origin[:2] == ["0", "0"] and origin[-1] == "0"


def test_labels_stop_at_the_first_failing_point(capsys, monkeypatch):
    # the rows before the failing point are written, then one error line
    def fn(p):
        if p == (0.5, 0.5):
            raise ZeroDivisionError("boom")
        return (1.0 - p[1], p[0])

    monkeypatch.setattr(cli, "builtin", lambda name: MapFn(2, fn, name=name))
    code, out, err = run_cli(capsys, "labels", "--builtin", "faulty", "--m", "2")
    assert code == EXIT_USAGE
    assert out == "i1,i2,x1,x2,label\n0,0,0,0,0\n0,1,0,0.5,2\n0,2,0,1,2\n1,0,0.5,0,0\n"
    assert err == ("error: map evaluation failed at (0.5, 0.5): "
                   "evaluator raised ZeroDivisionError('boom')\n")
    # a compiled map, whose fn the sweep calls itself, overflows mid-row
    code, out, err = run_cli(capsys, "labels", "--map", "0.5*(x1+x2)^1500; 0.5",
                             "--n", "2", "--m", "4")
    assert code == EXIT_USAGE
    assert out.endswith("\n4,1,1,0.25,1\n4,2,1,0.5,2\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8406a0e30203dbe2601f24ee3740b71e982e685aed2f04d2875ab8e844bf2e06")
    assert err.startswith("error: map evaluation failed at (1.0, 0.75): "
                          "evaluator raised OverflowError(") and err.count("\n") == 1


def test_solve_oracle_engine_respects_budget(capsys):
    # m = 2 and the first 2-cell boxes enumerate 8 strings each; a box
    # that grows to 4 cells needs 32
    code, _, err = run_cli(
        capsys,
        "solve", "--map", "0.9*x2+2*cos(5*x2)+0.2;0.3*x2^2+0.5*cos(5*x2)+0.2", "--n", "2",
        "--engine", "oracle", "--budget", "10",
    )
    assert code == EXIT_BUDGET
    assert err == "error: enumeration needs 32 strings, budget is 10\n"


def test_solve_fault_at_the_witness_is_one_error_line(capsys, monkeypatch):
    # the map fails only off the grid points of m = 2, where the secant
    # witness of the first certificate lies; it is reported like any other
    # failing point of the cube
    def fn(p):
        if p[0] * 2 != int(p[0] * 2):
            raise ValueError("off the grid")
        return (math.cos(p[0]),)

    monkeypatch.setattr(cli, "builtin", lambda name: MapFn(1, fn, name=name))
    code, out, err = run_cli(capsys, "solve", "--builtin", "faulty")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: map evaluation failed at (0.") and err.count("\n") == 1
    assert err.endswith("evaluator raised ValueError('off the grid')\n")


def test_bad_grid_resolution_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "labels", "--builtin", "rot90", "--m", "0")
    assert code == EXIT_USAGE
    assert "resolution" in err
    assert err == "error: --m: resolution must be >= 1, got 0\n"
    # a dimension below 1 reads the same way, from the same size check
    code, _, err = run_cli(capsys, "trace", "--map", "x1", "--n", "0", "--m", "3")
    assert (code, err) == (EXIT_USAGE, "error: --n: dimension must be >= 1, got 0\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("trace", "--builtin", "rot90", "--m", "0"),
        ("verify-parity", "--builtin", "rot90", "--m", "-3"),
        ("trace", "--map", "x1", "--n", "0", "--m", "3"),
        ("solve", "--builtin", "dottie", "--max-m", str(2 ** 52 + 1)),
        ("solve", "--builtin", "dottie", "--tol", "nan"),
        ("solve", "--builtin", "reflect1d", "--record", "missing-dir/run.json"),
        ("verify-parity", "--builtin", "rot90", "--m", "3", "--record", "missing-dir/run.json"),
        ("trace", "--builtin", "rot90", "--m", "3", "--svg", "."),
        ("solve", "--builtin", "dottie", "--max-m", "1"),
        ("solve", "--builtin", "dottie", "--initial-m", "4"),
        ("solve", "--builtin", "dottie", "--growth", "3"),
        ("solve", "--builtin", "dottie", "--json"),
        ("solve", "--map", "x1^" + "9" * 5000, "--n", "1"),
        ("solve", "--map", "x" + "9" * 5000, "--n", "1"),
    ],
    ids=["m-zero", "m-negative", "n-zero", "max-m-above-2^52", "tol-nan", "record-unwritable",
         "parity-record-unwritable", "svg-is-a-directory",
         "max-m-below-2", "no-initial-m", "no-growth", "no-json",
         "exponent-past-int-limit", "index-past-int-limit"],
)
def test_bad_arguments_are_usage_errors(capsys, tmp_path, monkeypatch, argv):
    # the error is all the output: an unwritable --record or --svg file
    # is found before the payload is printed
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--map", "x" + "9" * 4000, "--n", "1"),
        ("solve", "--map", "a" * 5000, "--n", "1"),
        ("solve", "--map", "x1 " + "b" * 5000, "--n", "1"),
        ("solve", "--map", "sin(x1 " + "c" * 5000, "--n", "1"),
        ("solve", "--builtin", "d" * 5000),
        ("solve", "--builtin", "avg-" + "e" * 5000),
        ("solve", "--builtin", "avg-" + "2" * 5000),
        ("solve", "--builtin", "dottie", "--tol", "z" * 5000),
        ("verify-parity", "--builtin", "rot90", "--m", "9" * 5000),
        ("solve", "--builtin", "dottie", "--engine", "f" * 5000),
        ("solve", "--builtin", "dottie", "g" * 5000),
    ],
    ids=["variable", "identifier", "trailing", "expected", "builtin", "avg-list", "avg-range",
         "option-float", "option-int", "option-choice", "unrecognized"],
)
def test_long_tokens_are_cut_in_errors(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1
    assert len(err.encode()) < 200


@pytest.mark.parametrize("text", ["x1 +", "(x1", ""], ids=["operand", "close", "empty"])
def test_parse_error_at_the_end_of_the_input_names_it(capsys, text):
    code, out, err = run_cli(capsys, "solve", "--n", "1", "--map", text)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "found end of input" in err and "None" not in err


@pytest.mark.parametrize(
    "owner, argv, exc",
    [
        (solver, ("solve", "--builtin", "dottie"), StepLimitExceeded),
        (cli, ("trace", "--builtin", "rot90", "--m", "4"), LabelingInvalid),
    ],
    ids=["solve-step-limit", "trace-invalid"],
)
def test_walk_failure_is_internal_error(capsys, monkeypatch, owner, argv, exc):
    def broken_walk(spec, lab):
        raise exc("walk broke")

    monkeypatch.setattr(owner, "path_follow", broken_walk)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INTERNAL == 4
    assert out == ""
    assert err == "error: internal: walk broke\n"


def test_an_oracle_box_without_a_fully_labeled_string_is_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(solver, "exhaustive_fully_labeled", lambda spec, lab, k, budget: [])
    code, out, err = run_cli(capsys, "solve", "--builtin", "dottie", "--engine", "oracle")
    assert code == EXIT_INTERNAL == 4
    assert out == ""
    assert err == "error: internal: no fully labeled string at m=2\n"


def test_labels_budget(capsys):
    code, _, _ = run_cli(
        capsys, "labels", "--builtin", "rot90", "--m", "2000", "--budget", "1000"
    )
    assert code == EXIT_BUDGET


def test_budget_errors_name_what_is_counted(capsys):
    # labels enumerates grid points, verify-parity strings
    code, out, err = run_cli(capsys, "labels", "--builtin", "rot90", "--m", "2", "--budget", "8")
    assert (code, out, err) == (EXIT_BUDGET, "", "error: enumeration needs 9 points, budget is 8\n")
    code, out, err = run_cli(
        capsys, "verify-parity", "--builtin", "rot90", "--m", "2", "--budget", "8"
    )
    assert (code, out, err) == (EXIT_BUDGET, "", "error: enumeration needs 10 strings, budget is 8\n")
    # a budget of exactly what is needed is enough
    for command, budget in (("labels", "9"), ("verify-parity", "10")):
        code, _, err = run_cli(capsys, command, "--builtin", "rot90", "--m", "2", "--budget", budget)
        assert (code, err) == (EXIT_OK, "")


@pytest.mark.parametrize("argv", [
    ["solve", "--builtin", "dottie", "--tol", "1e-3"],
    ["solve", "--builtin", "rot90", "--tol", "1e-2", "--csv"],
    ["verify-parity", "--builtin", "avg-0.3,0.6,0.9", "--m", "3"],
    ["trace", "--builtin", "avg-0.3,0.6,0.2", "--m", "6"],
], ids=["solve", "solve-csv", "verify-parity", "trace"])
def test_record_payload_is_the_printed_json(capsys, tmp_path, argv):
    # under --csv the record holds the JSON that solve prints without it
    _, printed, _ = run_cli(capsys, *[a for a in argv if a != "--csv"])
    path = tmp_path / "run.json"
    argv = argv + ["--record", str(path)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    if "--csv" in argv:
        assert out.startswith("m,residual,diameter,evals\n")
    else:
        assert out == printed
    text = path.read_text(encoding="utf-8")
    record = json.loads(text)
    assert list(record) == ["command", "arguments", "timestamp", "version", "payload"]
    assert record["command"] == argv[0]
    assert record["arguments"] == argv
    assert record["version"] == __version__
    assert text.endswith(', "payload": ' + printed.rstrip("\n") + "}\n")


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
README_COMMANDS = [
    line for block in re.findall(r"```sh\n(.*?)```", README, re.S)
    for line in block.splitlines() if line.startswith("stringchase ")
]


def test_readme_solve_example_matches_cli(capsys):
    example = re.search(r"`solve` → SolveReport:\s*```json\n(.*?)```", README, re.S)
    code, out, _ = run_cli(capsys, "solve", "--builtin", "reflect1d", "--tol", "1e-9")
    assert code == EXIT_OK
    assert " ".join(example.group(1).split()) == out.strip()


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_command_runs(capsys, tmp_path, monkeypatch, line):
    monkeypatch.chdir(tmp_path)  # the trace example writes walk.svg
    code, out, err = run_cli(capsys, *shlex.split(line)[1:])
    assert (code, err) == (EXIT_OK, "")
    assert out


def test_readme_library_example_runs(capsys):
    (source,) = re.findall(r"```python\n(.*?)```", README, re.S)
    exec(source, {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("via_env", [False, True])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_nonpositive_budget_is_usage_error(capsys, monkeypatch, budget, via_env):
    argv = ["verify-parity", "--builtin", "avg-0.5", "--m", "4"]
    if via_env:
        monkeypatch.setenv("STRINGCHASE_BUDGET", budget)
    else:
        argv += ["--budget", budget]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "positive" in err


@pytest.mark.parametrize("budget", ["abc", "1.5", ""])
def test_a_budget_from_the_environment_must_be_an_integer(capsys, monkeypatch, budget):
    monkeypatch.setenv("STRINGCHASE_BUDGET", budget)
    code, out, err = run_cli(capsys, "verify-parity", "--builtin", "avg-0.5", "--m", "4")
    assert (code, out) == (EXIT_USAGE, "") and EXIT_USAGE == 1
    assert err == f"error: $STRINGCHASE_BUDGET must be an integer, got {budget!r}\n"


@pytest.mark.parametrize(
    "text",
    ["(" * 2000 + "x1" + ")" * 2000, " + ".join(["0.0001*x1"] * 600)],
    ids=["parentheses", "sum"],
)
def test_overdeep_map_is_usage_error(capsys, text):
    code, out, err = run_cli(capsys, "solve", "--map", text, "--n", "1")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "deeper than" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--builtin", "reflect1d", "--tol", "1e-9"),
        ("solve", "--builtin", "dottie", "--tol", "1e-3", "--csv"),
        ("verify-parity", "--builtin", "const-0.5,0.5", "--m", "3"),
        ("trace", "--map", "1 - x2; x1", "--n", "2", "--m", "4"),
        ("labels", "--builtin", "rot90", "--m", "3"),
    ],
)
def test_stdout_is_byte_identical_across_runs(capsys, argv):
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second
    assert first[1]


def run_cli_or_exit(capsys, argv):
    """run_cli, with a SystemExit (as from --version) read as its code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_module_entry_point(capsys):
    # ``python -m stringchase`` exits with main's code and prints its stdout
    for argv in (("solve", "--builtin", "dottie", "--tol", "1e-3"), ("--version",)):
        proc = subprocess.run([sys.executable, "-m", "stringchase", *argv],
                              capture_output=True, text=True)
        code, out, _ = run_cli_or_exit(capsys, argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, ""), argv
        assert code == EXIT_OK and out


def test_one_parser_serves_every_call_in_a_process(capsys, monkeypatch):
    # an option given to one call (--csv, --budget) must not reach the
    # next, nor may an error or --version leave state behind
    monkeypatch.delenv("STRINGCHASE_BUDGET", raising=False)
    calls = [
        ("solve", "--builtin", "rot90", "--tol", "1e-2", "--csv"),
        ("solve", "--builtin", "rot90", "--tol", "1e-2"),
        ("verify-parity", "--builtin", "rot90", "--m", "3", "--budget", "5"),
        ("verify-parity", "--builtin", "rot90", "--m", "3"),
        ("--version",),
        ("solve", "--map", "x1", "--builtin", "dottie"),
        ("solve", "--builtin", "dottie", "--tol", "abc"),
        ("trace", "--builtin", "avg-0.3", "--m", "8"),
    ]
    cli.build_parser.cache_clear()
    shared = [run_cli_or_exit(capsys, argv) for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run_cli_or_exit(capsys, argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [
        EXIT_OK, EXIT_OK, EXIT_BUDGET, EXIT_OK, 0, EXIT_USAGE, EXIT_USAGE, EXIT_OK]
    assert shared[0][1].startswith("m,residual") and shared[1][1].startswith("{")


def test_build_parser_returns_one_parser():
    assert cli.build_parser() is cli.build_parser()


def test_importing_the_cli_builds_no_parser():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import stringchase.cli as c; print(c.build_parser.cache_info().currsize)"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_importing_the_cli_leaves_render_unloaded():
    # only trace --svg renders, so the CLI imports render there alone
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, stringchase.cli; print('stringchase.render' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_solve_defaults_are_solve_config_defaults(capsys, monkeypatch):
    monkeypatch.delenv("STRINGCHASE_BUDGET", raising=False)
    configs = []

    def recorded(g, cfg=None):
        configs.append(cfg)
        return solver.solve(g, cfg)

    monkeypatch.setattr(cli, "solve", recorded)
    assert run_cli(capsys, "solve", "--builtin", "dottie")[0] == EXIT_OK
    assert configs == [solver.SolveConfig()]


SOLVE_HELP = """\
usage: stringchase solve [-h] (--map MAP | --builtin BUILTIN) [--n N]
                         [--tol TOL] [--max-m MAX_M] [--engine {path,oracle}]
                         [--csv] [--budget BUDGET] [--record RECORD]

options:
  -h, --help            show this help message and exit
  --map MAP             semicolon-separated component expressions
  --builtin BUILTIN     builtin map name (see 'functions' catalog)
  --n N                 dimension (required with --map)
  --tol TOL             residual tolerance (sup norm)
  --max-m MAX_M         largest resolution; m runs over powers of two from 2,
                        jumping by the last residual (at most 2^52)
  --engine {path,oracle}
  --csv                 print the per-resolution history as CSV instead of
                        JSON
  --budget BUDGET       enumeration budget (default 10000000, or
                        $STRINGCHASE_BUDGET)
  --record RECORD       write a JSON record with provenance
"""


def test_solve_help_is_pinned(capsys, monkeypatch):
    # the same bytes on CPython 3.10 to 3.13, before and after SolveConfig
    # became a Record
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli_or_exit(capsys, ["solve", "-h"]) == (0, SOLVE_HELP, "")


@pytest.fixture
def handled(monkeypatch):
    """The Namespaces that main hands to the command handlers, in call order.

    Each handler is wrapped before a fresh parser is built, so the wrapper
    records the parsed arguments (less ``handler`` and ``_argv``) and then
    runs the real handler.
    """
    seen = []
    for name in ("cmd_solve", "cmd_verify_parity", "cmd_trace", "cmd_labels"):
        def record(args, handler=getattr(cli, name)):
            seen.append({k: v for k, v in vars(args).items() if k not in ("handler", "_argv")})
            return handler(args)
        monkeypatch.setattr(cli, name, record)
    cli.build_parser.cache_clear()
    yield seen
    cli.build_parser.cache_clear()


USAGE_ERRORS = [
    (["--bogus", "solve"], "unrecognized arguments: --bogus"),
    (["--bogus"], "unrecognized arguments: --bogus"),
    (["solve", "--version"], "unrecognized arguments: --version"),
    (["solve", "--builtin", "dottie", "--version"], "unrecognized arguments: --version"),
    (["trace", "--builtin", "rot90", "--bogus"], "unrecognized arguments: --bogus"),
    (["verify-parity", "--m", "3", "x", "--bogus"], "unrecognized arguments: x --bogus"),
    ([], "the following arguments are required: command"),
    (["solve"], "one of the arguments --map --builtin is required"),
    (["trace", "--builtin", "rot90"], "the following arguments are required: --m"),
    (["labels", "--m", "3"], "one of the arguments --map --builtin is required"),
]


@pytest.mark.parametrize("argv, error", USAGE_ERRORS,
                         ids=[" ".join(argv) or "empty" for argv, _ in USAGE_ERRORS])
def test_an_unrecognized_argument_is_reported_before_a_missing_one(capsys, argv, error):
    # argparse checks required arguments first; the first six argvs also
    # lack one (a command, --map/--builtin or --m) but name a wrong one
    assert run_cli_or_exit(capsys, argv) == (EXIT_USAGE, "", f"error: {error}\n")


@pytest.mark.parametrize("argv", [
    [],
    ["-h"],
    ["--version"],
    ["--version", "solve"],
    ["--bogus", "solve"],
    ["solv", "--builtin", "dottie"],
    ["bogus"],
    ["solve"],
    ["solve", "-h"],
    ["solve", "--help"],
    ["solve", "--version"],
    ["solve", "--ver"],
    ["solve", "--builtin", "dottie", "--version"],
    ["solve", "--"],
    ["solve", "--builtin", "dottie", "--to", "1e-3"],
    ["solve", "--builtin=dottie", "--tol=1e-3"],
    ["solve", "--bui", "rot90", "--tol", "1e-2", "--csv"],
    ["solve", "--map", "cos(x1)", "--tol", "1e-3"],
    ["solve", "--map", "x1 - 1", "--n", "-1"],
    ["solve", "--map", "-x1", "--n", "1"],
    ["solve", "--map", "x1", "--builtin", "dottie"],
    ["solve", "--builtin", "dottie", "--tol", "abc"],
    ["solve", "--builtin", "dottie", "--engine", "ora"],
    ["solve", "--builtin", "dottie", "--engine", "oracle", "--tol", "1e-2"],
    ["solve", "--builtin", "dottie", "extra"],
    ["solve", "--builtin", "dottie", "--tol", "1e-3", "--record", "run.json"],
    ["verify-parity", "--builtin", "rot90", "--m", "3"],
    ["verify-parity", "--builtin", "rot90", "--m", "3", "--budget", "5"],
    ["verify-parity", "--builtin", "rot90"],
    ["trace", "--builtin", "avg-0.3", "--m", "8"],
    ["trace", "--builtin", "rot90", "--m", "3", "--budget", "5"],
    ["trace", "--builtin", "rot90", "--bogus"],
    ["labels", "--builtin", "reflect1d", "--m", "3"],
    ["labels", "--m", "3", "--", "--builtin", "rot90"],
    ["--bogus"],
], ids=lambda argv: " ".join(argv) or "empty")
def test_a_command_parser_reads_argv_as_the_whole_parser_does(
        capsys, tmp_path, monkeypatch, handled, argv):
    # main reads a command's argv with that command's parser alone; with no
    # commands listed it falls back to build_parser().parse_args for all
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STRINGCHASE_BUDGET", raising=False)
    runs, records = [], []
    for commands in (cli.build_parser().commands, {}):
        monkeypatch.setattr(cli.build_parser(), "commands", commands)
        runs.append(run_cli_or_exit(capsys, argv))
        if "--record" in argv:
            record = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
            del record["timestamp"]
            records.append(record)
    assert runs[0] == runs[1]
    assert len(handled) in (0, 2)
    assert handled[:1] == handled[1:]
    assert records[:1] == records[1:]
    if records:
        assert records[0]["command"] == "solve"
        assert records[0]["arguments"] == argv


def test_float_formatting_17_digits(capsys):
    _, out, _ = run_cli(capsys, "labels", "--builtin", "reflect1d", "--m", "3")
    # 1/3 printed at 17 significant digits
    assert "0.33333333333333331" in out


def test_dump_json_contract(capsys):
    # float-free payloads print exactly as json.dumps prints them
    payloads = [{"text": 'caf\u00e9 "\\\n\x01', "items": (1, -2, True, False, None, [], {})}]
    for argv in (("trace", "--builtin", "rot90", "--m", "5"),
                 ("verify-parity", "--builtin", "avg-0.3,0.6", "--m", "4")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        payloads.append(json.loads(out))
        assert out == cli.dump_json(payloads[-1]) + "\n"
    for payload in payloads:
        assert cli.dump_json(payload) == json.dumps(payload)
    # floats at 17 significant digits, where json.dumps prints the shortest repr
    assert cli.dump_json([0.1, 1 / 3, 2.0]) == "[0.10000000000000001, 0.33333333333333331, 2]"
    with pytest.raises(TypeError, match="cannot serialize set"):
        cli.dump_json({"a": {1}})


def _trace(g, m):
    spec = GridSpec(g.n, m)
    return path_follow(spec, Labeling(spec, g))[1]


def _trace_maps():
    for name in ("reflect1d", "dottie", "rot90", "squeeze"):
        yield builtin(name)
    for n in range(1, 9):
        c = ",".join(str(round(0.1 + 0.37 * i % 0.8, 2)) for i in range(n))
        yield builtin(f"const-{c}")
        yield builtin(f"avg-{c}")
    yield parse("cos(x1)", 1).as_map_fn()
    yield parse("0.5*x1+0.3*x2^2; cos(x1*x2)", 2).as_map_fn()
    # g1 < x1 only on an arc over the floor from x1 = 0.3 to 0.6, so the
    # level-2 walk climbs over the arc and descends to the floor again
    for n in (2, 3, 4):
        yield parse("x1 + 0.2*x2 + (x1-0.3)*(x1-0.6); 0.8" + "; 0.5" * (n - 2), n).as_map_fn()


def _trace_payload(t):
    steps = [{"level": s.level, "base": list(s.string.base), "perm": list(s.string.perm),
              "entry": s.entry, "exit": s.exit} for s in t.steps]
    return {"steps": steps, "outcome": t.outcome}


def test_trace_json_writes_dump_json_bytes():
    descents = 0
    for g in _trace_maps():
        for m in (1, 2, 5, 8):
            t = _trace(g, m)
            payload = _trace_payload(t)
            assert cli.trace_json(t) == cli.dump_json(payload) == json.dumps(payload), (g.name, m)
            levels = [s.level for s in t.steps]
            descents += sum(b < a for a, b in zip(levels, levels[1:]))
    assert descents > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 8), st.randoms(use_true_random=False), st.booleans())
def test_trace_json_on_random_affine_walks(n, m, rnd, steep):
    # steep maps make some walks descend (test_some_steep_affine_walks_descend)
    t = _trace((random_steep_affine_map if steep else random_affine_map)(n, rnd), m)
    assert cli.trace_json(t) == cli.dump_json(_trace_payload(t))


def test_trace_json_formats_each_base_object_afresh():
    # consecutive bases equal in value but built apart, one base object
    # shared by two steps, and perms equal in value but built apart
    a, b = [1, 0, 2], [1, 1, 2]
    strings = [StringK(3, tuple(a), (1, 2, 3)), StringK(3, tuple(a), (2, 1, 3)),
               StringK(3, tuple(b), tuple([2, 1, 3]))]
    strings.append(StringK(3, strings[-1].base, (3, 2, 1)))
    strings.append(StringK(3, tuple(a), tuple([1, 2, 3])))
    assert strings[0].base == strings[1].base and strings[0].base is not strings[1].base
    steps = tuple(TraceStep(3, s, i % 4 or None, None if i % 3 else 2)
                  for i, s in enumerate(strings))
    t = PathTrace(steps, "found_fully_labeled")
    assert cli.trace_json(t) == cli.dump_json(_trace_payload(t)) == json.dumps(_trace_payload(t))


def _solve_payload(report):
    """The solve payload in the README's key order."""
    cert = report.certificate
    return {
        "n": report.n,
        "z": list(report.z),
        "residual": report.residual,
        "m_final": report.m_final,
        "converged": report.converged,
        "certificate": {"base": list(cert.string.base), "perm": list(cert.string.perm),
                        "labels": list(cert.labels)},
        "history": [{"m": h.m, "residual": h.residual, "diameter": h.diameter, "evals": h.evals}
                    for h in report.history],
    }


def test_solve_json_writes_dump_json_bytes():
    maps = [builtin(name) for name in CATALOG_REFERENCE] + recipe_maps()
    reports = [solver.solve(g) for g in maps]
    reports.append(solver.solve(builtin("dottie"), solver.SolveConfig(max_m=64)))
    reports.append(solver.solve(builtin("reflect1d")))
    assert not reports[-2].converged and reports[-1].residual == 0.0
    for g, report in zip(maps + ["dottie --max-m 64", "reflect1d"], reports):
        payload = _solve_payload(report)
        text = cli.solve_json(report)
        assert text == cli.dump_json(payload), g
        assert json.loads(text) == payload, g
    assert {r.n for r in reports} == {1, 2, 3, 4}


@pytest.mark.parametrize("argv", [
    ("solve", "--builtin", "dottie", "--max-m", "64"),
    ("solve", "--builtin", "reflect1d"),
    ("solve", "--map", "1.5*x1^2 + 0.1", "--n", "1"),
], ids=["not-converged", "zero-residual", "jump-given-up"])
def test_solve_record_payload_is_stdout_byte_for_byte(capsys, tmp_path, argv):
    path = tmp_path / "run.json"
    code, out, _ = run_cli(capsys, *argv, "--record", str(path))
    assert code == (EXIT_CHECK_FAILED if "--max-m" in argv else EXIT_OK)
    text = path.read_text(encoding="utf-8")
    assert text.endswith(', "payload": ' + out.rstrip("\n") + "}\n")
    assert json.loads(text)["payload"] == json.loads(out)


@pytest.mark.parametrize("argv", [
    ("trace", "--builtin", "rot90", "--m", "8"),
    ("verify-parity", "--builtin", "avg-0.3,0.6", "--m", "4"),
    ("labels", "--builtin", "rot90", "--m", "5"),
    ("solve", "--builtin", "dottie"),
], ids=lambda argv: argv[0])
def test_only_a_solve_keeps_an_image_table(capsys, monkeypatch, argv):
    # path_follow, parity_check and the labels sweep run on a plain
    # Labeling(spec, g) and keep no image; every box of a solve shares one table
    made = []
    init = Labeling.__init__

    def recording(lab, *args, **kwargs):
        init(lab, *args, **kwargs)
        made.append(lab)

    monkeypatch.setattr(Labeling, "__init__", recording)
    code, _, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK and made
    if argv[0] == "solve":
        assert len(made) > 1 and all(lab.images is made[0].images for lab in made)
        assert isinstance(made[0].images, dict)
    else:
        assert all(lab.images is None for lab in made)


@pytest.fixture
def counted_calls(monkeypatch):
    """Calls of the raw evaluator per real point, counted as the benchmark
    counts map evaluations: by wrapping the raw evaluator of every map that
    builtin and MapSpec.as_map_fn return, each on its own.  A map built
    through both would count each evaluation twice."""
    calls = Counter()

    def counted(g):
        def fn(x):
            calls[x] += 1
            return g.fn(x)
        return dataclasses.replace(g, fn=fn)

    make_builtin, as_map_fn = cli.builtin, MapSpec.as_map_fn
    monkeypatch.setattr(cli, "builtin", lambda name: counted(make_builtin(name)))
    monkeypatch.setattr(MapSpec, "as_map_fn",
                        lambda spec, *args, **kwargs: counted(as_map_fn(spec, *args, **kwargs)))
    return calls


@pytest.mark.parametrize("argv", [
    ("--builtin", "avg-0.3,0.6"),
    ("--map", "0.5*x1 + 0.3*x2^2; expneg(x1) - 0.2*x2", "--n", "2"),
], ids=["builtin", "map"])
def test_parity_calls_the_counted_evaluator_once_per_unforced_point(capsys, counted_calls, argv):
    code, _, _ = run_cli(capsys, "verify-parity", *argv, "--m", "6")
    spec = GridSpec(2, 6)
    assert code == EXIT_OK
    assert counted_calls == Counter(spec.to_real(c) for c in spec.points()
                                    if forced_label(c, spec.m) is None)


def test_trace_calls_the_counted_evaluator_once_per_unforced_walk_point(capsys, counted_calls):
    code, out, _ = run_cli(capsys, "trace", "--builtin", "avg-0.2,0.9,0.4,0.6", "--m", "16")
    spec = GridSpec(4, 16)
    walked = {v for step in json.loads(out)["steps"]
              for v in vertices(StringK(step["level"], tuple(step["base"]), tuple(step["perm"])))}
    assert code == EXIT_OK
    assert counted_calls == Counter(spec.to_real(c) for c in walked
                                    if forced_label(c, spec.m) is None)


def test_solve_calls_the_counted_evaluator_once_per_counted_evaluation(capsys, counted_calls):
    code, out, _ = run_cli(capsys, "solve", "--builtin", "dottie")
    assert code == EXIT_OK
    assert set(counted_calls.values()) == {1}
    assert sum(counted_calls.values()) == sum(h["evals"] for h in json.loads(out)["history"])


# sha256 of f"{exit code}\n{stdout}": the CLI's output contract, which the
# walk, the labeller and the trace writer must keep byte for byte
PINNED_STDOUT = [
    (("trace", "--builtin", "avg-0.3", "--m", "64"),
     "e19a212586cb6bc922f8e7f3abc8a8e8f6c217bbbe838d768e461a5874f89c71"),
    (("trace", "--builtin", "avg-0.2,0.9,0.4,0.6", "--m", "16"),
     "288097d241a4f7ee21e9f4754bd9387fa7a11957496f198442ec8a2133fbf994"),
    (("trace", "--builtin", "avg-0.7,0.1,0.5,0.3,0.9,0.2", "--m", "8"),
     "928cc3f877b68a170618a37a24045f3b1d5e0a6366c02e1487fa180a07294e09"),
    (("trace", "--builtin", "rot90", "--m", "32"),
     "c3a790f3f0f6d3c3e5707335f07fdc54120c33028009ee557b82dcc101145c52"),
    # 42 steps, one of them a descent through a floor door
    (("trace", "--n", "3", "--m", "8", "--map",
      "1.5*x1 + 0.3*x2 - 0.2; 3*x2 + 0.5*x3 - 0.2; 3*x3 + 0.3*x2 - 1"),
     "cf2234a0fa2b97219e5fe65c06b8550a2e721a20f2ad58f5cfb359d4dfa32e77"),
    (("trace", "--builtin", "avg-0.4,0.7,0.8,0.7,0.6,0.5,0.3,0.5", "--m", "12"),
     "86602c541ff6f3e0e3c0a7250bf6e33ae5bee5cf499deab2e752e6b381b92ad1"),
    (("verify-parity", "--builtin", "avg-0.3,0.6", "--m", "6"),
     "3365a216e03ae1f69c492017f2c33e2cdf0cd5da6300d52035fbc74112721ce9"),
    (("verify-parity", "--map", "0.5*x1+0.3*x2^2; cos(x1*x3); expneg(x2)", "--n", "3",
      "--m", "4"),
     "c51e90c5d80c0b1cef840a32d36a3311d33be170b96760bba17f99766a949736"),
    # the parity benchmark's n = 2 size, where most cells lack a label below k
    (("verify-parity", "--builtin", "avg-0.3,0.6", "--m", "90"),
     "c3275c693de74e742a7e90b7465281649dd064e8c7ec44552214917d1da9e401"),
    # n = 4 with three fully labelled strings at every level
    (("verify-parity", "--map",
      "1.5*x1^2 + 0.1; 0.9*sin(3*x2) + 0.2; 2*cos(5*x3) + 0.2; abs(x4-0.5) + 0.3*x1",
      "--n", "4", "--m", "5"),
     "68a487f13931ccc165cd55bb692ad7eda2b3a2be991d495bf229c250e063b97b"),
    # history evals 3, 3, 3: the forced labels at 0 and 1 read no g(x)
    (("solve", "--builtin", "dottie"),
     "45af152dd907b3ee2ee1dbefa60b8a12d1819926687d5d8765e4254a9aec98cc"),
    # n = 3; the m = 128 resolution searches 2 boxes
    (("solve", "--map", "0.5*x1+0.3*x2^2; cos(x1*x3); expneg(x2)", "--n", "3",
      "--tol", "1e-4"),
     "14a17401be9b089e15aec49445c8881c8d695335151b42985bc2c1a54276c197"),
    # the jump from m = 2 to 16 is given up, and that resolution made at m = 4
    (("solve", "--map", "1.5*x1^2 + 0.1", "--n", "1"),
     "deb580ec49016e1a9dfdde96a96ed8096e1f4cc0de83024cc568093a0d9ff1c2"),
    # not converged at the cap: exit 2 with the best witness
    (("solve", "--builtin", "dottie", "--max-m", "64"),
     "6d3c4f6a8406e128b86febedde5a2dbd986b25321dcfbbfbe425024f47bd14c3"),
    (("solve", "--map", "0.5*x1+0.3*x2^2; cos(x1*x3); expneg(x2)", "--n", "3",
      "--tol", "1e-4", "--csv"),
     "8a765fd4642de528149d965d9f53b4d82847f813f5c74201ce4d00cf8493ec1a"),
    (("labels", "--builtin", "rot90", "--m", "30"),
     "8650a608737eb02da6d0b571771449557eacf1cd98292e6fc28b853547f80ff4"),
    (("labels", "--map", "0.5*x1+0.3*x2^2; cos(x1*x3); expneg(x2)", "--n", "3", "--m", "7"),
     "7a6062e6dcdbdb007b63baea5310875987faf3658ec92c0da3728cff62703d28"),
    (("labels", "--builtin", "dottie", "--m", "1000"),
     "4a669a30c9e857d2a0627f9439a44bde346d3926973dd8fad93e5f8f13e10475"),
]


def _pinned_ids():
    # a case is named by its first three arguments, or all of them when an
    # earlier case already has that name
    ids = []
    for argv, _ in PINNED_STDOUT:
        short = " ".join(argv[:3])
        ids.append(" ".join(argv) if short in ids else short)
    return ids


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT, ids=_pinned_ids())
def test_stdout_is_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == digest
