"""CLI behaviour: exit codes, payload schemas, byte determinism."""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from stringchase import GridSpec, Labeling, __version__, builtin, cli, parse, path_follow, solver
from stringchase.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from stringchase.search import LabelingInvalid, StepLimitExceeded


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


def test_solve_oracle_engine_respects_budget(capsys):
    # m = 2 and the 2-cell boxes of m = 4, 8, 16 enumerate 8 strings each;
    # at m = 16 the box grows to 4 cells, which needs 32
    code, _, err = run_cli(
        capsys,
        "solve", "--builtin", "avg-0.3,0.6", "--engine", "oracle", "--budget", "10",
    )
    assert code == EXIT_BUDGET
    assert "budget" in err


def test_bad_grid_resolution_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "labels", "--builtin", "rot90", "--m", "0")
    assert code == EXIT_USAGE
    assert "resolution" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("trace", "--builtin", "rot90", "--m", "0"),
        ("verify-parity", "--builtin", "rot90", "--m", "-3"),
        ("trace", "--map", "x1", "--n", "0", "--m", "3"),
        ("solve", "--builtin", "dottie", "--max-m", str(2 ** 52 + 1)),
        ("solve", "--builtin", "dottie", "--tol", "nan"),
        ("solve", "--builtin", "reflect1d", "--record", "missing-dir/run.json"),
        ("solve", "--builtin", "dottie", "--max-m", "1"),
        ("solve", "--builtin", "dottie", "--initial-m", "4"),
        ("solve", "--builtin", "dottie", "--growth", "3"),
        ("solve", "--builtin", "dottie", "--json"),
        ("solve", "--map", "x1^" + "9" * 5000, "--n", "1"),
        ("solve", "--map", "x" + "9" * 5000, "--n", "1"),
    ],
    ids=["m-zero", "m-negative", "n-zero", "max-m-above-2^52", "tol-nan", "record-unwritable",
         "max-m-below-2", "no-initial-m", "no-growth", "no-json",
         "exponent-past-int-limit", "index-past-int-limit"],
)
def test_bad_arguments_are_usage_errors(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
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


def test_labels_budget(capsys):
    code, _, _ = run_cli(
        capsys, "labels", "--builtin", "rot90", "--m", "2000", "--budget", "1000"
    )
    assert code == EXIT_BUDGET


def test_record_round_trip(capsys, tmp_path):
    record_path = tmp_path / "run.json"
    argv = ["solve", "--builtin", "reflect1d", "--tol", "1e-9", "--record", str(record_path)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    record = json.loads(record_path.read_text())
    assert list(record) == ["command", "arguments", "timestamp", "version", "payload"]
    assert record["command"] == "solve"
    assert record["arguments"] == argv
    assert record["version"] == __version__
    assert record["payload"] == json.loads(out)


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "stringchase", "solve", "--builtin", "reflect1d"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["converged"] is True


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


def test_trace_json_writes_dump_json_bytes():
    for g in _trace_maps():
        for m in (1, 2, 5, 8):
            t = _trace(g, m)
            payload = cli.trace_payload(t)
            assert cli.trace_json(t) == cli.dump_json(payload) == json.dumps(payload), (g.name, m)


def test_trace_record_is_written_from_the_payload(capsys, tmp_path):
    path = tmp_path / "trace.json"
    argv = ["trace", "--builtin", "avg-0.3,0.6,0.2", "--m", "6", "--record", str(path)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    t = _trace(builtin("avg-0.3,0.6,0.2"), 6)
    assert out == cli.trace_json(t) + "\n"
    text = path.read_text(encoding="utf-8")
    record = {"command": "trace", "arguments": argv, "timestamp": json.loads(text)["timestamp"],
              "version": __version__, "payload": cli.trace_payload(t)}
    assert text == cli.dump_json(record) + "\n"
