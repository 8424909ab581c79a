"""Correctness checks of one task's CLI output, run outside the timed region.

Each check rebuilds what it needs from the stdout text and recomputes it
on a fresh Labeling of a freshly resolved map, so it trusts nothing the
timed program kept.  A check returns a list of problems; empty means the
output is correct.  A solve that honestly reports non-convergence (exit 2)
is a correct output of a failed task.
"""

from __future__ import annotations

import json

# Slack for the a-posteriori error bound: the generated maps' fixed points
# are exact only up to the rounding of their 17-digit constants.
_BOUND_SLACK = 1e-12


def resolve_map(sc, task):
    """The task's map, resolved the way the CLI resolves it."""
    name = task.option("--builtin")
    if name is not None:
        return sc.builtin(name)
    text = task.option("--map")
    return sc.parse(text, int(task.option("--n"))).as_map_fn(name=text)


def check(sc, task, code: int, stdout: str) -> list[str]:
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON ({exc}); exit {code}"]
    if task.command == "solve":
        return _check_solve(sc, task, code, payload)
    if task.command == "trace":
        return _check_trace(sc, task, code, payload)
    return _check_parity(code, payload, resolve_map(sc, task).n)


def _check_solve(sc, task, code: int, payload: dict) -> list[str]:
    g = resolve_map(sc, task)
    n, m = g.n, payload["m_final"]
    tol = float(task.option("--tol") or 1e-6)
    problems = []
    converged = payload["converged"]
    if code != (0 if converged else 2):
        problems.append(f"exit {code} with converged={converged}")

    cert = payload["certificate"]
    string = sc.StringK(n, tuple(cert["base"]), tuple(cert["perm"]))
    spec = sc.GridSpec(n, m)
    lab = sc.Labeling(spec, g)
    labels = sc.labels_of(lab, string)
    if labels != cert["labels"]:
        problems.append(f"certificate labels {cert['labels']} recompute as {labels}")
    if sorted(labels) != list(range(n + 1)):
        problems.append(f"certificate labels {labels} are not exactly 0..{n}")
    for label, vertex in zip(labels, sc.vertices(string)):
        x = spec.to_real(vertex)
        gx = g(x)
        if label == 0:
            ok = all(gi >= xi for gi, xi in zip(gx, x))
        else:
            ok = gx[label - 1] <= x[label - 1]
        if not ok:
            problems.append(f"sandwich inequality fails at vertex {vertex} (label {label})")

    z = tuple(payload["z"])
    r = sc.residual(g, z)
    if r != payload["residual"]:
        problems.append(f"reported residual {payload['residual']} recomputes as {r}")
    if converged and not r <= tol:
        problems.append(f"converged with residual {r} > tol {tol}")
    if not converged and r <= tol:
        problems.append(f"not converged although residual {r} <= tol {tol}")
    if task.fixed_point is not None and task.lipschitz is not None and task.lipschitz < 1:
        error = max(abs(a - b) for a, b in zip(z, task.fixed_point))
        if error > r / (1.0 - task.lipschitz) + _BOUND_SLACK:
            problems.append(f"|z - z*| = {error} exceeds residual/(1-L)")
    return problems


def _check_trace(sc, task, code: int, payload: dict) -> list[str]:
    if code != 0:
        return [f"trace exited {code}"]
    g = resolve_map(sc, task)
    lab = sc.Labeling(sc.GridSpec(g.n, int(task.option("--m"))), g)
    steps = tuple(
        sc.TraceStep(s["level"], sc.StringK(s["level"], tuple(s["base"]), tuple(s["perm"])),
                     s["entry"], s["exit"])
        for s in payload["steps"]
    )
    try:
        sc.verify_trace(lab, sc.PathTrace(steps, payload["outcome"]))
    except sc.TraceInvalid as exc:
        return [f"verify_trace: {exc}"]
    return []


def _check_parity(code: int, payload: dict, n: int) -> list[str]:
    problems = [] if code == 0 else [f"verify-parity exited {code}"]
    levels = payload["levels"]
    if [lv["k"] for lv in levels] != list(range(1, n + 1)):
        problems.append(f"levels {[lv['k'] for lv in levels]} are not 1..{n}")
    for lv in levels:
        if not (lv["identity_ok"] and lv["odd_ok"]):
            problems.append(f"level {lv['k']} fails its parity flags")
        if lv["S1"] + 2 * lv["S2"] != lv["T1"] + 2 * lv["T2"] or lv["S1"] % 2 != 1:
            problems.append(f"level {lv['k']} counts break the double count or oddness")
    return problems
