"""Acceptance gate: one test per release criterion, each printing PASS.

Run with ``pytest -v tests/test_acceptance.py`` to get one line per
criterion.  The corpus is every builtin map plus 100 deterministic random
polynomial maps (dimensions 1..3), defined in conftest.
"""

import itertools
import json
import math
import random
import time

from conftest import ExplicitLabeling, validate_brouwer
from stringchase import (
    GridSpec,
    SolveConfig,
    enumerate_strings,
    exhaustive_fully_labeled,
    builtin,
    parity_check,
    path_follow,
    solve,
    verify_trace,
    vertices,
)
from stringchase.cli import main as cli_main
from stringchase.grid import StringK, face_vertices
from stringchase.labeling import count_fully_labeled_faces, is_fully_labeled

PARITY_MS = range(1, 6)


def test_criterion_1_parity_oddness_and_double_count(corpus, lab_cache):
    # at every level of every instance the number of fully labeled strings
    # is odd and the incidence double count balances exactly
    start = time.perf_counter()
    instances = 0
    for g in corpus:
        for m in PARITY_MS:
            spec, lab = lab_cache(g, m)
            report = parity_check(spec, lab)
            for level in report.levels:
                assert level.fully_labeled % 2 == 1, (g.name, m, level)
                assert level.fully_labeled == level.s1, (g.name, m, level)
                assert level.s1 + 2 * level.s2 == level.t1 + 2 * level.t2, (g.name, m, level)
            instances += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"parity sweep took {elapsed:.1f}s"
    print(f"criterion 1 (parity: odd counts + double-count identity, "
          f"{instances} instances): PASS in {elapsed:.1f}s")


def test_criterion_2_path_follow_matches_oracle(corpus, lab_cache):
    start = time.perf_counter()
    for g in corpus:
        for m in PARITY_MS:
            spec, lab = lab_cache(g, m)
            found, trace = path_follow(spec, lab)
            assert found in exhaustive_fully_labeled(spec, lab, spec.n), (g.name, m)
            verify_trace(lab, trace)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle cross-check took {elapsed:.1f}s"
    print(f"criterion 2 (path-follow result in oracle list + valid trace): "
          f"PASS in {elapsed:.1f}s")


def test_criterion_3_face_and_containment_rules(corpus, lab_cache):
    start = time.perf_counter()

    # (a) induced labelings, small instances: door counts match brute force
    # and every fully labeled face sits in at most two strings, in exactly
    # one iff it is itself a string
    for g in (g for g in corpus if g.n <= 2):
        for m in (1, 2, 3):
            spec, lab = lab_cache(g, m)
            for k in range(1, spec.n + 1):
                strings = list(enumerate_strings(spec, k))
                vertex_sets = [set(vertices(s)) for s in strings]
                lower = {frozenset(vertices(c)) for c in enumerate_strings(spec, k - 1)}
                doors_seen = set()
                for s in strings:
                    count, doors = count_fully_labeled_faces(lab, s)
                    assert count in (0, 1, 2)
                    assert (count == 1) == is_fully_labeled(lab, s)
                    for h in doors:
                        doors_seen.add(face_vertices(s, h))
                for door in doors_seen:
                    containers = sum(1 for vs in vertex_sets if door <= vs)
                    assert containers in (1, 2)
                    assert (containers == 1) == (door in lower)

    # (b) 10^4 random label assignments within 0..k: count is 0..2 and is 1
    # exactly for fully labeled strings
    rng = random.Random(1618)
    for _ in range(10_000):
        k = rng.randint(1, 3)
        s = StringK(k, tuple(rng.randint(0, 2) for _ in range(k)),
                    tuple(rng.sample(range(1, k + 1), k)))
        labels = {v: rng.randint(0, k) for v in vertices(s)}
        lab = ExplicitLabeling(GridSpec(k, 4), labels)
        count, _ = count_fully_labeled_faces(lab, s)
        assert count in (0, 1, 2)
        assert (count == 1) == (set(labels.values()) == set(range(k + 1)))

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"face/containment checks took {elapsed:.1f}s"
    print(f"criterion 3 (door counts + face containment rules): PASS in {elapsed:.1f}s")


def _bisect_cos_fixed_point(tol=1e-9) -> float:
    lo, hi = 0.0, 1.0  # cos(x) - x is positive at 0, negative at 1
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if math.cos(mid) - mid > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_criterion_4_fixed_point_accuracy():
    timings = {}

    start = time.perf_counter()
    report = solve(builtin("reflect1d"), SolveConfig(tol=1e-9))
    timings["reflect1d"] = time.perf_counter() - start
    assert report.converged and report.z == (0.5,)
    assert report.residual == 0.0
    assert report.m_final <= 4

    start = time.perf_counter()
    report = solve(builtin("dottie"), SolveConfig(tol=1e-3))
    timings["dottie"] = time.perf_counter() - start
    reference = _bisect_cos_fixed_point()
    assert abs(reference - 0.7390851332) <= 2e-9  # oracle sanity
    assert report.converged
    assert abs(report.z[0] - reference) <= 1e-3
    assert report.m_final <= 2 ** 13

    start = time.perf_counter()
    report = solve(builtin("rot90"), SolveConfig(tol=1e-2))
    timings["rot90"] = time.perf_counter() - start
    assert report.converged
    assert max(abs(z - 0.5) for z in report.z) <= 1e-2

    start = time.perf_counter()
    report = solve(builtin("avg-0.8"), SolveConfig(tol=1e-4))
    timings["avg-0.8"] = time.perf_counter() - start
    assert abs(report.z[0] - 0.8) <= 2 / report.m_final

    assert all(t < 5.0 for t in timings.values()), timings
    print(f"criterion 4 (fixed-point accuracy on reference maps): PASS "
          f"({', '.join(f'{k} {v * 1000:.0f}ms' for k, v in timings.items())})")


def test_criterion_5_brouwer_validation(corpus, lab_cache):
    start = time.perf_counter()
    for g in corpus:
        for m in (1, 2, 3, 4):
            spec, lab = lab_cache(g, m)
            report = validate_brouwer(lab)
            assert report.checked == spec.point_count
            assert report.ok, (g.name, m, report.violations[:3])
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"boundary-rule validation took {elapsed:.1f}s"
    print(f"criterion 5 (zero-face/one-face rules hold exhaustively): "
          f"PASS in {elapsed:.1f}s")


def test_criterion_6_certificate_sandwich(corpus):
    # every certificate's label-0 vertex is pushed up on all axes and each
    # label-k vertex is pushed down on axis k
    checked = 0
    for g in list(corpus[:9]) + [m for m in corpus if m.name.startswith("poly")][:12]:
        report = solve(g, SolveConfig(tol=1e-2, max_m=256))
        spec = GridSpec(g.n, report.certificate.m)
        for label, vertex in zip(report.certificate.labels, vertices(report.certificate.string)):
            point = spec.to_real(vertex)
            image = g(point)
            if label == 0:
                assert all(gi >= xi for gi, xi in zip(image, point))
            else:
                assert image[label - 1] <= point[label - 1]
            checked += 1
    print(f"criterion 6 (certificate sandwich inequalities, {checked} vertices): PASS")


def test_criterion_7_cli_byte_determinism(capsys):
    commands = [
        ["solve", "--builtin", "reflect1d", "--tol", "1e-9"],
        ["solve", "--builtin", "dottie", "--tol", "1e-3"],
        ["solve", "--builtin", "rot90", "--tol", "1e-2", "--csv"],
        ["verify-parity", "--builtin", "const-0.5,0.5", "--m", "4"],
        ["verify-parity", "--map", "x1*x1; 1 - x2", "--n", "2", "--m", "3"],
        ["trace", "--builtin", "avg-0.8", "--m", "5"],
        ["labels", "--builtin", "rot90", "--m", "2"],
    ]
    for argv in commands:
        outputs = []
        for _ in range(2):
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            outputs.append((code, captured.out))
        assert outputs[0] == outputs[1], argv
        assert outputs[0][1]
        if "labels" != argv[0] and "--csv" not in argv:
            json.loads(outputs[0][1])  # stdout is well-formed JSON
    print("criterion 7 (byte-identical stdout across runs): PASS")


def test_default_solve_converges_on_the_catalog(capsys):
    # `solve` with no tuning flags meets the default tolerance on every
    # catalog entry, the parameterized ones at several parameters
    names = ["reflect1d", "dottie", "rot90", "squeeze", "const-0.3", "const-0.5,0.5",
             "const-0.25,0.75,0.1", "avg-0.8", "avg-0.3,0.6", "avg-0.2,0.9,0.4"]
    for name in names:
        code = cli_main(["solve", "--builtin", name])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["converged"], name
        assert payload["residual"] <= 1e-6, name
