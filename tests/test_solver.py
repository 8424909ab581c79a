"""Refinement loop: witnesses, residuals, certificates, convergence."""

import math

import pytest

from stringchase import (
    Certificate,
    ConfigInvalid,
    GridSpec,
    Labeling,
    SolveConfig,
    StringK,
    builtin,
    labels_of,
    residual,
    select_witness,
    solve,
)


def test_residual_examples():
    g = builtin("reflect1d")
    assert residual(g, (0.5,)) == 0.0
    assert residual(g, (0.25,)) == 0.5
    assert residual(builtin("const-0.5,0.5"), (0.0, 1.0)) == 0.5


def test_select_witness_prefers_smallest_residual():
    g = builtin("reflect1d")
    spec = GridSpec(1, 4)
    s = StringK(1, (1,), (1,))  # vertices 1/4 and 1/2
    assert select_witness(g, spec, s) == ((0.5,), 0.0)

    g2 = builtin("const-0.5,0.5")
    spec2 = GridSpec(2, 2)
    s2 = StringK(2, (0, 0), (1, 2))
    assert select_witness(g2, spec2, s2) == ((0.5, 0.5), 0.0)


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        SolveConfig(initial_m=0)
    with pytest.raises(ConfigInvalid):
        SolveConfig(growth=1)
    with pytest.raises(ConfigInvalid):
        SolveConfig(tol=0.0)
    with pytest.raises(ConfigInvalid):
        SolveConfig(initial_m=8, max_m=4)
    with pytest.raises(ConfigInvalid):
        SolveConfig(engine="magic")
    with pytest.raises(ConfigInvalid):
        SolveConfig(engine="path-follow")


def test_reflect_converges_immediately():
    report = solve(builtin("reflect1d"), SolveConfig(tol=1e-9))
    assert report.converged
    assert report.z == (0.5,)
    assert report.residual == 0.0
    assert report.m_final == 2
    assert report.history[0].evals > 0


def test_dottie_meets_tolerance():
    report = solve(builtin("dottie"), SolveConfig(tol=1e-3))
    assert report.converged
    assert abs(report.z[0] - 0.7390851332) <= 1e-3
    assert report.m_final <= 2 ** 13


def test_rot90_two_dimensional():
    report = solve(builtin("rot90"), SolveConfig(tol=1e-2))
    assert report.converged
    assert max(abs(z - 0.5) for z in report.z) <= 1e-2


def test_oracle_engine_agrees_with_path_engine():
    for name in ("reflect1d", "const-0.5,0.5", "avg-0.8"):
        g = builtin(name)
        a = solve(g, SolveConfig(tol=1e-2, engine="oracle"))
        b = solve(g, SolveConfig(tol=1e-2, engine="path"))
        assert a.converged and b.converged
        assert a.m_final == b.m_final
        assert residual(g, a.z) <= 1e-2 and residual(g, b.z) <= 1e-2


def test_non_convergence_returns_best_so_far():
    report = solve(builtin("dottie"), SolveConfig(tol=1e-15, max_m=64))
    assert not report.converged
    assert report.history[-1].m == 64
    assert report.m_final == min(report.history, key=lambda h: h.residual).m
    assert report.residual == min(h.residual for h in report.history)


def test_history_diameters_follow_grid():
    report = solve(builtin("rot90"), SolveConfig(tol=1e-3, max_m=256))
    ms = [h.m for h in report.history]
    assert ms == sorted(ms)
    for h in report.history:
        assert h.diameter == math.sqrt(2) / h.m
    diams = [h.diameter for h in report.history]
    assert all(a > b for a, b in zip(diams, diams[1:]))


def test_certificate_is_fully_labeled_on_fresh_labeling():
    for name in ("dottie", "rot90", "const-0.25,0.75,0.5"):
        g = builtin(name)
        report = solve(g, SolveConfig(tol=1e-2))
        spec = GridSpec(g.n, report.m_final)
        fresh = Labeling(spec, g)
        assert labels_of(fresh, report.certificate.string) == list(report.certificate.labels)
        assert sorted(report.certificate.labels) == list(range(g.n + 1))


def test_certificate_sandwich_inequalities():
    for name in ("reflect1d", "dottie", "rot90", "avg-0.8"):
        g = builtin(name)
        report = solve(g, SolveConfig(tol=1e-2))
        spec = GridSpec(g.n, report.certificate.m)
        verts = _certificate_vertices(report.certificate, spec)
        for label, point in verts:
            image = g(point)
            if label == 0:
                assert all(gi >= xi for gi, xi in zip(image, point))
            else:
                assert image[label - 1] <= point[label - 1]


def _certificate_vertices(cert: Certificate, spec: GridSpec):
    from stringchase import vertices

    return [
        (label, spec.to_real(v))
        for label, v in zip(cert.labels, vertices(cert.string))
    ]


def test_lipschitz_bound_for_affine_builtins():
    # residual of the chosen witness is at most (L+1) * diameter
    for name in ("reflect1d", "rot90", "const-0.5,0.5", "avg-0.8"):
        g = builtin(name)
        report = solve(g, SolveConfig(tol=1e-12, max_m=32))
        bound_factor = g.lipschitz + 1.0
        for h in report.history:
            assert h.residual <= bound_factor * h.diameter + 1e-12


def test_fresh_labeling_per_resolution():
    report = solve(builtin("dottie"), SolveConfig(tol=1e-4))
    # evals are per-resolution, so later (denser) grids may not be cheaper
    assert all(h.evals >= 2 for h in report.history)
    assert len({h.m for h in report.history}) == len(report.history)
