"""Refinement loop: witnesses, residuals, certificates, convergence."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import validate_brouwer
from stringchase import (
    Certificate,
    ConfigInvalid,
    GridSpec,
    Labeling,
    MapFn,
    SolveConfig,
    StringK,
    builtin,
    labels_of,
    parse,
    parity_check,
    path_follow,
    residual,
    select_witness,
    solve,
    verify_trace,
    vertices,
)
from stringchase.functions import DOTTIE
from stringchase.solver import MAX_M, is_genuine, solve_at


def test_residual_examples():
    g = builtin("reflect1d")
    assert residual(g, (0.5,)) == 0.0
    assert residual(g, (0.25,)) == 0.5
    assert residual(builtin("const-0.5,0.5"), (0.0, 1.0)) == 0.5


def test_select_witness_prefers_smallest_residual():
    g = builtin("reflect1d")
    lab = Labeling(GridSpec(1, 4), g, keep_images=True)
    s = StringK(1, (1,), (1,))  # vertices 1/4 and 1/2
    assert select_witness(lab, s) == ((0.5,), 0.0)

    g2 = builtin("const-0.5,0.5")
    lab2 = Labeling(GridSpec(2, 2), g2, keep_images=True)
    s2 = StringK(2, (0, 0), (1, 2))
    assert select_witness(lab2, s2) == ((0.5, 0.5), 0.0)

    # in a box, vertices are box coordinates and the witness a grid point
    box = Labeling(GridSpec(1, 8), g, GridSpec(1, 64), (28,), keep_images=True)
    assert select_witness(box, StringK(1, (3,), (1,))) == ((0.5,), 0.0)


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        SolveConfig(max_m=1)
    with pytest.raises(ConfigInvalid):
        SolveConfig(tol=0.0)
    with pytest.raises(ConfigInvalid):
        SolveConfig(engine="magic")
    with pytest.raises(ConfigInvalid):
        SolveConfig(engine="path-follow")
    with pytest.raises(ConfigInvalid):
        SolveConfig(max_m=2 ** 52 + 1)
    assert SolveConfig().max_m == MAX_M == 2 ** 52


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


def test_oracle_searches_the_growing_boxes():
    # the oracle enumerates the boxes the walk walks; on the whole grid at
    # every resolution this solve took about 2 * 10^6 evals
    g = builtin("dottie")
    report = solve(g, SolveConfig(engine="oracle"))
    assert report.converged and report.m_final == 2 ** 20
    assert sum(h.evals for h in report.history) <= 1000
    _assert_genuine_certificate(g, report)


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


def _counted(g: MapFn):
    calls = [0]

    def fn(p):
        calls[0] += 1
        return g.fn(p)

    return dataclasses.replace(g, fn=fn), calls


def test_witness_costs_no_evaluations():
    # every map call of a solve is a labelling evaluation of some resolution
    for name in ("dottie", "rot90", "avg-0.3,0.6", "const-0.25,0.75,0.5"):
        g, calls = _counted(builtin(name))
        for engine in ("path", "oracle"):
            calls[0] = 0
            report = solve(g, SolveConfig(tol=1e-4, max_m=256, engine=engine))
            assert calls[0] == sum(h.evals for h in report.history)


def test_box_walk_falls_back_to_the_full_walk():
    # at m = 64 a box at lo = 0 spans [0, w/64]; its forced top label 1 at
    # c = w is label 0 in the grid while w/64 < DOTTIE (e.g. cos(1/8) > 1/8
    # at w = 8), so no box certificate is genuine until the box is the
    # whole grid
    g, calls = _counted(builtin("dottie"))
    spec = GridSpec(1, 64)
    box = Labeling(GridSpec(1, 8), g, spec, (0,), keep_images=True)
    s, trace = path_follow(box.spec, box)
    verify_trace(box, trace)
    assert box.label((8,)) == 1 and not is_genuine(box, (8,))
    assert not all(is_genuine(box, v) for v in vertices(s))

    calls[0] = 0
    cert, z, record = solve_at(g, spec, SolveConfig(), near=(0.0,))
    assert record.boxes == 6  # widths 2, 4, 8, 16, 32, 64
    assert calls[0] == record.evals
    fresh = Labeling(spec, g)
    assert labels_of(fresh, cert.string) == list(cert.labels) == [0, 1]
    assert min(spec.to_real(v)[0] for v in vertices(cert.string)) <= DOTTIE
    assert max(spec.to_real(v)[0] for v in vertices(cert.string)) >= DOTTIE
    assert (z, record.residual) == min(
        ((spec.to_real(v), residual(g, spec.to_real(v))) for v in vertices(cert.string)),
        key=lambda zr: zr[1],
    )


def test_default_solve_cost_on_the_catalog():
    # boxes start at 2 cells; starting them at 8 cost 107, 5, 2, 219 and 472
    costs = {"dottie": 50, "rot90": 5, "squeeze": 2, "avg-0.3,0.6": 98,
             "const-0.3,0.7,0.1": 352}
    for name, evals in costs.items():
        report = solve(builtin(name))
        assert report.converged
        assert sum(h.evals for h in report.history) <= evals, name


@st.composite
def smooth_contractions(draw):
    """g_i(x) = b_i + sum_j a_ij sin(f_ij x_j + p_ij) with sum_j |a_ij f_ij| < 1."""
    n = draw(st.integers(1, 3))
    unit = st.floats(-1.0, 1.0)
    rows = []
    for _ in range(n):
        a = [draw(unit) for _ in range(n)]
        f = [draw(st.floats(0.5, 4.0)) for _ in range(n)]
        p = [draw(st.floats(0.0, 6.3)) for _ in range(n)]
        lip = max(sum(abs(ai * fi) for ai, fi in zip(a, f)), 1e-3)
        scale = draw(st.floats(0.1, 0.95)) / lip
        rows.append((draw(st.floats(0.2, 0.8)), [ai * scale for ai in a], f, p))

    def fn(x):
        return tuple(
            b + sum(ai * math.sin(fi * xj + pi) for ai, fi, pi, xj in zip(a, f, p, x))
            for b, a, f, p in rows
        )

    return MapFn(n, fn)


TERMS = ("{i}", "{i}^2", "sin(3*{i})", "cos(5*{j})", "{i}*{j}", "abs({i}-0.5)",
         "max2({i},{j})", "expneg(4*{j})")


@st.composite
def clamped_sums(draw):
    """Each component a constant plus 1-3 weighted terms, clamped into the
    cube: mostly not contractions, so boxes often have to grow."""
    n = draw(st.integers(1, 3))
    var = st.integers(1, n).map(lambda i: f"x{i}")
    components = []
    for _ in range(n):
        terms = [
            f"{draw(st.sampled_from([0.3, 0.5, 0.9, 1.5, 2]))}*"
            + draw(st.sampled_from(TERMS)).format(i=draw(var), j=draw(var))
            for _ in range(draw(st.integers(1, 3)))
        ]
        components.append(" + ".join(terms + [str(draw(st.sampled_from([0, 0.1, 0.2])))]))
    return parse("; ".join(components), n).as_map_fn()


def _assert_genuine_certificate(g: MapFn, report) -> None:
    spec = GridSpec(g.n, report.m_final)
    fresh = Labeling(spec, g)
    cert = report.certificate
    assert labels_of(fresh, cert.string) == list(cert.labels)
    assert sorted(cert.labels) == list(range(g.n + 1))
    for label, point in _certificate_vertices(cert, spec):
        image = g(point)
        if label == 0:
            assert all(gi >= xi for gi, xi in zip(image, point))
        else:
            assert image[label - 1] <= point[label - 1]
    assert report.residual == residual(g, report.z)


@settings(max_examples=40, deadline=None)
@given(smooth_contractions(), st.sampled_from([1e-3, 1e-6, 1e-9]))
def test_certificates_of_box_walks_are_genuine(g, tol):
    _assert_genuine_certificate(g, solve(g, SolveConfig(tol=tol)))


@settings(max_examples=60, deadline=None)
@given(clamped_sums())
def test_growing_boxes_on_clamped_sums(g):
    g, calls = _counted(g)
    report = solve(g, SolveConfig(tol=1e-6))
    assert report.converged
    assert calls[0] == sum(h.evals for h in report.history)
    _assert_genuine_certificate(g, report)


def test_growing_box_converges_where_the_whole_grid_is_slow():
    # the first box fails the genuineness check at many resolutions; a
    # whole-grid walk at m = 2^19 alone costs about 10^6 evals
    text = "0.9*x2 + 2*cos(5*x2) + 0.2; 0.3*x2^2 + 0.5*cos(5*x2) + 0.2"
    g, calls = _counted(parse(text, 2).as_map_fn())
    report = solve(g, SolveConfig(tol=1e-6))
    assert report.converged and report.residual <= 1e-6
    assert any(h.boxes > 1 for h in report.history)
    assert calls[0] == sum(h.evals for h in report.history) <= 5_000


@settings(max_examples=40, deadline=None)
@given(smooth_contractions(), st.integers(1, 6), st.data())
def test_box_labelling_obeys_the_boundary_rules(g, w, data):
    # any box of any grid: the walk and the parity argument need nothing else
    m = data.draw(st.integers(w, 40))
    lo = tuple(data.draw(st.integers(0, m - w)) for _ in range(g.n))
    box = Labeling(GridSpec(g.n, w), g, GridSpec(g.n, m), lo)
    assert validate_brouwer(box).ok
    s, trace = path_follow(box.spec, box)
    verify_trace(box, trace)
    assert parity_check(box.spec, box).ok
    if lo == (0,) * g.n and w == m:
        whole = Labeling(box.spec, g)
        assert all(box.label(p) == whole.label(p) for p in box.spec.points())
