"""Refinement loop: witnesses, residuals, certificates, convergence."""

import dataclasses
import math
import operator
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CATALOG_REFERENCE, DOTTIE, highdim_maps, recipe_maps, validate_brouwer
from stringchase import (
    Certificate,
    ConfigInvalid,
    GridSpec,
    Labeling,
    MapEvaluationFailed,
    MapFn,
    SolveConfig,
    StringK,
    builtin,
    is_fully_labeled,
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
from stringchase import solver
from stringchase.solver import MAX_M, Resolution, solve_at


def test_residual_examples():
    g = builtin("reflect1d")
    assert residual(g, (0.5,)) == 0.0
    assert residual(g, (0.25,)) == 0.5
    assert residual(builtin("const-0.5,0.5"), (0.0, 1.0)) == 0.5


def test_select_witness_prefers_smallest_residual():
    # a vertex of residual 0 wins without evaluating the secant point
    g, calls = _counted(builtin("reflect1d"))
    assert select_witness(g, {}, [(0.25,), (0.5,)]) == ((0.5,), 0.0)
    assert calls[0] == 2

    g2, calls = _counted(builtin("const-0.5,0.5"))
    points = [(0.0, 0.0), (0.5, 0.0), (0.5, 0.5)]  # StringK(2, (0, 0), (1, 2)) at m = 2
    assert select_witness(g2, {}, points) == ((0.5, 0.5), 0.0)
    assert calls[0] == 3

    # the string of box points 3 and 4 of a box at 28 in grid 64 is the
    # real points 31/64 and 32/64; the witness is a real point too
    g, calls = _counted(builtin("reflect1d"))
    assert select_witness(g, {}, [(31 / 64,), (32 / 64,)]) == ((0.5,), 0.0)
    assert calls[0] == 2


def test_select_witness_evaluates_each_point_once_into_the_table():
    # no labelling has filled the table: each vertex is evaluated and
    # stored, then the secant point; a second call evaluates nothing
    g, calls = _counted(builtin("dottie"))
    images, points = {}, [(0.5,), (0.75,)]
    z, r = select_witness(g, images, points)
    assert calls[0] == 3 and list(images) == [*points, z]
    assert all(images[p] == g(p) for p in images)
    assert r == residual(g, z) < residual(g, (0.75,)) < residual(g, (0.5,))
    calls[0] = 0
    assert select_witness(g, images, points) == (z, r) and calls[0] == 0


def _stepped(inside):
    """g(1/4) = 3/4 and g(1/2) = 3/8, so the secant point of the string
    {1/4, 1/2} at m = 4 has weights (1/5, 4/5), and g is ``inside(x)``
    strictly between the two."""
    def fn(p):
        x = p[0]
        return (0.75,) if x <= 0.25 else (0.375,) if x >= 0.5 else (inside(x),)
    return MapFn(1, fn)


@pytest.mark.parametrize("inside, kept", [
    (lambda x: x - 0.0625, True),   # residual 1/16 < 1/8: the secant point
    (lambda x: x - 0.125, False),   # residual exactly 1/8, a tie: the vertex
    (lambda x: 1.0, False),         # residual about 0.55: the vertex
], ids=["better", "tie", "worse"])
def test_select_witness_keeps_the_secant_point_only_when_strictly_better(inside, kept):
    g, calls = _counted(_stepped(inside))
    images, points = {}, [(0.25,), (0.5,)]
    lab = Labeling(GridSpec(1, 4), g, images=images)
    assert labels_of(lab, StringK(1, (1,), (1,))) == [0, 1] and calls[0] == 2
    # the vertices' images are read from the labelling's table
    z, r = select_witness(g, images, points)
    assert calls[0] == 3
    # the secant point's image is now in the table: asked again, it is read
    assert select_witness(g, images, points) == (z, r) and calls[0] == 3
    if kept:
        assert z == (pytest.approx(0.2 * 0.25 + 0.8 * 0.5),) and r == 0.0625 == residual(g, z)
    else:
        assert (z, r) == ((0.5,), 0.125)


def test_singular_secant_system_keeps_the_vertex():
    # g(x) - x is (1/4, 0) at every vertex: the weights are not determined,
    # so no secant point is formed and nothing is evaluated
    g, calls = _counted(MapFn(2, lambda p: (p[0] + 0.25, p[1])))
    images = {}
    lab = Labeling(GridSpec(2, 4), g, images=images)
    s = StringK(2, (1, 1), (2, 1))
    labels_of(lab, s)
    calls[0] = 0
    points = [lab.grid.to_real(v) for v in vertices(s)]
    assert select_witness(g, images, points) == ((0.25, 0.25), 0.25)
    assert calls[0] == 0


def test_a_fault_at_the_secant_point_propagates():
    # the map fails off the grid points of m = 2; the secant point of the
    # first certificate {1/2, 1} is such a point
    def fn(p):
        if p[0] * 2 != int(p[0] * 2):
            raise ValueError("off the grid")
        return (math.cos(p[0]),)

    with pytest.raises(MapEvaluationFailed) as info:
        solve(MapFn(1, fn), SolveConfig(tol=1e-3))
    assert 0.5 < info.value.point[0] < 1.0


def reference_affine_zero(steps):
    """``solver._affine_zero`` before its pivot loop: max() picks the pivot
    and the rows below are eliminated through a slice."""
    size = len(steps)
    rows = [[d[k] for d in steps] + [0.0] for k in range(size - 1)]
    rows.append([1.0] * size + [1.0])
    for col in range(size):
        top = max(range(col, size), key=lambda i: abs(rows[i][col]))
        if rows[top][col] == 0.0:
            return None
        rows[col], rows[top] = rows[top], rows[col]
        pivot = rows[col]
        for row in rows[col + 1:]:
            f = row[col] / pivot[col]
            for j in range(col, size + 1):
                row[j] -= f * pivot[j]
    weights = [0.0] * size
    for i in range(size - 1, -1, -1):
        row = rows[i]
        weights[i] = (row[size] - sum(row[j] * weights[j] for j in range(i + 1, size))) / row[i]
    return weights if all(map(math.isfinite, weights)) else None


def reference_select_witness(g, images, points):
    """``select_witness`` before it formed the secant point by columns."""
    def image(p):
        if (gp := images.get(p)) is None:
            gp = images[p] = g(p)
        return gp

    steps = []
    best_p, best_r = None, math.inf
    for p in points:
        d = [qi - pi for qi, pi in zip(image(p), p)]
        r = max(map(abs, d))
        steps.append(d)
        if r < best_r:
            best_p, best_r = p, r
    weights = reference_affine_zero(steps) if best_r > 0 else None
    if weights is None:
        return best_p, best_r
    z = tuple(
        min(max(sum(w * p[k] for w, p in zip(weights, points)), 0.0), 1.0)
        for k in range(len(best_p))
    )
    r = max(abs(qi - zi) for qi, zi in zip(image(z), z))
    return (z, r) if r < best_r else (best_p, best_r)


def _hex(value):
    """Floats, nested in lists and tuples, by ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    return value


def _systems(rng, n):
    """(kind, n+1 steps of length n) for every kind of system the test covers."""
    def draw(values=None):
        return [[rng.choice(values) if values else rng.uniform(-1, 1) for _ in range(n)]
                for _ in range(n + 1)]

    steps = draw()
    yield "well", steps
    near = [row[:] for row in steps]  # the last step nearly the mean of the others
    near[-1] = [sum(col[:-1]) / n + rng.choice((1e-13, -1e-15, 1e-300)) for col in zip(*near)]
    yield "near", near
    dyadic = (-2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0)
    singular = draw(dyadic)
    if n == 1:
        singular = [singular[0], singular[0][:]]
    else:  # two equal coordinates, or one that is 0 at every vertex
        k, equal = rng.randrange(n), rng.random() < 0.5
        for row in singular:
            row[k] = row[k - 1] if equal else 0.0
    yield "singular", singular
    yield "ties", draw((-1.0, 1.0, -0.5, 0.5, 0.0))
    bad = draw()
    for _ in range(rng.randint(1, 2)):
        bad[rng.randrange(n + 1)][rng.randrange(n)] = rng.choice((math.inf, -math.inf, math.nan))
    yield "nonfinite", bad


def test_affine_zero_matches_the_reference_bit_for_bit():
    rng = random.Random(27)
    outcomes = Counter()
    for _ in range(300):
        for n in range(1, 9):
            for kind, steps in _systems(rng, n):
                want = reference_affine_zero([row[:] for row in steps])
                got = solver._affine_zero([row[:] for row in steps])
                assert _hex(got) == _hex(want), (kind, steps)
                if kind == "singular":
                    assert want is None, steps
                outcomes[kind, want is None] += 1
    # near-singular, tied and non-finite systems give weights and None both:
    # an infinite step can still leave every weight finite
    assert all(outcomes[kind, none] for kind in ("near", "ties", "nonfinite")
               for none in (True, False)), outcomes


def test_select_witness_matches_the_reference_bit_for_bit():
    # affine maps, steep ones that the clamp bends (the secant point can
    # lose to a vertex there), and shifts x + delta (every step equal, so
    # the system is singular)
    rng = random.Random(28)
    secant = Counter()
    for _ in range(600):
        n = rng.randint(1, 8)
        m = rng.choice((2, 16, 1000, 2 ** 40))
        centre = [rng.random() for _ in range(n)]
        scale = rng.choice((0.6, 6.0))
        slope = [[rng.uniform(-scale, scale) / n for _ in range(n)] for _ in range(n)]
        delta = [rng.uniform(-0.1, 0.1) for _ in range(n)] if rng.random() < 0.2 else None

        def fn(p):
            if delta:
                return tuple(map(operator.add, p, delta))
            return tuple(c + sum(a * (x - y) for a, x, y in zip(row, p, centre))
                         for c, row in zip(centre, slope))

        g = MapFn(n, fn)
        base = tuple(rng.randrange(m) for _ in range(n))
        s = StringK(n, base, tuple(rng.sample(range(1, n + 1), n)))
        points = [GridSpec(n, m).to_real(v) for v in vertices(s)]
        ours, theirs = {}, {}
        got = select_witness(g, ours, points)
        assert _hex(got) == _hex(reference_select_witness(g, theirs, points))
        assert _hex(list(ours.items())) == _hex(list(theirs.items()))
        secant[got[0] not in points, len(ours) > len(points)] += 1
    # the secant point kept, formed and lost, and not formed
    assert secant[True, True] and secant[False, True] and secant[False, False], secant


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
    # every resolution m = 2, 4, ... this solve took about 2 * 10^6 evals
    g = builtin("dottie")
    report = solve(g, SolveConfig(engine="oracle"))
    assert report.converged and report.m_final == 2048
    assert sum(h.evals for h in report.history) <= 12
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
        bound_factor = CATALOG_REFERENCE[name][1] + 1.0
        for h in report.history:
            assert h.residual <= bound_factor * h.diameter + 1e-12


def test_every_resolution_evaluates_its_new_points():
    report = solve(builtin("dottie"), SolveConfig(tol=1e-4))
    # labellings are per box but images per solve: each later resolution
    # still evaluates the grid points its walk adds and the secant point
    assert all(h.evals >= 2 for h in report.history)
    assert len({h.m for h in report.history}) == len(report.history)


def _counted(g: MapFn):
    calls = [0]

    def fn(p):
        calls[0] += 1
        return g.fn(p)

    return dataclasses.replace(g, fn=fn), calls


def test_box_walk_falls_back_to_the_full_walk():
    # at m = 64 a box at lo = 0 spans [0, w/64]; its forced top label 1 at
    # c = w is label 0 in the grid while w/64 < DOTTIE (e.g. cos(1/8) > 1/8
    # at w = 8), so no box string is fully labeled in the whole grid until
    # the box is the whole grid
    g, calls = _counted(builtin("dottie"))
    spec = GridSpec(1, 64)
    box = Labeling(GridSpec(1, 8), g, spec, (0,), images={})
    s, trace = path_follow(box.spec, box)
    verify_trace(box, trace)
    whole = Labeling(spec, g)
    assert box.label((8,)) == 1 and whole.label((8,)) == 0
    assert not is_fully_labeled(whole, StringK(1, box.grid_point(s.base), s.perm))

    # a restart from the m = 32 resolution, its witness moved to 0: at m = 64
    # its box may grow to 2 * 32 cells, the whole grid
    found = solve_at(g, GridSpec(1, 32), SolveConfig())
    prev = Resolution(found.certificate, (0.0,), found.record)
    calls[0] = 0
    res = solve_at(g, spec, SolveConfig(), prev)
    cert, z, record = res.certificate, res.z, res.record
    assert record.boxes == 6  # widths 2, 4, 8, 16, 32, 64
    assert calls[0] == record.evals
    assert labels_of(whole, cert.string) == list(cert.labels) == [0, 1]
    assert min(spec.to_real(v)[0] for v in vertices(cert.string)) <= DOTTIE
    assert max(spec.to_real(v)[0] for v in vertices(cert.string)) >= DOTTIE
    assert record.residual <= min(residual(g, spec.to_real(v)) for v in vertices(cert.string))
    assert residual(g, z) == record.residual


def test_default_solve_cost_on_the_catalog():
    # the measured costs: boxes start at 2 cells, the witness may be the
    # secant point, a solve evaluates each real point once, and dottie's
    # resolutions are m = 2, 16, 2048 (18 evals when m doubled)
    costs = {"dottie": 11, "rot90": 5, "squeeze": 2, "avg-0.3,0.6": 6,
             "const-0.3,0.7,0.1": 7}
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


SOLVED_MAPS = st.one_of(
    smooth_contractions(),
    clamped_sums(),
    st.sampled_from(["dottie", "rot90", "avg-0.3,0.6", "const-0.25,0.75,0.5"]).map(builtin),
)


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


@settings(max_examples=40, deadline=None)
@given(SOLVED_MAPS, st.sampled_from(["path", "oracle"]))
def test_witness_beats_its_vertices_and_every_map_call_is_in_the_history(g, engine):
    # at each resolution the witness is no worse than the certificate's
    # best vertex, and every map call, the witness's included, is in
    # record.evals, with a fresh image table or the one a solve passes on;
    # the oracle enumerates whole grids, so it stops at 16
    g, calls = _counted(g)
    cfg = SolveConfig(tol=1e-6, max_m=16 if engine == "oracle" else MAX_M, engine=engine)
    for images in (None, {}):
        prev, m = None, 2
        while m <= cfg.max_m:
            spec = GridSpec(g.n, m)
            calls[0] = 0
            prev = solve_at(g, spec, cfg, prev, images)
            cert, z, record = prev.certificate, prev.z, prev.record
            assert calls[0] == record.evals
            assert list(cert.labels) == labels_of(Labeling(spec, g), cert.string)
            vertex_residuals = [residual(g, spec.to_real(v)) for v in vertices(cert.string)]
            assert record.residual <= min(vertex_residuals)
            assert residual(g, z) == record.residual
            if record.residual <= cfg.tol:
                break
            m *= 2


@settings(max_examples=40, deadline=None)
@given(SOLVED_MAPS, st.sampled_from(["path", "oracle"]))
def test_a_solve_evaluates_no_real_point_twice(g, engine):
    # every box of every resolution reads the solve's one image table, and
    # every raw evaluator call is still in the history
    inputs = Counter()

    def fn(x):
        inputs[x] += 1
        return g.fn(x)

    cfg = SolveConfig(tol=1e-6, max_m=16 if engine == "oracle" else MAX_M, engine=engine)
    report = solve(dataclasses.replace(g, fn=fn), cfg)
    assert max(inputs.values()) == 1
    assert sum(inputs.values()) == sum(h.evals for h in report.history)


def _solve_costs(maps) -> list[int]:
    """Each map's evaluations solving to 1e-6, every solve converged, its
    counted calls equal to its history's and its certificate genuine."""
    costs = []
    for g in maps:
        g, calls = _counted(g)
        report = solve(g, SolveConfig(tol=1e-6))
        assert report.converged, g.name
        assert calls[0] == sum(h.evals for h in report.history)
        costs.append(calls[0])
        _assert_genuine_certificate(g, report)
    return costs


def test_recipe_family_converges_within_its_evaluation_bound():
    # solving the 120 maps to 1e-6 takes 14,413 evaluations (worst map
    # 2,996), against 23,833 (5,039) when m doubled at every resolution and
    # 134,996 (33,377) with, besides, the best vertex as the witness and an
    # image table per box
    costs = _solve_costs(recipe_maps())
    assert sum(costs) <= 14_700
    assert max(costs) <= 3_050


def test_high_dimensional_draw_converges_within_its_evaluation_bound():
    # the n = 8 draw takes 39,710 evaluations to 1e-6 (worst map 12,383)
    costs = _solve_costs(highdim_maps(8))
    assert sum(costs) <= 40_000
    assert max(costs) <= 12_400


def test_a_jump_whose_box_outgrows_twice_the_last_grid_resolves_there_instead(monkeypatch):
    # two fixed points; the secant point of m = 2 (residual 0.025) asks for
    # m = 16, where the box around it grows past 2 * 2 = 4 cells without a
    # certificate, so the solve gives the jump up and resolves at m = 4
    walks = [[]]  # (grid m, box width) of the walks after each resolution

    def recorded_walk(spec, lab):
        walks[-1].append((lab.grid.m, spec.m))
        return path_follow(spec, lab)

    def recorded_witness(*args):
        walks.append([])
        return select_witness(*args)

    monkeypatch.setattr(solver, "path_follow", recorded_walk)
    monkeypatch.setattr(solver, "select_witness", recorded_witness)
    inputs = Counter()
    g = parse("1.5*x1^2 + 0.1", 1).as_map_fn()
    fn = g.fn

    def counted(x):
        inputs[x] += 1
        return fn(x)

    g = dataclasses.replace(g, fn=counted)
    report = solve(g, SolveConfig(tol=1e-6))
    # the walks of the jump given up are in the next record, and no real
    # point is evaluated twice
    assert max(inputs.values()) == 1
    assert sum(inputs.values()) == sum(h.evals for h in report.history)
    assert report.converged
    _assert_genuine_certificate(g, report)
    assert [h.m for h in report.history] == [2, 4, 16, 2048]
    assert walks[1] == [(16, 2), (16, 4), (4, 2), (4, 4)]
    for h, after in zip(report.history, walks[1:]):
        assert all(w <= 2 * h.m for _, w in after)


@pytest.mark.parametrize("engine", ["path", "oracle"])
def test_solve_at_gives_a_jump_up_and_resolves_at_twice_the_last_grid(monkeypatch, engine):
    # the jump above, made by hand: from the m = 2 resolution, m = 16's box
    # outgrows 2 * 2 = 4 cells, so solve_at itself resolves at m = 4
    g, calls = _counted(parse("1.5*x1^2 + 0.1", 1).as_map_fn())
    cfg = SolveConfig(tol=1e-6, engine=engine)
    images = {}
    first = solve_at(g, GridSpec(1, 2), cfg, images=images)
    direct = solve_at(g, GridSpec(1, 4), cfg, first, dict(images))
    calls[0] = 0
    jumped = solve_at(g, GridSpec(1, 16), cfg, first, images)
    cert, record = jumped.certificate, jumped.record
    assert cert.m == record.m == 4 and record.diameter == 0.25
    assert record.evals == calls[0] > direct.record.evals  # the attempt given up included
    # at m = 4 the search starts afresh: the same boxes, certificate and witness
    assert (cert, jumped.z, record.residual, record.boxes) == (
        direct.certificate, direct.z, direct.record.residual, direct.record.boxes)
    # and solve makes that one call for the resolution, its record the same
    made = []

    def recorded(g, spec, *args):
        made.append(solve_at(g, spec, *args))
        return made[-1]

    monkeypatch.setattr(solver, "solve_at", recorded)
    report = solve(g, cfg)
    assert [found.record for found in made] == list(report.history)
    assert report.history[1] == record


@pytest.mark.parametrize("engine", ["path", "oracle"])
@pytest.mark.parametrize("text, tol, ms, most", [
    # the m = 2 witness is the vertex 0.5, beside the repelling fixed point
    # near 0.500004; its residual 2e-6 asks for m = 2^17.  No box around
    # 0.5 gives a certificate, so were a jump's box not bounded by 2m cells,
    # the 17th box, the whole grid, would be searched from the origin up to
    # the fixed point near 1/6 (21,876 evaluations on the path engine)
    ("1.5*x1^2 + 0.124998", 1e-6, [2, 4, 32, 1024], 20),
    # the same at 1e-12, where the jump asks for m = 2^37
    ("1.5*x1^2 + 0.124999999998", 1e-12, [2, 4, 32, 1024, 2 ** 20], 24),
    # near-tangent: the jump to m = 64 is given up and m = 4 resolved,
    # where the box doubling to the whole grid of 64 takes 257 evaluations
    ("x1 - 0.5*(x1 - 0.6)^2 + 0.01; x2 + 1*(x2 - 0.45)^2 + 0.000001", 1e-12, [2, 4], 45),
], ids=["repelling-1e-6", "repelling-1e-12", "near-tangent"])
def test_a_jump_near_a_fixed_point_it_cannot_certify_costs_what_doubling_would(
        engine, text, tol, ms, most):
    g = parse(text, text.count(";") + 1).as_map_fn()
    fn, calls = g.fn, [0]

    def bounded(x):
        calls[0] += 1
        if calls[0] > most:  # stop here rather than search a grid of 2^37
            raise RuntimeError(f"more than {most} evaluations")
        return fn(x)

    report = solve(dataclasses.replace(g, fn=bounded), SolveConfig(tol=tol, engine=engine))
    assert report.converged
    assert [h.m for h in report.history] == ms
    assert calls[0] == sum(h.evals for h in report.history)
    _assert_genuine_certificate(g, report)


@settings(max_examples=40, deadline=None)
@given(st.one_of(smooth_contractions(), clamped_sums()),
       st.sampled_from([64, 100, 2 ** 20 + 1, MAX_M]))
@example(builtin("dottie"), 100)  # m = 2, 16, then 64, not 100 or 2048
# residual 0.0748 at m = 2, then 0.4 at m = 4: the report is m = 2's, not the last
@example(parse("2*cos(5*x1) + 1.5*abs(x1-0.5) + 0.2", 1).as_map_fn(), 4)
def test_resolutions_are_powers_of_two_at_least_doubling_up_to_max_m(g, max_m):
    report = solve(g, SolveConfig(tol=1e-6, max_m=max_m))
    ms = [h.m for h in report.history]
    assert ms[0] == 2
    assert all(m & (m - 1) == 0 and m <= max_m for m in ms)
    assert all(b >= 2 * a for a, b in zip(ms, ms[1:]))
    if report.converged:
        assert report.m_final == ms[-1] and report.residual <= 1e-6
    else:
        assert ms[-1] == 1 << (max_m.bit_length() - 1)
        best = min(report.history, key=lambda h: h.residual)
        assert (report.residual, report.m_final) == (best.residual, best.m)
        assert report.certificate.m == best.m
        assert residual(g, report.z) == report.residual


def test_growing_box_converges_where_the_whole_grid_is_slow():
    # the first box's string is not fully labeled in the whole grid at
    # many resolutions; a whole-grid walk at m = 2^19 alone costs about
    # 10^6 evals
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
