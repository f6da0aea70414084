"""Unit tests for volume quadrature and density profiles."""

import dataclasses
import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest

from mingraph import diagnostics, measure, util
from mingraph.grassmann import log_slope
from mingraph.models import model_affine, model_lawson_osserman, model_slag_exp
from mingraph.util import run_chunks, unit_ball_volume


def test_unit_ball_volume_known_values():
    assert unit_ball_volume(0) == pytest.approx(1.0)
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0)
    assert unit_ball_volume(1) == 2.0
    assert unit_ball_volume(2) == math.pi
    assert unit_ball_volume(4) == math.pi**2 / 2.0


def test_chunking_helpers():
    out = run_chunks(lambda c: c[0], [(0, 3), (3, 6), (6, 9), (9, 10)], threads=4)
    assert out == [0, 3, 6, 9]


def test_run_chunks_raises_a_pooled_jobs_error():
    # a failing middle job reaches the caller from the pool, as it does inline
    def job(k):
        if k == 2:
            raise ValueError(f"job {k} failed")
        return k

    for threads in (1, 2):
        with pytest.raises(ValueError, match="job 2 failed"):
            run_chunks(job, [0, 1, 2, 3, 4], threads=threads)


def test_flat_disc_volume():
    model = model_affine(np.zeros((1, 2)))
    rep = measure.graph_volume(model, np.zeros(3), 1.0, 128)
    assert rep.value == pytest.approx(math.pi, rel=5e-3)
    assert rep.est_error < 0.05


def test_tilted_plane_volume():
    # graph of u = x1: area multiplies by sqrt(2) over the projected region,
    # but the ambient ball cuts an ellipse; compare against the closed form
    # area = pi r^2 (disc in the plane)
    model = model_affine(np.array([[1.0, 0.0]]))
    rep = measure.graph_volume(model, np.zeros(3), 1.0, 256)
    assert rep.value == pytest.approx(math.pi, rel=1e-2)


def test_volume_report_validation():
    with pytest.raises(ValueError):
        measure.VolumeReport("x", -1.0, 64, 0.0)
    model = model_affine(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        measure.graph_volume(model, np.zeros(3), 1.0, resolution=16)
    with pytest.raises(ValueError, match="node count"):
        measure.graph_volume(model, np.zeros(3), 1.0, resolution=64.5)
    with pytest.raises(ValueError):
        measure.graph_volume(model, np.zeros(2), 1.0)


def test_graph_volume_names_the_resolution_it_refuses():
    model = _no_model(model_affine(np.zeros((1, 2))))
    with pytest.raises(ValueError, match=r"^resolution must be an integer >= 32, got 16$"):
        measure.graph_volume(model, np.zeros(3), 1.0, resolution=16)


def test_cone_volume_homogeneous():
    model = model_lawson_osserman()
    vals = [
        measure.graph_volume(model, np.zeros(7), rho, 40).value / rho**4
        for rho in (1.0, 2.0, 4.0)
    ]
    assert max(vals) / min(vals) < 1.01
    # exact value: slope 9 over the base ball of radius 2 rho / 3
    exact = 9.0 * unit_ball_volume(4) * (2.0 / 3.0) ** 4
    assert vals[0] == pytest.approx(exact, rel=1e-2)


def test_exponential_volume_beats_cubic_bound():
    model = model_slag_exp()
    center = np.array([0.0, 0.0, 1.0, 0.0])  # graph point above the origin
    for r in (math.e, 5.0):
        rep = measure.graph_volume(model, center, math.sqrt(3.0) * r, 512)
        assert rep.value >= r * (r * r - 1.0)
        assert rep.est_error <= 0.01 * rep.value


def test_volume_rigid_motion_invariance():
    # translate base and target simultaneously with the ball center
    A = np.array([[0.6, -0.2]])
    model = model_affine(A)
    shifted = model_affine(A, b=np.array([0.7]))
    v1 = measure.graph_volume(model, np.zeros(3), 1.3, 64).value
    v2 = measure.graph_volume(shifted, np.array([0.0, 0.0, 0.7]), 1.3, 64).value
    assert v2 == pytest.approx(v1, rel=1e-2)
    # rotate the base (an ambient rigid motion fixing the target factor)
    th = 0.7
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    rotated = model_affine(A @ R)
    v3 = measure.graph_volume(rotated, np.zeros(3), 1.3, 64).value
    assert v3 == pytest.approx(v1, rel=1e-2)


def test_density_profile_affine_is_one():
    model = model_affine(np.array([[1.0, 0.5]]))
    prof = measure.density_profile(model, np.zeros(3), np.linspace(1, 3, 5), 128)
    assert np.max(np.abs(prof.ratios - 1.0)) < 0.01
    assert prof.monotonicity_margin > -3.0 * np.max(prof.est_errors)


def test_density_profile_of_a_line_is_exactly_one():
    # the line y = x has length 2 rho in the disc of radius rho about 0
    prof = measure.density_profile(model_affine(np.array([[1.0]])), np.zeros(2),
                                   [1.0, 2.0])
    assert prof.volumes.tolist() == [2.0, 4.0]
    assert prof.ratios.tolist() == [1.0, 1.0]


def test_density_profile_cone_constant_and_above_one():
    model = model_lawson_osserman()
    prof = measure.density_profile(model, np.zeros(7), np.linspace(1, 4, 5), 40)
    assert np.max(prof.ratios) / np.min(prof.ratios) < 1.01
    assert np.all(prof.ratios >= 1.0)
    assert prof.ratios[0] == pytest.approx(16.0 / 9.0, rel=1e-2)


def test_density_profile_rejects_off_graph_center():
    model = model_slag_exp()
    with pytest.raises(ValueError):
        measure.density_profile(model, np.array([0.0, 0.0, 5.0, 0.0]), [1.0, 2.0])


def test_max_slope_steep_plane_is_finite():
    # det g = (1 + 1e200)^2 overflows; the slope 1 + 1e200 does not
    # (graph_volume integrates this slope along each ray)
    model = model_affine(1e100 * np.eye(2))
    axis = np.linspace(-1.0, 1.0, 5)
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    log_v = log_slope(model.jacobian(pts))
    assert np.exp(np.max(log_v)) == pytest.approx(1e200, rel=1e-12)


@pytest.mark.parametrize("model,center,radius,resolution,expected", [
    (model_lawson_osserman(), np.zeros(7), 1.5, 32,
     "VolumeReport(region='ball(r=1.5)', value=44.41321980490215, resolution=32, "
     "est_error=4.654484801218245e-13)"),
    (model_slag_exp(), np.array([0.3, -0.2, 1.0, 0.1]), 0.8, 512,
     "VolumeReport(region='ball(r=0.8)', value=1.880869967485542, resolution=512, "
     "est_error=2.032823758789971e-14)"),
], ids=["cone-vertex", "slag-exp-off-centre"])
def test_graph_volume_pinned(model, center, radius, resolution, expected):
    # the slag-exp fine pass spans several chunks of rays, so their order is pinned too
    rep = measure.graph_volume(model, center, radius, resolution)
    assert repr(rep) == expected


def test_density_profile_independent_of_threads():
    # three radii: 2 and 3 threads split them unevenly
    model, center = model_slag_exp(), np.array([0.0, 0.0, 1.0, 0.0])
    profiles = [measure.density_profile(model, center, [0.5, 0.8, 1.2], 256, threads)
                for threads in (1, 2, 3)]
    for prof in profiles[1:]:
        assert prof.ratios.tobytes() == profiles[0].ratios.tobytes()
        assert prof.est_errors.tobytes() == profiles[0].est_errors.tobytes()


def test_graph_volume_evaluates_model_only_inside_base_ball():
    model = model_slag_exp()
    seen, kept = [], []

    def value(x):
        seen.append(np.array(x))
        return model.value(x)

    def jacobian(x):
        kept.append(np.array(x))
        return model.jacobian(x)

    center, radius = np.array([0.3, -0.2, 1.0, 0.1]), 0.8
    traced = dataclasses.replace(model, value=value, jacobian=jacobian)
    measure.graph_volume(traced, center, radius, 64)
    dist = np.linalg.norm(np.concatenate(seen) - center[:2], axis=1)
    assert np.all(dist <= radius)
    # the trace is star-shaped from this centre: each ray of both passes holds
    # one inside interval, whose radial nodes are all graph points in the ball
    kept = np.concatenate(kept)
    rays_and_nodes = [(2 * (nodes // 4), max(8, nodes // 16)) for nodes in (64, 32)]
    assert len(kept) == sum(rays * q for rays, q in rays_and_nodes)
    graph = np.concatenate([kept, model.value(kept)], axis=1)
    assert np.all(np.linalg.norm(graph - center, axis=1) <= radius)


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("quadrature", [
    lambda nodes: measure.graph_volume(model_affine(np.array([[0.5, -0.2]])),
                                       np.zeros(3), 1.0, nodes),
    lambda nodes: diagnostics.curvature_integral(model_slag_exp(), 1.0, nodes),
], ids=["graph_volume", "curvature_integral"])
def test_quadrature_memory_flat_in_resolution(monkeypatch, quadrature):
    # a small chunk keeps the test quick; both rules hold several chunks of rays
    monkeypatch.setattr(util, "_CHUNK_POINTS", 4096)
    small, large = (_peak_mb(lambda: quadrature(nodes)) for nodes in (256, 512))
    assert large < 1.25 * small


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_graph_volume_rejects_a_non_finite_radius(radius):
    model = _no_model(model_affine(np.zeros((1, 2))))
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        measure.graph_volume(model, np.zeros(3), radius)
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        diagnostics.curvature_integral(model, radius, 8)


@pytest.mark.parametrize("center,profile_error", [
    ([math.nan, 0.0, 1.0, 0.0], "center must be finite"),
    ([0.0, 0.0, math.inf, 0.0], "center must be finite"),
], ids=["nan", "inf"])
def test_graph_volume_rejects_a_non_finite_center(monkeypatch, center, profile_error):
    def no_quadrature(*args):
        raise AssertionError("the center must be checked before any quadrature")

    monkeypatch.setattr(measure, "_polar_ball_sum", no_quadrature)
    with pytest.raises(ValueError, match="center must be finite"):
        measure.graph_volume(model_slag_exp(), center, 1.0)
    # density_profile refuses a NaN or infinite centre before its on-graph test
    with pytest.raises(ValueError, match=profile_error):
        measure.density_profile(model_slag_exp(), center, [1.0, 2.0])


@pytest.mark.parametrize("radii", [[2.0, 1.0], [1.0, 1.0], [1.0]],
                         ids=["decreasing", "repeated", "single"])
def test_density_profile_refuses_bad_radii_before_any_quadrature(monkeypatch, radii):
    # one radius gives no consecutive pair for monotonicity_margin to compare
    def no_quadrature(*args):
        raise AssertionError("the radii must be checked before any quadrature")

    monkeypatch.setattr(measure, "_polar_ball_sum", no_quadrature)
    with pytest.raises(ValueError, match="radii must be at least two and strictly increasing"):
        measure.density_profile(model_slag_exp(), [0.0, 0.0, 1.0, 0.0], radii, 512)


def _no_model(model):
    """``model`` with callables that fail: a refused rule calls none of them."""

    def refuse(x):
        raise AssertionError("the rule must be refused before any model call")

    return dataclasses.replace(model, value=refuse, jacobian=refuse, hessian=refuse,
                               in_domain=refuse)


@pytest.mark.parametrize("model", [model_lawson_osserman(), model_slag_exp()],
                         ids=["cone", "slag-exp"])
def test_quadrature_refuses_work_above_the_ceiling(model):
    center = np.zeros(model.n + model.m)
    with pytest.raises(ValueError, match="resolution 1000000 asks for .* above the ceiling"):
        measure.graph_volume(_no_model(model), center, 1.0, 10**6)
    with pytest.raises(ValueError, match="nodes_per_axis 1000000 asks for"):
        diagnostics.curvature_integral(_no_model(model), 1.0, 10**6)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sphere_rule_weights_sum_to_the_sphere_area(n):
    dirs, weights = util._sphere_rule(n, 6)
    assert dirs.shape == (weights.size, n)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-15)
    assert np.all(weights > 0.0)
    assert np.sum(weights) == pytest.approx(n * unit_ball_volume(n), rel=1e-15)


def _covers(rep, exact, tol=0.0):
    """The bar covers the error of ``rep`` against ``exact`` known to ``tol``."""
    return abs(rep.value - exact) + tol <= rep.est_error


def test_error_bar_covers_the_error_on_exact_cases():
    # the cone's density is 16/9 at every radius (Lawson & Osserman 1977) and
    # the plane's is 1: the rule is exact there, and the bar reads rounding
    cases = [(model_lawson_osserman(), np.zeros(7), 16.0 / 9.0, 40, (0.7, 1.9, 3.1)),
             (model_affine(np.array([[0.5, -0.2]])), np.zeros(3), 1.0, 128, (1.0, 4.0))]
    for model, center, density, resolution, radii in cases:
        for r in radii:
            rep = measure.graph_volume(model, center, r, resolution)
            exact = density * unit_ball_volume(model.n) * r**model.n
            assert _covers(rep, exact)
            assert rep.est_error <= 1e-12 * exact


@pytest.mark.parametrize("resolution", [32, 64, 128])
def test_error_bar_covers_the_error_on_slag_exp(resolution):
    # against the rule at 1024, converged to rounding
    model, center = model_slag_exp(), np.array([0.0, 0.0, 1.0, 0.0])
    for r in (1.0, 2.5, 4.0):
        high = measure.graph_volume(model, center, r, 1024).value
        assert _covers(measure.graph_volume(model, center, r, resolution), high)


@pytest.mark.parametrize("resolution", [40, 64])
def test_error_bar_covers_the_error_off_the_cone_vertex(resolution):
    # seen from this on-graph centre the trace is not star-shaped in a thin
    # set of directions, so the rule converges only algebraically.  The rule
    # at resolution 160, 192 and 256 reads 6.05059, 6.05088 and 6.05082.
    model = model_lawson_osserman()
    center = model.graph_point(np.array([0.5, 0.1, -0.15, 0.2]))
    rep = measure.graph_volume(model, center, 1.0, resolution)
    assert _covers(rep, 6.05082, tol=3e-4)


def test_graph_volume_counts_every_inside_interval_of_a_ray():
    # seen from (0, 0, 10, 0), off the graph, the ball meets slag-exp (periodic
    # in y) in three lobes, near y = 0 and y = +-2 pi, so rays along y leave one
    # lobe and enter the next.  A midpoint rule on 4000^2 cells gives 883.91
    # (884.14 on 2000^2); the first interval of each ray alone would give 394.5.
    center = np.array([0.0, 0.0, 10.0, 0.0])
    rep = measure.graph_volume(model_slag_exp(), center, 11.0, 1024)
    assert rep.value == pytest.approx(883.9, rel=0.01)


def test_quadrature_has_one_home():
    # measure and diagnostics integrate only through util._polar_ball_sum, and
    # neither builds a grid or a rule of its own
    rule = re.compile(r"meshgrid|grid_points|leggauss|polynomial|linspace|arange")
    for module in (measure, diagnostics):
        text = inspect.getsource(module)
        assert "from mingraph.util import _polar_ball_sum" in text
        assert rule.findall(text) == []
    calls = {module.__name__: len(re.findall(r"_polar_ball_sum\(", inspect.getsource(module)))
             for module in (measure, diagnostics)}
    assert calls == {"mingraph.measure": 1, "mingraph.diagnostics": 1}


def _bisected_intervals(margin, center, dirs, radius, scan):
    """Reference for ``util._inside_intervals``: 52 plain halvings of every change."""
    t = radius * np.arange(1, scan + 1) / scan
    ins = margin((center + dirs[:, None, :] * t[:, None]).reshape(-1, center.size)) >= 0
    pad = np.zeros((len(dirs), 1), dtype=bool)
    ins = np.concatenate([pad, ins.reshape(len(dirs), scan), pad], axis=1)
    ray, gap = np.nonzero(ins[:, 1:] != ins[:, :-1])
    edge = np.where(gap == 0, 0.0, radius)
    cut = np.flatnonzero((gap > 0) & (gap < scan))
    lo, hi, lo_in = t[gap[cut] - 1], t[gap[cut]], ins[ray[cut], gap[cut]]
    d = dirs[ray[cut]]
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        same = (margin(center + mid[:, None] * d) >= 0) == lo_in
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    edge[cut] = 0.5 * (lo + hi)
    return ray[::2], edge[::2], edge[1::2]


_CONE = model_lawson_osserman()


@pytest.mark.parametrize("model,center,radius,resolution", [
    # at 48 (scan t = j / 12) and 24 nodes a scan node lies on the exit t = 4/3
    (_CONE, np.zeros(7), 2.0, 48),
    (_CONE, np.zeros(7), 2.0, 40),
    (_CONE, _CONE.graph_point(np.array([0.5, 0.1, -0.15, 0.2])), 1.0, 40),
    # the domain cuts every ray at |x| = 0.5, where the margin is -inf
    (dataclasses.replace(_CONE, in_domain=lambda x: np.linalg.norm(x, axis=-1) > 0.5),
     np.zeros(7), 2.0, 40),
    (model_affine(np.array([[0.5, -0.2]])), np.zeros(3), 1.0, 128),
    # a ray nearly tangent to the ball: rounding flips the margin's sign over
    # about 200 ulps of t around one exit
    (model_affine(np.array([[-1.8062357186285307, -0.3697576989240435, -0.19340890752363765],
                            [2.2782158949704496, 1.1592260790409137, -1.5035062625871387]])),
     np.array([0.6819677636799354, 0.7706312764276145, -0.11164572231944679,
               -0.25766231503180886, -0.19380324542255564]), 2.904341870399805, 64),
    (model_slag_exp(), np.array([0.0, 0.0, 10.0, 0.0]), 11.0, 256),
], ids=["cone-node-on-exit", "cone", "cone-off-vertex", "cone-domain-cut", "affine",
        "affine-slow-crossing", "slag-exp-lobes"])
def test_inside_intervals_match_a_plain_bisection(monkeypatch, model, center, radius,
                                                  resolution):
    # Illinois steps and the replayed halvings end every edge bit for bit
    # where 52 plain halvings do, in each chunk of rays of both passes
    found, chunks = util._inside_intervals, []

    def compare(*args):
        got, want = found(*args), _bisected_intervals(*args)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        chunks.append(len(got[0]))
        return got

    monkeypatch.setattr(util, "_inside_intervals", compare)
    measure.graph_volume(model, center, radius, resolution)
    assert len(chunks) >= 2 and min(chunks) > 0


@pytest.mark.parametrize("resolution,chunks", [(40, 2), (48, 3)])
def test_cone_volume_takes_few_model_calls(resolution, chunks):
    # each chunk of rays takes a scan call and a few Illinois and replayed
    # bisection calls, where 52 plain halvings took 53 (106 and 159 in all);
    # at 48 nodes a scan node lies on the exit, where an unclipped secant stalls
    calls = []

    def in_domain(x):
        calls.append(len(x))
        return _CONE.in_domain(x)

    measure.graph_volume(dataclasses.replace(_CONE, in_domain=in_domain),
                         np.zeros(7), 2.0, resolution)
    assert len(calls) <= 20 * chunks


def test_quadrature_rules_are_cached_and_read_only():
    dirs, weights = util._sphere_rule(4, 10)
    x, w = util._gauss_legendre(8)
    assert util._sphere_rule(4, 10)[0] is dirs and util._gauss_legendre(8)[1] is w
    for rule in (dirs, weights, x, w, *util._sphere_rule(1, 3)):
        with pytest.raises(ValueError, match="read-only"):
            rule[0] = 0.0
