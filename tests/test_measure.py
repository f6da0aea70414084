"""Unit tests for volume quadrature and density profiles."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from mingraph import diagnostics, measure
from mingraph.grassmann import log_slope
from mingraph.models import model_affine, model_lawson_osserman, model_slag_exp
from mingraph.util import (
    _ball_midpoint_sum,
    chunk_ranges,
    grid_points,
    run_chunks,
    unit_ball_volume,
)


def test_unit_ball_volume_known_values():
    assert unit_ball_volume(0) == pytest.approx(1.0)
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0)


def test_chunking_helpers():
    assert chunk_ranges(10, 4) == [(0, 4), (4, 8), (8, 10)]
    assert chunk_ranges(0, 4) == []
    out = run_chunks(lambda c: c[0], chunk_ranges(10, 3), threads=4)
    assert out == [0, 3, 6, 9]


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
    # (graph_volume bounds its excised vertex ball with this maximum)
    model = model_affine(1e100 * np.eye(2))
    pts = grid_points([np.linspace(-1.0, 1.0, 5)] * 2)
    log_v = log_slope(model.jacobian(pts))
    assert np.exp(np.max(log_v)) == pytest.approx(1e200, rel=1e-12)


@pytest.mark.parametrize("model,center,radius,resolution,threads,expected", [
    (model_lawson_osserman(), np.zeros(7), 1.5, 32, 1,
     "VolumeReport(region='ball(r=1.5)', value=44.32777404785156, resolution=32, "
     "est_error=0.3670806887014044)"),
    (model_slag_exp(), np.array([0.3, -0.2, 1.0, 0.1]), 0.8, 512, 2,
     "VolumeReport(region='ball(r=0.8)', value=1.8805090198588492, resolution=512, "
     "est_error=0.00044722193514967756)"),
], ids=["cone-vertex", "slag-exp-off-centre"])
def test_graph_volume_pinned(model, center, radius, resolution, threads, expected):
    # both grids span several chunks, so the pairwise chunk reduction is pinned too
    rep = measure.graph_volume(model, center, radius, resolution, threads)
    assert repr(rep) == expected


def test_graph_volume_independent_of_threads():
    # the fine pass spans six chunks, so 2 and 3 threads split it unevenly
    model, center = model_slag_exp(), np.array([0.3, -0.2, 1.0, 0.1])
    reports = {repr(measure.graph_volume(model, center, 0.8, 512, t)) for t in (1, 2, 3)}
    assert len(reports) == 1


def test_graph_volume_evaluates_model_only_inside_base_ball():
    model = model_slag_exp()
    seen = []

    def value(x):
        seen.append(np.array(x))
        return model.value(x)

    center, radius = np.array([0.3, -0.2, 1.0, 0.1]), 0.8
    measure.graph_volume(dataclasses.replace(model, value=value), center, radius, 64)
    dist = np.linalg.norm(np.concatenate(seen) - center[:2], axis=1)
    assert np.all(dist <= radius)
    # and every midpoint of the base ball is evaluated, on both grids
    inside = 0
    for nodes in (32, 64):
        h = 2.0 * radius / nodes
        axis = -radius + h * (np.arange(nodes) + 0.5)
        mids = np.stack(np.meshgrid(*(c + axis for c in center[:2]), indexing="ij"), -1)
        inside += np.count_nonzero(np.linalg.norm(mids - center[:2], axis=-1) <= radius)
    assert dist.size == inside


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
    # a small chunk keeps the test quick; both grids hold dozens of chunks
    monkeypatch.setattr(measure, "_CHUNK", 4096)
    monkeypatch.setattr(diagnostics, "_CHUNK", 4096)
    small, large = (_peak_mb(lambda: quadrature(nodes)) for nodes in (256, 512))
    assert large < 1.25 * small


@pytest.mark.parametrize("threads", [1, 2])
def test_ball_sum_memory_flat_in_chunk_count(threads):
    # same grid, 100x more chunks: neither the chunk list, nor the futures in
    # flight, nor the chunk sums may grow with the count
    def peak(chunk):
        return _peak_mb(lambda: _ball_midpoint_sum(lambda x: float(x.shape[0]),
                                                   np.zeros(2), 1.0, 100, chunk, 0.0,
                                                   threads))

    few, many = peak(500), peak(5)
    assert many < 1.25 * few


def test_curvature_integral_memory_within_one_old_chunk(monkeypatch):
    # two chunks in flight at once must fit the budget of one 50,000-cell chunk
    def peak(cpus, chunk):
        monkeypatch.setattr(diagnostics, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(diagnostics, "_CHUNK", chunk)
        return _peak_mb(lambda: diagnostics.curvature_integral(model_lawson_osserman(),
                                                               2.0, 24))

    two_threads = peak(2, diagnostics._CHUNK)
    assert two_threads <= peak(1, 50000)


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_graph_volume_rejects_a_non_finite_radius(monkeypatch, radius):
    def no_quadrature(*args):
        raise AssertionError("the radius must be checked before any quadrature")

    monkeypatch.setattr(measure, "_volume_once", no_quadrature)
    with pytest.raises(ValueError, match="finite"):
        measure.graph_volume(model_affine(np.zeros((1, 2))), np.zeros(3), radius)
