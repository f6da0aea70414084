"""Unit tests for plane invariants: spectra, slope, dilation, angles."""

import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mingraph
from mingraph import algebra, diagnostics, solver
from mingraph.grassmann import (
    DimensionMismatchError,
    InvalidInputError,
    PlaneBasis,
    bernstein_condition,
    graph_plane_basis,
    grassmann_distance,
    jordan_angles,
    log_slope,
    metric_inverse,
    plane_inner,
    singular_spectrum,
    slope,
    two_dilation,
)
from mingraph.models import model_lawson_osserman, model_slag_exp


def test_spectrum_matches_diagonal():
    J = np.diag([3.0, 2.0, 0.5])
    assert np.allclose(singular_spectrum(J), [3.0, 2.0, 0.5])


def test_spectrum_zero_padded_when_wide():
    J = np.array([[1.0, 2.0, 2.0]])  # 1 x 3, norm 3
    s = singular_spectrum(J)
    assert s.shape == (3,)
    assert np.allclose(s, [3.0, 0.0, 0.0])


def test_spectrum_sorted_descending():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = singular_spectrum(rng.standard_normal((3, 4)))
        assert np.all(np.diff(s) <= 0)


def test_spectrum_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        singular_spectrum(np.array([[np.nan, 1.0]]))
    with pytest.raises(InvalidInputError):
        singular_spectrum(np.zeros(3))


def test_slope_identity_matrix():
    # two unit singular values: v = sqrt(2) * sqrt(2) = 2
    assert slope([1.0, 1.0]) == pytest.approx(2.0, abs=1e-14)


def test_slope_equals_determinant_form():
    rng = np.random.default_rng(1)
    for _ in range(20):
        J = rng.standard_normal((3, 3))
        v = slope(singular_spectrum(J))
        det = np.sqrt(np.linalg.det(np.eye(3) + J.T @ J))
        assert v == pytest.approx(det, rel=1e-12)


def test_slope_no_overflow_for_large_entries():
    # lam^2 would overflow, but v = 1e100 * 1e50 is representable
    assert slope([1e100, 1e50]) == pytest.approx(1e150, rel=1e-10)


def test_two_dilation_basic():
    assert two_dilation([3.0, 2.0, 1.0]) == pytest.approx(6.0)
    assert two_dilation([5.0]) == 0.0


@pytest.mark.parametrize("n", [1, 2, 4])
def test_slope_and_two_dilation_broadcast_over_rows(n):
    # a (k, n) batch gives each row's value bit for bit; one spectrum or a
    # bare number still gives a Python float
    lam = -np.sort(-np.random.default_rng(n).uniform(0.0, 3.0, (50, n)), axis=1)
    lam[0, 0] = 1e200  # slope's overflow-free branch
    for fn in (slope, two_dilation):
        batch = fn(lam)
        assert batch.shape == (50,)
        rows = np.array([fn(row) for row in lam])
        assert batch.tobytes() == rows.tobytes()
        assert type(fn(lam[1])) is float and type(fn(0.5)) is float
    assert slope(0.5) == slope([0.5]) and two_dilation(0.5) == 0.0


def test_bernstein_condition_cases():
    assert bernstein_condition([1.0, 1.0])  # lambda_1 = 1: bound is infinite
    assert bernstein_condition([0.9, 0.9])
    assert not bernstein_condition([4.0, 4.0])


@given(st.lists(st.floats(0.0, 50.0), min_size=2, max_size=5))
@settings(max_examples=100, deadline=None)
def test_dilation_le_square_of_top(lams):
    lam = np.sort(np.asarray(lams))[::-1]
    assert two_dilation(lam) <= lam[0] ** 2 + 1e-12


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_slope_invariant_under_rotations(m, n, seed):
    rng = np.random.default_rng(seed)
    J = rng.standard_normal((m, n))
    U = np.linalg.qr(rng.standard_normal((m, m)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v1 = slope(singular_spectrum(J))
    v2 = slope(singular_spectrum(U @ J @ V))
    assert v2 == pytest.approx(v1, rel=1e-10)


def test_plane_basis_requires_orthonormal_rows():
    with pytest.raises(InvalidInputError):
        PlaneBasis(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]))


def test_coordinate_plane_helper():
    P = PlaneBasis.coordinate(2, 5)
    assert P.dim == 2 and P.ambient == 5
    assert np.allclose(P.vectors[:, :2], np.eye(2))


def test_graph_plane_orientation_gives_inverse_slope():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        J = rng.standard_normal((m, n))
        P = graph_plane_basis(J)
        base = PlaneBasis.coordinate(n, n + m)
        v = slope(singular_spectrum(J))
        assert plane_inner(P, base) == pytest.approx(1.0 / v, rel=1e-10)


def test_jordan_angle_tangents_are_singular_values():
    rng = np.random.default_rng(3)
    J = rng.standard_normal((3, 2))
    theta = jordan_angles(graph_plane_basis(J), PlaneBasis.coordinate(2, 5))
    assert np.allclose(np.tan(theta), singular_spectrum(J), rtol=1e-8)


def test_jordan_angles_range_and_symmetry():
    rng = np.random.default_rng(4)
    P = graph_plane_basis(rng.standard_normal((2, 2)))
    Q = graph_plane_basis(rng.standard_normal((2, 2)))
    a = jordan_angles(P, Q)
    b = jordan_angles(Q, P)
    assert np.all((a >= 0.0) & (a <= np.pi / 2 + 1e-12))
    assert np.allclose(a, b)


def test_grassmann_distance_identity_and_symmetry():
    rng = np.random.default_rng(5)
    P = graph_plane_basis(rng.standard_normal((2, 3)))
    Q = graph_plane_basis(rng.standard_normal((2, 3)))
    assert grassmann_distance(P, P) < 1e-7
    assert grassmann_distance(P, Q) == pytest.approx(grassmann_distance(Q, P))


def test_plane_dimension_mismatch_raises():
    P = PlaneBasis.coordinate(2, 4)
    Q = PlaneBasis.coordinate(2, 5)
    with pytest.raises(DimensionMismatchError):
        plane_inner(P, Q)


def _metric(J):
    """g = I + J^T J by einsum, the oracle for metric_inverse's g."""
    n = J.shape[-1]
    return np.eye(n) + np.einsum("...ai,...aj->...ij", J, J)


def test_induced_metric_consistency():
    ginv = metric_inverse(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert np.allclose(ginv, np.diag([0.5, 0.2]))


def test_induced_metric_exponential_origin():
    slag = mingraph.model_slag_exp()
    assert np.allclose(metric_inverse(slag.jacobian(np.zeros(2))), 0.5 * np.eye(2))


def test_induced_metric_batched_matches_slope():
    rng = np.random.default_rng(7)
    J = rng.standard_normal((6, 3, 2))
    ginv = metric_inverse(J)
    assert ginv.shape == (6, 2, 2) and ginv.flags.c_contiguous
    for k in range(6):
        assert np.array_equal(ginv[k], metric_inverse(J[k]))
        # det g^{-1} = 1 / v^2
        assert np.linalg.det(ginv[k]) == pytest.approx(
            slope(singular_spectrum(J[k])) ** -2, rel=1e-13)


@pytest.mark.parametrize("lead", [(4, 5), (), (3000,)])
@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 2), (2, 3), (3, 4)])
def test_induced_metric_matches_einsum_bit_for_bit(m, n, lead):
    # metric_inverse inverts the einsum g: its Gauss-Jordan on that g,
    # written out, gives the same bytes.  Any inverse of g, LAPACK's too, is
    # off by about eps cond(g) of its largest entry, so that bounds the gap
    rng = np.random.default_rng(10 * m + n)
    J = rng.standard_normal(lead + (m, n)) * rng.uniform(0.01, 100.0, lead + (1, 1))
    J[..., 0, :] *= rng.integers(0, 2, lead + (1,))  # zero rows, signed zeros
    ginv = metric_inverse(J)
    g = _metric(J)
    ref = np.linalg.inv(g)
    assert ginv.shape == ref.shape
    err = np.max(np.abs(ginv - ref), axis=(-2, -1)) / np.max(np.abs(ref), axis=(-2, -1))
    assert np.all(err <= 4.0 * np.finfo(float).eps * np.linalg.cond(g))
    a = np.moveaxis(g, (-2, -1), (0, 1)).copy()
    for k in range(n):
        pivot = 1.0 / a[k, k]
        a[k, k] = 1.0
        a[k] *= pivot
        for i in range(n):
            if i != k:
                f = a[i, k].copy()
                a[i, k] = 0.0
                a[i] -= f * a[k]
    a = np.ascontiguousarray(np.moveaxis(a, (0, 1), (-2, -1)))
    assert ginv.tobytes() == a.tobytes()


@pytest.mark.parametrize("lead", [(4, 5), (), (3000,)])
@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 2), (2, 3), (3, 4)])
def test_induced_metric_log_v_is_log_slope(m, n, lead):
    # log_slope's v and metric_inverse's g^{-1} belong to one g: log v is
    # -(1/2) log det g^{-1}
    rng = np.random.default_rng(10 * m + n)
    J = rng.standard_normal(lead + (m, n)) * rng.uniform(0.01, 100.0, lead + (1, 1))
    J[..., 0, :] *= rng.integers(0, 2, lead + (1,))  # zero rows, signed zeros
    log_v = log_slope(J)
    assert np.shape(log_v) == lead
    # slogdet of I + J^T J loses up to about eps * |J|^2 (5e-13 relative here),
    # which test_log_slope_matches_high_precision shows is its own error
    np.testing.assert_allclose(log_v, 0.5 * np.linalg.slogdet(_metric(J))[1],
                               rtol=1e-11, atol=0)
    np.testing.assert_allclose(log_v, -0.5 * np.linalg.slogdet(metric_inverse(J))[1],
                               rtol=1e-11, atol=0)


@pytest.mark.parametrize("scale", [1e-6, 1e-2, 1.0, 30.0, 1e3])
@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 4), (4, 3), (2, 3)])
def test_log_slope_matches_high_precision(m, n, scale):
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(10 * m + n)
    J = scale * rng.standard_normal((40, m, n))
    log_v = log_slope(J)

    def exact(j):
        a = mpmath.matrix(j.tolist())
        return float(0.5 * mpmath.log(mpmath.det(mpmath.eye(n) + a.T * a)))

    with mpmath.workdps(40):
        ref = np.array([exact(j) for j in J])
    assert np.max(np.abs(log_v - ref) / ref) <= 1e-13
    if scale == 1e-6:
        # log det(I + J^T J) of a near-flat graph is the log of about 1 + 1e-12
        g = np.eye(n) + np.einsum("...ai,...aj->...ij", J, J)
        assert np.max(np.abs(0.5 * np.linalg.slogdet(g)[1] - ref) / ref) > 1e-13
    # a batch has its rows' bits, and one matrix gives a float
    rows = [log_slope(j) for j in J]
    assert all(isinstance(r, float) for r in rows)
    assert np.array(rows).tobytes() == log_v.tobytes()


def test_log_slope_has_one_home():
    # log v is formed only in log_slope, with no slogdet; the other log1p in
    # src is the spectrum formula of ``slope``
    homes = {"log_slope": inspect.getsource(log_slope), "slope": inspect.getsource(slope)}
    found = []
    for path in sorted(Path(mingraph.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert "slogdet" not in text, path.name
        if path.name == "grassmann.py":
            for own in homes.values():
                assert text.count(own) == 1
                text = text.replace(own, "")
        found += [f"{path.name}: {line.strip()}" for line in text.splitlines()
                  if "log1p" in line]
    assert found == []
    assert "log1p(e[k, k])" in homes["log_slope"]


def test_induced_metric_has_one_home():
    # g = I + Du^T Du (and any I + Gram) is formed only in metric_inverse,
    # and v = sqrt(det g) nowhere
    own = inspect.getsource(metric_inverse)
    inline = re.compile(r"sqrt\(np\.linalg\.det|np\.eye\([^()]*\)\s*\+|\+=?\s*np\.eye\(")
    found = []
    for path in sorted(Path(mingraph.__file__).parent.glob("*.py")):
        text = path.read_text()
        if path.name == "grassmann.py":
            assert own in text and inline.search(own)
            text = text.replace(own, "")
        found += [f"{path.name}: {m.group(0)}" for m in inline.finditer(text)]
    assert found == []


def test_metric_inverse_has_one_home():
    # every g^{-1} (and b^{-1} in xi_11) comes from grassmann.metric_inverse
    lapack = re.compile(r"np\.linalg\.(inv|solve)\(")
    found, homes = [], []
    for path in sorted(Path(mingraph.__file__).parent.glob("*.py")):
        text = path.read_text()
        found += [f"{path.name}: {m.group(0)}" for m in lapack.finditer(text)]
        homes += [path.name] * text.count("def metric_inverse(")
    assert found == []
    assert homes == ["grassmann.py"]


def test_metric_inverses_run_without_lapack(monkeypatch, tmp_path):
    def no_lapack(*args, **kwargs):
        raise AssertionError("g^{-1} needs no LAPACK inverse or solve")

    monkeypatch.setattr(np.linalg, "inv", no_lapack)
    monkeypatch.setattr(np.linalg, "solve", no_lapack)
    rng = np.random.default_rng(15)
    for model in (model_lawson_osserman(), model_slag_exp()):
        x = rng.standard_normal((10, model.n))
        x *= rng.uniform(0.5, 2.0, (10, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
        rep = diagnostics.write_diagnostics_csv(model, x, tmp_path / "d.csv")
        assert np.all(np.abs(rep.gap) < 1e-5)
    slag = model_slag_exp()
    patch = solver.GraphPatch.from_model(slag, [0, 0], (17, 17), 1 / 16)
    patch.values[1:-1, 1:-1] = 0.0
    assert solver.solve(patch).converged
    x = patch.node_coords()
    assert np.max(np.abs(solver.residual_strong(slag.jacobian(x), slag.hessian(x)))) < 1e-12
    assert algebra.xi11_sampler(1.0, 0.1, 2000, seed=3).ok
