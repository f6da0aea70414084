"""Unit tests for the inequality scans, samplers, and the log v identity rhs."""

import inspect
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mingraph import algebra
from mingraph.grassmann import log_slope


def test_phi_equality_point():
    # phi vanishes on the (2, 2, t) locus
    for t in (0.0, 0.5, 1.0, 3.7):
        assert algebra.phi(2.0, 2.0, t) == pytest.approx(0.0, abs=1e-12)
        assert algebra.phi(t, 2.0, 2.0) == pytest.approx(0.0, abs=1e-12)


@given(
    st.floats(0.0, 4.0),
    st.floats(0.0, 4.0),
    st.floats(0.0, 4.0),
)
@settings(max_examples=200, deadline=None)
def test_phi_symmetric(a, b, c):
    vals = {
        algebra.phi(a, b, c),
        algebra.phi(a, c, b),
        algebra.phi(b, a, c),
        algebra.phi(c, b, a),
    }
    assert max(vals) - min(vals) < 1e-12 * (1.0 + abs(algebra.phi(a, b, c)))


def test_scan_mu123_clean():
    rep = algebra.scan_mu123(0.1)
    assert rep.ok
    assert rep.min_value >= -algebra.NONNEG_TOL
    assert rep.notes["pairwise_gt4_violations"] == 0
    assert rep.notes["max_pairwise_product"] <= 4.0 + algebra.NONNEG_TOL


def test_scan_mu123_minimum_on_equality_locus():
    rep = algebra.scan_mu123(0.05)
    mu = sorted(rep.argmin, reverse=True)
    assert abs(mu[0] - 2.0) <= 0.05 and abs(mu[1] - 2.0) <= 0.05


def test_scan_mu123_weakened_fails():
    rep = algebra.scan_mu123(0.25, constraint="pairwise_le_4")
    assert not rep.ok
    assert rep.min_value < -algebra.NONNEG_TOL


def test_scan_lambda_endpoint_bound_zero():
    rep = algebra.scan_mu123_lambda(math.sqrt(2.0), 0.05)
    assert rep.ok
    assert rep.notes["bound"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.2])
def test_scan_lambda_clean(lam):
    rep = algebra.scan_mu123_lambda(lam, 0.1)
    assert rep.ok
    assert rep.min_value >= rep.notes["bound"] - algebra.NONNEG_TOL


def test_scan_lambda_rejects_bad_bound():
    with pytest.raises(ValueError):
        algebra.scan_mu123_lambda(2.0, 0.1)


# Reports of the sharp, weakened and Lambda scans, pinned byte for byte.
_PINNED_SCANS = {
    "sharp": (lambda: algebra.scan_mu123(0.1), {
        "argmin": [0.0, 2.0, 2.0], "check": "mu123", "max_value": None,
        "min_value": -8.881784197001252e-16,
        "notes": {"max_pairwise_product": 4.0, "pairwise_gt4_violations": 0,
                  "phi_violations": 0, "unconstrained_low_region_triples": 1331},
        "params": {"constraint": "sharp", "grid_step": 0.1, "mu_max": 4.0,
                   "tol": 1e-09},
        "samples": 17538, "seed": None, "violations": 0}),
    "pairwise_le_4": (lambda: algebra.scan_mu123(0.1, constraint="pairwise_le_4"), {
        "argmin": [1.0, 1.0, 4.0], "check": "mu123-weakened", "max_value": None,
        "min_value": -1.0,
        "notes": {"max_pairwise_product": 4.0, "pairwise_gt4_violations": 0,
                  "phi_violations": 1689, "unconstrained_low_region_triples": 1331},
        "params": {"constraint": "pairwise_le_4", "grid_step": 0.1, "mu_max": 4.0,
                   "tol": 1e-09},
        "samples": 21813, "seed": None, "violations": 1689}),
    "lambda-1.2": (lambda: algebra.scan_mu123_lambda(1.2, 0.1), {
        "argmin": [1.2000000000000002] * 3, "check": "mu123-lambda",
        "max_value": None, "min_value": 1.4079999999999995,
        "notes": {"bound": 0.32804040507106674},
        "params": {"Lambda": 1.2, "grid_step": 0.1, "mu_max": 4.0, "tol": 1e-09},
        "samples": 6274, "seed": None, "violations": 0}),
}


@pytest.mark.parametrize("name", sorted(_PINNED_SCANS))
def test_scan_reports_pinned(name):
    scan, expected = _PINNED_SCANS[name]
    assert scan().to_json() == json.dumps(expected, sort_keys=True, indent=2)


# An xi_11 sampler report pinned byte for byte: an acceptance test that moves
# the accepted set by one draw changes it.
_PINNED_XI11 = {
    "argmin": [11.975070407928055, -0.0260118254513506, 0.04126594526362244,
               -0.0415289120045108],
    "check": "xi11-limit", "max_value": 0.9973821670642118,
    "min_value": 0.9973821670642118, "notes": {},
    "params": {"Lambda": 1.0, "eps": 0.1, "m": 2, "n": 2},
    "samples": 2000, "seed": 3, "violations": 0}


def test_xi11_sampler_report_pinned():
    rep = algebra.xi11_sampler(1.0, 0.1, 2000, seed=3)
    assert rep.to_json() == json.dumps(_PINNED_XI11, sort_keys=True, indent=2)


# The sqrt(2) and Lambda margin reports pinned byte for byte over three
# chunks, the last one short.
_PINNED_MARGINS = {
    "sqrt2": (lambda: algebra.check_sqrt2_inequality(45000, seed=3, n=3, m=3), {
        "argmin": [0.7285987847254157, 0.5697583899492968, 0.08255582375437331],
        "check": "sqrt2-logv", "max_value": None,
        "min_value": 0.8223602172801701, "notes": {},
        "params": {"m": 3, "n": 3, "tol": 1e-09},
        "samples": 45000, "seed": 3, "violations": 0}),
    "lambda": (lambda: algebra.check_lambda_inequality(1.0, 45000, seed=3, n=3, m=3), {
        "argmin": [0.34174726393649724, 0.2467888112597575, 0.13667405371469699],
        "check": "lambda-logv", "max_value": None,
        "min_value": 1.1535011540892974, "notes": {},
        "params": {"Lambda": 1.0, "m": 3, "n": 3, "tol": 1e-09},
        "samples": 45000, "seed": 3, "violations": 0}),
}


@pytest.mark.parametrize("name", sorted(_PINNED_MARGINS))
def test_margin_sampler_reports_pinned(name):
    sampler, expected = _PINNED_MARGINS[name]
    assert sampler().to_json() == json.dumps(expected, sort_keys=True, indent=2)


def test_sampler_without_accepted_draws_fails():
    # lam_1 lam_2 <= 1e-9 admits almost no spectrum of [0, 3]^3: the sampler
    # gives up after 1e7 draws instead of looping, and names the check
    message = "lambda-logv {'Lambda': 1e-09, 'n': 3, 'm': 3, 'tol': 1e-09}: no accepted draw"
    with pytest.raises(algebra.SamplingFailureError, match=re.escape(message)):
        algebra.check_lambda_inequality(1e-9, 20000, seed=1)


def test_algebra_has_one_rejection_loop():
    # every sampler seeds its chunks in _sampled_report and draws through the
    # one loop in _rejection_sample
    text = Path(algebra.__file__).read_text()
    assert text.count("default_rng(") == 1
    assert "default_rng(" in inspect.getsource(algebra._sampled_report)
    loops = re.findall(r"^\s*while\b", text, re.MULTILINE)
    assert len(loops) == 1
    assert "while have < count" in inspect.getsource(algebra._rejection_sample)


def test_phi_has_one_home():
    # the cubic 4 + mu1 mu2 mu3 - ... is written out only in algebra.phi
    own = inspect.getsource(algebra.phi)
    cubic = re.compile(r"4(\.0)?\s*\+\s*\w+\s*\*\s*\w+\s*\*\s*\w+")
    found = []
    for path in sorted(Path(algebra.__file__).parent.glob("*.py")):
        text = path.read_text()
        if path.name == "algebra.py":
            assert own in text
            text = text.replace(own, "")
        found += [f"{path.name}: {m.group(0)}" for m in cubic.finditer(text)]
    assert found == []


@pytest.mark.parametrize("grid_step", [0.0, -0.1, math.inf, math.nan])
def test_scan_rejects_bad_grid_step(grid_step):
    with pytest.raises(ValueError, match="grid_step"):
        algebra.scan_mu123(grid_step)


def _no_allocation(*args, **kwargs):
    raise AssertionError("allocation reached")


@pytest.mark.parametrize("scan", [algebra.scan_mu123,
                                  lambda step: algebra.scan_mu123_lambda(1.0, step)],
                         ids=["sharp", "lambda"])
@pytest.mark.parametrize("grid_step", [1e-3, 5e-324])
def test_scan_refuses_a_grid_above_the_ceiling(scan, grid_step, monkeypatch):
    # 1e-3 asks for 4001^3 triples; 4 / 5e-324 overflows to inf
    monkeypatch.setattr(np, "arange", _no_allocation)
    with pytest.raises(ValueError, match=f"grid_step {grid_step!r} asks for more than 1e"):
        scan(grid_step)


def test_scan_ceiling_admits_the_largest_grid_below_it(monkeypatch):
    monkeypatch.setattr(np, "arange", _no_allocation)
    with pytest.raises(AssertionError, match="allocation reached"):
        algebra.scan_mu123(4.0 / 463)  # 464^3 = 99,897,344 triples
    with pytest.raises(ValueError, match="grid_step"):
        algebra.scan_mu123(4.0 / 464)


@pytest.mark.parametrize("sampler", [
    lambda samples: algebra.check_sqrt2_inequality(samples, 1),
    lambda samples: algebra.check_lambda_inequality(1.0, samples, 1),
    lambda samples: algebra.xi11_sampler(1.0, 0.1, samples, 1),
], ids=["sqrt2", "lambda", "xi11"])
def test_sampler_refuses_samples_above_the_ceiling(sampler, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", _no_allocation)
    with pytest.raises(ValueError, match="samples 100000000 is above the ceiling"):
        sampler(10**8)
    with pytest.raises(AssertionError, match="allocation reached"):
        sampler(10**7)


def _einsum_reference(lam, h, lam_bound):
    """rhs, its four parts (..., 4) and the Lambda bound by einsum formulas.

    The formulas the column kernel replaced, kept as its oracle.
    """
    m, n = h.shape[-3:-1]
    if n > m:
        h = np.concatenate([h, np.zeros(h.shape[:-3] + (n - m, n, n))], axis=-3)
    hn = h[..., :n, :, :]  # tangent-indexed block h_{i, jl}, i <= n
    lam2 = lam**2
    ll = lam[..., :, None] * lam[..., None, :]
    off = 1.0 - np.eye(n)

    b2 = np.einsum("...aij,...aij->...", h, h)
    hiil = np.einsum("...iil->...il", hn)  # h_{i, il}
    term2 = np.einsum("...i,...il,...il->...", lam2, hiil, hiil)
    cross = np.einsum("...ijl,...jil->...ij", hn, hn)  # sum_l h_{i,jl} h_{j,il}
    term3 = np.einsum("...ij,...ij,ij->...", ll, cross, off)

    diag = np.einsum("...iii->...i", hn)  # h_{i, ii}
    part_normal = np.einsum("...aij,...aij->...", h[..., n:, :, :], h[..., n:, :, :])
    part_diag = np.einsum("...i,...i->...", 1.0 + lam2, diag**2)
    hiij = np.einsum("...iij->...ij", hn)  # h_{i, ij} = h_{i, ji}
    hjii = np.swapaxes(np.einsum("...jii->...ji", hn), -1, -2)  # (i, j) = h_{j, ii}
    part_pair = np.einsum(
        "ij,...ij->...", off,
        (2.0 + lam2[..., :, None]) * hiij**2 + hjii**2 + 2.0 * ll * hiij * hjii)
    idx = np.indices((n, n, n))
    distinct = ((idx[0] != idx[1]) & (idx[1] != idx[2]) & (idx[0] != idx[2])).astype(float)
    part_tri = np.einsum("kij,...kij->...", distinct, hn**2) + np.einsum(
        "ijk,...ij,...ijk,...jik->...", distinct, ll, hn, hn)

    grad = np.einsum("...i,...iij->...j", lam, hn)  # lam_i h_{i,ij}
    bound = (1.0 - lam_bound / math.sqrt(2.0)) * b2 + np.einsum("...j,...j->...",
                                                                 grad, grad) / n
    parts = np.stack([part_normal, part_diag, part_pair, part_tri], axis=-1)
    return b2 + term2 + term3, parts, bound, b2


@pytest.mark.parametrize("batch", [(), (5,), (4, 3)], ids=["point", "row", "grid"])
@pytest.mark.parametrize("m, n", [(1, 1), (2, 4), (3, 3), (4, 3)])
def test_logv_kernel_matches_einsum_oracle(m, n, batch):
    # every term is at most a few (1 + lam_1^2) |B|^2, so that is the scale
    # of the rounding; an index slip moves a value by O(1) of it
    rng = np.random.default_rng(10 * m + n)
    lam = np.sort(rng.uniform(0.0, 3.0, batch + (n,)), axis=-1)[..., ::-1]
    h = algebra._sample_h(rng, int(np.prod(batch)), m, n).reshape(batch + (m, n, n))
    rhs_ref, parts_ref, bound_ref, b2_ref = _einsum_reference(lam, h, 1.2)
    scale = (1.0 + lam[..., 0] ** 2) * b2_ref
    rhs, parts = algebra.delta_logv_rhs(lam, h, return_parts=True)
    bound, rhs2, b2 = algebra.lambda_lower_bound(lam, h, 1.2, return_terms=True)
    assert parts.shape == batch + (4,)
    for got, ref in [(rhs, rhs_ref), (rhs2, rhs_ref), (b2, b2_ref), (bound, bound_ref),
                     (algebra.lambda_lower_bound(lam, h, 1.2), bound_ref)]:
        assert np.shape(got) == batch and (type(got) is float) == (batch == ())
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)
    assert np.all(np.abs(parts - parts_ref) <= 1e-13 * scale[..., None])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sort_descending_matches_np_sort(n):
    # the proposal's odd-even transposition sort gives np.sort's rows bit for
    # bit, also on rows with tied entries, and leaves its input alone
    rng = np.random.default_rng(n)
    ties = rng.integers(0, 3, (400, n)).astype(float)
    draws = rng.uniform(0.0, 3.0, (400, n))
    for x in (ties, draws, np.concatenate([ties, draws, draws[:, ::-1]])):
        before = x.copy()
        expect = np.ascontiguousarray(np.sort(x, axis=1)[:, ::-1])
        got = algebra._sort_descending(x)
        assert got.shape == expect.shape and got.tobytes() == expect.tobytes()
        assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("part", range(4),
                         ids=["normal-excess", "diagonal", "ordered-pair", "distinct-triple"])
@pytest.mark.parametrize("sampler", [
    lambda: algebra.check_sqrt2_inequality(2000, seed=1, n=3, m=4),
    lambda: algebra.check_lambda_inequality(1.0, 2000, seed=1, n=3, m=4),
], ids=["sqrt2", "lambda"])
def test_samplers_check_the_regrouping(sampler, part, monkeypatch):
    # a regrouped part off by 1e-6 trips the kernel's agreement assertion in
    # both margin samplers; m = 4 > n gives the normal-excess part entries
    regroup = algebra._regrouping

    def perturbed(*args):
        parts = list(regroup(*args))
        parts[part] = parts[part] + 1e-6
        return tuple(parts)

    sampler()
    monkeypatch.setattr(algebra, "_regrouping", perturbed)
    with pytest.raises(AssertionError, match="regrouped decomposition"):
        sampler()


def test_delta_logv_rhs_zero_spectrum_is_b_norm():
    rng = np.random.default_rng(1)
    h = algebra._sample_h(rng, 5, 3, 3)
    lam = np.zeros((5, 3))
    rhs = algebra.delta_logv_rhs(lam, h)
    assert np.allclose(rhs, np.einsum("baij,baij->b", h, h))


def test_delta_logv_rhs_hand_example():
    # n = 2, single normal component, only h_{1,11} = 1, spectrum (1, 0):
    # |B|^2 = 1, diagonal term lam_1^2 h_{1,11}^2 = 1, no cross terms
    h = np.zeros((1, 2, 2))
    h[0, 0, 0] = 1.0
    assert algebra.delta_logv_rhs(np.array([1.0, 0.0]), h) == pytest.approx(2.0)


def test_delta_logv_rhs_permutation_invariant():
    rng = np.random.default_rng(2)
    for _ in range(10):
        lam = np.sort(rng.uniform(0.0, 2.0, 3))[::-1]
        h = algebra._sample_h(rng, 1, 3, 3)[0]
        base = algebra.delta_logv_rhs(lam, h)
        perm = rng.permutation(3)
        h2 = h[perm][:, perm][:, :, perm]
        assert algebra.delta_logv_rhs(lam[perm], h2) == pytest.approx(base, rel=1e-10)


def test_delta_logv_rhs_wide_padding():
    # m < n: normal index padded with zeros, matching an explicit embedding
    rng = np.random.default_rng(3)
    lam = np.sort(rng.uniform(0.0, 2.0, 3))[::-1]
    h = algebra._sample_h(rng, 1, 2, 3)
    hp = np.concatenate([h, np.zeros((1, 1, 3, 3))], axis=1)
    assert algebra.delta_logv_rhs(lam[None], h)[0] == pytest.approx(
        algebra.delta_logv_rhs(lam[None], hp)[0]
    )


def test_delta_logv_rhs_requires_symmetry():
    h = np.zeros((1, 2, 2))
    h[0, 0, 1] = 1.0
    with pytest.raises(ValueError):
        algebra.delta_logv_rhs(np.array([1.0, 1.0]), h)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_delta_logv_rhs_names_a_non_finite_h(value):
    # an infinite entry is symmetric but makes h - h^T NaN; the check on
    # finiteness comes first, names the fault and warns of nothing
    h = np.zeros((3, 3, 3))
    h[0, 0, 0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^h must be finite$"):
            algebra.delta_logv_rhs(np.ones(3), h)


@pytest.mark.parametrize("m, n", [(3, 3), (2, 3), (3, 2)])
def test_kernels_broadcast_over_leading_axes(m, n):
    # inputs with two leading axes give the flattened batch's values bit for
    # bit; a single point gives a Python float, equal to its batch row up to
    # einsum's size-dependent summation order
    rng = np.random.default_rng(10 * m + n)
    lam = np.sort(rng.uniform(0.0, 3.0, (12, n)), axis=1)[:, ::-1]
    h = algebra._sample_h(rng, 12, m, n)
    a = rng.uniform(-2.0, 2.0, (12, m, n))
    rhs, parts = algebra.delta_logv_rhs(lam, h, return_parts=True)
    grid = (3, 4)
    rhs2, parts2 = algebra.delta_logv_rhs(lam.reshape(grid + (n,)),
                                          h.reshape(grid + (m, n, n)),
                                          return_parts=True)
    assert rhs2.tobytes() == rhs.tobytes()
    assert parts2.shape == grid + (4,) and parts2.tobytes() == parts.tobytes()
    pairs = [
        (algebra.delta_logv_rhs(lam, h),
         algebra.delta_logv_rhs(lam.reshape(grid + (n,)), h.reshape(grid + (m, n, n)))),
        (algebra.lambda_lower_bound(lam, h, 1.2),
         algebra.lambda_lower_bound(lam.reshape(grid + (n,)),
                                    h.reshape(grid + (m, n, n)), 1.2)),
        (algebra.xi11(a), algebra.xi11(a.reshape(grid + (m, n)))),
    ]
    for flat, nested in pairs:
        assert nested.shape == grid and nested.tobytes() == flat.tobytes()
    singles = [algebra.delta_logv_rhs(lam[5], h[5]),
               algebra.delta_logv_rhs(lam[5], h[5], return_parts=True)[0],
               algebra.lambda_lower_bound(lam[5], h[5], 1.2),
               algebra.xi11(a[5])]
    assert all(type(s) is float for s in singles)
    assert singles == pytest.approx([rhs[5], rhs[5], pairs[1][0][5], pairs[2][0][5]],
                                    rel=1e-13)


@pytest.mark.parametrize("lam_shape, h_shape", [
    ((4, 3), (5, 2, 3, 3)),
    ((3,), (2, 2, 2)),
    ((4, 2), (4, 2, 2, 3)),
    ((3,), (3, 3)),
], ids=["batch-shapes-differ", "spectrum-longer-than-n", "h-not-square",
        "h-two-axes"])
def test_pad_h_rejects_malformed_shapes(lam_shape, h_shape):
    with pytest.raises(ValueError):
        algebra._pad_h(np.zeros(lam_shape), np.zeros(h_shape))


def test_sqrt2_inequality_clean_all_dims():
    for n in (2, 3):
        for m in (2, 3):
            rep = algebra.check_sqrt2_inequality(5000, seed=1, n=n, m=m)
            assert rep.ok, (n, m, rep.min_value)


def test_lambda_inequality_clean():
    rep = algebra.check_lambda_inequality(1.0, 5000, seed=1)
    assert rep.ok
    assert rep.min_value >= -algebra.NONNEG_TOL


def test_xi11_diagonal_closed_form():
    # diagonal a = diag(t, s): b = diag(1+t^2, 1+s^2),
    # xi11 = sqrt((1+t^2)(1+s^2)) * t / (1+t^2)
    for t, s in [(10.0, 0.1), (1.0, 0.5), (0.3, 0.2)]:
        a = np.diag([t, s])
        expect = math.sqrt((1 + t * t) * (1 + s * s)) * t / (1 + t * t)
        assert algebra.xi11(a) == pytest.approx(expect, rel=1e-12)


def test_xi11_matches_the_lapack_solve():
    # b^{-1} a_1 by np.linalg.solve as the oracle, on standard
    # normal draws, on a_11 = 1e3 and on the sampler's near-diagonal corner;
    # relative to the dot product's scale sqrt(det b) sum_j |b^{1j} a_1j|,
    # which its cancellations cannot shrink
    rng = np.random.default_rng(15)
    a = rng.standard_normal((3, 2000, 2, 2))
    a[1, :, 0, 0] = 1e3
    a[2] *= 1e-2
    a[2, :, 0, 0] = rng.uniform(1.0, 1e3, 2000)
    b = np.eye(2) + np.einsum("...ai,...aj->...ij", a, a)
    log_v = log_slope(a)
    ref = np.exp(log_v) * np.linalg.solve(b, a[..., 0, :, None])[..., 0, 0]
    scale = np.exp(log_v) * np.sum(np.abs(np.linalg.inv(b)[..., 0, :] * a[..., 0, :]), -1)
    assert np.all(np.abs(algebra.xi11(a) - ref) <= 1e-14 * scale)


@pytest.mark.parametrize("eps", [0.3, 0.03, 1e-4])
def test_xi11_closed_forms_match_svd(eps):
    # draws from the sampler's distribution: a_11 in [a_min, a_max] and
    # off-diagonal entries O(sqrt(eps)); the last 1000 are near rank 1
    rng = np.random.default_rng(11)
    a_min = (1.0 - eps) / math.sqrt(1.0 - (1.0 - eps) ** 2)
    a11 = rng.uniform(a_min, max(3.0 * a_min, 12.0), 3000)
    delta = 0.5 * np.minimum(math.sqrt(eps), 1.0 / a11)
    a = rng.uniform(-1.0, 1.0, (3000, 2, 2)) * delta[:, None, None]
    a[:, 0, 0] = a11
    a[2000:, 1, 1] = a[2000:, 0, 1] * a[2000:, 1, 0] / a11[2000:] * (
        1.0 + 1e-6 * rng.uniform(-1.0, 1.0, 1000))
    dilation, detb = algebra._dilation_and_detb(a)
    sv = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(detb, np.prod(1.0 + sv**2, axis=1), rtol=1e-12)
    lam12 = sv[:, 0] * sv[:, 1]
    np.testing.assert_allclose(dilation[:2000], lam12[:2000], rtol=1e-12)
    # near rank 1 the SVD's lam_2 is only accurate to about 1e-16 lam_1, so
    # its product is checked on the lam_1^2 scale; lam_1 lam_2 <= Lambda = 1
    # is decided far from there
    assert np.all(np.abs(dilation[2000:] - lam12[2000:]) <= 1e-12 * sv[2000:, 0] ** 2)
    assert np.max(lam12[2000:]) < 1e-3


def test_xi11_sampler_trend():
    vals = [
        algebra.xi11_sampler(1.0, eps, 2000, seed=3).max_value
        for eps in (0.3, 0.1, 0.03)
    ]
    assert all(v <= 1.1 for v in vals)
    assert all(b <= a + 0.02 for a, b in zip(vals, vals[1:]))


def test_scan_report_roundtrip():
    rep = algebra.scan_mu123(0.5)
    d = rep.to_dict()
    assert d["check"] == "mu123"
    assert d["violations"] == 0
    assert isinstance(rep.to_json(), str)
