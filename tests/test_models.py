"""Unit tests for the analytic model registry and its exact derivatives."""

import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from mingraph import models
from mingraph.grassmann import singular_spectrum, slope, two_dilation
from mingraph.models import (
    DomainError,
    get_model,
    model_affine,
    model_labels,
    model_lawson_osserman,
    model_slag_exp,
)


def fd_jacobian(model, x, step=1e-6):
    out = np.zeros((model.m, model.n))
    for i in range(model.n):
        e = np.zeros(model.n)
        e[i] = step
        out[:, i] = (model.value(x + e) - model.value(x - e)) / (2 * step)
    return out


def fd_hessian(model, x, step=1e-6):
    out = np.zeros((model.m, model.n, model.n))
    for i in range(model.n):
        e = np.zeros(model.n)
        e[i] = step
        out[:, :, i] = (model.jacobian(x + e) - model.jacobian(x - e)) / (2 * step)
    return out


def test_registry_labels():
    assert model_labels() == ["affine", "lawson-osserman", "slag-exp"]
    with pytest.raises(KeyError):
        get_model("no-such-model")


def test_affine_model_exact():
    A = np.array([[1.0, -2.0], [0.5, 3.0]])
    b = np.array([1.0, -1.0])
    model = model_affine(A, b)
    x = np.array([0.3, 0.7])
    assert np.allclose(model.value(x), A @ x + b)
    assert np.allclose(model.jacobian(x), A)
    assert np.all(model.hessian(x) == 0.0)


def test_affine_rejects_bad_shapes():
    with pytest.raises(ValueError):
        model_affine(np.ones((2, 2)), np.ones(3))


def test_broadcasting_shapes():
    model = model_slag_exp()
    x = np.zeros((4, 5, 2))
    assert model.value(x).shape == (4, 5, 2)
    assert model.jacobian(x).shape == (4, 5, 2, 2)
    assert model.hessian(x).shape == (4, 5, 2, 2, 2)


@pytest.mark.parametrize("label", ["affine", "slag-exp", "lawson-osserman"])
def test_derivatives_match_finite_differences(label):
    model = get_model(label)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.uniform(0.3, 1.5, model.n)
        assert np.max(np.abs(model.jacobian(x) - fd_jacobian(model, x))) < 1e-7
        assert np.max(np.abs(model.hessian(x) - fd_hessian(model, x))) < 1e-7


def test_exponential_model_spectrum_and_slope():
    model = model_slag_exp()
    rng = np.random.default_rng(8)
    for x in rng.uniform(-2.0, 2.0, (20, 2)):
        s = singular_spectrum(model.jacobian(x))
        ex = np.exp(x[0])
        assert np.max(np.abs(s - ex)) < 1e-10 * (1.0 + ex)
        assert slope(s) == pytest.approx(1.0 + ex * ex, rel=1e-12)


def test_hopf_cone_constants():
    model = model_lawson_osserman()
    rng = np.random.default_rng(9)
    x = rng.standard_normal((100, 4))
    x *= rng.uniform(0.5, 2.0, (100, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
    for p in x:
        s = singular_spectrum(model.jacobian(p))
        assert s[0] == pytest.approx(np.sqrt(5.0), abs=1e-10)
        assert two_dilation(s) == pytest.approx(5.0, abs=1e-10)
        assert slope(s) == pytest.approx(9.0, abs=1e-10)


def test_hopf_cone_homogeneity_and_radius():
    model = model_lawson_osserman()
    rng = np.random.default_rng(10)
    for _ in range(20):
        x = rng.standard_normal(4)
        t = float(rng.uniform(0.2, 4.0))
        assert np.allclose(model.value(t * x), t * model.value(x), atol=1e-9)
        # the graph point sits at 3/2 the base radius
        assert np.linalg.norm(model.graph_point(x)) == pytest.approx(
            1.5 * np.linalg.norm(x), rel=1e-12
        )


def _hopf_cone_hessian_reference(x):
    """Reference: the cone Hessian expanded in powers of 1/|x|."""
    from mingraph.models import _LO_Q, _LO_SCALE

    r = np.sqrt(np.sum(x**2, axis=-1))[..., None, None, None]
    q = np.einsum("...i,aij,...j->...a", x, _LO_Q, x)[..., None, None]
    dq = 2.0 * np.einsum("aij,...j->...ai", _LO_Q, x)
    term1 = 2.0 * _LO_Q / r
    term2 = (dq[..., :, :, None] * x[..., None, None, :]
             + dq[..., :, None, :] * x[..., None, :, None]) / r**3
    term3 = q * np.eye(4) / r**3
    term4 = 3.0 * q * x[..., None, :, None] * x[..., None, None, :] / r**5
    return _LO_SCALE * (term1 - term2 - term3 + term4)


def _hopf_cone_einsum_reference(x):
    """Reference: the cone's value and Jacobian as einsum contractions with Q^a."""
    from mingraph.models import _LO_Q, _LO_SCALE

    x = np.asarray(x, dtype=float)
    r = np.sqrt(np.sum(x**2, axis=-1))
    q = np.einsum("...i,aij,...j->...a", x, _LO_Q, x)
    dq = 2.0 * np.einsum("aij,...j->...ai", _LO_Q, x)
    value = _LO_SCALE * q / r[..., None]
    jacobian = _LO_SCALE * (
        dq / r[..., None, None]
        - q[..., None] * x[..., None, :] / r[..., None, None] ** 3
    )
    return value, jacobian


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_hopf_cone_value_and_jacobian_match_einsum_bit_for_bit():
    model = model_lawson_osserman()
    rng = np.random.default_rng(4)
    x = rng.standard_normal((500, 4)) * rng.uniform(0.01, 10.0, (500, 1))
    # exact zero coordinates of both signs: einsum sums onto +0, never -0
    z = rng.integers(-2, 3, (200, 4)) * rng.choice([-1.0, 1.0], (200, 1))
    z = z[np.any(z != 0.0, axis=1)]
    assert np.any(np.signbit(z) & (z == 0.0))
    for pts in (x, x[:1], z):
        value, jacobian = _hopf_cone_einsum_reference(pts)
        assert _same_bits(model.value(pts), value)
        assert _same_bits(model.jacobian(pts), jacobian)
    # one point of shape (4,) at a time: |x| is a numpy scalar there, whose
    # cube rounds differently from an array's on 29 of these 500 points
    for p in x:
        value, jacobian = _hopf_cone_einsum_reference(p)
        assert _same_bits(model.value(p), value)
        assert _same_bits(model.jacobian(p), jacobian)


def test_hopf_forms_have_one_home():
    # x^T Q^a x is written out only in models._hopf; the cone's value and
    # Jacobian call it and no einsum
    model = model_lawson_osserman()
    for fn in (model.value, model.jacobian):
        src = inspect.getsource(fn)
        assert "_hopf(" in src and "einsum(" not in src
    own = inspect.getsource(models._hopf)
    forms = [re.sub(r"\s", "", f) for f in re.findall(r"\+= (.+)", own)]
    assert len(forms) == 3
    found = []
    for path in sorted(Path(models.__file__).parent.glob("*.py")):
        text = re.sub(r"\s", "", path.read_text().replace(own, ""))
        found += [f"{path.name}: {f}" for f in forms if f in text]
    assert found == []


def test_hopf_cone_hessian_matches_closed_form():
    model = model_lawson_osserman()
    rng = np.random.default_rng(4)
    x = rng.standard_normal((500, 4)) * rng.uniform(0.01, 10.0, (500, 1))
    for pts in (x, x[0]):
        H = model.hessian(pts)
        ref = _hopf_cone_hessian_reference(pts)
        assert H.shape == ref.shape
        # per point: |H| ~ 1/|x| spans three decades over the batch
        err = np.max(np.abs(H - ref), axis=(-3, -2, -1))
        assert np.all(err <= 1e-13 * np.max(np.abs(ref), axis=(-3, -2, -1)))
        assert np.array_equal(H, np.swapaxes(H, -1, -2))


def test_hopf_cone_vertex_rejected():
    model = model_lawson_osserman()
    with pytest.raises(DomainError):
        model.value(np.zeros(4))
    with pytest.raises(DomainError):
        model.check_domain(np.zeros(4))
