"""Graph-volume quadrature and density ratios.

The n-volume of a graph piece inside an ambient ball is the integral of the
slope v over the base region where (x, u(x)) lies in the ball.  Since the
ambient distance dominates the base distance, the integration box can be
taken as the projected ball; a midpoint rule with one coarser level gives
the error estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mingraph.grassmann import log_slope
from mingraph.models import AnalyticModel
from mingraph.util import VERTEX_CUTOFF_FRAC, _ball_midpoint_sum, unit_ball_volume

_CHUNK = 50000


@dataclass(frozen=True)
class VolumeReport:
    """Hausdorff n-volume of a graph piece inside an ambient ball."""

    region: str
    value: float
    resolution: int
    est_error: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("volume must be nonnegative")


@dataclass(frozen=True)
class DensityProfile:
    """Volume ratios mu(B_rho) / (omega_n rho^n) at increasing radii."""

    center: np.ndarray
    radii: np.ndarray
    ratios: np.ndarray
    est_errors: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.radii) <= 0):
            raise ValueError("radii must be strictly increasing")
        if not np.all(np.isfinite(self.ratios)):
            raise ValueError("ratios must be finite")

    @property
    def monotonicity_margin(self) -> float:
        """min over consecutive radii of ratio[k+1] - ratio[k]."""
        return float(np.min(np.diff(self.ratios)))


def _volume_once(model: AnalyticModel, center, radius, nodes, cutoff, threads):
    """Midpoint-rule integral of v over domain cells whose graph point is in the ball."""

    def volume(x):
        x = x[np.asarray(model.in_domain(x))]
        if x.size == 0:
            return 0.0
        # |(x, u(x)) - center| summed column by column in np.linalg.norm's
        # order (the same bits), not row by row over a short last axis
        cols = [*x.T, *model.value(x).T]
        d2 = sum((col - c) ** 2 for col, c in zip(cols, center))
        x = x[np.sqrt(d2) <= radius]
        if x.size == 0:
            return 0.0
        return float(np.sum(np.exp(log_slope(model.jacobian(x)))))

    return _ball_midpoint_sum(volume, center[: model.n], radius, nodes, _CHUNK, cutoff,
                              threads)


def graph_volume(
    model: AnalyticModel,
    center,
    radius: float,
    resolution: int = 64,
    threads: int = 1,
) -> VolumeReport:
    """H^n of the graph inside the ambient ball B_radius(center).

    ``center`` is an ambient point of length n + m.  The integration box is
    the projected ball around center[:n]; if the base center is outside the
    model domain (a cone vertex) a ball of radius 1e-3 * radius is excised
    and its largest possible contribution is folded into the error estimate.
    """
    if not 0.0 < radius < np.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if resolution < 32:
        raise ValueError("need at least 32 nodes per axis")
    center = np.asarray(center, dtype=float)
    n = model.n
    if center.shape != (n + model.m,):
        raise ValueError(f"center must be an ambient point of length {n + model.m}")
    vertex = not bool(np.asarray(model.in_domain(center[:n])))
    cutoff = VERTEX_CUTOFF_FRAC * radius if vertex else 0.0
    # fine pass first, so that a fractional resolution fails before any work
    fine = _volume_once(model, center, radius, resolution, cutoff, threads)
    coarse = _volume_once(model, center, radius, resolution // 2, cutoff, threads)
    err = abs(fine - coarse)
    if vertex:
        # the excised piece has volume at most sup v * omega_n * cutoff^n;
        # bound sup v by the largest slope on a small ring around the vertex
        ring = center[:n] + 2.0 * cutoff * _unit_ring(n)
        ok = np.asarray(model.in_domain(ring))
        if np.any(ok):
            vmax = float(np.exp(np.max(log_slope(model.jacobian(ring[ok])))))
            err += vmax * unit_ball_volume(n) * cutoff**n
    return VolumeReport(
        region=f"ball(r={radius!r})", value=fine, resolution=resolution, est_error=err
    )


def _unit_ring(n: int) -> np.ndarray:
    """A deterministic spread of unit directions in R^n."""
    rng = np.random.default_rng(0)
    d = rng.standard_normal((64, n))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def density_profile(
    model: AnalyticModel,
    center,
    radii,
    resolution: int = 64,
    threads: int = 1,
) -> DensityProfile:
    """Normalized density ratios of the graph around an on-graph center."""
    center = np.asarray(center, dtype=float)
    radii = np.asarray(radii, dtype=float)
    n = model.n
    base = center[:n]
    if bool(np.asarray(model.in_domain(base))):
        if np.linalg.norm(model.graph_point(base) - center) > 1e-9 * (
            1.0 + np.linalg.norm(center)
        ):
            raise ValueError("center does not lie on the graph")
    wn = unit_ball_volume(n)
    ratios, errors = [], []
    for rho in radii:
        rep = graph_volume(model, center, float(rho), resolution, threads)
        ratios.append(rep.value / (wn * rho**n))
        errors.append(rep.est_error / (wn * rho**n))
    return DensityProfile(
        center=center,
        radii=radii,
        ratios=np.array(ratios),
        est_errors=np.array(errors),
    )
