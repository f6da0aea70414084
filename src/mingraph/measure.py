"""Graph-volume quadrature and density ratios.

The n-volume of a graph piece inside an ambient ball is the integral of the
slope v over the base region where (x, u(x)) lies in the ball.  Since the
ambient distance dominates the base distance, that region lies in the
projected ball, which the polar Gauss rule of ``util._polar_ball_sum``
covers ray by ray from its centre; the same rule at half the node count
gives the error estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mingraph.grassmann import log_slope
from mingraph.models import AnalyticModel
from mingraph.util import _polar_ball_sum, run_chunks, unit_ball_volume

# relative floor of est_error: where the rule is exact, both passes can agree to the bit
_ROUNDING = 1e-14


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
    volumes: np.ndarray  # mu(B_rho), as graph_volume computed them
    ratios: np.ndarray
    est_errors: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.ratios)):
            raise ValueError("ratios must be finite")

    @property
    def monotonicity_margin(self) -> float:
        """min over consecutive radii of ratio[k+1] - ratio[k]."""
        return float(np.min(np.diff(self.ratios)))


def _ambient_center(model: AnalyticModel, center) -> np.ndarray:
    """``center`` as an array, refused unless it has n + m finite entries."""
    center = np.asarray(center, dtype=float)
    if center.shape != (model.n + model.m,):
        raise ValueError(f"center must be an ambient point of length {model.n + model.m}")
    if not np.all(np.isfinite(center)):
        raise ValueError(f"center must be finite, got {center.tolist()}")
    return center


def graph_volume(
    model: AnalyticModel,
    center,
    radius: float,
    resolution: int = 64,
) -> VolumeReport:
    """H^n of the graph inside the ambient ball B_radius(center).

    ``center`` is an ambient point of length n + m.  The polar rule of
    ``util._polar_ball_sum`` runs at ``resolution`` and at ``resolution // 2``;
    their difference, plus a rounding floor, is the error estimate.
    """
    if resolution < 32:
        raise ValueError(f"resolution must be an integer >= 32, got {resolution!r}")
    center = _ambient_center(model, center)
    n = model.n

    def margin(x):
        # radius - |(x, u(x)) - center|, summed column by column in
        # np.linalg.norm's order (the same bits), so that margin >= 0 is the
        # test sqrt(d2) <= radius; -inf off the base ball and the domain, where
        # the model is not called
        d2 = sum((col - c) ** 2 for col, c in zip(x.T, center))
        ok = (np.sqrt(d2) <= radius) & np.asarray(model.in_domain(x))
        d2 = d2[ok] + sum((col - c) ** 2 for col, c in zip(model.value(x[ok]).T, center[n:]))
        out = np.full(len(x), -np.inf)
        out[ok] = radius - np.sqrt(d2)
        return out

    # fine pass first, so that a bad resolution fails before any work
    fine, coarse = (_polar_ball_sum(lambda x: np.exp(log_slope(model.jacobian(x))),
                                    center[:n], radius, nodes, "resolution", margin)
                    for nodes in (resolution, resolution // 2))
    err = abs(fine - coarse) + _ROUNDING * max(fine, unit_ball_volume(n) * radius**n)
    return VolumeReport(
        region=f"ball(r={radius!r})", value=fine, resolution=resolution, est_error=err
    )


def density_profile(
    model: AnalyticModel,
    center,
    radii,
    resolution: int = 64,
    threads: int = 1,
) -> DensityProfile:
    """Normalized density ratios of the graph around an on-graph center.

    The radii run on ``threads`` workers, one ``graph_volume`` each; the
    ratios do not depend on ``threads``.
    """
    radii = np.asarray(radii, dtype=float)
    # before any quadrature; a NaN radius passes here and is refused by the rule
    if radii.size < 2 or np.any(np.diff(radii) <= 0):
        raise ValueError(
            f"radii must be at least two and strictly increasing, got {radii.tolist()}")
    center = _ambient_center(model, center)
    n = model.n
    base = center[:n]
    if bool(np.asarray(model.in_domain(base))):
        gap = np.linalg.norm(model.graph_point(base) - center)
        # written so that a NaN gap fails it
        if not gap <= 1e-9 * (1.0 + np.linalg.norm(center)):
            raise ValueError("center does not lie on the graph")
    reports = run_chunks(lambda rho: graph_volume(model, center, float(rho), resolution),
                         radii, threads)
    volumes = np.array([rep.value for rep in reports])
    scale = unit_ball_volume(n) * radii**n
    return DensityProfile(
        center=center,
        radii=radii,
        volumes=volumes,
        ratios=volumes / scale,
        est_errors=np.array([rep.est_error for rep in reports]) / scale,
    )
