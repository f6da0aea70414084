"""Small shared helpers: ordered pool runs, ball volumes, and the polar Gauss
rule on balls that both ``measure`` and ``diagnostics`` integrate with.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def unit_ball_volume(n: int) -> float:
    """Volume omega_n of the unit n-ball, pi^{n/2} / Gamma(n/2 + 1).

    By the recurrence omega_n = (2 pi / n) omega_{n-2} from omega_0 = 1 and
    omega_1 = 2, so that omega_1 is exactly 2 and omega_2 is ``math.pi``.
    """
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    omega = float(1 + n % 2)
    for k in range(2 + n % 2, n + 1, 2):
        omega = 2 * math.pi / k * omega
    return omega


def _unbatch(out):
    """A float for a 0-d result, else the array: the one place kernels unbatch."""
    return float(out) if np.ndim(out) == 0 else out


def run_chunks(fn, chunks, threads: int = 1) -> list:
    """Apply ``fn`` to each chunk, results in chunk order regardless of thread count."""
    if threads <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, chunks))


# points per chunk of rays, and at most per pass: directions x (scan + radial nodes)
_CHUNK_POINTS = 65536
_MAX_POINTS = 10**8
# halvings that take a scan gap radius / S below an ulp of the radius
_BISECTIONS = 52
# Illinois steps per crossing at most, and the guard in ulps: they stop at a
# bracket that narrow, and the replayed bisection evaluates only mids near it
_ILLINOIS_STEPS = 12
_GUARD = 64


def _frozen(*arrays):
    """The arrays, made read-only: a cached rule is shared by every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=16)
def _gauss_legendre(q: int):
    """Gauss-Legendre nodes and weights on [-1, 1], cached and read-only."""
    from numpy.polynomial.legendre import leggauss

    return _frozen(*leggauss(q))


@functools.lru_cache(maxsize=8)
def _sphere_rule(n: int, k: int):
    """Directions (d, n) and weights (d,) of a product rule on the sphere S^{n-1}.

    The azimuth takes the trapezoid rule with 2k nodes, and each further polar
    angle in [0, pi] Gauss-Legendre with k nodes, its sin^j folded into the
    weights, scaled to sum to |S^{n-1}| exactly.  S^0 is the two points +-1.
    Cached; the arrays are read-only.
    """
    if n == 1:
        return _frozen(np.array([[1.0], [-1.0]]), np.ones(2))
    phi = np.pi * np.arange(2 * k) / k
    dirs, w = np.stack([np.cos(phi), np.sin(phi)], axis=-1), np.full(2 * k, np.pi / k)
    x, gw = _gauss_legendre(k)
    theta = 0.5 * np.pi * (x + 1.0)
    for j in range(1, n - 1):
        # S^{j+1} from S^j: the points (cos theta, sin theta y), area sin^j theta dtheta dy
        dirs = np.column_stack([np.repeat(np.cos(theta), len(dirs)),
                                (np.sin(theta)[:, None, None] * dirs).reshape(-1, j + 1)])
        w = np.outer(0.5 * np.pi * gw * np.sin(theta) ** j, w).ravel()
    return _frozen(dirs, w * (n * unit_ball_volume(n) / np.sum(w)))


def _illinois(margin, center, d, a, b, fa, fb, width):
    """Brackets [a, b] of a sign change of margin(center + t d), narrowed.

    Illinois steps (Dowell & Jarratt 1971) run until b - a is at most
    ``width``, or for _ILLINOIS_STEPS steps.  Each secant point is kept a
    quarter of ``width`` inside the bracket, so a crossing at an end cannot
    stall it.  A bracket stops where an end margin is not finite.
    """
    a, b, fa, fb = a.copy(), b.copy(), fa.copy(), fb.copy()
    a_in = fa >= 0
    live = np.isfinite(fa) & np.isfinite(fb)
    moved = np.zeros(len(a), dtype=np.int8)  # the end the last step moved: -1 a, 1 b
    for _ in range(_ILLINOIS_STEPS):
        k = np.flatnonzero(live & (b - a > width))
        if k.size == 0:
            break
        ak, bk, fak, fbk, step = a[k], b[k], fa[k], fb[k], 0.25 * width[k]
        x = np.clip(bk - fbk * ((bk - ak) / (fbk - fak)), ak + step, bk - step)
        fx = margin(center + x[:, None] * d[k])
        left = (fx >= 0) == a_in[k]
        # an end kept twice in a row has its margin halved
        fb[k[left & (moved[k] == -1)]] *= 0.5
        fa[k[~left & (moved[k] == 1)]] *= 0.5
        a[k[left]], fa[k[left]] = x[left], fx[left]
        b[k[~left]], fb[k[~left]] = x[~left], fx[~left]
        moved[k] = np.where(left, -1, 1)
        live[k] = np.isfinite(fx)
    return a, b


def _bisect(margin, center, d, lo, hi, f_lo, f_hi, radius: float):
    """Where _BISECTIONS halvings of each bracket [lo, hi] of a sign change end.

    The halvings are the plain bisection's step for step, but a mid is
    evaluated only within the guard of the bracket that ``_illinois`` leaves,
    and only if it is neither end; a mid left of the guard is on lo's side, one
    right of it on hi's, and a mid equal to an end takes that end's side.  The
    guard is _GUARD ulps of t, or of the radius over the bracket's slope where
    the margin crosses slowly, so its rounding noise stays inside.
    """
    lo_in = f_lo >= 0
    guard = _GUARD * np.fmax(np.spacing(hi),
                             np.spacing(radius) * (hi - lo) / np.abs(f_hi - f_lo))
    a, b = _illinois(margin, center, d, lo, hi, f_lo, f_hi, guard)
    first, last = a - guard, b + guard
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        same = (mid < first) | (mid == lo)
        ask = np.flatnonzero((mid >= first) & (mid <= last) & (mid != lo) & (mid != hi))
        if ask.size:
            same[ask] = (margin(center + mid[ask, None] * d[ask]) >= 0) == lo_in[ask]
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def _inside_intervals(margin, center, dirs, radius: float, scan: int):
    """(ray, start, end) of each interval of t in [0, radius] where margin >= 0.

    ``margin`` is read at center + t d.  Each ray is read at t = radius j / scan,
    j = 1..scan, and every change between two nodes ends where ``_bisect`` puts
    it, within an ulp; a ray is taken as it is at its first node from t = 0 on,
    so the center itself is never evaluated.
    """
    t = radius * np.arange(1, scan + 1) / scan
    m = margin((center + dirs[:, None, :] * t[:, None]).reshape(-1, center.size))
    m = m.reshape(len(dirs), scan)
    pad = np.zeros((len(dirs), 1), dtype=bool)
    ins = np.concatenate([pad, m >= 0, pad], axis=1)
    # edge g lies between t[g - 1] and t[g]: edge 0 is t = 0 and edge scan is
    # t = radius exactly.  Each ray's edges alternate start, end.
    ray, gap = np.nonzero(ins[:, 1:] != ins[:, :-1])
    edge = np.where(gap == 0, 0.0, radius)
    cut = np.flatnonzero((gap > 0) & (gap < scan))
    r, g = ray[cut], gap[cut]
    edge[cut] = _bisect(margin, center, dirs[r], t[g - 1], t[g], m[r, g - 1], m[r, g],
                        radius)
    return ray[::2], edge[::2], edge[1::2]


def _polar_ball_sum(fn, center, radius: float, nodes, key: str, margin=None) -> float:
    """Integral of ``fn`` over the x with |x - center| <= radius and margin(x) >= 0.

    ``fn`` maps points (k, n) to values (k,) and ``margin`` to floats, NaN
    counting as outside; None means the whole ball.  Each ray of
    ``_sphere_rule`` is cut by ``_inside_intervals``, and each inside interval
    takes Gauss-Legendre in t with weight t^{n-1}, so no node lies at t = 0.
    The node count N (the config key ``key`` in errors) sets k = N // 4, a
    scan of S = 2k and max(8, N // 16) radial nodes per interval.  Rays go in fixed chunks of
    about _CHUNK_POINTS points, summed in order.
    """
    if not 0.0 < radius < np.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if not float(nodes).is_integer() or nodes < 4:
        raise ValueError(f"{key} must be an integer node count >= 4, got {nodes!r}")
    center = np.asarray(center, dtype=float)
    n, k = center.size, int(nodes) // 4
    scan, q = 2 * k, max(8, int(nodes) // 16)
    points = (2 if n == 1 else 2 * k ** (n - 1)) * (scan + q)
    if points > _MAX_POINTS:
        raise ValueError(f"{key} {nodes} asks for {points:.2e} quadrature points per "
                         f"pass, above the ceiling {_MAX_POINTS:.0e}")
    dirs, weights = _sphere_rule(n, k)
    x, w = _gauss_legendre(q)
    rays = max(1, _CHUNK_POINTS // (scan + q))
    total = 0.0
    for lo in range(0, len(dirs), rays):
        d = dirs[lo:lo + rays]
        if margin is None:
            ray, a, b = np.arange(len(d)), np.zeros(len(d)), np.full(len(d), radius)
        else:
            ray, a, b = _inside_intervals(margin, center, d, radius, scan)
        half = 0.5 * (b - a)
        t = (a + half)[:, None] + half[:, None] * x
        wt = (weights[lo:lo + rays][ray] * half)[:, None] * w * t ** (n - 1)
        pts = center + t[..., None] * d[ray][:, None, :]
        total += float(np.sum(wt * fn(pts.reshape(-1, n)).reshape(t.shape)))
    return total
