"""Brute-force verification of the algebraic inequalities behind the theory.

Grid scans for the cubic inequality phi(mu1, mu2, mu3) >= 0 under the
pairwise-product constraint and its Lambda-quantified variant, the
right-hand side of the Delta log v identity together with its three-way
regrouping, and seeded random samplers for the two pointwise differential
inequalities and the xi_11 concentration estimate.

Every report is a function of its inputs alone: the scans run their grid
slices and the samplers their seeded chunks in order, in the calling thread.
``verify-algebra --threads`` runs whole reports in parallel instead.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from mingraph.grassmann import log_slope, metric_inverse
from mingraph.util import _unbatch

NONNEG_TOL = 1e-9  # slack on all nonnegativity assertions
CONSTRAINT_SLACK = 1e-12  # keeps exact equality loci admissible under rounding
MU_MAX = 4.0  # the scans cover [0, MU_MAX]^3
SQRT2 = np.sqrt(2.0)

_CHUNK = 20000
_MAX_GRID = 10**8  # grid triples per scan: the sharp scan takes about 2 s there
_MAX_SAMPLES = 10**7  # samples per report: the sqrt(2) sampler takes about 13 s there


class SamplingFailureError(RuntimeError):
    """A rejection sampler accepted no draw out of its first 1e7."""


@dataclass
class ScanReport:
    """Outcome of a grid scan or sampling run.

    ``violations`` counts assertion failures (0 on success); ``min_value`` is
    the smallest inequality margin seen, attained at ``argmin``.
    """

    check: str
    params: dict
    samples: int
    min_value: float
    argmin: list
    violations: int
    seed: int | None = None
    max_value: float | None = None
    notes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def phi(mu1: float, mu2: float, mu3: float) -> float:
    """phi = 4 + mu1 mu2 mu3 - mu1 mu2 - mu1 mu3 - mu2 mu3."""
    return 4.0 + mu1 * mu2 * mu3 - mu1 * mu2 - mu1 * mu3 - mu2 * mu3


def _pairwise_limit(mu_max_entry):
    """Sharp pairwise bound 2 + 2/(max_k mu_k - 1); +inf when max_k mu_k <= 1.

    Below max mu = 1 the raw expression has a negative denominator; the region
    is treated as unconstrained (all products there are <= 1 anyway) and
    flagged in the report.
    """
    limit = np.full_like(mu_max_entry, np.inf, dtype=float)
    above = mu_max_entry > 1.0 + CONSTRAINT_SLACK
    limit[above] = 2.0 + 2.0 / (mu_max_entry[above] - 1.0)
    return limit


def _argmin_key(vals, m1, p2, p3):
    """Deterministic argmin representative for a grid slice.

    Values are quantized at 1e-12 so rounding noise on an equality locus
    does not pick an arbitrary point; ties go to the lexicographically
    smallest descending-sorted triple.  Returns a comparable key
    (quantized value, sorted triple, triple).
    """
    q = np.round(vals, 12)
    idx = np.flatnonzero(q == np.min(q))
    triples = np.stack([np.full(idx.size, m1), p2[idx], p3[idx]], axis=1)
    srt = -np.sort(-triples, axis=1)
    first = int(np.lexsort((srt[:, 2], srt[:, 1], srt[:, 0]))[0])
    k = int(idx[first])
    s = srt[first]
    return (
        float(q[k]),
        (float(s[0]), float(s[1]), float(s[2])),
        (float(m1), float(p2[k]), float(p3[k])),
    )


def _grid_divisions(grid_step) -> int:
    """Intervals per axis of the scan grid at ``grid_step``, within ``_MAX_GRID``."""
    if not 0.0 < grid_step < np.inf:
        raise ValueError(f"grid_step must be positive and finite, got {grid_step!r}")
    k = max(1, int(round(min(MU_MAX / grid_step, _MAX_GRID))))  # MU_MAX / 5e-324 is inf
    if (k + 1) ** 3 > _MAX_GRID:
        raise ValueError(f"grid_step {grid_step!r} asks for more than {_MAX_GRID:.0e} "
                         "grid triples per scan")
    return k


def _scan_grid(grid_step, ceiling, floor) -> dict:
    """Scan phi over the admissible triples of a uniform grid on [0, MU_MAX]^3.

    A triple is admissible when its largest pairwise product is at most
    ``ceiling`` (``None``: the sharp limit of its largest entry, see
    ``_pairwise_limit``).  Returns the grid step, the admissible count, the
    minimum of phi and its argmin, the counts of phi < floor - NONNEG_TOL, of
    pairwise products > 4 + NONNEG_TOL and of triples with every entry <= 1,
    and the largest admissible pairwise product.
    """
    k = _grid_divisions(grid_step)
    grid = np.arange(k + 1) * (MU_MAX / k)
    m2, m3 = np.meshgrid(grid, grid, indexing="ij")
    m2, m3 = m2.ravel(), m3.ravel()
    # m1-free parts: for m1 >= 0, m1 * max(m2, m3) == max(m1 m2, m1 m3) exactly
    top23, prod23 = np.maximum(m2, m3), m2 * m3
    true_min, worst_pair = np.inf, -np.inf
    best_key = (np.inf, (np.inf,) * 3, (0.0, 0.0, 0.0))
    counts = [0, 0, 0, 0]
    for m1 in grid:
        pairmax = np.maximum(m1 * top23, prod23)
        limit = _pairwise_limit(np.maximum(m1, top23)) if ceiling is None else ceiling
        adm = pairmax <= limit + CONSTRAINT_SLACK
        if not np.any(adm):
            continue
        p2, p3, pp = m2[adm], m3[adm], pairmax[adm]
        vals = phi(m1, p2, p3)
        low = np.count_nonzero(top23[adm] <= 1.0) if m1 <= 1.0 else 0
        found = (vals.size, np.count_nonzero(vals < floor - NONNEG_TOL),
                 np.count_nonzero(pp > 4.0 + NONNEG_TOL), low)
        counts = [c + int(f) for c, f in zip(counts, found)]
        true_min = min(true_min, float(np.min(vals)))
        best_key = min(best_key, _argmin_key(vals, m1, p2, p3))
        worst_pair = max(worst_pair, float(np.max(pp)))
    return {
        "grid_step": MU_MAX / k,
        "samples": counts[0],
        "min_value": true_min,
        "argmin": list(best_key[2]),
        "phi_violations": counts[1],
        "pairwise_gt4": counts[2],
        "low": counts[3],
        "max_pair": worst_pair,
    }


def scan_mu123(grid_step: float, constraint: str = "sharp") -> ScanReport:
    """Exhaustive grid scan of phi >= 0 on the constrained region.

    Enumerates all triples on a uniform grid over [0, MU_MAX]^3 that satisfy
    the pairwise-product constraint (``constraint="sharp"``), asserts
    phi >= -NONNEG_TOL on each, and additionally asserts that every
    admissible triple has all pairwise products <= 4 + NONNEG_TOL.  With
    ``constraint="pairwise_le_4"`` the hypothesis is deliberately weakened to
    mu_i mu_j <= 4; violations are then expected and demonstrate sharpness.
    """
    if constraint not in ("sharp", "pairwise_le_4"):
        raise ValueError(f"unknown constraint '{constraint}'")
    sharp = constraint == "sharp"
    scan = _scan_grid(grid_step, None if sharp else 4.0, 0.0)
    n_pair_viol = scan["pairwise_gt4"] if sharp else 0
    return ScanReport(
        check="mu123" if sharp else "mu123-weakened",
        params={
            "grid_step": scan["grid_step"],
            "mu_max": MU_MAX,
            "tol": NONNEG_TOL,
            "constraint": constraint,
        },
        samples=scan["samples"],
        min_value=scan["min_value"],
        argmin=scan["argmin"],
        violations=scan["phi_violations"] + n_pair_viol,
        notes={
            "phi_violations": scan["phi_violations"],
            "pairwise_gt4_violations": n_pair_viol,
            "unconstrained_low_region_triples": scan["low"],
            "max_pairwise_product": scan["max_pair"],
        },
    )


def _check_lambda(lam):
    """Refuse a 2-dilation bound Lambda outside (0, sqrt(2)]."""
    if not 0.0 < lam <= SQRT2 + 1e-12:
        raise ValueError(f"Lambda must lie in (0, sqrt(2)], got {lam!r}")


def scan_mu123_lambda(lam: float, grid_step: float) -> ScanReport:
    """Grid check of phi >= (2 - sqrt(2)) (2 - Lambda^2) under pairwise <= Lambda^2."""
    _check_lambda(lam)
    bound = (2.0 - SQRT2) * (2.0 - lam * lam)
    scan = _scan_grid(grid_step, lam * lam, bound)
    return ScanReport(
        check="mu123-lambda",
        params={"Lambda": lam, "grid_step": scan["grid_step"], "mu_max": MU_MAX,
                "tol": NONNEG_TOL},
        samples=scan["samples"],
        min_value=scan["min_value"],
        argmin=scan["argmin"],
        violations=scan["phi_violations"],
        notes={"bound": bound},
    )


def _pad_h(lam, h):
    """Checked float lam (..., n) and h (..., m, n, n), h zero-padded to n >= m."""
    lam = np.asarray(lam, dtype=float)
    h = np.asarray(h, dtype=float)
    if (h.ndim < 3 or h.shape[-1] != h.shape[-2]
            or lam.shape != h.shape[:-3] + h.shape[-1:]):
        raise ValueError(f"shape mismatch: lam {lam.shape}, h {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("h must be finite")
    asym = h - np.swapaxes(h, -1, -2)
    if np.max(np.abs(asym, out=asym), initial=0.0) != 0.0:
        raise ValueError("h must be exactly symmetric in its last two indices")
    m, n = h.shape[-3:-1]
    if n > m:  # convention: h_{alpha, . .} = 0 for alpha > m
        h = np.concatenate([h, np.zeros(h.shape[:-3] + (n - m, n, n))], axis=-3)
    return lam, h, n


def _regrouping(c, lc, n):
    """The four-part regrouping of rhs on ``_logv_terms``'s columns.

    normal-excess  sum_{a > n} sum_{i,j} h_{a,ij}^2
    diagonal       sum_i (1 + lam_i^2) h_{i,ii}^2
    ordered-pair   sum_{i != j} (2 + lam_i^2) h_{i,ij}^2 + h_{j,ii}^2
                   + 2 lam_i lam_j h_{i,ij} h_{j,ii}
    distinct-triple  sum_{i, j, k distinct} h_{k,ij}^2 + lam_i lam_j h_{i,jk} h_{j,ik}
    """
    lam2 = lc * lc
    normal, diag, pair, tri = (np.zeros(lc.shape[1:]) for _ in range(4))
    for col in c[n:].reshape(((len(c) - n) * n * n,) + c.shape[3:]):
        normal += col * col
    for i in range(n):
        diag += (1.0 + lam2[i]) * (c[i, i, i] * c[i, i, i])
        for j in range(i + 1, n):
            ll2 = 2.0 * lc[i] * lc[j]
            for p, q in ((i, j), (j, i)):
                hppq, hqpp = c[p, p, q], c[q, p, p]
                pair += (2.0 + lam2[p]) * (hppq * hppq) + hqpp * hqpp + ll2 * (hppq * hqpp)
            for k in range(n):
                if k != i and k != j:  # (i, j, k) and (j, i, k): h_{k,ij} = h_{k,ji}
                    tri += 2.0 * (c[k, i, j] * c[k, i, j]) + ll2 * (c[i, j, k] * c[j, i, k])
    return normal, diag, pair, tri


def _logv_terms(lam, h, n):
    """rhs, its regrouping, |B|^2 and sum_j (sum_i lam_i h_{i,ij})^2 on columns.

    Takes ``_pad_h``'s output: lam (..., n) and h (..., M, n, n) with M >= n.
    h is read as M n n contiguous columns of the batch shape (copied once
    unless it is stored that way, as ``_sample_h`` stores it), and every sum
    accumulates into batch-shaped arrays, so the temporaries are at most that
    copy plus a few arrays of the batch shape.  The regrouping
    (``_regrouping``), shape (..., 4), is asserted to agree with rhs to 1e-10
    relative.
    """
    c = np.ascontiguousarray(np.moveaxis(h, (-3, -2, -1), (0, 1, 2)))  # c[a, i, j]
    lc = np.moveaxis(lam, -1, 0)
    lam2 = lc * lc
    b2, term2, term3, gsq = (np.zeros(lam.shape[:-1]) for _ in range(4))
    for col in c.reshape((len(c) * n * n,) + c.shape[3:]):
        b2 += col * col
    for i in range(n):
        hii = c[i, i]  # h_{i, il} over l
        term2 += lam2[i] * sum(hii[l] * hii[l] for l in range(n))
        grad = sum(lc[k] * c[k, k, i] for k in range(n))  # sum_k lam_k h_{k,ki}
        gsq += grad * grad
        for j in range(i + 1, n):  # sum_l h_{i,jl} h_{j,il} is symmetric in (i, j)
            term3 += 2.0 * lc[i] * lc[j] * sum(c[i, j, l] * c[j, i, l] for l in range(n))
    rhs = b2 + term2 + term3
    parts = _regrouping(c, lc, n)
    if np.max(np.abs(sum(parts) - rhs) / (1.0 + np.abs(rhs)), initial=0.0) > 1e-10:
        raise AssertionError("regrouped decomposition disagrees with direct value")
    return rhs, np.stack(parts, axis=-1), b2, gsq


def delta_logv_rhs(lam, h, return_parts: bool = False):
    """Right-hand side of the Delta log v identity for spectrum lam and SFF h.

    rhs = |B|^2 + sum_{i,j} lam_i^2 h_{i,ij}^2
        + sum_{l, i != j} lam_i lam_j h_{i,jl} h_{j,il}.

    Broadcasts over leading axes; a single (lam (n,), h (m,n,n)) pair gives a
    float.  With ``return_parts`` also returns the four-term regrouping
    (normal-excess, diagonal, ordered-pair, distinct-triple), shape (..., 4);
    the two always agree to rounding and that agreement is asserted.
    """
    rhs, parts, _, _ = _logv_terms(*_pad_h(lam, h))
    if return_parts:
        return _unbatch(rhs), parts
    return _unbatch(rhs)


def lambda_lower_bound(lam, h, lam_bound: float, return_terms: bool = False):
    """Bound (1 - Lambda/sqrt(2)) |B|^2 + (1/n) sum_j (sum_i lam_i h_{i,ij})^2.

    Broadcasts like ``delta_logv_rhs``; a single point gives a float.  With
    ``return_terms`` returns (bound, rhs, |B|^2), all from one padding of h.
    """
    lam, h, n = _pad_h(lam, h)
    rhs, _, b2, gsq = _logv_terms(lam, h, n)
    out = (1.0 - lam_bound / SQRT2) * b2 + gsq / n
    if return_terms:
        return _unbatch(out), _unbatch(rhs), _unbatch(b2)
    return _unbatch(out)


def _sample_h(rng, count: int, m: int, n: int) -> np.ndarray:
    """(u + u^T) / 2 of uniform u on [-1, 1], shape (count, m, n, n).

    Stored sample axis last, as the columns ``_logv_terms`` reads, so neither
    the symmetrization nor the kernel's column copy walks strided data.
    """
    u = np.moveaxis(rng.uniform(-1.0, 1.0, size=(count, m, n, n)), 0, -1).copy()
    return np.moveaxis(0.5 * (u + np.swapaxes(u, 1, 2)), -1, 0)


def _rejection_sample(rng, count: int, propose, accept) -> np.ndarray:
    """The first ``count`` draws of ``propose(rng, size)`` that pass ``accept``.

    Each round proposes 4 * count draws and keeps the accepted ones, up to
    the number still needed.  Raises ``SamplingFailureError`` once 1e7 draws
    have produced none.
    """
    out = []
    have = 0
    draws = 0
    while have < count:
        x = propose(rng, 4 * count)
        draws += x.shape[0]
        x = x[accept(x)]
        out.append(x[: count - have])
        have += out[-1].shape[0]
        if draws > 1e7 and have == 0:
            raise SamplingFailureError("no accepted draw in 1e7")
    return np.concatenate(out, axis=0)


def _check_samples(samples):
    """Refuse a sample count outside [1, ``_MAX_SAMPLES``]."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    if samples > _MAX_SAMPLES:
        raise ValueError(f"samples {samples!r} is above the ceiling {_MAX_SAMPLES:.0e} "
                         "per report")


def _sampled_report(check, params, samples, seed, chunk, pick=min):
    """Report the ``pick`` of ``chunk(rng, count) -> (value, arg, violations)``.

    ``samples`` is split into fixed chunks of ``_CHUNK``, run in order, each
    drawing from its own ``SeedSequence([seed, start])``.  Violations are
    summed over the chunks.  A ``SamplingFailureError`` is raised again with
    the check and its params in front.
    """
    _check_samples(samples)
    try:
        results = [chunk(np.random.default_rng(np.random.SeedSequence([seed, lo])),
                         min(_CHUNK, samples - lo)) for lo in range(0, samples, _CHUNK)]
    except SamplingFailureError as exc:
        raise SamplingFailureError(f"{check} {params}: {exc}") from exc
    value, arg, _ = pick(results, key=lambda t: t[0])
    return ScanReport(check=check, params=params, samples=samples, min_value=value,
                      argmin=arg, violations=sum(r[2] for r in results), seed=seed)


def _sort_descending(x):
    """Rows of x (k, n) sorted descending, by odd-even transposition of columns.

    Each step is an exact np.maximum / np.minimum of two columns, so the rows
    equal ``np.sort(x, axis=1)[:, ::-1]`` bit for bit; for small n it is
    faster than ``np.sort``'s per-row calls.
    """
    x = np.array(x, dtype=float)
    n = x.shape[1]
    low = np.empty(x.shape[0])
    for step in range(n):
        for i in range(step % 2, n - 1, 2):
            a, b = x[:, i], x[:, i + 1]
            np.minimum(a, b, out=low)
            np.maximum(a, b, out=a)
            b[...] = low
    return x


def _margin_report(check, params, samples, seed, n, m, accept, margin_fn):
    """Smallest ``margin_fn(lam, h)`` over spectra passing ``accept`` and random h.

    Spectra are sorted descending and uniform on [0, 3]^n before ``accept``.
    """

    def propose(rng, size):
        return _sort_descending(rng.uniform(0.0, 3.0, size=(size, n)))

    def chunk(rng, count):
        lam = _rejection_sample(rng, count, propose, accept)
        margin = margin_fn(lam, _sample_h(rng, count, m, n))
        i = int(np.argmin(margin))
        return (
            float(margin[i]),
            [float(x) for x in lam[i]],
            int(np.count_nonzero(margin < -NONNEG_TOL)),
        )

    return _sampled_report(check, params, samples, seed, chunk)


def check_sqrt2_inequality(samples: int, seed: int, n: int = 3, m: int = 3) -> ScanReport:
    """Random check of the sqrt(2) pointwise inequality.

    Draws sorted spectra with lam_1^2 lam_i^2 <= 2 + lam_i^2 for i >= 2 and
    random symmetric h, and asserts that the Delta log v right-hand side
    dominates the normal-excess + weighted-diagonal bound on every sample.
    """

    def accept(lam):
        rest = lam[:, 1:]
        return np.all(lam[:, :1] ** 2 * rest**2 <= 2.0 + rest**2 + 1e-14, axis=1)

    def margin(lam, h):
        # the bound sum_{a>n} h^2 + sum_i (1 + lam_i^2) h_{i,ii}^2 is the
        # normal-excess and diagonal parts of the regrouped right-hand side
        rhs, parts = delta_logv_rhs(lam, h, return_parts=True)
        return rhs - (parts[..., 0] + parts[..., 1])

    return _margin_report("sqrt2-logv", {"n": n, "m": m, "tol": NONNEG_TOL},
                          samples, seed, n, m, accept, margin)


def check_lambda_inequality(
    lam_bound: float, samples: int, seed: int, n: int = 3, m: int = 3
) -> ScanReport:
    """Random check of the Lambda-quantified inequality for lam_1 lam_2 <= Lambda."""
    _check_lambda(lam_bound)

    def accept(lam):
        if lam.shape[1] < 2:
            return np.ones(lam.shape[0], dtype=bool)
        return lam[:, 0] * lam[:, 1] <= lam_bound + 1e-14

    def margin(lam, h):
        bound, rhs, _ = lambda_lower_bound(lam, h, lam_bound, return_terms=True)
        return rhs - bound

    return _margin_report("lambda-logv",
                          {"Lambda": lam_bound, "n": n, "m": m, "tol": NONNEG_TOL},
                          samples, seed, n, m, accept, margin)


def xi11(a: np.ndarray) -> np.ndarray:
    """xi_11 = sqrt(det b) * sum_i b^{i1} a_{1i} with b = I + a^T a; broadcasts."""
    a = np.asarray(a, dtype=float)
    first = np.einsum("...j,...j->...", metric_inverse(a)[..., 0, :], a[..., 0, :])
    return _unbatch(np.exp(log_slope(a)) * first)


def _dilation_and_detb(a: np.ndarray):
    """lam_1 lam_2 = |det a| and det(I + a^T a) = 1 + |a|_F^2 + (det a)^2 (2 x 2)."""
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    return np.abs(det), 1.0 + (a * a).sum(axis=(1, 2)) + det * det


def _check_xi11(lam_bound, eps):
    """Refuse a xi_11 experiment outside Lambda > 0 and 0 < eps < 1."""
    if lam_bound <= 0 or not 0.0 < eps < 1.0:
        raise ValueError("need Lambda > 0 and eps in (0, 1)")


def xi11_sampler(lam_bound: float, eps: float, samples: int, seed: int) -> ScanReport:
    """Sampling experiment for the near-diagonal xi_11 concentration estimate.

    Samples 2 x 2 matrices ``a`` with lam_1 lam_2 <= Lambda and
    a_11 >= (1 - eps) sqrt(det b) by rejection around the feasible corner
    (a_11 large, everything else O(sqrt(eps))), and reports max |xi_11|.
    The acceptance test uses the 2 x 2 closed forms lam_1 lam_2 = |det a| and
    det b = (1 + lam_1^2)(1 + lam_2^2) = 1 + |a|_F^2 + (det a)^2.
    The estimate itself is asymptotic in eps; the testable contract is that
    the reported max is non-increasing as eps decreases.
    """
    _check_xi11(lam_bound, eps)
    a_min = (1.0 - eps) / np.sqrt(1.0 - (1.0 - eps) ** 2)
    a_max = max(3.0 * a_min, 12.0)  # the sup of |xi_11| is approached at large a_11

    def propose(rng, size):
        a11 = a_min + (a_max - a_min) * rng.uniform(0.0, 1.0, size=size)
        delta = 0.5 * np.minimum(np.sqrt(eps), lam_bound / a11)
        a = rng.uniform(-1.0, 1.0, size=(size, 2, 2)) * delta[:, None, None]
        a[:, 0, 0] = a11
        return a

    def accept(a):
        lam12, detb = _dilation_and_detb(a)
        return (lam12 <= lam_bound) & (a[:, 0, 0] >= (1.0 - eps) * np.sqrt(detb))

    def chunk(rng, count):
        a = _rejection_sample(rng, count, propose, accept)
        vals = np.abs(xi11(a))
        i = int(np.argmax(vals))
        return float(vals[i]), [float(x) for x in a[i].ravel()], 0

    report = _sampled_report("xi11-limit",
                             {"Lambda": lam_bound, "eps": eps, "n": 2, "m": 2},
                             samples, seed, chunk, pick=max)
    report.max_value = report.min_value
    return report
