"""Finite-difference solver for the minimal surface system on grid patches.

Uniform grids over a box in R^n (n = 2, 3 or 4) carrying m-vector node values
with Dirichlet boundary data on the outermost node layer.  The strong form
sum_{ij} g^{ij} d^2 u^alpha / dx_i dx_j = 0 is discretized with second-order
central differences and solved by damped Newton with a frozen-coefficient
Picard fallback.  The difference quotients are written once, in
``_interior_derivatives``; the Newton and Picard matrices and the harmonic
initial guess take their weights from the table ``_stencil`` reads off it,
and one builder, ``_stencil_matrix``, turns them into sparse matrices.
Every linear solve factors its matrix in one geometric nested-dissection
order of the interior grid.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mingraph.grassmann import induced_metric
from mingraph.util import grid_points

DEFAULT_TOL = 1e-10
_DISSECTION_LEAF = 8  # boxes of at most this many nodes are not split further


@dataclass
class GraphPatch:
    """Grid data for a graph u: box in R^n -> R^m.

    ``values`` has shape dims + (m,); the boundary is the outermost node
    layer and holds the Dirichlet data.
    """

    n: int
    m: int
    dims: tuple
    spacing: float
    origin: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        self.origin = np.asarray(self.origin, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.n not in (2, 3, 4):
            raise ValueError("only n in {2, 3, 4} is supported")
        if len(self.dims) != self.n or any(d < 3 for d in self.dims):
            raise ValueError("need at least 3 nodes per axis")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        if self.values.shape != self.dims + (self.m,):
            raise ValueError(
                f"values shape {self.values.shape} != {self.dims + (self.m,)}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("patch values must be finite")

    @property
    def boundary_mask(self) -> np.ndarray:
        return _node_ids(self.dims) < 0

    def node_coords(self) -> np.ndarray:
        """Physical coordinates of all nodes, shape dims + (n,)."""
        axes = [self.origin[k] + self.spacing * np.arange(self.dims[k])
                for k in range(self.n)]
        return grid_points(axes).reshape(self.dims + (self.n,))

    @classmethod
    def from_model(cls, model, origin, dims, spacing) -> "GraphPatch":
        """Sample an analytic model onto a grid (all nodes, not just boundary)."""
        patch = cls(model.n, model.m, tuple(dims), spacing, origin,
                    np.zeros(tuple(dims) + (model.m,)))
        patch.values[:] = model.value(patch.node_coords())
        return patch


def save_patch(patch: GraphPatch, manifest_path) -> None:
    """Write a patch in MGP1 form: JSON manifest + raw little-endian float64."""
    manifest_path = Path(manifest_path)
    data_path = manifest_path.with_suffix(".bin")
    manifest = {
        "format": "MGP1",
        "n": patch.n,
        "m": patch.m,
        "dims": list(patch.dims),
        "spacing": patch.spacing,
        "origin": [float(x) for x in patch.origin],
        "data": data_path.name,
    }
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    data_path.write_bytes(np.ascontiguousarray(patch.values, dtype="<f8").tobytes())


def load_patch(manifest_path) -> GraphPatch:
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text())
    if not isinstance(manifest, dict) or manifest.get("format") != "MGP1":
        raise ValueError("not an MGP1 manifest")
    for key in ("n", "m", "dims", "spacing", "origin", "data"):
        if key not in manifest:
            raise ValueError(f"MGP1 manifest lacks the key '{key}'")
    dims = tuple(manifest["dims"])
    m = manifest["m"]
    raw = (manifest_path.parent / manifest["data"]).read_bytes()
    values = np.frombuffer(raw, dtype="<f8").reshape(dims + (m,)).copy()
    return GraphPatch(
        manifest["n"], m, dims, manifest["spacing"], manifest["origin"], values
    )


def residual_strong(jacobian, hessian) -> np.ndarray:
    """Strong residual sum_{ij} g^{ij} H[alpha, i, j]; broadcasts over batches."""
    ginv = np.linalg.inv(induced_metric(jacobian)[0])
    return np.einsum("...ij,...aij->...a", ginv, np.asarray(hessian, dtype=float))


def _shift(arr, offset):
    """The window arr[1 + o_k : -1 + o_k] on each leading grid axis k.

    On an array over all nodes this picks the neighbour at ``offset`` of
    every interior node (1:-1); on an array over the interior nodes, that
    of every deep-interior node (2:-2).
    """
    return arr[tuple(slice(1 + o, (o - 1) or None) for o in offset)]


def _node_ids(dims) -> np.ndarray:
    """Interior node ids 0..N-1 in C order, -1 on the boundary layer.

    ``_shift(ids, offset).ravel()[i]`` is the id of the neighbour of
    interior node i at ``offset``, or -1 where that neighbour is boundary.
    """
    ids = np.full(dims, -1, dtype=np.int64)
    inner_dims = tuple(d - 2 for d in dims)
    ids[tuple(slice(1, -1) for _ in dims)] = np.arange(
        int(np.prod(inner_dims))).reshape(inner_dims)
    return ids


@functools.lru_cache(maxsize=4)
def _dissection_order(inner_dims: tuple) -> np.ndarray:
    """Interior node ids (C order) listed in geometric nested-dissection order.

    A box of nodes is split at the middle plane of its longest axis; the two
    halves are ordered first, recursively, and the separator plane last
    (George, SIAM J. Numer. Anal. 10, 1973).  Boxes of at most
    ``_DISSECTION_LEAF`` nodes keep their C order.  Cached per grid shape,
    so a solve and its initial guess share one order; the array is
    read-only.
    """
    ids = np.arange(math.prod(inner_dims)).reshape(inner_dims)
    boxes = []

    def split(box):
        sizes = [hi - lo for lo, hi in box]
        if math.prod(sizes) <= _DISSECTION_LEAF:
            boxes.append(box)
            return
        k = sizes.index(max(sizes))
        lo, hi = box[k]
        mid = (lo + hi) // 2
        split(box[:k] + ((lo, mid),) + box[k + 1:])
        split(box[:k] + ((mid + 1, hi),) + box[k + 1:])
        boxes.append(box[:k] + ((mid, mid + 1),) + box[k + 1:])

    split(tuple((0, d) for d in inner_dims))
    order = np.concatenate(
        [ids[tuple(slice(lo, hi) for lo, hi in box)].ravel() for box in boxes])
    order.flags.writeable = False
    return order


def _unknown_order(dims, m: int) -> np.ndarray:
    """Unknowns node*m + alpha in dissection order, a node's m kept together."""
    order = _dissection_order(tuple(d - 2 for d in dims))
    return (order[:, None] * m + np.arange(m)).ravel()


def _ordered_solve(A, rhs, perm):
    """Solve A x = rhs with a sparse LU of A[perm][:, perm] in that order.

    SuperLU keeps the given column order (``NATURAL``) and its default
    partial pivoting.  Returns x and the factor's stats: seconds to factor,
    seconds for the triangular solves, and nonzeros.
    """
    start = time.perf_counter()
    lu = spla.splu(A[perm][:, perm], permc_spec="NATURAL")
    factored = time.perf_counter()
    x = np.empty_like(rhs)
    x[perm] = lu.solve(rhs[perm])
    return x, {"factor_s": factored - start,
               "solve_s": time.perf_counter() - factored,
               "factor_nnz": int(lu.nnz)}


def _interior_derivatives(patch: GraphPatch):
    """Du (..., m, n) and Hessians (..., m, n, n) at interior nodes (1:-1).

    The solver's one home of difference quotients: ``_stencil`` reads their
    weights off this function.
    """
    U, h, n = patch.values, patch.spacing, patch.n
    unit = np.eye(n, dtype=int)
    center = _shift(U, [0] * n)
    Du = np.empty(center.shape[:-1] + (patch.m, n))
    H = np.empty(center.shape[:-1] + (patch.m, n, n))
    for k in range(n):
        ek = unit[k]
        up, dn = _shift(U, ek), _shift(U, -ek)
        Du[..., :, k] = (up - dn) / (2 * h)
        H[..., :, k, k] = (up - 2 * center + dn) / h**2
        for l in range(k + 1, n):
            el = unit[l]
            pp, pm = _shift(U, ek + el), _shift(U, ek - el)
            mp, mm = _shift(U, el - ek), _shift(U, -ek - el)
            mixed = (pp - pm - mp + mm) / (4 * h**2)
            H[..., :, k, l] = mixed
            H[..., :, l, k] = mixed
    return Du, H


@functools.lru_cache(maxsize=8)
def _stencil(n: int, h: float):
    """The residual's difference weights at spacing h, as read-only arrays.

    Returns (offsets, wD, wH): the (k, n) neighbour offsets the residual
    reads, and the weight of u at each in Du (k, n) and in H (k, n, n).
    They are ``_interior_derivatives`` of a 3^n patch holding 1 at the
    offset and 0 elsewhere, so the matrices use the residual's own weights
    bit for bit.
    """
    cells = 3**n
    probe = GraphPatch(n, cells, (3,) * n, h, np.zeros(n),
                       np.eye(cells).reshape((3,) * n + (cells,)))
    Du, H = _interior_derivatives(probe)
    Du, H = Du.reshape(cells, n), H.reshape(cells, n, n)
    used = np.any(Du != 0, axis=1) | np.any(H != 0, axis=(1, 2))
    table = (np.indices((3,) * n).reshape(n, cells).T[used] - 1, Du[used], H[used])
    for arr in table:
        arr.flags.writeable = False
    return table


def _stencil_matrix(dims, m: int, entries):
    """Sparse CSC matrix over the interior unknowns node*m + alpha.

    ``entries`` holds (offset, coeff) pairs with one coeff row per interior
    node in C order.  A coeff of shape (N, m) couples unknown (node, alpha)
    to (node + offset, alpha); one of shape (N, m, m) couples (node, alpha)
    to (node + offset, beta) by coeff[:, alpha, beta].  Couplings to the
    boundary layer, which holds no unknowns, are dropped.
    """
    ids = _node_ids(dims)
    size = math.prod(d - 2 for d in dims) * m
    pairs = {2: (np.arange(m), np.arange(m)),  # alpha to alpha
             3: np.indices((m, m)).reshape(2, -1)}  # alpha to every beta
    rows, cols, vals = [], [], []
    for offset, coeff in entries:
        alpha, beta = pairs[coeff.ndim]
        nb = _shift(ids, offset).ravel()
        ok = nb >= 0
        rows.append((np.flatnonzero(ok)[:, None] * m + alpha).ravel())
        cols.append((nb[ok][:, None] * m + beta).ravel())
        vals.append(coeff[ok].reshape(-1))
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    ).tocsc()


def strong_residual_field(patch: GraphPatch) -> np.ndarray:
    """Discrete strong residual at all interior nodes, shape inner-dims + (m,)."""
    Du, H = _interior_derivatives(patch)
    return residual_strong(Du, H)


@dataclass
class SolveReport:
    """Outcome of ``solve``.

    ``iteration_log`` holds one dict per Newton iteration: residual, step,
    seconds of assembly, factorization and triangular solve, and factor
    nonzeros, summed over the Newton and Picard systems on a Picard step.
    It is left out of ``to_dict`` because its timings vary between runs.
    """

    iterations: int
    residual: float
    converged: bool
    damping_history: list = field(default_factory=list)
    iteration_log: list = field(default_factory=list, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {key: getattr(self, key)
                for key in ("iterations", "residual", "converged", "damping_history")}


def _assemble(patch: GraphPatch, include_gradient_terms: bool):
    """Sparse Jacobian of the interior strong residual w.r.t. interior values.

    The residual is g^{kl}(Du) H_kl, and the node at offset o enters Du and
    H with the stencil weights wD[o] and wH[o].  The principal part
    g^{kl} wH[o]_kl couples each component to itself.  The gradient terms,
    -2 (g^{-1} H^alpha g^{-1} Du^beta)_r wD[o]_r, differentiate g^{kl}
    through Du and couple alpha to beta; without them this is the
    frozen-coefficient (Picard) matrix.
    """
    n, m = patch.n, patch.m
    offsets, wD, wH = _stencil(n, patch.spacing)
    Du, H = _interior_derivatives(patch)
    ginv = np.linalg.inv(induced_metric(Du)[0])
    n_nodes = math.prod(Du.shape[:-2])
    principal = np.einsum("...kl,okl->...o", ginv, wH).reshape(n_nodes, -1)
    if include_gradient_terms:
        w = np.einsum("...ij,...aj->...ai", ginv, Du)  # (..., beta, r)
        coeff = -2.0 * np.einsum("...ri,...aij,...bj->...abr", ginv, H, w)
        coeff = coeff.reshape(n_nodes, m, m, n)
    entries = []
    for o, offset in enumerate(offsets):
        p = principal[:, o]
        if include_gradient_terms and wD[o].any():
            entries.append((offset, coeff @ wD[o] + p[:, None, None] * np.eye(m)))
        else:
            entries.append((offset, np.repeat(p[:, None], m, axis=1)))
    return _stencil_matrix(patch.dims, m, entries)


def harmonic_initial_guess(patch: GraphPatch) -> None:
    """Replace the interior by the discrete harmonic extension of the boundary.

    One correction: delta solves L delta = -tr H(u) with zero boundary
    values, L the trace of the residual's H stencil, and is added to the
    interior.  Exact for affine boundary data, like the multilinear
    interpolant, and one deterministic sparse solve for any n: one factor
    of L serves all m components.
    """
    offsets, _, wH = _stencil(patch.n, patch.spacing)
    inner = _shift(patch.values, [0] * patch.n)  # a view: written in place below
    n_nodes = math.prod(inner.shape[:-1])
    A = _stencil_matrix(patch.dims, 1, [
        (offset, np.full((n_nodes, 1), weight))
        for offset, weight in zip(offsets, np.trace(wH, axis1=1, axis2=2)) if weight])
    _, H = _interior_derivatives(patch)
    rhs = -np.trace(H, axis1=-2, axis2=-1).reshape(n_nodes, patch.m)
    delta, _ = _ordered_solve(A, rhs, _unknown_order(patch.dims, 1))
    inner += delta.reshape(inner.shape)


def solve(
    patch: GraphPatch,
    tol: float = DEFAULT_TOL,
    max_iter: int = 50,
    initial_guess: bool = True,
) -> SolveReport:
    """Damped-Newton solve of the discrete minimal surface system in place.

    Boundary values are kept fixed; interior values are updated until the
    strong residual sup-norm drops below ``tol``.  A Newton step of length t
    is accepted when it lowers the residual by the factor 1 - 1e-4 t; from
    t = 1 it is halved down to 2^-10, above the residual's rounding noise,
    and then a frozen-coefficient Picard step is tried.  Divergence
    (residual above 10x the best for 20 consecutive iterations) aborts with
    the best iterate restored.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if initial_guess:
        harmonic_initial_guess(patch)
    inner = tuple(slice(1, -1) for _ in range(patch.n))
    perm = _unknown_order(patch.dims, patch.m)

    def linear_step(R, include_gradient_terms):
        start = time.perf_counter()
        A = _assemble(patch, include_gradient_terms)
        assembled = time.perf_counter() - start
        delta, stats = _ordered_solve(A, -R.reshape(-1), perm)
        stats["assemble_s"] = assembled
        return delta.reshape(R.shape), stats

    R = strong_residual_field(patch)
    res_norm = float(np.max(np.abs(R))) if R.size else 0.0
    best_vals = patch.values.copy()
    best_norm = res_norm
    history = []
    log = []
    bad_streak = 0
    it = 0
    while res_norm > tol and it < max_iter:
        it += 1
        delta, stats = linear_step(R, include_gradient_terms=True)
        step = 1.0
        base = patch.values[inner].copy()
        accepted = False
        for _ in range(11):
            patch.values[inner] = base + step * delta
            trial = strong_residual_field(patch)
            trial_norm = float(np.max(np.abs(trial)))
            if trial_norm <= (1.0 - 1e-4 * step) * res_norm:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            # Picard fallback: freeze coefficients, drop the gradient terms
            patch.values[inner] = base
            delta, picard = linear_step(R, include_gradient_terms=False)
            stats = {key: stats[key] + picard[key] for key in stats}
            patch.values[inner] = base + delta
            trial = strong_residual_field(patch)
            trial_norm = float(np.max(np.abs(trial)))
            step = -1.0  # marks a Picard step in the history
        R, res_norm = trial, trial_norm
        history.append(step)
        log.append(dict(stats, iteration=it, residual=res_norm, step=step))
        if res_norm < best_norm:
            best_norm = res_norm
            best_vals = patch.values.copy()
            bad_streak = 0
        elif res_norm > 10.0 * best_norm:
            bad_streak += 1
            if bad_streak >= 20:
                patch.values[:] = best_vals
                return SolveReport(it, best_norm, False, history, log)
        else:
            bad_streak = 0
    if res_norm > best_norm:
        patch.values[:] = best_vals
        res_norm = best_norm
    return SolveReport(it, res_norm, res_norm <= tol, history, log)
