"""Small shared helpers: grid points, deterministic chunks, ball sums and volumes."""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def unit_ball_volume(n: int) -> float:
    """Volume omega_n of the unit n-ball, pi^{n/2} / Gamma(n/2 + 1)."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


def _unbatch(out):
    """A float for a 0-d result, else the array: the one place kernels unbatch."""
    return float(out) if np.ndim(out) == 0 else out


class _ChunkRanges:
    """The (lo, hi) pieces of range(start, stop) of ``size`` each, made on demand."""

    def __init__(self, start: int, stop: int, size: int):
        self._los = range(start, max(start, stop), size)
        self._stop, self._size = stop, size

    def __len__(self) -> int:
        return len(self._los)

    def __iter__(self):
        return ((lo, min(lo + self._size, self._stop)) for lo in self._los)

    def __eq__(self, other) -> bool:
        return list(self) == other


def chunk_ranges(total: int, size: int) -> _ChunkRanges:
    """Fixed (start, stop) partition of range(total), independent of threads.

    A sized iterable whose pairs are made as they are read, so a grid of any
    size costs O(1) here.
    """
    return _ChunkRanges(0, total, size)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_chunks(fn, chunks, threads: int = 1) -> list:
    """Apply ``fn`` to each chunk, results in chunk order regardless of thread count.

    At most 2 * threads chunks are submitted and not yet collected, so the
    pool holds O(threads) futures however many chunks there are.
    """
    if threads <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    out, pending = [], deque()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for chunk in chunks:
            if len(pending) == 2 * threads:
                out.append(pending.popleft().result())
            pending.append(pool.submit(fn, chunk))
        out.extend(future.result() for future in pending)
    return out


def grid_points(axes) -> np.ndarray:
    """Points of the tensor grid of 1-D ``axes`` in C order, shape (N, len(axes))."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


# cutoff / radius of the ball around a possible cone vertex that the
# volume and curvature quadratures excise
VERTEX_CUTOFF_FRAC = 1e-3

# chunks per run_chunks call in _ball_midpoint_sum
_WINDOW = 256


def _ball_midpoint_sum(fn, center, radius: float, nodes, chunk: int,
                       cutoff: float = 0.0, threads: int = 1) -> float:
    """Midpoint rule h^n sum fn(x) over the nodes^n cells of the box center +- radius.

    ``fn`` gets, one chunk at a time, the (k, n) cell midpoints x with
    cutoff <= |x - center| <= radius, and returns the float sum of its
    integrand there.  A chunk is a fixed range of ``chunk`` flat cell indices
    whose midpoints are built on demand, so memory is O(threads * chunk), not
    O(nodes^n).  The chunks are fixed and their sums reduced pairwise in
    order, so the result does not depend on ``threads``.
    """
    if not float(nodes).is_integer() or nodes < 1:
        raise ValueError(f"node count must be an integer >= 1, got {nodes!r}")
    center = np.asarray(center, dtype=float)
    n, nodes = center.size, int(nodes)
    h = 2.0 * radius / nodes
    axis = -radius + h * (np.arange(nodes) + 0.5)
    axes = [c + axis for c in center]
    squares = [(a - c) ** 2 for a, c in zip(axes, center)]

    def piece(rng):
        lo, hi = rng
        # the chunk spans these rows along the last axis; a row's cells share
        # their leading indices, so only the row starts are unravelled
        rows = np.arange(lo // nodes, -(-hi // nodes))
        lead = np.unravel_index(rows * nodes, (nodes,) * n)[:-1]
        # |x - center|^2 summed axis by axis in np.linalg.norm's order: a cell
        # dropped here never has its graph point (a longer norm) in the ball
        d2 = np.add.outer(sum(sq[i] for sq, i in zip(squares, lead)), squares[-1])
        r = np.sqrt(d2.reshape(-1)[lo % nodes : lo % nodes + hi - lo])
        kept = np.flatnonzero((r >= cutoff) & (r <= radius)) + lo % nodes
        if kept.size == 0:
            return 0.0
        row, col = np.divmod(kept, nodes)
        x = [a[i[row]] for a, i in zip(axes, lead)] + [axes[-1][col]]
        return fn(np.stack(x, axis=-1))

    # the chunk sums are added pairwise in one fixed tree, the one that adding
    # neighbours level by level gives: a stack holds the sum of each finished
    # subtree, sizes falling, so memory is O(log chunks) and not O(chunks).
    # Each run_chunks call covers _WINDOW chunks, which bounds the list it returns.
    stack = []
    for lo, hi in chunk_ranges(nodes**n, _WINDOW * chunk):
        for val in run_chunks(piece, _ChunkRanges(lo, hi, chunk), threads):
            size = 1
            while stack and stack[-1][0] == size:
                size, val = 2 * size, stack.pop()[1] + val
            stack.append((size, val))
    total = stack.pop()[1] if stack else 0.0
    while stack:
        total = stack.pop()[1] + total
    return total * h**n
