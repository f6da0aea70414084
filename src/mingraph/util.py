"""Small shared helpers: grid points, deterministic chunks and ball volumes."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def unit_ball_volume(n: int) -> float:
    """Volume omega_n of the unit n-ball, pi^{n/2} / Gamma(n/2 + 1).

    Gamma at half-integers by recursion from Gamma(1/2) = sqrt(pi).
    """
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    if n % 2 == 0:
        gamma = 1.0  # Gamma(1)
        z = 1.0
    else:
        gamma = math.sqrt(math.pi)  # Gamma(1/2)
        z = 0.5
    while z < n / 2 + 1 - 1e-9:
        gamma *= z
        z += 1.0
    return math.pi ** (n / 2) / gamma


def chunk_ranges(total: int, size: int) -> list[tuple[int, int]]:
    """Fixed [(start, stop), ...] partition of range(total), independent of threads."""
    if total <= 0:
        return []
    return [(s, min(s + size, total)) for s in range(0, total, size)]


def run_chunks(fn, chunks, threads: int = 1) -> list:
    """Apply ``fn`` to each chunk, results in chunk order regardless of thread count."""
    if threads <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, chunks))


def grid_points(axes) -> np.ndarray:
    """Points of the tensor grid of 1-D ``axes`` in C order, shape (N, len(axes))."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def cell_midpoints(center, radius: float, nodes: int):
    """Cell width h and the midpoints of the nodes^n cells of center +- radius."""
    h = 2.0 * radius / nodes
    axis = -radius + h * (np.arange(nodes) + 0.5)
    return h, grid_points([c + axis for c in center])
