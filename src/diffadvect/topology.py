"""Cartesian process-grid bookkeeping, as tables indexed by rank.

Ranks live on a 3D grid with x varying fastest. A rank's neighbors are the
face-adjacent ranks only (no diagonals) in the fixed direction order
``(-x, +x, -y, +y, -z, +z)``: :func:`neighbor_table` gives them as one
``(ranks, 6)`` table, and every transfer in the balancer and the runtime is a
column of it. :func:`decompose` gives the ranks' block bounds as two
``(ranks, 3)`` arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Direction order is part of the wire contract between ranks.
DIRECTIONS = ("-x", "+x", "-y", "+y", "-z", "+z")
DIR_AXIS = (0, 0, 1, 1, 2, 2)
DIR_SIGN = (-1, +1, -1, +1, -1, +1)


@dataclass(frozen=True)
class ProcessGrid:
    """A Cartesian arrangement of ranks, x fastest in rank numbering."""

    dims: tuple[int, int, int]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ConfigError(f"grid dims must be three integers >= 1, got {self.dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def rank_count(self) -> int:
        dx, dy, dz = self.dims
        return dx * dy * dz


def coords_to_rank(grid: ProcessGrid, coords) -> int:
    x, y, z = (int(c) for c in coords)
    dx, dy, dz = grid.dims
    if not (0 <= x < dx and 0 <= y < dy and 0 <= z < dz):
        raise ConfigError(f"coords {coords} outside grid {grid.dims}")
    return (z * dy + y) * dx + x


def rank_to_coords(grid: ProcessGrid, rank: int) -> tuple[int, int, int]:
    rank = int(rank)
    if not (0 <= rank < grid.rank_count):
        raise ConfigError(f"rank {rank} outside grid of {grid.rank_count} ranks")
    dx, dy, _ = grid.dims
    x = rank % dx
    y = (rank // dx) % dy
    z = rank // (dx * dy)
    return (x, y, z)


def _coords(grid: ProcessGrid) -> np.ndarray:
    """``(ranks, 3)`` grid coordinates of every rank."""
    dx, dy, _ = grid.dims
    return np.arange(grid.rank_count, dtype=np.int64)[:, np.newaxis] // np.array([1, dx, dx * dy]) % grid.dims


def neighbor_table(grid: ProcessGrid) -> np.ndarray:
    """``table[r, d]``: rank ``r``'s face neighbor in direction ``d``, -1 at the domain hull.

    A block exit always crosses an inner face, so its receiver is never -1:
    a particle leaves the global domain only by a step the kernel reports
    exited.
    """
    coords, ranks = _coords(grid), np.arange(grid.rank_count, dtype=np.int64)
    table = np.empty((grid.rank_count, 6), dtype=np.int64)
    for d, (axis, sign) in enumerate(zip(DIR_AXIS, DIR_SIGN)):
        stepped = coords[:, axis] + sign
        inside = (stepped >= 0) & (stepped < grid.dims[axis])
        table[:, d] = np.where(inside, ranks + sign * math.prod(grid.dims[:axis]), -1)
    return table


def split_axis(extent: int, parts: int) -> list[tuple[int, int]]:
    """Near-even 1D split; the remainder goes to the lowest-coordinate parts."""
    base, rem = divmod(extent, parts)
    out, start = [], 0
    for i in range(parts):
        size = base + (1 if i < rem else 0)
        out.append((start, size))
        start += size
    return out


def decompose(grid: ProcessGrid, global_resolution) -> tuple[np.ndarray, np.ndarray]:
    """Partition the voxel lattice into per-rank core extents.

    Returns ``(origin, core_dims)``, two ``(ranks, 3)`` int64 arrays whose row
    ``r`` is rank ``r``'s extent. The core extents are pairwise disjoint and
    cover the lattice.
    """
    res = tuple(int(r) for r in global_resolution)
    if len(res) != 3 or any(r < 1 for r in res):
        raise ConfigError(f"resolution must be three positive integers, got {global_resolution}")
    if any(r < d for r, d in zip(res, grid.dims)):
        raise ConfigError(f"resolution {res} smaller than grid {grid.dims} on some axis")
    coords = _coords(grid)
    splits = [np.array(split_axis(res[a], grid.dims[a]), dtype=np.int64)[coords[:, a]] for a in range(3)]
    return np.stack([s[:, 0] for s in splits], axis=1), np.stack([s[:, 1] for s in splits], axis=1)


def most_cubic_dims(node_count: int) -> tuple[int, int, int]:
    """Factor ``node_count`` into the most cube-like grid, e.g. 16 -> (4, 2, 2).

    The largest factor goes on x. Deterministic over all factor triples.
    """
    n = int(node_count)
    if n < 1:
        raise ConfigError(f"node count must be >= 1, got {node_count}")
    best = None
    for a in range(1, n + 1):
        if n % a:
            continue
        m = n // a
        for b in range(1, m + 1):
            if m % b:
                continue
            c = m // b
            triple = tuple(sorted((a, b, c), reverse=True))
            score = (triple[0] / triple[2], triple[0] / triple[1])
            if best is None or score < best[0]:
                best = (score, triple)
    return best[1]
