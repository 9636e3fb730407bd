"""Cartesian process-grid bookkeeping, as tables indexed by rank.

This module alone numbers the ranks, x fastest (:func:`coords_to_rank`), and
splits the lattice: each axis near-evenly, part ``k`` of ``d`` from voxel
``k*(r//d) + min(k, r%d)`` of ``r``. :func:`decompose` gives the ranks' blocks
and :func:`node_ranks` each seeding node's rank. A rank's neighbors are the
face-adjacent ranks only (no diagonals) in the fixed direction order
``(-x, +x, -y, +y, -z, +z)``, as one ``(ranks, 6)`` :func:`neighbor_table`:
every transfer in the balancer and the runtime is a column of it.
"""

from __future__ import annotations

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


def coords_to_rank(grid: ProcessGrid, coords):
    """The rank at grid coordinates ``(x, y, z)``: numpy's ravel order over the reversed dims, broadcast."""
    try:
        return np.ravel_multi_index(tuple(coords)[::-1], grid.dims[::-1])
    except ValueError:
        raise ConfigError(f"coords {coords} outside grid {grid.dims}") from None


def rank_to_coords(grid: ProcessGrid, rank):
    """The grid coordinates ``(x, y, z)`` of ``rank``, a number or an array, as :func:`coords_to_rank` numbers it."""
    try:
        return np.unravel_index(rank, grid.dims[::-1])[::-1]
    except ValueError:
        raise ConfigError(f"rank {rank} outside grid of {grid.rank_count} ranks") from None


def neighbor_table(grid: ProcessGrid) -> np.ndarray:
    """``table[r, d]``: rank ``r``'s face neighbor in direction ``d``, -1 at the domain hull.

    A block exit always crosses an inner face, so its receiver is never -1:
    a particle leaves the global domain only by a step the kernel reports
    exited.
    """
    steps = np.array(DIR_SIGN)[:, np.newaxis] * np.eye(3, dtype=np.int64)[list(DIR_AXIS)]  # row d: d's step
    stepped = np.stack(rank_to_coords(grid, np.arange(grid.rank_count)), axis=1)[:, np.newaxis] + steps
    inside = ((stepped >= 0) & (stepped < grid.dims)).all(axis=2)
    # A step through the hull is wrapped onto the grid to be numbered, and then masked.
    return np.where(inside, coords_to_rank(grid, np.moveaxis(stepped % grid.dims, 2, 0)), -1)


def _splits(grid: ProcessGrid, resolution) -> list[np.ndarray]:
    """Per axis, the ``d + 1`` bounds of its near-even split: part ``k`` spans voxels ``[s[k], s[k + 1])``."""
    res = tuple(int(r) for r in resolution)
    if len(res) != 3 or any(r < 1 for r in res):
        raise ConfigError(f"resolution must be three positive integers, got {resolution}")
    if any(r < d for r, d in zip(res, grid.dims)):
        raise ConfigError(f"resolution {res} smaller than grid {grid.dims} on some axis")
    ks = (np.arange(d + 1) for d in grid.dims)
    return [k * (r // d) + np.minimum(k, r % d) for k, r, d in zip(ks, res, grid.dims)]


def decompose(grid: ProcessGrid, global_resolution) -> tuple[np.ndarray, np.ndarray]:
    """Partition the voxel lattice into per-rank core extents.

    Returns ``(origin, core_dims)``, two ``(ranks, 3)`` int64 arrays whose row
    ``r`` is rank ``r``'s extent. The core extents are pairwise disjoint and
    cover the lattice.
    """
    splits, coords = _splits(grid, global_resolution), rank_to_coords(grid, np.arange(grid.rank_count))
    origin, end = (np.stack([s[c + i] for s, c in zip(splits, coords)], axis=1) for i in (0, 1))
    return origin, end - origin


def node_ranks(grid: ProcessGrid, resolution, axes) -> np.ndarray:
    """The rank whose core holds each node of ``axes``, each axis's node indices (:func:`field.seed_axes`).

    The ranks are the axes' ``(nz, ny, nx)`` broadcast, so raveled they run in lattice order, x fastest.
    """
    parts = [np.searchsorted(s, n, side="right") - 1 for s, n in zip(_splits(grid, resolution), axes)]
    return coords_to_rank(grid, np.ix_(*parts[::-1])[::-1])


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
