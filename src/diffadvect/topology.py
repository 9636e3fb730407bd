"""Cartesian process-grid bookkeeping.

Ranks live on a 3D grid with x varying fastest. Neighborhoods are the
face-adjacent ranks only (no diagonals) in the fixed direction order
``(-x, +x, -y, +y, -z, +z)``; every transfer in the runtime is expressed in
terms of these six directions.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Neighborhood:
    """The face neighbors of one rank, in fixed direction order.

    ``neighbors`` maps direction index -> rank for the in-bounds faces only.
    """

    rank: int
    neighbors: tuple[tuple[int, int], ...]

    def rank_in_direction(self, direction: int) -> int | None:
        for d, r in self.neighbors:
            if d == direction:
                return r
        return None

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(r for _, r in self.neighbors)

    def __len__(self) -> int:
        return len(self.neighbors)


def neighborhood_of(grid: ProcessGrid, rank: int) -> Neighborhood:
    coords = rank_to_coords(grid, rank)
    entries = []
    for d in range(6):
        axis, sign = DIR_AXIS[d], DIR_SIGN[d]
        nc = list(coords)
        nc[axis] += sign
        if 0 <= nc[axis] < grid.dims[axis]:
            entries.append((d, coords_to_rank(grid, nc)))
    return Neighborhood(rank=rank, neighbors=tuple(entries))


def route_out_of_bounds(neigh: Neighborhood, exit_direction: int) -> int | None:
    """Rank owning the face in ``exit_direction``, or None at the domain hull.

    A None return means the particle left the global domain and terminates.
    """
    if not (0 <= int(exit_direction) < 6):
        raise ConfigError(f"exit_direction must be in [0, 6), got {exit_direction}")
    return neigh.rank_in_direction(int(exit_direction))


def split_axis(extent: int, parts: int) -> list[tuple[int, int]]:
    """Near-even 1D split; the remainder goes to the lowest-coordinate parts."""
    base, rem = divmod(extent, parts)
    out, start = [], 0
    for i in range(parts):
        size = base + (1 if i < rem else 0)
        out.append((start, size))
        start += size
    return out


@dataclass(frozen=True)
class BlockExtent:
    origin: tuple[int, int, int]
    core_dims: tuple[int, int, int]


def decompose(grid: ProcessGrid, global_resolution) -> list[BlockExtent]:
    """Partition the voxel lattice into per-rank core extents.

    Returns one :class:`BlockExtent` per rank (indexed by rank). The core
    extents are pairwise disjoint and cover the lattice.
    """
    res = tuple(int(r) for r in global_resolution)
    if len(res) != 3 or any(r < 1 for r in res):
        raise ConfigError(f"resolution must be three positive integers, got {global_resolution}")
    if any(r < d for r, d in zip(res, grid.dims)):
        raise ConfigError(f"resolution {res} smaller than grid {grid.dims} on some axis")
    splits = [split_axis(res[a], grid.dims[a]) for a in range(3)]
    extents = []
    for rank in range(grid.rank_count):
        cx, cy, cz = rank_to_coords(grid, rank)
        (ox, nx), (oy, ny), (oz, nz) = splits[0][cx], splits[1][cy], splits[2][cz]
        extents.append(BlockExtent(origin=(ox, oy, oz), core_dims=(nx, ny, nz)))
    return extents


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
