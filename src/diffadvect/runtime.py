"""Lockstep multi-rank advection simulator over one world particle table.

Every particle is a row of one :class:`ParticleSet` that carries its
``home`` rank, whose block it samples and whose queue holds it between
rounds. Row order is queue order: the table is sorted by ``home``, so each
rank's queue is one run of rows, head first. Seeding builds it so, each
round keeps it so, and each round checks it before anything moves.

Topology is two tables: ``neighbors``, the ``(ranks, 6)`` face-neighbor table
of :func:`topology.neighbor_table` (-1 at the domain hull), and ``blocks``,
whose rows are the ranks' bounds from :func:`topology.decompose`.

A round runs the paper's stages, each as one synchronous step of the whole
world, as in Cybenko's diffusion model. Distribute: one
:func:`balance.plan_transfers` send matrix over the neighbor table, then one
:func:`balance.select_particles` call; each rank lends the tail of its queue,
a run of rows per direction. A loan lasts one round and never moves its row.
Round info: a holder's queue is seven runs, its unlent head, then for each
direction ``d`` the run its neighbor there lent it in direction ``d ^ 1``; it
runs the first ``particles_per_round`` rows of them. Allocate and integrate:
one kernel call advances the selected rows in place, at their index in queue
order, and copies no row. Out of bounds: each block exit's receiver, its
home's neighbor in its exit direction, becomes its home. Collect: one stable
sort by ``(home, slot)`` drops the finished rows and moves each exit to its
receiver's tail. An exit's slot is 1 plus the direction of its sender in the
receiver's neighbor-table row, so exits queue by that direction, then in their
sender's order; a row that stays has slot 0, so a surviving loan is where it
was in its home's queue. A particle leaves the domain only as the kernel's
``STATUS_EXITED``; a block exit into the hull is an :class:`InvariantError`.

A round's rows of the rounds table hold what each rank counted. Each stage's
world time is measured once, and the run sums it per stage over the rounds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import balance
from .advect import (KERNEL, STATUS_EXITED, STATUS_OOB, STATUS_TERMINATED, CurveStore, RoundInfo, integrate,
                     kernel_bounds, merge_curves)
from .config import RunConfig
from .errors import InvariantError, RoundLimitError
from .field import AnalyticField, Block, lattice_spacing, rasterize_global, seed_axes
from .metrics import ROUNDS_CSV_COLUMNS, STAGE_COLUMNS, round_table
from .particles import ParticleSet, concat_particles  # noqa: F401  (unused; perfbench/spans.py traces it here)
from .topology import ProcessGrid, decompose, neighbor_table

ROUND_CAP = 100_000


@dataclass
class RunResult:
    grid_dims: tuple
    seed_count: int
    rounds: int
    terminated: int
    exited: int
    records: np.recarray    # the rounds table, one row per (round, rank) in that order
    round_totals: list      # (round, active, terminated, exited)
    store: CurveStore       # the archived curve records, one per round, over the read-only round logs
    stage_totals_s: np.ndarray  # each stage's measured world time summed over the rounds, in stage order

    @cached_property
    def curves(self) -> dict | None:
        """Each particle's float32 streamline, as ``curves.bin`` holds it, merged on first use; None with curves off."""
        return merge_curves(self.store) if self.store.collect else None

    @property
    def node_count(self) -> int:
        return math.prod(self.grid_dims)

    @property
    def table(self) -> np.recarray:
        """The rounds table as ``(rounds, ranks)``: one row of ranks per round."""
        return self.records.reshape(self.rounds, self.node_count)

    def lockstep_integrate_steps(self) -> int:
        return int(self.table.integrate_steps.max(axis=1).sum())

    def total_integrate_steps(self) -> int:
        return int(self.records.integrate_steps.sum())


def seed_particles(resolution, aabb_scale: float, stride, origin, grid: ProcessGrid,
                   max_iterations: int) -> ParticleSet:
    """Seed particles on the global voxel lattice inside a centered box.

    Every node of :func:`field.seed_axes` becomes a seed, with the node's
    index in lattice order, x fastest, as its id, at home on the rank whose
    core extent contains the node, given the ranks' block origins from
    :func:`topology.decompose`. Returns the world table in home order and
    within each home in id order: each rank's queue, one run of rows. The
    inputs are a :class:`RunConfig`'s, which :meth:`RunConfig.validate` checks.
    """
    spacing = lattice_spacing(resolution)
    axes = seed_axes(resolution, aabb_scale, stride)
    # Each node's block index per axis, via the split starts; their (nz, ny, nx)
    # broadcast, raveled, is each seed's home in lattice order.
    bx, by, bz = (np.searchsorted(sorted(set(origin[:, a].tolist())), axes[a], side="right") - 1 for a in range(3))
    dx, dy, _ = grid.dims
    home = (bz[:, None, None] * dy + by[:, None]) * dx + bx
    # Each position column is filled in home order from its axis, with no lattice-order copy of the
    # positions alive beside it: lattice index i is node i // span % len(axes[a]) of axis a.
    order = np.argsort(home, axis=None, kind="stable")
    pos = np.empty((home.size, 3))
    span = 1
    for a in range(3):
        pos[:, a] = (axes[a] * spacing[a])[order // span % len(axes[a])]
        span *= len(axes[a])
    return ParticleSet.make(order, pos, np.full(home.size, int(max_iterations)), home.ravel()[order])


class Simulator:
    """Drives the full advection loop over virtual ranks for one run configuration.

    :meth:`RunConfig.require_valid` checks the config first, so a bad one raises one :class:`ConfigError` listing
    every problem before anything is allocated. Every setting is read from the config, which is never changed.
    ``field``, by default the config's :class:`AnalyticField`, is for a field that no config can name.
    """

    def __init__(self, config: RunConfig, field=None):
        self.config = config.require_valid()
        self.grid = ProcessGrid(config.grid_dims())
        field = AnalyticField(config.field, config.field_params) if field is None else field

        # The step's ghost-margin check is made slab by slab as the lattice is rasterized.
        lattice = rasterize_global(field, config.resolution, padded=True, step=config.step)
        # Row r holds rank r's block; a particle reads its bounds at row ``home``.
        self.blocks = Block(lattice, lattice_spacing(config.resolution), *decompose(self.grid, config.resolution))
        # neighbors[r, d]: rank r's face neighbor in direction d, -1 at the domain hull.
        self.neighbors = neighbor_table(self.grid)
        self.particles = seed_particles(config.resolution, config.aabb_scale, config.stride, self.blocks.origin,
                                        self.grid, config.max_iterations)
        self.seed_count = len(self.particles)
        self.terminated = self.exited = 0
        self.store = CurveStore(collect=config.export_curves)
        self.records, self.round_totals = [], []
        self.stage_totals_s = np.zeros(len(STAGE_COLUMNS))

    def _assert_containable(self) -> None:
        """Every row is in ``home`` order and in its home block's reach, by the kernel's own test, ``rk4_reach``."""
        p = self.particles
        if np.any(p.home[1:] < p.home[:-1]):
            raise InvariantError("particle table out of home order: a rank's queue is not one run of rows")
        points = np.ascontiguousarray(p.pos, np.float64)
        i = KERNEL.rk4_reach(len(p), *kernel_bounds(self.blocks, p.home), points.ctypes)
        if i >= 0:
            raise InvariantError(f"rank {p.home[i]}: particle outside its block's reach")

    def run_round(self, round_index: int) -> np.recarray:
        """Run one round; returns a copy of its block of the rounds table, one row per rank.

        The copy's cells are Python ints, so a sum over its rows is a plain
        number that ``json`` can write; the run keeps the int64 block.
        """
        ranks = self.grid.rank_count
        stamps = [time.perf_counter()]  # distribute's clock covers the round's check
        self._assert_containable()

        # Stage 1, distribute: each rank lends the tail of its queue, a run of rows per direction.
        p = self.particles
        load_pre = np.bincount(p.home, minlength=ranks)
        sends = balance.plan_transfers(self.neighbors, load_pre, self.config.scheduler)
        first, _ = balance.select_particles(load_pre, sends)
        stamps.append(time.perf_counter())

        # Stage 2, round info: a holder's queue is seven runs, its unlent head, then for each direction d
        # the run its neighbor there lent in direction d ^ 1; it runs the first particles_per_round rows.
        hull, back = self.neighbors < 0, np.arange(6) ^ 1
        lengths = np.column_stack([load_pre - sends.sum(axis=1), np.where(hull, 0, sends[self.neighbors, back])])
        starts = np.column_stack([np.cumsum(load_pre) - load_pre, first[self.neighbors, back]])
        ahead = np.cumsum(lengths, axis=1) - lengths  # the rows queued before each run
        take = np.minimum(lengths, np.maximum(self.config.particles_per_round - ahead, 0))
        sel = balance.run_rows(starts.ravel(), take.ravel())
        stamps.append(time.perf_counter())

        # Stages 3-4, allocate and integrate, once for the whole world, the selected rows in place.
        log = self.store.allocate(RoundInfo(capacity=int(p.remaining[sel].sum())))
        stamps.append(time.perf_counter())
        out, _ = integrate(self.blocks, p, sel, log, self.config.step)
        self.store.finish_round(p.ids, sel, out, log)
        steps = np.bincount(np.repeat(np.arange(ranks), take.sum(axis=1)), out.steps, ranks)  # by holder
        self.terminated += int(np.count_nonzero(out.status == STATUS_TERMINATED))
        self.exited += int(np.count_nonzero(out.status == STATUS_EXITED))
        stamps.append(time.perf_counter())

        # Stage 6, out of bounds, ahead of collect: each block exit's receiver, its home's neighbor in
        # its exit direction, becomes its home, and its sort key queues it behind the receiver's own
        # rows, by the direction of its sender in the receiver's neighbor-table row.
        oob = out.status == STATUS_OOB
        exits, exit_dir = sel[oob], out.exit_dir[oob]
        senders = p.home[exits]
        receivers = self.neighbors[senders, exit_dir]
        if np.any(receivers < 0):
            raise InvariantError(f"round {round_index}: a block exit points at the domain hull")
        finished = sel[~oob]
        del out, sel  # freed before the compaction
        key = p.home * 7  # a row that stays keeps its place in its home's queue
        key[finished] = 7 * ranks  # past every queue, so the compaction drops it
        key[exits] = receivers * 7 + 1 + (exit_dir ^ 1)
        p.home[exits] = receivers
        stamps.append(time.perf_counter())

        # Stage 5, collect: a loan never left its row, so the one compaction, a stable sort of the keys,
        # drops the finished rows (a loan that terminated at the borrower with them) and moves the exits.
        order = np.argsort(key, kind="stable")[:len(p) - len(finished)]
        del key  # freed before the compaction, which sets the run's peak
        p.compact(order)

        counts = dict(round=round_index, rank=np.arange(ranks), integrate_steps=steps, load_pre=load_pre,
                      load_post=lengths.sum(axis=1), sent_balanced=sends.sum(axis=1),
                      recv_balanced=lengths[:, 1:].sum(axis=1), sent_oob=np.bincount(senders, minlength=ranks),
                      recv_oob=np.bincount(receivers, minlength=ranks))
        block = round_table(ranks)
        for column, values in counts.items():
            block[column] = values
        active = len(self.particles)
        if active + self.terminated + self.exited != self.seed_count:
            raise InvariantError(f"round {round_index}: {active} active + {self.terminated} terminated + "
                                 f"{self.exited} exited != {self.seed_count} seeds")
        self.round_totals.append((round_index, active, self.terminated, self.exited))
        self.records.append(block)
        result = block.astype([(column, object) for column in ROUNDS_CSV_COLUMNS]).view(np.recarray)
        stamps.append(time.perf_counter())  # collect's clock covers the bookkeeping and the copy
        self.stage_totals_s += np.diff(stamps)[[0, 1, 2, 3, 5, 4]]  # out of bounds ran ahead of collect
        return result

    def run(self) -> RunResult:
        round_index = 0
        while len(self.particles):
            round_index += 1
            if round_index > ROUND_CAP:
                raise RoundLimitError(f"exceeded {ROUND_CAP} rounds; configuration diverges")
            self.run_round(round_index)
        return RunResult(self.grid.dims, self.seed_count, round_index, self.terminated, self.exited,
                         np.concatenate([round_table(0), *self.records]).view(np.recarray), self.round_totals,
                         self.store, self.stage_totals_s)
