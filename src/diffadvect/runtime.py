"""Lockstep multi-rank advection simulator over one world particle table.

Every particle is a row of one :class:`ParticleSet`, seeded once in id order
by :func:`seed_particles`, that carries its ``home`` rank, whose block it
samples and whose queue holds it between rounds, and its FIFO key ``seq``.
A rank's queue is its rows in ``seq`` order; rows stay where they are
stored, and a stage that needs queue order computes it as one lexsort.
A loan lasts one round: the round copies ``home`` into its own ``holder``
column, whose entry differs from ``home`` only on the rows lent to a face
neighbor, and drops that column once the round's rows are selected.

Topology is two tables: ``neighbors``, the ``(ranks, 6)`` face-neighbor table
of :func:`topology.neighbor_table` (-1 at the domain hull), and ``blocks``,
whose rows are the ranks' bounds from :func:`topology.decompose`.

A round runs the paper's stages, each as one synchronous step of the whole
world, as in Cybenko's diffusion model: distribute (one
:func:`balance.plan_transfers` send matrix over the neighbor table, then one
:func:`balance.select_particles` call: each rank lends the tail of its queue,
a direction at a time, and the lent rows' ``seq`` are saved), round info
(each holder's first ``particles_per_round`` queued rows, by one lexsort of
``(holder, seq)``), allocate and integrate (one call over the selected rows
in queue order, after which each block exit's receiver is its home's
neighbor in its exit direction), collect (every loan gets its saved ``seq``
back, so a surviving loan is again where it was in its home's queue, and one
compaction drops the finished rows; a loan that terminates at the borrower
dies there) and hand-off (each block exit's receiver becomes its home). A
particle leaves the domain only as the kernel's ``STATUS_EXITED``; a block
exit into the hull is an :class:`InvariantError`.
Every move goes through :meth:`Simulator._move`, which queues the moved rows
behind the receiver's own, by the sender's direction in the receiver's
neighbor-table row, then in the sender's order. A round moves twice: the
loans, on the round's ``holder``, and the hand-offs, on ``home``.
No result depends on the order the table's rows are stored in.

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
from .errors import ConfigError, InvariantError, RoundLimitError
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
        """Each particle's merged streamline, merged on first use; None with curves off."""
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

    Every node of :func:`field.seed_axes` becomes a seed. Returns the world
    table in lattice order, x fastest: row ``i`` has id ``i`` and starts at
    home on the rank whose core extent contains its node, given the ranks'
    block origins from :func:`topology.decompose`.
    """
    if not (0.0 < aabb_scale <= 1.0):
        raise ConfigError(f"aabb scale must be in (0, 1], got {aabb_scale}")
    stride = tuple(int(s) for s in stride)
    if len(stride) != 3 or any(s < 1 for s in stride):
        raise ConfigError(f"stride must be three integers >= 1, got {stride}")
    res = tuple(int(r) for r in resolution)
    spacing = lattice_spacing(res)
    axes = seed_axes(res, aabb_scale, stride)
    # Each node's block index per axis, via the split starts; the (nz, ny, nx)
    # broadcasts of the axis vectors, raveled, are the table's columns.
    bx, by, bz = (np.searchsorted(sorted(set(origin[:, a].tolist())), axes[a], side="right") - 1 for a in range(3))
    dx, dy, _ = grid.dims
    home = (bz[:, None, None] * dy + by[:, None]) * dx + bx
    pos = np.empty(home.shape + (3,))
    pos[..., 0] = axes[0] * spacing[0]
    pos[..., 1] = (axes[1] * spacing[1])[:, None]
    pos[..., 2] = (axes[2] * spacing[2])[:, None, None]
    return ParticleSet.make(np.arange(home.size), pos, np.full(home.size, int(max_iterations)), home.ravel())


class Simulator:
    """Drives the full advection loop over virtual ranks."""

    def __init__(self, field: AnalyticField, resolution, grid_dims, scheduler: str, *,
                 step: float = 0.001, max_iterations: int = 1000, particles_per_round: int = 50_000,
                 aabb_scale: float = 1.0, stride=(8, 8, 8), alpha: float | None = None,
                 collect_curves: bool = True):
        if scheduler not in balance.SCHEDULERS:
            raise ConfigError(f"unknown scheduler {scheduler!r}; expected one of {balance.SCHEDULERS}")
        if not (math.isfinite(step) and step > 0.0):
            raise ConfigError(f"step size must be positive and finite, got {step}")
        if alpha is not None and not (0.0 < alpha <= 1.0):
            raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
        if max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {max_iterations}")
        if particles_per_round < 1:
            raise ConfigError(f"particles_per_round must be >= 1, got {particles_per_round}")
        self.resolution = tuple(int(r) for r in resolution)
        self.grid = ProcessGrid(tuple(grid_dims))
        self.scheduler = scheduler
        self.h = float(step)
        self.ppr = int(particles_per_round)
        self.alpha = alpha

        # The step's ghost-margin check is made slab by slab as the lattice is rasterized.
        lattice = rasterize_global(field, self.resolution, padded=True, step=self.h)
        # Row r holds rank r's block; a particle reads its bounds at row ``home``.
        self.blocks = Block(lattice, lattice_spacing(self.resolution), *decompose(self.grid, self.resolution))
        # neighbors[r, d]: rank r's face neighbor in direction d, -1 at the domain hull.
        self.neighbors = neighbor_table(self.grid)
        self.particles = seed_particles(self.resolution, aabb_scale, stride, self.blocks.origin, self.grid,
                                        max_iterations)
        self.seed_count = len(self.particles)
        self.terminated = self.exited = 0
        self.store = CurveStore(collect=collect_curves)
        self.records, self.round_totals = [], []
        self.stage_totals_s = np.zeros(len(STAGE_COLUMNS))

    def _move(self, holder: np.ndarray, seq: np.ndarray, rows: np.ndarray, to: np.ndarray) -> None:
        """Hand table ``rows`` to ranks ``to``, queued behind what each receiver holds.

        ``holder`` and ``seq`` are the holder and FIFO-key columns the move
        rewrites. Arrivals queue by receiver, then by the direction of their
        current holder in the receiver's neighbor-table row, then in that
        holder's order. Only the moved rows' entries change; no row moves.
        """
        direction = np.argmax(self.neighbors[to] == holder[rows, np.newaxis], axis=1)
        arrivals = rows[np.lexsort((seq[rows], direction, to))]
        seq[arrivals] = seq.max(initial=-1) + 1 + np.arange(rows.size)
        holder[rows] = to

    def _assert_containable(self) -> None:
        """Every particle's home block reaches it, by the kernel's own test, ``rk4_reach``, made on every row."""
        p = self.particles
        i = KERNEL.rk4_reach(*kernel_bounds(self.blocks, p.home), np.ascontiguousarray(p.pos, np.float64).ctypes)
        if i >= 0:
            raise InvariantError(f"rank {p.home[i]}: particle outside its block's reach")

    def run_round(self, round_index: int) -> np.recarray:
        """Run one round; returns a copy of its block of the rounds table, one row per rank.

        The copy's cells are Python ints, so a sum over its rows is a plain
        number that ``json`` can write; the run keeps the int64 block.
        """
        ranks = self.grid.rank_count
        self._assert_containable()
        stamps = [time.perf_counter()]

        # Stage 1, distribute: each rank lends the tail of its queue to its neighbors. Every row is at
        # home; the round's own holder column records the loans, and lent_seq their queue places.
        p = self.particles
        load_pre = np.bincount(p.home, minlength=ranks)
        sends = balance.plan_transfers(self.neighbors, load_pre, self.scheduler, self.alpha)
        _, per_direction = balance.select_particles(load_pre, sends)
        lent = np.lexsort((p.seq, p.home))[np.concatenate(per_direction)]
        lent_to = np.repeat(self.neighbors.T.ravel(), sends.T.ravel())
        lent_seq, holder = p.seq[lent], p.home.copy()
        self._move(holder, p.seq, lent, lent_to)
        load_post = np.bincount(holder, minlength=ranks)
        stamps.append(time.perf_counter())

        # Stage 2, round info: each holder's first particles_per_round queued rows run.
        queue = np.lexsort((p.seq, holder))
        holder = holder[queue]  # in queue order; the row-order copy is freed here, before the temporaries below
        run = np.arange(len(p)) - (np.cumsum(load_post) - load_post)[holder] < self.ppr
        sel, sel_holder = queue[run], holder[run]
        del queue, holder, run  # nothing reads them after sel; freed before the gather and the kernel call
        world = p.select(sel)
        stamps.append(time.perf_counter())

        # Stages 3-4, allocate and integrate, once for the whole world.
        log = self.store.allocate(RoundInfo(capacity=int(world.remaining.sum())))
        stamps.append(time.perf_counter())
        out, _ = integrate(self.blocks, world, log, self.h)
        self.store.finish_round(world.ids, out, log)
        steps = np.bincount(sel_holder, out.steps, ranks)
        self.terminated += int(np.count_nonzero(out.status == STATUS_TERMINATED))
        self.exited += int(np.count_nonzero(out.status == STATUS_EXITED))
        oob = out.status == STATUS_OOB
        receivers = self.neighbors[world.home[oob], out.exit_dir[oob]]
        if np.any(receivers < 0):
            raise InvariantError(f"round {round_index}: a block exit points at the domain hull")
        p.pos[sel], p.remaining[sel] = out.pos, out.remaining
        del world, out  # freed before the compaction
        stamps.append(time.perf_counter())

        # Stage 5, collect: every loan returns to its place in its home's queue; a loan that
        # terminates at the borrower dies there, with the finished rows the compaction drops.
        p.seq[lent] = lent_seq
        alive = np.delete(np.arange(len(p)), sel[~oob])  # rows still active
        p.compact(alive)
        handed = np.searchsorted(alive, sel[oob])  # the block exits' rows in the compacted table
        stamps.append(time.perf_counter())

        # Stage 6, out of bounds: each block exit moves home to its receiver.
        sent_oob = np.bincount(p.home[handed], minlength=ranks)
        self._move(p.home, p.seq, handed, receivers)
        stamps.append(time.perf_counter())

        counts = dict(round=round_index, rank=np.arange(ranks), integrate_steps=steps, load_pre=load_pre,
                      load_post=load_post, sent_balanced=sends.sum(axis=1),
                      recv_balanced=np.bincount(lent_to, minlength=ranks),
                      sent_oob=sent_oob, recv_oob=np.bincount(receivers, minlength=ranks))
        block = round_table(ranks)
        for column, values in counts.items():
            block[column] = values
        self.stage_totals_s += np.diff(stamps)
        active = len(self.particles)
        if active + self.terminated + self.exited != self.seed_count:
            raise InvariantError(f"round {round_index}: {active} active + {self.terminated} terminated + "
                                 f"{self.exited} exited != {self.seed_count} seeds")
        self.round_totals.append((round_index, active, self.terminated, self.exited))
        self.records.append(block)
        return block.astype([(column, object) for column in ROUNDS_CSV_COLUMNS]).view(np.recarray)

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
