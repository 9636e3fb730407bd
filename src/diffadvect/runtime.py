"""Lockstep multi-rank advection simulator over one world particle table.

Every particle is a row of one :class:`ParticleSet` that carries its ``home``
rank, whose block it samples, its ``holder``, the rank that queues it, and
its FIFO key ``seq``. The table is kept sorted by ``(holder, seq)``, so each
rank's queue is one slice. A particle is on loan when its holder is not its
home; only a face neighbor of its home may hold it.

Topology is two tables: ``neighbors``, the ``(ranks, 6)`` face-neighbor table
of :func:`topology.neighbor_table` (-1 at the domain hull), and ``blocks``,
whose rows are the ranks' bounds from :func:`topology.decompose`.

A round runs the paper's stages, each as one synchronous step of the whole
world, as in Cybenko's diffusion model: distribute (one
:func:`balance.plan_transfers` send matrix over the neighbor table, then one
:func:`balance.select_particles` call: each rank lends the tail of its slice of
the table, a direction at a time, and every row is at home then, since the
previous round's collect returned every loan),
round info (each holder's first ``particles_per_round`` rows), allocate and
integrate (one call over the selected rows in table order), collect (every
surviving loan returns home; a loan that terminates at the borrower dies
there) and hand-off (the neighbor in a particle's exit direction becomes its
holder and home; the hull means exit).
Every move goes through :meth:`Simulator._move`, which queues the moved rows
behind the receiver's own, by the sender's direction in the receiver's
neighbor-table row, then in the sender's order. Collect runs before
hand-off, so a home rank's own out-of-bounds rows precede the returned ones.
No result depends on the order the table's rows are stored in.

Every ``_s`` column of ``rounds.csv`` is a modelled share of one measured
world time per stage: integrate by steps, allocate by the step budgets
selected, every other stage by the rows each rank holds as the stage starts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import balance
from .advect import STATUS_EXITED, STATUS_OOB, STATUS_TERMINATED, CurveStore, RoundInfo, integrate, merge_curves
from .errors import ConfigError, InvariantError, RoundLimitError
from .field import AnalyticField, Block, rasterize_global
from .metrics import ROUNDS_CSV_COLUMNS, STAGE_COLUMNS, round_table
from .particles import ParticleSet, concat_particles
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
    curves: dict | None

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


def seed_axes(resolution, aabb_scale: float, stride) -> list[np.ndarray]:
    """Per axis, the indices of the seeding lattice nodes (see :func:`seed_particles`)."""
    lo, hi = 0.5 - aabb_scale / 2.0, 0.5 + aabb_scale / 2.0
    axes = []
    for r, s in zip(resolution, stride):
        idx = np.arange(0, r, s, dtype=np.int64)
        pos = idx * (1.0 / (r - 1.0))
        axes.append(idx[(pos >= lo) & (pos <= hi)])
    return axes


def seed_particles(resolution, aabb_scale: float, stride, origin, grid: ProcessGrid,
                   max_iterations: int) -> tuple[list[ParticleSet], int]:
    """Seed particles on the global voxel lattice inside a centered box.

    Every ``stride``-th lattice node per axis (anchored at node 0) whose
    position falls inside the axis-aligned box of side ``aabb_scale``
    centered at 0.5 becomes a seed. Ids count x-fastest in lattice order;
    each seed starts on the rank whose core extent contains its node, given
    the ranks' block origins from :func:`topology.decompose`. Returns each
    rank's seeds in id order, and their total.
    """
    if not (0.0 < aabb_scale <= 1.0):
        raise ConfigError(f"aabb scale must be in (0, 1], got {aabb_scale}")
    stride = tuple(int(s) for s in stride)
    if len(stride) != 3 or any(s < 1 for s in stride):
        raise ConfigError(f"stride must be three integers >= 1, got {stride}")
    res = tuple(int(r) for r in resolution)
    spacing = 1.0 / (np.asarray(res, dtype=np.float64) - 1.0)
    axes = seed_axes(res, aabb_scale, stride)
    iz, iy, ix = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
    ix, iy, iz = ix.ravel(), iy.ravel(), iz.ravel()
    total = ix.shape[0]
    pos = np.stack([ix * spacing[0], iy * spacing[1], iz * spacing[2]], axis=1)
    # Map lattice node -> owning block per axis via the split starts.
    bx, by, bz = (np.searchsorted(sorted(set(origin[:, a].tolist())), i, side="right") - 1
                  for a, i in enumerate((ix, iy, iz)))
    dx, dy, _ = grid.dims
    home = (bz * dy + by) * dx + bx
    seeds = ParticleSet.make(np.arange(total), pos, np.full(total, int(max_iterations)), home)
    # One stable sort splits the seeds by rank and keeps id order within each.
    ends = np.cumsum(np.bincount(home, minlength=grid.rank_count))
    return [seeds.select(rows) for rows in np.split(np.argsort(home, kind="stable"), ends[:-1])], total


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

        lattice = rasterize_global(field, self.resolution, padded=True)
        spacing = 1.0 / (np.asarray(self.resolution, dtype=np.float64) - 1.0)
        # Stage points must stay within one ghost cell of the core region,
        # otherwise a handed-off step may be computable by no rank.
        cmax = max(float(lattice.max()), -float(lattice.min()))  # max|v| without an |lattice| temporary
        if 2.0 * self.h * cmax > float(spacing.min()):
            raise ConfigError(f"step {self.h} too large for ghost margin: 2*h*max|v| = "
                              f"{2 * self.h * cmax:.3g} exceeds min spacing {spacing.min():.3g}")
        # Row r holds rank r's block; ``blocks.select(home)`` gives per-particle bounds.
        self.blocks = Block(lattice, spacing, *decompose(self.grid, self.resolution))
        # neighbors[r, d]: rank r's face neighbor in direction d, -1 at the domain hull.
        self.neighbors = neighbor_table(self.grid)
        seeds, self.seed_count = seed_particles(self.resolution, aabb_scale, stride, self.blocks.origin,
                                                self.grid, max_iterations)
        self.particles = concat_particles(seeds)
        self.terminated = self.exited = 0
        self.store = CurveStore(collect=collect_curves)
        self.records, self.round_totals = [], []

    def _loads(self) -> np.ndarray:
        return np.bincount(self.particles.holder, minlength=self.grid.rank_count)

    def _sort(self) -> np.ndarray:
        """Sort the table by ``(holder, seq)``; returns the permutation applied."""
        order = np.lexsort((self.particles.seq, self.particles.holder))
        self.particles = self.particles.select(order)
        return order

    def _move(self, rows: np.ndarray, to: np.ndarray) -> np.ndarray:
        """Hand table ``rows`` to ranks ``to``, queued behind what each receiver holds.

        Arrivals queue by receiver, then by the direction of their current
        holder in the receiver's neighbor-table row, then in that holder's
        order. Returns the permutation that re-sorted the table.
        """
        p = self.particles
        direction = np.argmax(self.neighbors[to] == p.holder[rows, np.newaxis], axis=1)
        arrivals = rows[np.lexsort((p.seq[rows], direction, to))]
        p.seq[arrivals] = p.seq.max(initial=-1) + 1 + np.arange(rows.size)
        p.holder[rows] = to
        return self._sort()

    def _assert_containable(self) -> None:
        """Every particle is held by its home or a face neighbor of it, and its home block reaches it."""
        p = self.particles
        foreign = (p.holder != p.home) & ~np.any(self.neighbors[p.holder] == p.home[:, np.newaxis], axis=1)
        if foreign.any():
            i = np.argmax(foreign)
            raise InvariantError(f"rank {p.holder[i]} holds a particle of non-neighbor rank {p.home[i]}")
        unreachable = ~self.blocks.select(p.home).samplable_mask(p.pos)
        if unreachable.any():
            i = np.argmax(unreachable)
            raise InvariantError(f"rank {p.holder[i]}: {'home' if p.home[i] == p.holder[i] else 'loaned'} "
                                 "particle outside its block's reach")

    def run_round(self, round_index: int) -> np.recarray:
        """Run one round; returns a copy of its block of the rounds table, one row per rank.

        The copy's cells are Python ints and floats, so a sum over its rows is
        a plain number that ``json`` can write; the run keeps the int64 block.
        """
        ranks = self.grid.rank_count
        self._sort()
        self._assert_containable()
        stamps = [time.perf_counter()]

        # Stage 1, distribute: each rank lends the tail of its home rows to its neighbors.
        load_pre = self._loads()
        lent, lent_to = self._lend(load_pre)
        sent_balanced = np.bincount(self.particles.holder[lent], minlength=ranks)
        self._move(lent, lent_to)
        load_post = self._loads()
        stamps.append(time.perf_counter())

        # Stage 2, round info: each holder's first particles_per_round rows run.
        p = self.particles
        sel = np.flatnonzero(np.arange(len(p)) - (np.cumsum(load_post) - load_post)[p.holder] < self.ppr)
        world = p.select(sel)
        budgets = np.bincount(world.holder, world.remaining, ranks)
        stamps.append(time.perf_counter())

        # Stages 3-4, allocate and integrate, once for the whole world.
        buf = self.store.allocate(RoundInfo(capacity=int(world.remaining.sum())))
        stamps.append(time.perf_counter())
        out, _ = integrate(self.blocks.select(world.home), world, buf, self.h)
        self.store.finish_round(world.ids, buf)
        steps = np.bincount(world.holder, out.steps, ranks).astype(np.int64)
        self.terminated += int(np.count_nonzero(out.status == STATUS_TERMINATED))
        self.exited += int(np.count_nonzero(out.status == STATUS_EXITED))
        p.pos[sel], p.remaining[sel] = out.pos, out.remaining
        exit_dir = np.full(len(p), -1, dtype=np.int64)  # set on rows that left their home block
        exit_dir[sel] = out.exit_dir
        alive = np.delete(np.arange(len(p)), sel[out.status != STATUS_OOB])  # rows still active
        self.particles, exit_dir = p.select(alive), exit_dir[alive]
        stamps.append(time.perf_counter())

        # Stage 5, collect: every surviving loan returns home.
        held_at_collect = self._loads()
        p = self.particles
        loans = np.flatnonzero(p.holder != p.home)
        exit_dir = exit_dir[self._move(loans, p.home[loans])]
        if np.any(self.particles.holder != self.particles.home):
            raise InvariantError(f"round {round_index}: a loan did not return home")
        stamps.append(time.perf_counter())

        # Stage 6, out of bounds: each home rank routes to a neighbor; the hull means exit.
        held_at_oob = self._loads()
        p = self.particles
        target = np.where(exit_dir >= 0, self.neighbors[p.holder, exit_dir], -1)
        hull = (exit_dir >= 0) & (target < 0)
        self.exited += int(np.count_nonzero(hull))
        self.particles, target = p.select(~hull), target[~hull]
        handed = np.flatnonzero(target >= 0)
        sent_oob = np.bincount(self.particles.holder[handed], minlength=ranks)
        self.particles.home[handed] = target[handed]
        self._move(handed, target[handed])
        stamps.append(time.perf_counter())

        counts = dict(round=round_index, rank=np.arange(ranks), integrate_steps=steps, load_pre=load_pre,
                      load_post=load_post, sent_balanced=sent_balanced,
                      recv_balanced=np.bincount(lent_to, minlength=ranks),
                      sent_oob=sent_oob, recv_oob=np.bincount(target[handed], minlength=ranks))
        block = round_table(ranks)
        for column, values in counts.items():
            block[column] = values
        weights = (load_pre, load_post, budgets, steps, held_at_collect, held_at_oob)
        for column, w, start, end in zip(STAGE_COLUMNS, weights, stamps, stamps[1:]):
            # each rank's share of the stage's measured time; weights are counts, a zero sum means all 0
            block[column] = (end - start) * (w / max(w.sum(), 1))
        block.idle_s = block.stage_integrate_s.max() - block.stage_integrate_s
        active = len(self.particles)
        if active + self.terminated + self.exited != self.seed_count:
            raise InvariantError(f"round {round_index}: {active} active + {self.terminated} terminated + "
                                 f"{self.exited} exited != {self.seed_count} seeds")
        self.round_totals.append((round_index, active, self.terminated, self.exited))
        self.records.append(block)
        return block.astype([(column, object) for column in ROUNDS_CSV_COLUMNS]).view(np.recarray)

    def _lend(self, loads) -> tuple[np.ndarray, np.ndarray]:
        """The rows every rank lends, by :func:`balance.select_particles`, and their receivers."""
        sends = balance.plan_transfers(self.neighbors, loads, self.scheduler, self.alpha)
        _, per_direction = balance.select_particles(loads, sends)
        return np.concatenate(per_direction), np.repeat(self.neighbors.T.ravel(), sends.T.ravel())

    def run(self) -> RunResult:
        round_index = 0
        while len(self.particles):
            round_index += 1
            if round_index > ROUND_CAP:
                raise RoundLimitError(f"exceeded {ROUND_CAP} rounds; configuration diverges")
            self.run_round(round_index)
        return RunResult(self.grid.dims, self.seed_count, round_index, self.terminated, self.exited,
                         np.concatenate([round_table(0), *self.records]).view(np.recarray), self.round_totals,
                         merge_curves(self.store) if self.store.collect else None)
