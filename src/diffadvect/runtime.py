"""Lockstep multi-rank advection simulator.

Ranks are simulated within one process. Each round runs the paper's stages
in order: lend and borrow (balance distribute), round info, allocate,
integrate, give back and take back loans (balance collect), and hand off
and take over out-of-bounds particles. Every stage but allocate and
integrate is a per-rank function applied to each rank in turn. Those two
run once for the whole world, as the paper's ranks do in lockstep: every
rank's selected range, in rank-index order, is integrated in one call and
split back, and each rank is credited the steps of its own rows. Their
per-rank ``rounds.csv`` times are modelled shares of the one measured world
time (by steps for integrate, by curve slots for allocate).

A stage that moves particles runs twice: a sending pass in which each rank
writes at most one message per neighbor into a dict keyed
``(sender, receiver)``, then a receiving pass in which each rank reads its
messages in its own neighborhood direction order.
Because the receiver's direction order, never the rank execution order,
fixes the processing order, any ``rank_order`` gives identical results.
All balancing decisions come from one :func:`balance.plan_transfers` call.

The lattice is rasterized once; every rank's block is core bounds over
that one shared array. A particle always samples its home rank's block, so
the world's selected particles integrate in one call with per-row bounds,
and a particle is on loan exactly when the rank holding it is not its
home. Only a face neighbor's particles may be on loan to a rank, which
keeps every loan inside the donor's ghost-reachable neighborhood.

Loans are per-round ephemeral: every surviving loaned particle (out of
bounds or not yet integrated) returns to its home rank at collect, before
out-of-bounds routing. Loaned particles that terminate at the borrowing rank
die there and are only reported back for bookkeeping.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import balance
from .advect import (
    STATUS_EXITED,
    STATUS_OOB,
    STATUS_TERMINATED,
    CurveStore,
    compute_round_info,
    concat_round_infos,
    integrate,
    merge_curves,
)
from .errors import ConfigError, InvariantError, RoundLimitError
from .field import AnalyticField, Block, rasterize_global
from .metrics import RoundRecord, lif, lockstep_total
from .particles import ParticleSet, concat_particles
from .topology import (
    Neighborhood,
    ProcessGrid,
    decompose,
    neighborhood_of,
    route_out_of_bounds,
)

ROUND_CAP = 100_000

# Collect-stage particle fates (0 marks a loan that was never integrated).
_COLLECT_ACTIVE = 0


@dataclass
class RankState:
    rank: int
    neighborhood: Neighborhood
    queue: ParticleSet
    store: CurveStore = dc_field(default_factory=CurveStore)
    loaned_out: dict = dc_field(default_factory=dict)
    terminated: int = 0
    exited: int = 0
    _oob: list = dc_field(default_factory=list, init=False)  # (ParticleSet, dirs) awaiting hand-off


def _share(recs, column: str, seconds: float, weights) -> None:
    """Set each rank's ``column`` to its ``weights`` share of one measured time."""
    total = float(np.sum(weights))
    for rec, weight in zip(recs, weights):
        setattr(rec, column, seconds * float(weight) / total if total else 0.0)


def _take_delivery(st: RankState, mail: dict) -> int:
    """Queue the particle sets sent to ``st``, in its neighborhood direction order.

    Returns how many particles arrived.
    """
    arrivals = [mail.pop((j, st.rank)) for j in st.neighborhood.ranks if (j, st.rank) in mail]
    if arrivals:
        st.queue = concat_particles([st.queue] + arrivals)
    return sum(len(p) for p in arrivals)


@dataclass
class RunResult:
    scheduler: str
    grid_dims: tuple
    seed_count: int
    rounds: int
    terminated: int
    exited: int
    records: list
    lif_rows: list          # (round, lif_load, lif_steps)
    round_totals: list      # (round, active, terminated, exited)
    curves: dict | None

    @property
    def node_count(self) -> int:
        d = self.grid_dims
        return d[0] * d[1] * d[2]

    def lockstep_integrate_steps(self) -> int:
        return lockstep_total(self.records, lambda r: r.integrate_steps)

    def total_integrate_steps(self) -> int:
        return sum(r.integrate_steps for r in self.records)


def seed_axes(resolution, aabb_scale: float, stride) -> list[np.ndarray]:
    """Per axis, the indices of the seeding lattice nodes (see :func:`seed_particles`)."""
    lo, hi = 0.5 - aabb_scale / 2.0, 0.5 + aabb_scale / 2.0
    axes = []
    for r, s in zip(resolution, stride):
        idx = np.arange(0, r, s, dtype=np.int64)
        pos = idx * (1.0 / (r - 1.0))
        axes.append(idx[(pos >= lo) & (pos <= hi)])
    return axes


def seed_particles(resolution, aabb_scale: float, stride, extents, grid: ProcessGrid,
                   max_iterations: int) -> tuple[list[ParticleSet], int]:
    """Seed particles on the global voxel lattice inside a centered box.

    Every ``stride``-th lattice node per axis (anchored at node 0) whose
    position falls inside the axis-aligned box of side ``aabb_scale``
    centered at 0.5 becomes a seed. Ids count x-fastest in lattice order;
    each seed starts on the rank whose core extent contains its node.
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
    ids = np.arange(total, dtype=np.int64)
    pos = np.stack([ix * spacing[0], iy * spacing[1], iz * spacing[2]], axis=1)
    # Map lattice node -> owning block per axis via the split starts.
    starts = []
    for a in range(3):
        axis_starts = sorted({e.origin[a] for e in extents})
        starts.append(np.asarray(axis_starts, dtype=np.int64))
    bx = np.searchsorted(starts[0], ix, side="right") - 1
    by = np.searchsorted(starts[1], iy, side="right") - 1
    bz = np.searchsorted(starts[2], iz, side="right") - 1
    dx, dy, _ = grid.dims
    ranks = (bz * dy + by) * dx + bx
    per_rank = []
    for r in range(grid.rank_count):
        sel = np.nonzero(ranks == r)[0]
        per_rank.append(ParticleSet.make(
            ids=ids[sel],
            pos=pos[sel],
            remaining=np.full(sel.shape[0], int(max_iterations), dtype=np.int64),
            home=np.full(sel.shape[0], r, dtype=np.int64),
        ))
    return per_rank, total


def check_completion(states: list[RankState]) -> bool:
    """Global completion: true only when every rank's queue is empty."""
    return all(len(s.queue) == 0 for s in states)


class Simulator:
    """Drives the full advection loop over virtual ranks."""

    def __init__(
        self,
        field: AnalyticField,
        resolution,
        grid_dims,
        scheduler: str,
        *,
        step: float = 0.001,
        max_iterations: int = 1000,
        particles_per_round: int = 50_000,
        aabb_scale: float = 1.0,
        stride=(8, 8, 8),
        alpha: float | None = None,
        collect_curves: bool = True,
        rank_order=None,
        round_cap: int = ROUND_CAP,
    ):
        if scheduler not in balance.SCHEDULERS:
            raise ConfigError(f"unknown scheduler {scheduler!r}; expected one of {balance.SCHEDULERS}")
        if not (math.isfinite(step) and step > 0.0):
            raise ConfigError(f"step size must be positive and finite, got {step}")
        if max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {max_iterations}")
        if particles_per_round < 1:
            raise ConfigError(f"particles_per_round must be >= 1, got {particles_per_round}")
        self.field = field
        self.resolution = tuple(int(r) for r in resolution)
        self.grid = ProcessGrid(tuple(grid_dims))
        self.scheduler = scheduler
        self.h = float(step)
        self.max_iterations = int(max_iterations)
        self.ppr = int(particles_per_round)
        self.alpha = alpha
        self.collect_curves = collect_curves
        self.round_cap = int(round_cap)
        self.rank_order = list(range(self.grid.rank_count)) if rank_order is None else list(rank_order)
        if sorted(self.rank_order) != list(range(self.grid.rank_count)):
            raise ConfigError("rank_order must be a permutation of all ranks")

        lattice = rasterize_global(field, self.resolution, padded=True)
        spacing = 1.0 / (np.asarray(self.resolution, dtype=np.float64) - 1.0)
        # Stage points must stay within one ghost cell of the core region,
        # otherwise a handed-off step may be computable by no rank.
        cmax = max(float(lattice.max()), -float(lattice.min()))  # max|v| without an |lattice| temporary
        if 2.0 * self.h * cmax > float(spacing.min()):
            raise ConfigError(
                f"step {self.h} too large for ghost margin: 2*h*max|v| = {2 * self.h * cmax:.3g} "
                f"exceeds min spacing {spacing.min():.3g}"
            )
        extents = decompose(self.grid, self.resolution)
        # Row r holds rank r's block; ``blocks.select(home)`` gives per-particle bounds.
        self.blocks = Block(lattice, spacing,
                            np.array([e.origin for e in extents], dtype=np.int64),
                            np.array([e.core_dims for e in extents], dtype=np.int64))
        self.states = [
            RankState(rank=rank, neighborhood=neighborhood_of(self.grid, rank), queue=ParticleSet.empty(),
                      store=CurveStore(collect=collect_curves))
            for rank in range(self.grid.rank_count)
        ]
        seeds, self.seed_count = seed_particles(
            self.resolution, aabb_scale, stride, extents, self.grid, self.max_iterations
        )
        for rank, pset in enumerate(seeds):
            self.states[rank].queue = pset
        self.records: list[RoundRecord] = []
        self.lif_rows: list = []
        self.round_totals: list = []

    # -- helpers ---------------------------------------------------------

    def _assert_containable(self) -> None:
        """Every queued particle is this rank's or a face neighbor's, and its home block reaches it."""
        for st in self.states:
            home = st.queue.home
            foreign = ~np.isin(home, (st.rank,) + st.neighborhood.ranks)
            if foreign.any():
                raise InvariantError(f"rank {st.rank} holds a particle of non-neighbor rank {home[foreign][0]}")
            unreachable = ~self.blocks.select(home).samplable_mask(st.queue.pos)
            if unreachable.any():
                kind = "home" if home[unreachable][0] == st.rank else "loaned"
                raise InvariantError(f"rank {st.rank}: {kind} particle outside its block's reach")

    def _conservation_check(self, round_index: int) -> None:
        active = sum(len(s.queue) for s in self.states)
        terminated = sum(s.terminated for s in self.states)
        exited = sum(s.exited for s in self.states)
        if active + terminated + exited != self.seed_count:
            raise InvariantError(
                f"round {round_index}: {active} active + {terminated} terminated + "
                f"{exited} exited != {self.seed_count} seeds"
            )
        self.round_totals.append((round_index, active, terminated, exited))

    # -- the kernel ------------------------------------------------------

    def _each_rank(self, recs, column: str, stage, *args) -> dict:
        """Run ``stage(state, record, *args)`` on every rank in ``rank_order``.

        Each call's wall time is added to that rank's ``column`` in
        ``rounds.csv``. Returns the calls' results keyed by rank.
        """
        results = {}
        for r in self.rank_order:
            t0 = time.perf_counter()
            results[r] = stage(self.states[r], recs[r], *args)
            setattr(recs[r], column, getattr(recs[r], column) + time.perf_counter() - t0)
        return results

    def run_round(self, round_index: int) -> list[RoundRecord]:
        recs = [RoundRecord(round=round_index, rank=s.rank, load_pre=len(s.queue)) for s in self.states]
        self._assert_containable()
        decisions = balance.plan_transfers(
            self.grid, [r.load_pre for r in recs], self.scheduler, self.alpha)
        lent, returned, handed = {}, {}, {}
        self._each_rank(recs, "stage_lb_distribute_s", self._lend, decisions, lent)
        self._each_rank(recs, "stage_lb_distribute_s", self._borrow, lent)
        infos = self._each_rank(recs, "stage_round_info_s",
                                lambda st, rec: compute_round_info(st.queue, self.ppr))
        done = self._integrate_world(recs, round_index, [infos[r] for r in range(len(recs))])
        self._each_rank(recs, "stage_collect_s", self._give_back, done, returned)
        self._each_rank(recs, "stage_collect_s", self._take_back, returned)
        self._each_rank(recs, "stage_oob_s", self._hand_off, handed)
        self._each_rank(recs, "stage_oob_s", self._take_over, handed)

        max_integrate = max(rec.stage_integrate_s for rec in recs)
        for rec in recs:
            rec.idle_s = max_integrate - rec.stage_integrate_s
        self.lif_rows.append((
            round_index,
            lif([rec.load_post for rec in recs]),
            lif([rec.integrate_steps for rec in recs]),
        ))
        self._conservation_check(round_index)
        self.records.extend(recs)
        return recs

    # Stage 1: lend to and borrow from neighbors.

    def _lend(self, st: RankState, rec: RoundRecord, decisions, lent: dict) -> None:
        kept, sends = balance.select_particles(st.queue, decisions[st.rank], st.rank)
        st.queue = kept
        for (d, j), part in zip(st.neighborhood.neighbors, sends):
            st.loaned_out[d] = part.ids.copy()
            if len(part):
                lent[(st.rank, j)] = part
        rec.sent_balanced = sum(len(p) for p in sends)

    def _borrow(self, st: RankState, rec: RoundRecord, lent: dict) -> None:
        rec.recv_balanced = _take_delivery(st, lent)
        rec.load_post = len(st.queue)

    # Stages 3-4 for the whole world: one allocation and one integrate call.
    # Every rank's selected range is gathered in rank-index order, integrated
    # against per-row home bounds and split back; each rank archives its own
    # slice of the round buffer and applies the outcomes it owns. Home
    # particles that left the block wait for hand-off; loans wait for collect.

    def _integrate_world(self, recs, round_index: int, infos: list) -> dict:
        t0 = time.perf_counter()
        world_info = concat_round_infos(infos)
        buf = self.states[0].store.allocate(world_info)  # every store has the same collect flag
        t1 = time.perf_counter()
        sels = []
        for st, info in zip(self.states, infos):
            sels.append(st.queue.select(slice(0, info.count)))
            st.queue = st.queue.select(slice(info.count, None))
        world = concat_particles(sels)
        out, _ = integrate(self.blocks.select(world.home), world, world_info, buf, self.h)
        world.pos, world.remaining = out.pos, out.remaining
        holder = np.repeat(np.arange(len(infos)), [info.count for info in infos])
        steps = np.bincount(holder, weights=out.steps, minlength=len(infos)).astype(np.int64)
        done, row, slot = {}, 0, 0
        for st, rec, info in zip(self.states, recs, infos):
            rows = slice(row, row + info.count)
            sel, status, dirs = world.select(rows), out.status[rows], out.exit_dir[rows]
            st.store.finish_round(round_index, sel.ids, info, buf.part(rows, slice(slot, slot + info.capacity)))
            rec.integrate_steps = int(steps[st.rank])
            st.terminated += int(np.count_nonzero(status == STATUS_TERMINATED))
            st.exited += int(np.count_nonzero(status == STATUS_EXITED))
            oob_home = np.nonzero((sel.home == st.rank) & (status == STATUS_OOB))[0]
            if oob_home.size:
                st._oob.append((sel.select(oob_home), dirs[oob_home]))
            done[st.rank] = (sel, status, dirs)
            row, slot = row + info.count, slot + info.capacity
        _share(recs, "stage_alloc_s", t1 - t0, [info.capacity for info in infos])
        _share(recs, "stage_integrate_s", time.perf_counter() - t1, steps)
        return done

    # Stage 5: give back and take back loans; every surviving loan returns home.

    def _give_back(self, st: RankState, rec: RoundRecord, done, returned: dict) -> None:
        sel, status, exit_dir = done[st.rank]
        loans = sel.home != st.rank
        waiting = st.queue.home != st.rank  # loans this rank had no turn for
        parts = concat_particles([sel.select(np.nonzero(loans)[0]),
                                  st.queue.select(np.nonzero(waiting)[0])])
        statuses = np.concatenate([status[loans],
                                   np.full(np.count_nonzero(waiting), _COLLECT_ACTIVE, dtype=np.int64)])
        dirs = np.concatenate([exit_dir[loans], np.full(np.count_nonzero(waiting), -1, dtype=np.int64)])
        st.queue = st.queue.select(np.nonzero(~waiting)[0])
        for donor in np.unique(parts.home):
            rows = np.nonzero(parts.home == donor)[0]
            returned[(st.rank, int(donor))] = (parts.select(rows), statuses[rows], dirs[rows])

    def _take_back(self, st: RankState, rec: RoundRecord, returned: dict) -> None:
        alive = [st.queue]
        for d, j in st.neighborhood.neighbors:
            msg = returned.pop((j, st.rank), None)
            expected = st.loaned_out.pop(d, None)
            got = msg[0].ids if msg is not None else np.empty(0, dtype=np.int64)
            if expected is not None and not np.array_equal(np.sort(expected), np.sort(got)):
                raise InvariantError(f"rank {st.rank}: loan return mismatch from rank {j}")
            if msg is None:
                continue
            parts, statuses, dirs = msg
            alive.append(parts.select(np.nonzero(statuses == _COLLECT_ACTIVE)[0]))
            oob = np.nonzero(statuses == STATUS_OOB)[0]
            if oob.size:
                st._oob.append((parts.select(oob), dirs[oob].copy()))
        if st.loaned_out:
            raise InvariantError(f"rank {st.rank}: loans not returned: {sorted(st.loaned_out)}")
        if len(alive) > 1:
            st.queue = concat_particles(alive)

    # Stage 6: hand off and take over out-of-bounds particles; home ranks route.

    def _hand_off(self, st: RankState, rec: RoundRecord, handed: dict) -> None:
        sends: dict[int, list] = {}
        for part, dirs in st._oob:
            for d in np.unique(dirs):
                rows = np.nonzero(dirs == d)[0]
                target = route_out_of_bounds(st.neighborhood, int(d))
                if target is None:
                    st.exited += rows.size
                    continue
                sends.setdefault(target, []).append(part.select(rows))
        st._oob = []
        for target in sorted(sends):
            out = concat_particles(sends[target])
            out.home[:] = target
            handed[(st.rank, target)] = out
            rec.sent_oob += len(out)

    def _take_over(self, st: RankState, rec: RoundRecord, handed: dict) -> None:
        rec.recv_oob = _take_delivery(st, handed)

    def run(self) -> RunResult:
        round_index = 0
        while not check_completion(self.states):
            round_index += 1
            if round_index > self.round_cap:
                raise RoundLimitError(f"exceeded {self.round_cap} rounds; configuration diverges")
            self.run_round(round_index)
        curves = merge_curves([s.store for s in self.states]) if self.collect_curves else None
        return RunResult(
            scheduler=self.scheduler,
            grid_dims=self.grid.dims,
            seed_count=self.seed_count,
            rounds=round_index,
            terminated=sum(s.terminated for s in self.states),
            exited=sum(s.exited for s in self.states),
            records=self.records,
            lif_rows=self.lif_rows,
            round_totals=self.round_totals,
            curves=curves,
        )
