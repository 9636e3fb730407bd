import copy
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import reference_balance as ref
from particle_rows import subset
from diffadvect import advect, balance, runtime
from diffadvect.advect import KERNEL, STATUS_EXITED, STATUS_TERMINATED, CurveStore, integrate_group, kernel_bounds
from diffadvect.balance import SCHEDULERS, synchronous_step
from diffadvect.config import RunConfig
from diffadvect.errors import ConfigError, InvariantError, RoundLimitError
from diffadvect.field import FIELD_KINDS, lattice_spacing, seed_axes
from diffadvect.metrics import STAGE_COLUMNS, round_lifs, rounds_csv_lines
from diffadvect.particles import ParticleSet, concat_particles
from diffadvect.runtime import Simulator, seed_particles
from diffadvect.topology import ProcessGrid, decompose


class ConstantField:
    def __init__(self, v):
        self.v = np.asarray(v, dtype=np.float64)

    def components(self, x, y, z):
        return tuple(self.v)


def particles_at(positions, remaining, rank, start_id=0):
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    n = positions.shape[0]
    return ParticleSet.make(np.arange(start_id, start_id + n), positions, np.full(n, remaining), np.full(n, rank))


def assert_same_lifs(a, b):
    """Both runs have the same per-round LIFs bit for bit, NaN rounds included."""
    assert [col.tobytes() for col in round_lifs(a.table)] == [col.tobytes() for col in round_lifs(b.table)]


def drain_queues(sim):
    sim.particles = ParticleSet.empty()


def shuffled_queues(p, seed):
    """Rows that shuffle each rank's queue and keep the table in home order."""
    return np.lexsort((np.random.default_rng(seed).permutation(len(p)), p.home))


class TestSeeding:
    def test_full_domain_stride8(self):
        grid = ProcessGrid((2, 2, 2))
        seeds = seed_particles((64, 64, 64), 1.0, (8, 8, 8), grid, 1000)
        assert len(seeds) == 512
        assert np.bincount(seeds.home, minlength=8).tolist() == [64] * 8

    def test_halving_z_stride_doubles_seeds(self):
        grid = ProcessGrid((2, 2, 2))
        assert len(seed_particles((64, 64, 64), 1.0, (8, 8, 4), grid, 1000)) == 1024

    def test_scaled_box_bounds_positions(self):
        grid = ProcessGrid((1, 1, 1))
        pos = seed_particles((64, 64, 64), 0.5, (4, 4, 4), grid, 1000).pos
        assert len(pos) > 0
        assert (pos >= 0.25).all() and (pos <= 0.75).all()

    def test_seeds_assigned_to_owning_rank(self):
        grid = ProcessGrid((3, 2, 2))
        origin, core_dims = decompose(grid, (16, 16, 16))
        seeds = seed_particles((16, 16, 16), 1.0, (2, 2, 2), grid, 10)
        # one table in home order, each home's run in id order
        assert (np.diff(seeds.home * len(seeds) + seeds.ids) > 0).all()
        np.testing.assert_array_equal(np.sort(seeds.ids), np.arange(len(seeds)))
        assert set(seeds.home.tolist()) == set(range(grid.rank_count))  # every rank seeds
        node = np.rint(seeds.pos * 15.0)  # every seed sits on a lattice node of its rank's core
        assert ((node >= origin[seeds.home]) & (node < (origin + core_dims)[seeds.home])).all()

    @settings(max_examples=60, deadline=None)
    @given(res=hst.tuples(*[hst.integers(2, 20)] * 3), dims=hst.tuples(*[hst.integers(1, 4)] * 3),
           stride=hst.tuples(*[hst.integers(1, 5)] * 3), scale=hst.floats(0.05, 1.0))
    def test_one_table_in_home_order_on_owning_ranks(self, res, dims, stride, scale):
        grid = ProcessGrid(tuple(min(d, r) for d, r in zip(dims, res)))
        origin, core_dims = decompose(grid, res)
        seeds = seed_particles(res, scale, stride, grid, 7)
        axes = seed_axes(res, scale, stride)
        iz, iy, ix = (a.ravel() for a in np.meshgrid(axes[2], axes[1], axes[0], indexing="ij"))  # x fastest
        node = np.stack([ix, iy, iz], axis=1)
        # id i is lattice node i; the rows run in home order, each home's run in id order
        np.testing.assert_array_equal(np.sort(seeds.ids), np.arange(len(node)))
        assert (np.diff(seeds.home * len(node) + seeds.ids) > 0).all()
        assert seeds.pos.tobytes() == (node[seeds.ids] * lattice_spacing(res)).tobytes()
        assert (seeds.remaining == 7).all()
        end = origin + core_dims
        assert ((node[seeds.ids] >= origin[seeds.home]) & (node[seeds.ids] < end[seeds.home])).all()
        holds_node = [all(((axes[a] >= origin[r, a]) & (axes[a] < end[r, a])).any() for a in range(3))
                      for r in range(grid.rank_count)]
        assert set(seeds.home.tolist()) == {r for r, held in enumerate(holds_node) if held}

    def test_seeding_holds_one_copy_of_the_positions(self):
        # the table is 48 B per seed (id, xyz, budget, home) and the lattice-order home 8 more; a
        # lattice-order copy of the positions beside the home-order one would add 24
        grid = ProcessGrid((2, 2, 2))
        tracemalloc.start()
        try:
            seeds = seed_particles((64, 64, 64), 1.0, (1, 1, 1), grid, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(seeds) == 64 ** 3
        assert peak <= 64 * len(seeds)

    def test_building_a_simulator_gathers_and_concatenates_nothing(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ParticleSet, "compact", counted("compact", ParticleSet.compact))
        monkeypatch.setattr(runtime, "concat_particles", counted("concat", runtime.concat_particles))
        sim = Simulator(RunConfig(field="abc", resolution=(16, 16, 16), grid=(4, 2, 2), scheduler="gllma",
                                  stride=(2, 2, 2)))
        assert len(sim.particles) == sim.seed_count == 512 and calls == []


class TestRefusal:
    @pytest.mark.parametrize("settings_, refused", [
        (dict(scheduler="foo", step=float("nan"), particles_per_round=0), ["scheduler", "step", "particles_per_round"]),
        (dict(max_iterations=5000), ["max_iterations"]),
        # 2.1M seeds; 8 ranks run 50,000 rows a round, each logging up to 1,000 vertices of 12 B: 4.47 GiB
        (dict(resolution=(128, 128, 128), stride=(1, 1, 1), grid=(2, 2, 2), scheduler="gllma"), ["export_curves"]),
        (dict(aabb_scale=0.0), ["aabb_scale"]),
        (dict(particles_per_round=2.5, aabb_scale="0.5", step="0.001", field_params={"A": "x"}, max_iterations=10.5),
         ["field params", "aabb_scale", "step", "max_iterations", "particles_per_round"]),
        (dict(resolution=(16.5, 16, 16), stride=(2.5, 2, 2), grid=(2.5, 1, 1)), ["resolution", "grid", "stride"]),
        (dict(nodes=2.5), ["nodes"]),
    ], ids=["three-problems", "iterations-over-the-cap", "round-log-over-the-cap", "empty-seed-box",
            "numbers-of-the-wrong-type", "axes-of-the-wrong-type", "nodes-of-the-wrong-type"])
    def test_the_api_refuses_what_validate_refuses_before_rasterizing(self, monkeypatch, settings_, refused):
        def rasterize(*args, **kwargs):
            raise AssertionError("an invalid configuration was rasterized")

        monkeypatch.setattr(runtime, "rasterize_global", rasterize)
        config = RunConfig(**settings_)
        with pytest.raises(ConfigError) as caught:
            Simulator(config)
        assert caught.value.errors == config.validate()
        assert [problem.split(":")[0] for problem in caught.value.errors] == refused


class TestSingleRank:
    def test_stages_are_noops_and_pure_integration(self):
        sim = Simulator(RunConfig(field="abc", resolution=(16, 16, 16), grid=(1, 1, 1), scheduler="none",
                                  max_iterations=10, stride=(8, 8, 8)))
        res = sim.run()
        for rec in res.records:
            assert rec.sent_balanced == rec.recv_balanced == 0
            assert rec.sent_oob == rec.recv_oob == 0
            assert rec.load_pre == rec.load_post
        assert res.rounds == 1
        assert res.terminated + res.exited == res.seed_count

    def test_completion_check(self):
        sim = Simulator(RunConfig(field="abc", resolution=(16, 16, 16), grid=(2, 1, 1), scheduler="none",
                                  max_iterations=5, stride=(8, 8, 8)))
        assert len(sim.particles) > 0
        drain_queues(sim)
        assert sim.run().rounds == 0


class TestRoundSelection:
    def test_each_holder_runs_its_first_particles_per_round_rows(self):
        sim = Simulator(RunConfig(resolution=(16, 16, 16), grid=(2, 1, 1), scheduler="none", max_iterations=5,
                                  stride=(8, 8, 8), particles_per_round=3), ConstantField((0.0, 0.0, 0.0)))
        p = sim.particles
        lowest = [np.sort(p.ids[p.home == r])[:3] for r in range(2)]
        assert all(len(p.ids[p.home == r]) > 3 for r in range(2))
        sim.run_round(1)
        assert sorted(pid for pid, _ in sim.store.pieces()) == sorted(np.concatenate(lowest).tolist())

    @settings(max_examples=80, deadline=None)
    @given(dims=hst.tuples(hst.integers(1, 3), hst.integers(1, 3), hst.integers(1, 2)),
           scheduler=hst.sampled_from(SCHEDULERS), ppr=hst.sampled_from((1, 3, 8, 50_000)), data=hst.data())
    def test_each_holder_runs_the_head_of_its_loop_built_queue(self, dims, scheduler, ppr, data):
        # A holder's queue: its own unlent head in id order, then for each direction d the run its
        # neighbor there lent it in direction d ^ 1, each run in its sender's queue order.
        grid = ProcessGrid(dims)
        loads = data.draw(hst.lists(hst.integers(0, 30), min_size=grid.rank_count, max_size=grid.rank_count))
        sim = Simulator(RunConfig(resolution=(16, 16, 16), grid=dims, scheduler=scheduler, max_iterations=5,
                                  stride=(8, 8, 8), particles_per_round=ppr), ConstantField((0.0, 0.0, 0.0)))
        centres = (sim.blocks.origin + (sim.blocks.core_dims - 1) / 2.0) * sim.blocks.spacing
        starts = np.cumsum(loads) - loads
        sim.particles = concat_particles([particles_at(np.tile(centres[r], (load, 1)), 5, r, start_id=start)
                                          for r, (load, start) in enumerate(zip(loads, starts))])
        sim.seed_count = sum(loads)
        sends = ref.plan_transfers(sim.neighbors, loads, scheduler)
        kept, lent = zip(*(ref.select_particles(subset(sim.particles, slice(start, start + load)), sends[r], r)
                           for r, (load, start) in enumerate(zip(loads, starts))))
        want = []
        for r, start in enumerate(starts):
            queue = (start + kept[r]).tolist()
            for d, sender in enumerate(sim.neighbors[r]):
                if sender >= 0:
                    queue += (starts[sender] + lent[sender][d ^ 1]).tolist()
            want += queue[:ppr]
        sim.run_round(1)
        assert [pid for pid, _ in sim.store.pieces()] == want


class TestStageClock:
    def test_the_stages_cover_the_check_and_the_bookkeeping(self, monkeypatch):
        # distribute's clock covers the round's containability check, and collect's the rounds-table
        # bookkeeping, so stage_totals_s leaves neither out
        def slowed(fn):
            def slow(*args, **kwargs):
                time.sleep(0.02)
                return fn(*args, **kwargs)
            return slow

        monkeypatch.setattr(Simulator, "_assert_containable", slowed(Simulator._assert_containable))
        monkeypatch.setattr(runtime, "round_table", slowed(runtime.round_table))
        res = Simulator(RunConfig(field="abc", resolution=(16, 16, 16), grid=(2, 1, 1), scheduler="lma",
                                  max_iterations=5, stride=(8, 8, 8), particles_per_round=1)).run()
        totals = dict(zip(STAGE_COLUMNS, res.stage_totals_s.tolist()))
        assert res.rounds > 1
        assert totals["stage_lb_distribute_s"] >= res.rounds * 0.02
        assert totals["stage_collect_s"] >= res.rounds * 0.02


class TestTwoRankBalancing:
    def _sim(self, scheduler):
        sim = Simulator(RunConfig(resolution=(16, 16, 16), grid=(2, 1, 1), scheduler=scheduler, max_iterations=5,
                                  stride=(8, 8, 8)), ConstantField((0.0, 0.0, 0.0)))
        drain_queues(sim)
        # 100 idle particles on rank 0, none on rank 1
        sim.particles = particles_at(np.tile([0.25, 0.5, 0.5], (100, 1)), 5, 0)
        sim.seed_count = 100
        return sim

    def test_lma_splits_evenly_across_the_pair(self):
        sim = self._sim("lma")
        recs = sim.run_round(1)
        assert recs[0].load_pre == 100 and recs[1].load_pre == 0
        assert recs[0].sent_balanced == 50 and recs[1].recv_balanced == 50
        assert recs[0].load_post == recs[1].load_post == 50
        assert recs[0].integrate_steps == recs[1].integrate_steps == 250

    def test_round_rows_hold_plain_numbers(self):
        # a count summed over a round's rows must be a plain int, which json can write
        recs = self._sim("lma").run_round(1)
        assert type(sum(r.sent_balanced for r in recs)) is int
        assert type(recs[0]["round"]) is int

    def test_curve_segments_recorded_by_integrating_rank(self):
        sim = self._sim("lma")
        sim.run_round(1)
        # one piece per particle, in world row order: rank 0's 50 kept, then the 50 it lent to rank 1
        assert [pid for pid, _ in sim.store.pieces()] == list(range(100))
        assert all(len(verts) == 5 for _, verts in sim.store.pieces())

    def test_constant_diffusion_halves_the_gap(self):
        sim = self._sim("constant")
        recs = sim.run_round(1)
        assert recs[0].sent_balanced == 50  # (100 - 0) // 2


class TestCrossDomainDrift:
    def _sim(self, grid, velocity=(1.0, 0.0, 0.0), resolution=17, step=0.001, start=(0.01, 0.51, 0.52)):
        sim = Simulator(RunConfig(resolution=(resolution,) * 3, grid=grid, scheduler="none", step=step,
                                  max_iterations=1000, stride=(8, 8, 8)), ConstantField(velocity))
        drain_queues(sim)
        sim.particles = particles_at([start], 1000, 0)
        sim.seed_count = 1
        return sim

    def _run(self, grid, **drift):
        return self._sim(grid, **drift).run()

    def test_particle_visits_each_x_rank_once_and_matches_single_rank(self):
        base = self._run((1, 1, 1))
        multi = self._run((4, 1, 1))
        assert base.exited == multi.exited == 1
        # one oob hand-off into each downstream rank
        recv = {rec.rank: 0 for rec in multi.records}
        for rec in multi.records:
            recv[rec.rank] += rec.recv_oob
        assert recv[1] == recv[2] == recv[3] == 1 and recv[0] == 0
        np.testing.assert_array_equal(base.curves[0], multi.curves[0])

    def test_a_step_onto_a_block_face_along_the_hull_is_handed_off(self):
        # From x = 0 the particle lands on the +y face of rank 0's core while on the domain's -x
        # face, which is inside the core and must not compete with the +y face it crossed.
        drift = dict(velocity=(0.0, 1.0, 0.0), resolution=9, step=0.0625, start=(0.0, 0.5625, 0.5))
        base, split = self._run((1, 1, 1), **drift), self._run((1, 2, 1), **drift)
        assert base.exited == split.exited == 1
        assert split.records.sent_oob.sum() == 1
        assert base.curves[0].shape == (7, 3) and base.curves[0][-1, 1] == 1.0
        np.testing.assert_array_equal(split.curves[0], base.curves[0])

    def test_a_block_exit_into_the_hull_is_an_invariant_error(self):
        sim = self._sim((2, 1, 1))
        sim.neighbors[0, 1] = -1  # the drift crosses rank 0's +x face, now marked as the hull
        with pytest.raises(InvariantError, match="domain hull"):
            sim.run_round(1)


class TestDeterminismAndInvariants:
    def test_queue_order_changes_who_integrates_but_no_curve(self):
        config = RunConfig(field="toroidal", resolution=(32, 32, 32), grid=(2, 2, 2), scheduler="gllma",
                           max_iterations=60, stride=(4, 4, 4), aabb_scale=0.5)
        a = Simulator(config).run()
        sim = Simulator(config)
        sim.particles = subset(sim.particles, shuffled_queues(sim.particles, 7))
        b = sim.run()
        assert set(a.curves) == set(b.curves)
        for pid in a.curves:
            np.testing.assert_array_equal(a.curves[pid], b.curves[pid])
        assert a.total_integrate_steps() == b.total_integrate_steps()

    def test_a_round_gathers_the_table_once(self, monkeypatch):
        # the kernel advances the selected rows in place, so the one gather of the table is collect's
        # compaction, one stable argsort of the rows' sort keys
        sim = Simulator(RunConfig(field="toroidal", resolution=(32, 32, 32), grid=(2, 2, 2), scheduler="gllma",
                                  max_iterations=60, stride=(4, 4, 4), aabb_scale=0.5))
        compactions = []
        compact = ParticleSet.compact
        monkeypatch.setattr(ParticleSet, "compact", lambda pset, index: compactions.append(1) or compact(pset, index))
        result = sim.run()
        assert result.rounds > 1 and len(compactions) == result.rounds

    @staticmethod
    def loaded_senders_of_rank_3(first_rank):
        """A 2x2 grid whose ranks 1 and 2 each queue 90 rows, ``first_rank``'s stored first."""
        sim = Simulator(RunConfig(resolution=(16, 16, 16), grid=(2, 2, 1), scheduler="lma", max_iterations=5,
                                  stride=(8, 8, 8), particles_per_round=10), ConstantField((0.0, 0.0, 0.0)))
        from_1 = particles_at(np.tile([0.85, 0.15, 0.5], (90, 1)), 5, 1)
        from_2 = particles_at(np.tile([0.15, 0.85, 0.5], (90, 1)), 5, 2, start_id=90)
        sim.particles = concat_particles([from_1, from_2] if first_rank == 1 else [from_2, from_1])
        sim.seed_count = 180
        return sim

    def test_arrivals_queue_in_the_receivers_direction_order(self):
        # On a 2x2 grid rank 3's -x neighbor is rank 2 and its -y neighbor rank 1, so its
        # direction order (-x before -y) is the reverse of its senders' rank order.
        sim = self.loaded_senders_of_rank_3(1)
        recs = sim.run_round(1)
        assert recs[3].recv_balanced == 60
        # loans from -x (rank 2) queue ahead of those from -y (rank 1)
        # world rows are in rank-index order and every selected particle logs a piece,
        # so rank 3's ten rows follow the ten of each of ranks 0, 1 and 2
        integrated = [pid for pid, _ in list(sim.store.pieces())[30:40]]
        assert len(integrated) == 10 and all(pid >= 90 for pid in integrated)

    def test_a_table_out_of_home_order_is_refused_before_anything_moves(self):
        # rank 2's rows stored ahead of rank 1's: no rank's queue is one run of rows in home order
        sim = self.loaded_senders_of_rank_3(2)
        before = copy.deepcopy(sim.particles)
        with pytest.raises(InvariantError, match="home order"):
            sim.run_round(1)
        for column in ("ids", "pos", "remaining", "home"):
            np.testing.assert_array_equal(getattr(sim.particles, column), getattr(before, column))
        assert not sim.store.records and not sim.records and not sim.round_totals

    def test_a_surviving_loan_returns_to_its_place_in_its_homes_queue(self):
        # Rank 3 of a 2x2 grid lends the tail of its queue to rank 2 (-x) first, then to rank 1 (-y),
        # the reverse of their rank order. Ten rows a round leave most loans alive at the round's end.
        sim = Simulator(RunConfig(resolution=(16, 16, 16), grid=(2, 2, 1), scheduler="lma", max_iterations=5,
                                  stride=(8, 8, 8), particles_per_round=10), ConstantField((0.0, 0.0, 0.0)))
        sim.particles = particles_at(np.tile([0.85, 0.85, 0.5], (90, 1)), 5, 3)
        sim.seed_count = 90
        recs = sim.run_round(1)
        assert [r.sent_balanced for r in recs] == [0, 0, 0, 60]
        # each rank ran its first ten rows: 0-9 at home, loans 30-39 at rank 2 and 60-69 at rank 1
        assert sorted(pid for pid, _ in sim.store.pieces()) == [*range(10), *range(30, 40), *range(60, 70)]
        p = sim.particles
        assert (p.home == 3).all()
        assert p.ids.tolist() == [*range(10, 30), *range(40, 60), *range(70, 90)]  # row order is queue order

    def test_conservation_every_round(self):
        sim = Simulator(RunConfig(field="toroidal", resolution=(32, 32, 32), grid=(2, 2, 2), scheduler="lma",
                                  max_iterations=80, stride=(4, 4, 4), aabb_scale=0.5))
        res = sim.run()
        for rnd, active, terminated, exited in res.round_totals:
            assert active + terminated + exited == res.seed_count
        assert res.round_totals[-1][1] == 0  # drained at completion

    def test_round_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(runtime, "ROUND_CAP", 1)
        sim = Simulator(RunConfig(field="toroidal", resolution=(32, 32, 32), grid=(2, 2, 2), scheduler="none",
                                  max_iterations=500, stride=(8, 8, 8), aabb_scale=0.5))
        with pytest.raises(RoundLimitError):
            sim.run()

    def test_containability_assertion_fires_on_foreign_particle(self):
        sim = Simulator(RunConfig(resolution=(16, 16, 16), grid=(2, 1, 1), scheduler="none", max_iterations=5,
                                  stride=(8, 8, 8)), ConstantField((0.0, 0.0, 0.0)))
        drain_queues(sim)
        # rank 0 owns the left half; a particle at x=0.9 is unreachable for it
        sim.particles = particles_at([[0.9, 0.5, 0.5]], 5, 0)
        sim.seed_count = 1
        with pytest.raises(InvariantError):
            sim.run_round(1)

    def test_step_too_large_for_ghost_margin_rejected(self):
        with pytest.raises(ConfigError):
            Simulator(RunConfig(resolution=(16, 16, 16), grid=(2, 1, 1), scheduler="none", step=0.001,
                                max_iterations=5, stride=(8, 8, 8)), ConstantField((60.0, 0.0, 0.0)))

    def test_nan_step_rejected(self):
        # NaN compares False with both the positivity and the ghost-margin bound
        with pytest.raises(ConfigError):
            Simulator(RunConfig(field="abc", resolution=(16, 16, 16), grid=(2, 1, 1), scheduler="none",
                                step=float("nan"), max_iterations=5, stride=(8, 8, 8)))

    @staticmethod
    def centre_rank_at(*g, scheduler="none", **settings):
        """A 3x3x3 simulator at 33^3 (spacing 1/32, so g = p / spacing is exact) holding particles of the
        centre rank 13, whose sampling extent is [10, 22] in g-space, at g-space points ``g``, queued in order,
        with any further config ``settings``."""
        sim = Simulator(RunConfig(resolution=(33, 33, 33), grid=(3, 3, 3), scheduler=scheduler, max_iterations=5,
                                  stride=(8, 8, 8), **settings), ConstantField((0.0, 0.0, 0.0)))
        drain_queues(sim)
        sim.particles = particles_at(np.array(g) * sim.blocks.spacing, 5, 13)
        sim.seed_count = len(g)
        return sim

    @pytest.mark.parametrize("holder", ["home", "loaned"])
    @pytest.mark.parametrize("side", ["lo", "hi"])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_a_row_one_float_outside_its_home_blocks_reach_is_an_invariant_error(self, axis, side, holder):
        g = np.full(3, 16.0)
        g[axis] = np.nextafter(10.0, -np.inf) if side == "lo" else np.nextafter(22.0, np.inf)
        if holder == "home":
            sim = self.centre_rank_at(g)
        else:
            # Seven rows under LMA: rank 13 keeps its queue head and lends the row at queue place 1 + d
            # to its neighbor in direction d. The outside row sits where the round would lend it to the
            # neighbor across the bound it crosses, whose block reaches it; its home's block does not.
            d = 2 * axis + (side == "hi")
            points = [np.full(3, 16.0)] * 7
            points[1 + d] = g
            sim = self.centre_rank_at(*points, scheduler="lma")
            loads = np.bincount(sim.particles.home, minlength=27)
            _, per_direction = balance.select_particles(loads, balance.plan_transfers(sim.neighbors, loads, "lma"))
            assert [rows.tolist() for rows in per_direction] == [[1 + k] for k in range(6)]
            borrower = sim.neighbors[13, d]
            assert KERNEL.rk4_reach(1, *kernel_bounds(sim.blocks, [borrower]),
                                    np.ascontiguousarray(sim.particles.pos[1 + d:2 + d]).ctypes) == -1
        with pytest.raises(InvariantError, match="rank 13: particle outside its block's reach"):
            sim.run_round(1)

    def test_a_row_outside_its_reach_is_an_invariant_error_in_a_round_that_does_not_select_it(self):
        # the kernel checks the rows it advances; the containability check reads every row
        sim = self.centre_rank_at(np.full(3, 16.0), particles_per_round=1)
        outside = np.array([np.nextafter(22.0, np.inf), 16.0, 16.0]) * sim.blocks.spacing
        sim.particles = concat_particles([sim.particles, particles_at([outside], 5, 13, start_id=1)])
        sim.seed_count = 2
        assert sim.particles.ids.tolist() == [0, 1]  # one round advances row 0 only
        with pytest.raises(InvariantError, match="rank 13: particle outside its block's reach"):
            sim.run_round(1)

    @pytest.mark.parametrize("bound", [10.0, 22.0], ids=["lo", "hi"])
    def test_a_row_on_its_home_blocks_closed_sampling_bound_is_containable(self, bound):
        sim = self.centre_rank_at(np.full(3, bound))
        sim.run_round(1)
        assert sim.round_totals == [(1, 1, 0, 0)]

    def test_curves_off_allocates_no_vertices_and_changes_no_work(self, monkeypatch):
        def run(export_curves):
            sim = Simulator(RunConfig(field="toroidal", resolution=(32, 32, 32), grid=(2, 2, 1), scheduler="gllma",
                                      max_iterations=40, stride=(4, 4, 4), aabb_scale=0.5, particles_per_round=16,
                                      export_curves=export_curves))
            return sim, sim.run()

        slots = []
        allocate = CurveStore.allocate

        def counting_allocate(store, info):
            log = allocate(store, info)
            slots.append(0 if log is None else log.shape[0])
            return log

        monkeypatch.setattr(CurveStore, "allocate", counting_allocate)
        off_sim, off = run(False)
        assert slots and sum(slots) == 0
        assert not off_sim.store.records
        _, on = run(True)
        assert sum(slots) > 0
        assert off.curves is None and on.curves
        assert_same_lifs(off, on)
        assert off.total_integrate_steps() == on.total_integrate_steps()
        assert off.lockstep_integrate_steps() == on.lockstep_integrate_steps()
        assert rounds_csv_lines(off.records) == rounds_csv_lines(on.records)

    def test_jets_field_runs_clean(self):
        res = Simulator(RunConfig(field="jets", resolution=(16, 16, 16), grid=(2, 1, 1), scheduler="constant",
                                  max_iterations=30, stride=(4, 4, 4))).run()
        assert res.terminated + res.exited == res.seed_count
        assert res.total_integrate_steps() > 0

    def test_total_work_is_scheduler_and_grid_independent(self):
        # accepted steps mirror the geometry, so their global total must
        # match the 1-rank run no matter how work is distributed
        def total(grid, sched):
            config = RunConfig(field="toroidal", resolution=(32, 32, 32), grid=grid, scheduler=sched,
                               max_iterations=50, stride=(8, 8, 8), aabb_scale=0.5, export_curves=False)
            return Simulator(config).run().total_integrate_steps()

        reference = total((1, 1, 1), "none")
        assert reference > 0
        for grid in ((2, 1, 1), (2, 2, 1)):
            for sched in ("none", "constant", "lma", "gllma"):
                assert total(grid, sched) == reference


class TestRuntimeRealisesThePlan:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_post_balance_loads_match_synchronous_step(self, scheduler):
        # every balancing decision of a round comes from the pure grid step
        grid = ProcessGrid((3, 2, 1))
        loads = [120, 0, 37, 5, 64, 0]
        sim = Simulator(RunConfig(resolution=(16, 16, 16), grid=grid.dims, scheduler=scheduler, max_iterations=5,
                                  stride=(8, 8, 8)), ConstantField((0.0, 0.0, 0.0)))
        spacing = 1.0 / 15.0
        next_id, parts = 0, []
        for rank, (load, origin, core_dims) in enumerate(zip(loads, *decompose(grid, (16, 16, 16)))):
            centre = (origin + (core_dims - 1) / 2.0) * spacing
            parts.append(particles_at(np.tile(centre, (load, 1)), 5, rank, start_id=next_id))
            next_id += load
        sim.particles = concat_particles(parts)
        sim.seed_count = next_id
        recs = sim.run_round(1)
        assert [r.load_pre for r in recs] == loads
        assert [r.load_post for r in recs] == synchronous_step(grid, loads, scheduler)


@hst.composite
def decomposed_runs(draw):
    grid = tuple(draw(hst.integers(1, 4)) for _ in range(3))
    return dict(
        field=draw(hst.sampled_from(FIELD_KINDS)),
        resolution=tuple(draw(hst.integers(16, 24)) for _ in range(3)),
        max_iterations=draw(hst.integers(1, 30)),
        grid=grid,
        scheduler=draw(hst.sampled_from(SCHEDULERS)),
        particles_per_round=draw(hst.sampled_from((1, 3, 8, 50_000))),
        queue_order_seed=draw(hst.integers(0, 2**32 - 1)),
    )


class TestDecompositionFuzz:
    def test_final_float64_positions_match_the_one_rank_oracle(self, monkeypatch):
        # curves are float32; the float64 position where each particle finishes, its budget spent or
        # the domain left, is still the oracle's bit for bit, on criterion 5's grids under every scheduler
        def finals(grid, scheduler):
            final = {}

            def recording(block, pset, rows, log, h, workers=None):
                out = integrate_group(block, pset, rows, log, h, workers)
                done = rows[(out.status == STATUS_TERMINATED) | (out.status == STATUS_EXITED)]
                for pid, pos in zip(pset.ids[done].tolist(), pset.pos[done]):  # the table's rows, as advanced
                    assert pid not in final
                    final[pid] = pos.tobytes()
                return out

            monkeypatch.setattr(advect, "integrate_group", recording)
            res = Simulator(RunConfig(field="abc", resolution=(32, 32, 32), grid=grid, scheduler=scheduler,
                                      max_iterations=100, stride=(4, 4, 4), particles_per_round=16)).run()
            assert len(final) == res.seed_count and res.terminated > 0 and res.exited > 0
            return final, res

        oracle, _ = finals((1, 1, 1), "none")
        for grid in ((2, 2, 2), (4, 2, 2)):
            for scheduler in SCHEDULERS:
                got, res = finals(grid, scheduler)
                assert scheduler == "none" or res.records.sent_balanced.sum() > 0, (grid, scheduler)
                assert got == oracle, (grid, scheduler)

    @pytest.mark.parametrize("scheduler", ["constant", "lma", "gllma"])
    @pytest.mark.parametrize("field", ["toroidal", "abc"])
    def test_512_ranks_match_the_one_rank_oracle(self, field, scheduler):
        common = dict(max_iterations=30, stride=(2, 2, 2), aabb_scale=0.5)
        oracle = Simulator(RunConfig(field=field, resolution=(24, 24, 24), grid=(1, 1, 1), scheduler="none",
                                     **common)).run()
        res = Simulator(RunConfig(field=field, resolution=(24, 24, 24), grid=(8, 8, 8), scheduler=scheduler,
                                  particles_per_round=3, **common)).run()
        assert res.records.sent_balanced.sum() > 0
        assert set(res.curves) == set(oracle.curves)
        for pid, curve in oracle.curves.items():
            np.testing.assert_array_equal(res.curves[pid], curve)

    @settings(max_examples=25, deadline=None)
    @given(decomposed_runs())
    def test_any_decomposition_matches_the_one_rank_oracle(self, run):
        common = dict(max_iterations=run["max_iterations"], stride=(6, 6, 6))
        oracle = Simulator(RunConfig(field=run["field"], resolution=run["resolution"], grid=(1, 1, 1),
                                     scheduler="none", **common)).run()
        sim = Simulator(RunConfig(field=run["field"], resolution=run["resolution"], grid=run["grid"],
                                  scheduler=run["scheduler"], particles_per_round=run["particles_per_round"], **common))
        # the order of each rank's queue changes who integrates, never what
        sim.particles = subset(sim.particles, shuffled_queues(sim.particles, run["queue_order_seed"]))
        res = sim.run()
        assert set(res.curves) == set(oracle.curves)
        for pid, curve in oracle.curves.items():
            np.testing.assert_array_equal(res.curves[pid], curve)
        assert res.total_integrate_steps() == oracle.total_integrate_steps()
        for _, active, terminated, exited in res.round_totals:
            assert active + terminated + exited == res.seed_count
        assert res.round_totals[-1][1] == 0
