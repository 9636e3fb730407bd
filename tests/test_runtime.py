import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from diffadvect import runtime
from diffadvect.advect import CurveStore
from diffadvect.balance import SCHEDULERS, synchronous_step
from diffadvect.errors import ConfigError, InvariantError, RoundLimitError
from diffadvect.field import FIELD_KINDS, AnalyticField
from diffadvect.metrics import round_lifs, rounds_csv_lines
from diffadvect.particles import ParticleSet, concat_particles
from diffadvect.runtime import Simulator, seed_particles
from diffadvect.topology import ProcessGrid, decompose


class ConstantField:
    def __init__(self, v):
        self.v = np.asarray(v, dtype=np.float64)

    def evaluate(self, points):
        pts = np.asarray(points, dtype=np.float64)
        return np.broadcast_to(self.v, pts.shape).copy()


def particles_at(positions, remaining, rank, start_id=0, holder=None):
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    n = positions.shape[0]
    return ParticleSet.make(
        np.arange(start_id, start_id + n), positions, np.full(n, remaining), np.full(n, rank),
        holder=None if holder is None else np.full(n, holder),
    )


def deterministic_columns(records):
    """The ``rounds.csv`` rows without their wall-clock (``_s``) columns."""
    lines = [line.split(",") for line in rounds_csv_lines(records)]
    keep = [i for i, name in enumerate(lines[0]) if not name.endswith("_s")]
    return [[row[i] for i in keep] for row in lines]


def assert_same_lifs(a, b):
    """Both runs have the same per-round LIFs bit for bit, NaN rounds included."""
    assert [col.tobytes() for col in round_lifs(a.table)] == [col.tobytes() for col in round_lifs(b.table)]


def drain_queues(sim):
    sim.particles = ParticleSet.empty()


class TestSeeding:
    def test_full_domain_stride8(self):
        grid = ProcessGrid((2, 2, 2))
        origin, _ = decompose(grid, (64, 64, 64))
        per_rank, total = seed_particles((64, 64, 64), 1.0, (8, 8, 8), origin, grid, 1000)
        assert total == 512
        assert sum(len(p) for p in per_rank) == 512

    def test_halving_z_stride_doubles_seeds(self):
        grid = ProcessGrid((2, 2, 2))
        origin, _ = decompose(grid, (64, 64, 64))
        _, total = seed_particles((64, 64, 64), 1.0, (8, 8, 4), origin, grid, 1000)
        assert total == 1024

    def test_scaled_box_bounds_positions(self):
        grid = ProcessGrid((1, 1, 1))
        origin, _ = decompose(grid, (64, 64, 64))
        per_rank, total = seed_particles((64, 64, 64), 0.5, (4, 4, 4), origin, grid, 1000)
        pos = per_rank[0].pos
        assert total > 0
        assert (pos >= 0.25).all() and (pos <= 0.75).all()

    def test_seeds_assigned_to_owning_rank(self):
        grid = ProcessGrid((3, 2, 2))
        origin, core_dims = decompose(grid, (16, 16, 16))
        per_rank, total = seed_particles((16, 16, 16), 1.0, (2, 2, 2), origin, grid, 10)
        for r, seeds in enumerate(per_rank):
            assert len(seeds) and (seeds.home == r).all()
            assert (np.diff(seeds.ids) > 0).all()  # id order within each rank
            node = np.rint(seeds.pos * 15.0)  # every seed sits on a lattice node of its rank's core
            assert ((node >= origin[r]) & (node < origin[r] + core_dims[r])).all()
        np.testing.assert_array_equal(np.sort(np.concatenate([s.ids for s in per_rank])), np.arange(total))

    def test_bad_scale_rejected(self):
        grid = ProcessGrid((1, 1, 1))
        origin, _ = decompose(grid, (16, 16, 16))
        with pytest.raises(ConfigError):
            seed_particles((16, 16, 16), 0.0, (4, 4, 4), origin, grid, 10)


class TestSingleRank:
    def test_stages_are_noops_and_pure_integration(self):
        sim = Simulator(AnalyticField("abc"), (16, 16, 16), (1, 1, 1), "none",
                        max_iterations=10, stride=(8, 8, 8))
        res = sim.run()
        for rec in res.records:
            assert rec.sent_balanced == rec.recv_balanced == 0
            assert rec.sent_oob == rec.recv_oob == 0
            assert rec.load_pre == rec.load_post
        assert res.rounds == 1
        assert res.terminated + res.exited == res.seed_count

    def test_completion_check(self):
        sim = Simulator(AnalyticField("abc"), (16, 16, 16), (2, 1, 1), "none",
                        max_iterations=5, stride=(8, 8, 8))
        assert len(sim.particles) > 0
        drain_queues(sim)
        assert sim.run().rounds == 0


class TestRoundSelection:
    def test_each_holder_runs_its_first_particles_per_round_rows(self):
        sim = Simulator(ConstantField((0.0, 0.0, 0.0)), (16, 16, 16), (2, 1, 1), "none",
                        max_iterations=5, stride=(8, 8, 8), particles_per_round=3)
        p = sim.particles
        lowest = [np.sort(p.ids[p.home == r])[:3] for r in range(2)]
        assert all(len(p.ids[p.home == r]) > 3 for r in range(2))
        sim.run_round(1)
        assert sorted(pid for pid, _ in sim.store.segments) == sorted(np.concatenate(lowest).tolist())


class TestTwoRankBalancing:
    def _sim(self, scheduler):
        sim = Simulator(ConstantField((0.0, 0.0, 0.0)), (16, 16, 16), (2, 1, 1), scheduler,
                        max_iterations=5, stride=(8, 8, 8))
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
        assert type(recs[0]["round"]) is int and type(recs[0].stage_integrate_s) is float

    def test_loans_return_home_every_round(self):
        sim = self._sim("lma")
        sim.run_round(1)
        assert (sim.particles.holder == sim.particles.home).all()

    def test_curve_segments_recorded_by_integrating_rank(self):
        sim = self._sim("lma")
        sim.run_round(1)
        # one segment per particle, in world row order: rank 0's 50 kept, then the 50 it lent to rank 1
        assert [pid for pid, _ in sim.store.segments] == list(range(100))
        assert all(len(verts) == 5 for _, verts in sim.store.segments)

    def test_constant_diffusion_halves_the_gap(self):
        sim = self._sim("constant")
        recs = sim.run_round(1)
        assert recs[0].sent_balanced == 50  # floor(0.5 * 100)


class TestCrossDomainDrift:
    def _run(self, grid):
        sim = Simulator(ConstantField((1.0, 0.0, 0.0)), (17, 17, 17), grid, "none",
                        max_iterations=1000, stride=(8, 8, 8))
        drain_queues(sim)
        sim.particles = particles_at([[0.01, 0.51, 0.52]], 1000, 0)
        sim.seed_count = 1
        return sim.run()

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


class TestDeterminismAndInvariants:
    def test_stored_row_order_does_not_matter(self):
        kwargs = dict(max_iterations=60, stride=(4, 4, 4), aabb_scale=0.5)
        a = Simulator(AnalyticField("toroidal"), (32, 32, 32), (2, 2, 2), "gllma", **kwargs).run()
        sim = Simulator(AnalyticField("toroidal"), (32, 32, 32), (2, 2, 2), "gllma", **kwargs)
        sim.particles = sim.particles.select(np.random.default_rng(7).permutation(len(sim.particles)))
        b = sim.run()
        assert_same_lifs(a, b)
        assert set(a.curves) == set(b.curves)
        for pid in a.curves:
            np.testing.assert_array_equal(a.curves[pid], b.curves[pid])
        for ra, rb in zip(a.records, b.records):
            assert (ra["round"], ra.rank, ra.integrate_steps, ra.load_pre, ra.load_post,
                    ra.sent_balanced, ra.recv_balanced, ra.sent_oob, ra.recv_oob) == (
                rb["round"], rb.rank, rb.integrate_steps, rb.load_pre, rb.load_post,
                rb.sent_balanced, rb.recv_balanced, rb.sent_oob, rb.recv_oob)

    @pytest.mark.parametrize("planting", ["rank 1 first", "rank 2 first"])
    def test_arrivals_queue_in_the_receivers_direction_order(self, planting):
        # On a 2x2 grid rank 3's -x neighbor is rank 2 and its -y neighbor rank 1, so its
        # direction order (-x before -y) is the reverse of its senders' rank order.
        sim = Simulator(ConstantField((0.0, 0.0, 0.0)), (16, 16, 16), (2, 2, 1), "lma",
                        max_iterations=5, stride=(8, 8, 8), particles_per_round=10)
        from_1 = particles_at(np.tile([0.85, 0.15, 0.5], (90, 1)), 5, 1)
        from_2 = particles_at(np.tile([0.15, 0.85, 0.5], (90, 1)), 5, 2, start_id=90)
        sim.particles = concat_particles([from_1, from_2] if planting == "rank 1 first" else [from_2, from_1])
        sim.seed_count = 180
        recs = sim.run_round(1)
        assert recs[3].recv_balanced == 60
        # loans from -x (rank 2) queue ahead of those from -y (rank 1)
        # world rows are in rank-index order and every selected particle logs a segment,
        # so rank 3's ten rows follow the ten of each of ranks 0, 1 and 2
        integrated = [pid for pid, _ in sim.store.segments[30:40]]
        assert len(integrated) == 10 and all(pid >= 90 for pid in integrated)

    def test_conservation_every_round(self):
        sim = Simulator(AnalyticField("toroidal"), (32, 32, 32), (2, 2, 2), "lma",
                        max_iterations=80, stride=(4, 4, 4), aabb_scale=0.5)
        res = sim.run()
        for rnd, active, terminated, exited in res.round_totals:
            assert active + terminated + exited == res.seed_count
        assert res.round_totals[-1][1] == 0  # drained at completion

    def test_round_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(runtime, "ROUND_CAP", 1)
        sim = Simulator(AnalyticField("toroidal"), (32, 32, 32), (2, 2, 2), "none",
                        max_iterations=500, stride=(8, 8, 8), aabb_scale=0.5)
        with pytest.raises(RoundLimitError):
            sim.run()

    def test_containability_assertion_fires_on_foreign_particle(self):
        sim = Simulator(ConstantField((0.0, 0.0, 0.0)), (16, 16, 16), (2, 1, 1), "none",
                        max_iterations=5, stride=(8, 8, 8))
        drain_queues(sim)
        # rank 0 owns the left half; a particle at x=0.9 is unreachable for it
        sim.particles = particles_at([[0.9, 0.5, 0.5]], 5, 0)
        sim.seed_count = 1
        with pytest.raises(InvariantError):
            sim.run_round(1)

    def test_step_too_large_for_ghost_margin_rejected(self):
        with pytest.raises(ConfigError):
            Simulator(ConstantField((60.0, 0.0, 0.0)), (16, 16, 16), (2, 1, 1), "none",
                      step=0.001, max_iterations=5, stride=(8, 8, 8))

    def test_nan_step_rejected(self):
        # NaN compares False with both the positivity and the ghost-margin bound
        with pytest.raises(ConfigError):
            Simulator(AnalyticField("abc"), (16, 16, 16), (2, 1, 1), "none",
                      step=float("nan"), max_iterations=5, stride=(8, 8, 8))

    @pytest.mark.parametrize("alpha", [float("nan"), -0.5, 0.0, 1.5])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ConfigError, match="alpha"):
            Simulator(AnalyticField("abc"), (16, 16, 16), (2, 1, 1), "constant",
                      alpha=alpha, max_iterations=5, stride=(8, 8, 8))

    def test_non_neighbor_particle_is_an_invariant_error(self):
        sim = Simulator(ConstantField((0.0, 0.0, 0.0)), (16, 16, 16), (3, 1, 1), "none",
                        max_iterations=5, stride=(8, 8, 8))
        drain_queues(sim)
        # rank 0 holds a particle homed on rank 2, inside rank 2's block
        sim.particles = particles_at([[0.9, 0.5, 0.5]], 5, 2, holder=0)
        sim.seed_count = 1
        with pytest.raises(InvariantError, match="non-neighbor rank 2"):
            sim.run_round(1)

    def test_curves_off_allocates_no_vertices_and_changes_no_work(self, monkeypatch):
        def run(collect_curves):
            sim = Simulator(AnalyticField("toroidal"), (32, 32, 32), (2, 2, 1), "gllma",
                            max_iterations=40, stride=(4, 4, 4), aabb_scale=0.5,
                            particles_per_round=16, collect_curves=collect_curves)
            return sim, sim.run()

        slots = []
        allocate = CurveStore.allocate

        def counting_allocate(store, info):
            buffer = allocate(store, info)
            slots.append(0 if buffer.vertices is None else buffer.vertices.shape[0])
            return buffer

        monkeypatch.setattr(CurveStore, "allocate", counting_allocate)
        off_sim, off = run(False)
        assert slots and sum(slots) == 0
        assert not off_sim.store.segments
        _, on = run(True)
        assert sum(slots) > 0
        assert off.curves is None and on.curves
        assert_same_lifs(off, on)
        assert off.total_integrate_steps() == on.total_integrate_steps()
        assert off.lockstep_integrate_steps() == on.lockstep_integrate_steps()
        assert deterministic_columns(off.records) == deterministic_columns(on.records)

    def test_modelled_integrate_time_follows_each_ranks_steps(self):
        result = Simulator(AnalyticField("toroidal"), (32, 32, 32), (2, 2, 1), "gllma",
                           max_iterations=60, stride=(4, 4, 4), aabb_scale=0.5).run()
        rounds = {}
        for rec in result.records:
            rounds.setdefault(rec["round"], []).append(rec)
        assert any(rec.integrate_steps == 0 for rec in result.records)
        for recs in rounds.values():
            largest = max(rec.stage_integrate_s for rec in recs)
            for a in recs:
                if a.integrate_steps == 0:
                    assert a.stage_integrate_s == 0.0
                assert a.idle_s == largest - a.stage_integrate_s
                for b in recs:
                    assert np.sign(a.stage_integrate_s - b.stage_integrate_s) == \
                        np.sign(a.integrate_steps - b.integrate_steps)

    def test_jets_field_runs_clean(self):
        res = Simulator(AnalyticField("jets"), (16, 16, 16), (2, 1, 1), "constant",
                        max_iterations=30, stride=(4, 4, 4)).run()
        assert res.terminated + res.exited == res.seed_count
        assert res.total_integrate_steps() > 0

    def test_total_work_is_scheduler_and_grid_independent(self):
        # accepted steps mirror the geometry, so their global total must
        # match the 1-rank run no matter how work is distributed
        def total(grid, sched):
            return Simulator(AnalyticField("toroidal"), (32, 32, 32), grid, sched,
                             max_iterations=50, stride=(8, 8, 8), aabb_scale=0.5,
                             collect_curves=False).run().total_integrate_steps()

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
        sim = Simulator(ConstantField((0.0, 0.0, 0.0)), (16, 16, 16), grid.dims, scheduler,
                        max_iterations=5, stride=(8, 8, 8))
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
    scheduler = draw(hst.sampled_from(SCHEDULERS))
    return dict(
        field=draw(hst.sampled_from(FIELD_KINDS)),
        resolution=tuple(draw(hst.integers(16, 24)) for _ in range(3)),
        max_iterations=draw(hst.integers(1, 30)),
        grid=grid,
        scheduler=scheduler,
        alpha=draw(hst.floats(0.05, 1.0)) if scheduler == "constant" else None,
        particles_per_round=draw(hst.sampled_from((1, 3, 8, 50_000))),
        row_order_seed=draw(hst.integers(0, 2**32 - 1)),
    )


class TestDecompositionFuzz:
    @pytest.mark.parametrize("scheduler", ["constant", "lma", "gllma"])
    @pytest.mark.parametrize("field", ["toroidal", "abc"])
    def test_512_ranks_match_the_one_rank_oracle(self, field, scheduler):
        common = dict(max_iterations=30, stride=(2, 2, 2), aabb_scale=0.5)
        oracle = Simulator(AnalyticField(field), (24, 24, 24), (1, 1, 1), "none", **common).run()
        res = Simulator(AnalyticField(field), (24, 24, 24), (8, 8, 8), scheduler, particles_per_round=3,
                        **common).run()
        assert res.records.sent_balanced.sum() > 0
        assert set(res.curves) == set(oracle.curves)
        for pid, curve in oracle.curves.items():
            np.testing.assert_array_equal(res.curves[pid], curve)

    @settings(max_examples=25, deadline=None)
    @given(decomposed_runs())
    def test_any_decomposition_matches_the_one_rank_oracle(self, run):
        common = dict(max_iterations=run["max_iterations"], stride=(6, 6, 6))
        oracle = Simulator(AnalyticField(run["field"]), run["resolution"], (1, 1, 1), "none",
                           **common).run()
        def decomposed():
            return Simulator(AnalyticField(run["field"]), run["resolution"], run["grid"], run["scheduler"],
                             alpha=run["alpha"], particles_per_round=run["particles_per_round"], **common)

        stored = decomposed().run()
        sim = decomposed()
        rows = np.random.default_rng(run["row_order_seed"]).permutation(len(sim.particles))
        sim.particles = sim.particles.select(rows)
        res = sim.run()
        # the order the table's rows are stored in changes nothing
        assert_same_lifs(res, stored)
        assert deterministic_columns(res.records) == deterministic_columns(stored.records)
        assert set(res.curves) == set(oracle.curves)
        for pid, curve in oracle.curves.items():
            np.testing.assert_array_equal(res.curves[pid], curve)
        assert res.total_integrate_steps() == oracle.total_integrate_steps()
        for _, active, terminated, exited in res.round_totals:
            assert active + terminated + exited == res.seed_count
        assert res.round_totals[-1][1] == 0
        assert (sim.particles.holder == sim.particles.home).all()
