import numpy as np
import pytest

from diffadvect.advect import (
    STATUS_OOB,
    STATUS_TERMINATED,
    CurveStore,
    RoundBuffer,
    RoundInfo,
    integrate,
    integrate_group,
    merge_curves,
    rk4_step,
)
from diffadvect.errors import InvariantError
from diffadvect.field import Block, rasterize_block, rasterize_global
from diffadvect.particles import ParticleSet, concat_particles


class ConstantField:
    def __init__(self, v):
        self.v = np.asarray(v, dtype=np.float64)

    def evaluate(self, points):
        pts = np.asarray(points, dtype=np.float64)
        return np.broadcast_to(self.v, pts.shape).copy()


class Swirl:
    """A fast rotation about the z axis plus a slow drift in z."""

    def evaluate(self, points):
        p = np.asarray(points, dtype=np.float64)
        return 4.0 * np.stack([-(p[..., 1] - 0.5), p[..., 0] - 0.5, np.full(p.shape[:-1], 0.1)], axis=-1)


def circular(p):
    p = np.asarray(p, dtype=np.float64)
    return np.stack([-(p[..., 1] - 0.5), p[..., 0] - 0.5, np.zeros_like(p[..., 2])], axis=-1)


def circular_exact(p0, t):
    c = np.array([0.5, 0.5, 0.0])
    d = np.asarray(p0, dtype=np.float64) - np.array([0.5, 0.5, p0[2]])
    ct, st = np.cos(t), np.sin(t)
    return np.array([
        0.5 + ct * d[0] - st * d[1],
        0.5 + st * d[0] + ct * d[1],
        p0[2],
    ])


def queue_of(positions, remaining, rank=0):
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    n = positions.shape[0]
    if np.isscalar(remaining):
        remaining = np.full(n, remaining)
    return ParticleSet.make(np.arange(n), positions, remaining, np.full(n, rank))


def round_info(pset):
    """The round metadata of integrating every row of ``pset``."""
    return RoundInfo(len(pset), capacity=int(pset.remaining.sum()))


def run_one_round(block, queue, h):
    info = round_info(queue)
    store = CurveStore()
    buf = store.allocate(info)
    outcome, work = integrate(block, queue, buf, h)
    store.finish_round(queue.ids, buf)
    return info, store, buf, outcome, work


class TestRK4Step:
    def test_constant_field_exact(self):
        got = rk4_step(lambda p: np.array([1.0, 0.0, 0.0]), (0.5, 0.5, 0.5), 0.001)
        np.testing.assert_array_equal(got, [0.501, 0.5, 0.5])

    def test_zero_field_fixed_point(self):
        got = rk4_step(lambda p: np.zeros(3), (0.3, 0.7, 0.2), 0.001)
        np.testing.assert_array_equal(got, [0.3, 0.7, 0.2])

    def test_circular_field_follows_analytic_rotation(self):
        p = np.array([0.75, 0.5, 0.5])
        for _ in range(100):
            p = rk4_step(circular, p, 0.001)
        exact = circular_exact([0.75, 0.5, 0.5], 0.1)
        assert np.abs(p - exact).max() < 1e-10
        radius = np.hypot(p[0] - 0.5, p[1] - 0.5)
        assert abs(radius - 0.25) < 1e-10

    def test_fourth_order_convergence(self):
        # halving h must shrink the endpoint error ~16x
        def endpoint_error(h):
            p = np.array([0.75, 0.5, 0.5])
            steps = round(0.8 / h)
            for _ in range(steps):
                p = rk4_step(circular, p, h)
            return np.linalg.norm(p - circular_exact([0.75, 0.5, 0.5], 0.8))

        errs = [endpoint_error(h) for h in (4e-3, 2e-3, 1e-3)]
        for a, b in zip(errs, errs[1:]):
            assert 12.0 <= a / b <= 20.0


class TestIntegrate:
    def test_budget_of_three_appends_three_vertices(self):
        block = rasterize_block(ConstantField((0.01, 0.0, 0.0)), (16, 16, 16), (0, 0, 0), (16, 16, 16))
        info, store, buf, outcome, work = run_one_round(block, queue_of([[0.5, 0.5, 0.5]], 3), 0.001)
        assert outcome.status[0] == STATUS_TERMINATED
        assert buf.size == 3 and work == 3
        np.testing.assert_array_equal(buf.rows[:3], [0, 0, 0])
        np.testing.assert_allclose(buf.vertices[:3, 0], 0.5 + 0.01 * 0.001 * np.arange(1, 4), rtol=1e-12)

    def test_exits_plus_x_face_in_expected_steps(self):
        block = rasterize_block(ConstantField((1.0, 0.0, 0.0)), (16, 16, 16), (0, 0, 0), (8, 16, 16))
        # core region ends at x = 8/15; start two-ish steps short of it
        x0 = 8 / 15 - 0.0022
        info, store, buf, outcome, work = run_one_round(block, queue_of([[x0, 0.5, 0.5]], 1000), 0.001)
        assert outcome.status[0] == STATUS_OOB
        assert outcome.exit_dir[0] == 1  # +x
        assert work <= int(np.ceil(0.0022 / 0.001)) + 1

    def test_two_runs_bit_identical(self):
        block = rasterize_block(ConstantField((0.3, 0.2, -0.1)), (16, 16, 16), (0, 0, 0), (16, 16, 16))
        q = queue_of(np.random.default_rng(5).uniform(0.3, 0.7, (20, 3)), 50)
        _, _, buf1, out1, _ = run_one_round(block, q.copy(), 0.001)
        _, _, buf2, out2, _ = run_one_round(block, q.copy(), 0.001)
        assert buf1.size == buf2.size > 0
        np.testing.assert_array_equal(buf1.rows[:buf1.size], buf2.rows[:buf2.size])
        np.testing.assert_array_equal(buf1.vertices[:buf1.size], buf2.vertices[:buf2.size])
        np.testing.assert_array_equal(out1.pos, out2.pos)

    def test_domain_exit_terminates_without_vertex(self):
        block = rasterize_block(ConstantField((-1.0, 0.0, 0.0)), (16, 16, 16), (0, 0, 0), (16, 16, 16))
        info, store, buf, outcome, work = run_one_round(block, queue_of([[0.0004, 0.5, 0.5]], 1000), 0.001)
        from diffadvect.advect import STATUS_EXITED

        assert outcome.status[0] == STATUS_EXITED
        assert buf.size == 0  # the crossing step is rejected, not recorded

    def test_lifetime_step_budget_respected(self):
        block = rasterize_block(ConstantField((0.05, 0.02, 0.01)), (16, 16, 16), (0, 0, 0), (16, 16, 16))
        info, store, buf, outcome, work = run_one_round(block, queue_of([[0.1, 0.1, 0.1]], 40), 0.001)
        assert work <= 40 and outcome.remaining[0] >= 0


class TestWorldBatching:
    def test_concatenated_rows_match_separate_blocks_bit_for_bit(self):
        res = (16, 16, 16)
        lattice = rasterize_global(Swirl(), res)
        blocks = [rasterize_block(Swirl(), res, origin, (8, 16, 16), global_data=lattice)
                  for origin in ((0, 0, 0), (8, 0, 0))]
        rng = np.random.default_rng(11)
        sets = []
        for k, (x0, x1) in enumerate([(0.4, 8 / 15), (8 / 15, 0.6)]):  # both sides of the shared face
            n = 40
            pos = np.column_stack([rng.uniform(x0, x1, n), rng.uniform(0.1, 0.9, n), rng.uniform(0.2, 0.8, n)])
            sets.append(ParticleSet.make(np.arange(n) + 100 * k, pos, rng.integers(0, 60, n), np.full(n, k)))
        separate, curves = [], CurveStore()
        for block, pset in zip(blocks, sets):
            buf = CurveStore().allocate(round_info(pset))
            separate.append(integrate_group(block, pset, buf, 0.001))
            curves.finish_round(pset.ids, buf)

        world = concat_particles(sets)
        world_buf = CurveStore().allocate(round_info(world))
        per_row = Block(blocks[0].lattice, blocks[0].spacing,
                        np.array([b.origin for b in blocks])[world.home],
                        np.array([b.core_dims for b in blocks])[world.home])
        batched = integrate_group(per_row, world, world_buf, 0.001)
        world_curves = CurveStore()
        world_curves.finish_round(world.ids, world_buf)

        for name in ("status", "exit_dir", "pos", "remaining", "steps"):
            expected = np.concatenate([getattr(out, name) for out in separate])
            assert getattr(batched, name).tobytes() == expected.tobytes(), name
        assert [pid for pid, _ in world_curves.segments] == [pid for pid, _ in curves.segments]
        for (_, got), (_, want) in zip(world_curves.segments, curves.segments):
            assert got.tobytes() == want.tobytes()
        oob = batched.status == STATUS_OOB
        inside = per_row.owned_mask(batched.pos)
        assert (oob & inside).any()   # a stage point left the sampling extent: step rejected
        assert (oob & ~inside).any()  # the accepted step left the core


class TestCurveStore:
    def test_finish_round_archives_each_written_prefix(self):
        # rows interleave as a round's steps do; each particle keeps its own vertices in step order,
        # and the two entries past the cursor were never written
        rows = np.array([4, 1, 2, 1, 2, 2, 2, 3, 0])
        buf = RoundBuffer(rows=rows.copy(), vertices=np.column_stack([np.arange(9.0), rows, rows]), size=7)
        store = CurveStore()
        store.finish_round(np.array([10, 11, 12, 13, 14]), buf)
        assert [pid for pid, _ in store.segments] == [11, 12, 14]
        for (_, got), row in zip(store.segments, (1, 2, 4)):
            np.testing.assert_array_equal(got[:, 0], np.flatnonzero(rows == row))
            assert (got[:, 1] == row).all()

    def test_merge_keeps_only_written_vertices(self):
        block = rasterize_block(ConstantField((0.01, 0.0, 0.0)), (16, 16, 16), (0, 0, 0), (16, 16, 16))
        q = queue_of([[0.5, 0.5, 0.5]], 3)
        info, store, buf, outcome, work = run_one_round(block, q, 0.001)
        assert info.capacity == 3
        curves = merge_curves(store)
        assert list(curves) == [0]
        assert curves[0].shape == (3, 3)
        assert not np.isnan(curves[0]).any()

    def test_particle_without_vertices_contributes_nothing(self):
        store = CurveStore()
        buf = store.allocate(round_info(queue_of([[0.5, 0.5, 0.5]], 5)))
        store.finish_round(np.array([7]), buf)  # nothing appended
        assert merge_curves(store) == {}

    def test_merge_orders_segments_by_round(self):
        store = CurveStore()
        for ids, x in ((np.array([3, 5]), [0.2, 0.3]), (np.array([5, 3]), [0.4, 0.5])):
            buf = store.allocate(round_info(queue_of(np.zeros((2, 3)), 1)))
            buf.append(np.array([0, 1]), np.column_stack([x, np.zeros(2), np.zeros(2)]))
            store.finish_round(ids, buf)
        merged = merge_curves(store)
        np.testing.assert_array_equal(merged[3][:, 0], [0.2, 0.5])
        np.testing.assert_array_equal(merged[5][:, 0], [0.3, 0.4])

    def test_dropped_vertex_is_an_invariant_error(self, monkeypatch):
        append = RoundBuffer.append

        dropped = []

        def drop_one(buffer, rows, positions):
            if not dropped:
                dropped.append(int(rows[-1]))
                rows, positions = rows[:-1], positions[:-1]
            append(buffer, rows, positions)

        monkeypatch.setattr(RoundBuffer, "append", drop_one)
        block = rasterize_block(ConstantField((0.01, 0.0, 0.0)), (16, 16, 16), (0, 0, 0), (16, 16, 16))
        with pytest.raises(InvariantError, match="logged 2 vertices for 3 accepted steps"):
            run_one_round(block, queue_of([[0.5, 0.5, 0.5]], 3), 0.001)
