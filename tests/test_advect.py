import numpy as np

from diffadvect.advect import (
    STATUS_OOB,
    STATUS_TERMINATED,
    CurveStore,
    RoundBuffer,
    compute_round_info,
    concat_round_infos,
    integrate,
    integrate_group,
    merge_curves,
    rk4_step,
)
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


def run_one_round(block, queue, h, ppr=10**6, round_index=1):
    info = compute_round_info(queue, ppr)
    store = CurveStore()
    buf = store.allocate(info)
    sel = queue.select(np.arange(info.count))
    outcome, work = integrate(block, sel, info, buf, h)
    store.finish_round(round_index, sel.ids, info, buf)
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


class TestComputeRoundInfo:
    def test_selects_prefix_up_to_ppr(self):
        info = compute_round_info(queue_of(np.tile([0.5, 0.5, 0.5], (15, 1)), 100), 10)
        assert info.count == 10
        np.testing.assert_array_equal(info.offsets, np.arange(10) * info.vertex_stride)

    def test_fresh_particles_get_full_stride(self):
        info = compute_round_info(queue_of(np.tile([0.5, 0.5, 0.5], (4, 1)), 1000), 10)
        assert info.vertex_stride == 1001

    def test_empty_queue(self):
        info = compute_round_info(ParticleSet.empty(), 10)
        assert info.count == 0 and info.vertex_stride == 1
        assert info.capacity == 0


class TestIntegrate:
    def test_budget_of_three_appends_three_vertices(self):
        block = rasterize_block(ConstantField((0.01, 0.0, 0.0)), (16, 16, 16), (0, 0, 0), (16, 16, 16))
        info, store, buf, outcome, work = run_one_round(block, queue_of([[0.5, 0.5, 0.5]], 3), 0.001)
        assert outcome.status[0] == STATUS_TERMINATED
        assert buf.fills[0] == 3 and work == 3
        assert np.isnan(buf.vertices[3:]).all()  # sentinel tail untouched

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
        np.testing.assert_array_equal(buf1.vertices, buf2.vertices)
        np.testing.assert_array_equal(out1.pos, out2.pos)

    def test_domain_exit_terminates_without_vertex(self):
        block = rasterize_block(ConstantField((-1.0, 0.0, 0.0)), (16, 16, 16), (0, 0, 0), (16, 16, 16))
        info, store, buf, outcome, work = run_one_round(block, queue_of([[0.0004, 0.5, 0.5]], 1000), 0.001)
        from diffadvect.advect import STATUS_EXITED

        assert outcome.status[0] == STATUS_EXITED
        assert buf.fills[0] == 0  # the crossing step is rejected, not recorded

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
        infos = [compute_round_info(p, 10**6) for p in sets]
        separate = []
        for block, pset, info in zip(blocks, sets, infos):
            buf = CurveStore().allocate(info)
            separate.append((integrate_group(block, pset, info.offsets, buf, 0.001), buf))

        world, world_info = concat_particles(sets), concat_round_infos(infos)
        world_buf = CurveStore().allocate(world_info)
        per_row = Block(blocks[0].lattice, blocks[0].spacing,
                        np.array([b.origin for b in blocks])[world.home],
                        np.array([b.core_dims for b in blocks])[world.home])
        batched = integrate_group(per_row, world, world_info.offsets, world_buf, 0.001)

        for name in ("status", "exit_dir", "pos", "remaining", "steps"):
            expected = np.concatenate([getattr(out, name) for out, _ in separate])
            assert getattr(batched, name).tobytes() == expected.tobytes(), name
        assert world_buf.vertices.tobytes() == np.concatenate([buf.vertices for _, buf in separate]).tobytes()
        oob = batched.status == STATUS_OOB
        inside = per_row.owned_mask(batched.pos)
        assert (oob & inside).any()   # a stage point left the sampling extent: step rejected
        assert (oob & ~inside).any()  # the accepted step left the core


class TestCurveStore:
    def test_finish_round_archives_each_written_prefix(self):
        info = compute_round_info(queue_of(np.tile([0.5, 0.5, 0.5], (5, 1)), 3), 10)
        vertices = np.full((info.capacity, 3), np.nan)
        vertices[:, 0] = np.arange(info.capacity)
        fills = np.array([0, 2, 4, 0, 1])
        store = CurveStore()
        store.finish_round(5, np.array([10, 11, 12, 13, 14]), info, RoundBuffer(vertices, fills))
        assert [(pid, rnd) for pid, rnd, _ in store.segments] == [(11, 5), (12, 5), (14, 5)]
        for (_, _, got), row in zip(store.segments, (1, 2, 4)):
            base = info.offsets[row]
            np.testing.assert_array_equal(got, vertices[base:base + fills[row]])

    def test_prune_drops_sentinel_tail_only(self):
        block = rasterize_block(ConstantField((0.01, 0.0, 0.0)), (16, 16, 16), (0, 0, 0), (16, 16, 16))
        q = queue_of([[0.5, 0.5, 0.5]], 3)
        info, store, buf, outcome, work = run_one_round(block, q, 0.001)
        curves = merge_curves([store])
        assert list(curves) == [0]
        assert curves[0].shape == (3, 3)
        assert not np.isnan(curves[0]).any()

    def test_full_sentinel_slot_contributes_nothing(self):
        store = CurveStore()
        info = compute_round_info(queue_of([[0.5, 0.5, 0.5]], 5), 10)
        buf = store.allocate(info)
        store.finish_round(1, np.array([7]), info, buf)  # zero fills
        assert merge_curves([store]) == {}

    def test_merge_orders_segments_by_round(self):
        a, b = CurveStore(), CurveStore()
        a.segments.append((3, 2, np.array([[0.4, 0.0, 0.0]])))
        b.segments.append((3, 1, np.array([[0.2, 0.0, 0.0], [0.3, 0.0, 0.0]])))
        merged = merge_curves([a, b])
        np.testing.assert_array_equal(merged[3][:, 0], [0.2, 0.3, 0.4])
