import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffadvect import advect
from diffadvect.advect import (
    KERNEL_FLAGS,
    KERNEL_SOURCE,
    STATUS_EXITED,
    STATUS_OOB,
    STATUS_TERMINATED,
    CurveStore,
    GroupOutcome,
    RoundBuffer,
    RoundInfo,
    build_kernel,
    integrate,
    integrate_group,
    kernel_bounds,
    kernel_name,
    load_kernel,
    merge_curves,
    rk4_step,
)
from diffadvect.errors import InvariantError
from diffadvect.field import Block, lattice_spacing, rasterize_block, rasterize_global
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
    return RoundInfo(capacity=int(pset.remaining.sum()))


def run_one_round(block, queue, h):
    info = round_info(queue)
    store = CurveStore()
    buf = store.allocate(info)
    outcome, work = integrate(block, queue, buf, h)
    store.finish_round(queue.ids, buf)
    return info, store, buf, outcome, work


def reference_integrate_group(block, pset, buffer, h):
    """The numpy loop the kernel replaced: one vectorized step of every active row per pass."""
    n = len(pset)
    pos = pset.pos.copy()
    rem = pset.remaining.copy()
    status = np.zeros(n, dtype=np.int64)
    exit_dir = np.full(n, -1, dtype=np.int64)
    steps = np.zeros(n, dtype=np.int64)
    active = np.nonzero(rem > 0)[0]
    status[rem <= 0] = STATUS_TERMINATED
    while active.size:
        newpos, ok, sdirs = advect._block_step(block.select(active), pos[active], h)
        rejected = active[~ok]
        if rejected.size:
            status[rejected] = STATUS_OOB
            exit_dir[rejected] = sdirs[~ok]
        moved = active[ok]
        newpos = newpos[ok]
        in_domain = np.all((newpos >= 0.0) & (newpos <= 1.0), axis=1)
        exited = moved[~in_domain]
        if exited.size:
            status[exited] = STATUS_EXITED
        moved = moved[in_domain]
        newpos = newpos[in_domain]
        if moved.size:
            pos[moved] = newpos
            if buffer.vertices is not None:
                buffer.rows[buffer.size:buffer.size + moved.size] = moved
                buffer.vertices[buffer.size:buffer.size + moved.size] = newpos
            buffer.size += moved.size
            steps[moved] += 1
            rem[moved] -= 1
            done = rem[moved] == 0
            status[moved[done]] = STATUS_TERMINATED
            moved = moved[~done]
        if moved.size:
            owned = block.select(moved).owned_mask(pos[moved])
            left = moved[~owned]
            if left.size:
                status[left] = STATUS_OOB
                exit_dir[left] = advect._exit_directions(block.to_g(pos[left]), *block.select(left).core_bounds())
            moved = moved[owned]
        active = moved
    return GroupOutcome(status=status, exit_dir=exit_dir, pos=pos, remaining=rem, steps=steps)


def random_world(rng, n, res):
    """A random padded lattice and ``n`` rows, each with random core bounds and a start in its core.

    Velocities lie in [-1, 1] per component, so a step of ``h`` moves at most
    ``h * (res - 1)`` voxels per axis.
    """
    lattice = rng.uniform(-1.0, 1.0, (res + 2,) * 3 + (3,))
    lattice.setflags(write=False)
    spacing = lattice_spacing((res,) * 3)
    ends = np.sort(rng.integers(0, res, (n, 3, 2)), axis=-1)  # first and last core node per axis
    origin, core = ends[..., 0], ends[..., 1] - ends[..., 0] + 1
    g = np.minimum(origin + rng.random((n, 3)) * core, res - 1)
    pset = ParticleSet.make(np.arange(n), g * spacing, rng.integers(0, 25, n), np.zeros(n))
    return Block(lattice, spacing, origin, core), pset


def kernel_sample(block, points):
    """The kernel's trilinear sampler at ``points``, each row against its own bounds."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    out = np.empty_like(points)
    advect.KERNEL.rk4_sample(*kernel_bounds(block, len(points)), points.ctypes, out.ctypes)
    return out


def first_bad_stage(block, pos, h):
    """Per row, 2, 3 or 4 for the first stage point of a step from ``pos`` outside the sampling extent, else 0."""
    stage = np.zeros(len(pos), dtype=np.int64)
    k = block.sample_clamped(pos)
    for number, scale in ((2, h / 2.0), (3, h / 2.0), (4, h)):
        s = pos + scale * k
        stage[(stage == 0) & ~block.samplable_mask(s)] = number
        k = block.sample_clamped(s)
    return stage


def kernel_and_reference(block, pset, h):
    """Both integrations of ``pset`` with curves on, as (outcome, archived segments) pairs."""
    results = []
    for run in (integrate_group, reference_integrate_group):
        store = CurveStore()
        buf = store.allocate(round_info(pset))
        outcome = run(block, pset.copy(), buf, h)
        if run is reference_integrate_group:  # its passes interleave the rows
            order = np.argsort(buf.rows[:buf.size], kind="stable")
            buf.rows[:buf.size], buf.vertices[:buf.size] = buf.rows[order], buf.vertices[order]
        store.finish_round(pset.ids, buf)
        results.append((outcome, store.segments))
    return results


class TestKernelEqualsReference:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 200), st.sampled_from([0.01, 0.05, 0.2]))
    def test_outcome_and_segments_bit_for_bit(self, seed, n, h):
        block, pset = random_world(np.random.default_rng(seed), n, 12)
        (got, got_segments), (want, want_segments) = kernel_and_reference(block, pset, h)
        for name in ("status", "exit_dir", "pos", "remaining", "steps"):
            assert getattr(got, name).dtype == getattr(want, name).dtype, name
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert [pid for pid, _ in got_segments] == [pid for pid, _ in want_segments]
        for (_, a), (_, b) in zip(got_segments, want_segments):
            assert a.tobytes() == b.tobytes()
        counted = RoundBuffer(rows=None, vertices=None)
        off = integrate_group(block, pset.copy(), counted, h)
        assert off.pos.tobytes() == got.pos.tobytes() and counted.size == int(got.steps.sum())

    def test_random_worlds_reach_every_event(self):
        # The property test's draws reach every event. Core exits through an upper face are
        # rare (a few per thousand rows): the sampling extent ends on that face, so all four
        # stage points must stay inside while the step lands beyond it.
        rng = np.random.default_rng(0)
        stages, faces, exited, zero_budgets = set(), set(), 0, 0
        for h in (0.01, 0.05, 0.2):
            block, pset = random_world(rng, 1000, 12)
            (out, segments), (want, _) = kernel_and_reference(block, pset, h)
            assert out.pos.tobytes() == want.pos.tobytes() and out.exit_dir.tobytes() == want.exit_dir.tobytes()
            core_exit = (out.status == STATUS_OOB) & (out.steps > 0) & ~block.owned_mask(out.pos)
            rejected = (out.status == STATUS_OOB) & ~core_exit
            stage = first_bad_stage(block, out.pos, h)
            assert (stage[rejected] > 0).all()
            stages |= set(stage[rejected].tolist())
            faces |= set(out.exit_dir[core_exit].tolist())
            exited += int((out.status == STATUS_EXITED).sum())
            zero_budgets += int((pset.remaining == 0).sum())
            assert (out.status[pset.remaining == 0] == STATUS_TERMINATED).all()
        assert stages == {2, 3, 4}
        assert faces == set(range(6))
        assert exited > 0 and zero_budgets > 0

    @pytest.mark.parametrize("h", [0.0125, 0.3], ids=["core-exit", "stage-rejected"])
    def test_exit_direction_ties_go_to_the_first_axis(self, h):
        # Equal velocity and position in x and y overshoot the -x and -y faces by the same amount.
        block = rasterize_block(ConstantField((-1.0, -1.0, 0.0)), (9, 9, 9), (1, 1, 0), (4, 4, 9))
        pset = queue_of([[1.05 / 8, 1.05 / 8, 0.5]], 5)
        (got, _), (want, _) = kernel_and_reference(block, pset, h)
        assert got.status[0] == want.status[0] == STATUS_OOB
        assert got.exit_dir[0] == want.exit_dir[0] == 0
        assert got.steps[0] == want.steps[0] == (1 if h < 0.1 else 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_sampler_equals_sample_clamped(self, seed, n):
        # 9 nodes per axis: spacing 1/8, so g = p / spacing is exact and points land on the faces
        rng = np.random.default_rng(seed)
        block, _ = random_world(rng, n, 9)
        lo, hi = block.sample_bounds()
        g = lo + rng.random((n, 3)) * (hi - lo)
        snap = rng.integers(0, 3, (n, 3))  # 0 keeps the draw; 1 and 2 move it onto the lo and hi face
        g = np.where(snap == 1, lo, np.where(snap == 2, hi, g))
        points = g * block.spacing
        assert (block.to_g(points) == g).all()
        assert kernel_sample(block, points).tobytes() == block.sample_clamped(points).tobytes()

    def test_sample_on_the_high_face_is_the_top_node(self):
        block, _ = random_world(np.random.default_rng(0), 1, 9)
        top = block.origin[0] + block.core_dims[0]  # sample_bounds' hi: the clamp moves the cell down one
        got = kernel_sample(block, (top * block.spacing)[np.newaxis])
        assert got.tobytes() == block.sample_clamped((top * block.spacing)[np.newaxis]).tobytes()
        np.testing.assert_array_equal(got[0], block.lattice[tuple(top + 1)])


class TestKernelBuild:
    def test_clean_cache_builds_a_loadable_library(self, tmp_path):
        cache = tmp_path / "cache"
        path = build_kernel(cache)
        assert list(cache.iterdir()) == [path]  # no temporary file left behind
        assert build_kernel(cache) == path
        block, _ = random_world(np.random.default_rng(1), 5, 9)
        points = (block.origin + 0.5) * block.spacing
        out = np.empty_like(points)
        load_kernel(path).rk4_sample(*kernel_bounds(block, 5), points.ctypes, out.ctypes)
        assert out.tobytes() == block.sample_clamped(points).tobytes()

    def test_cache_key_follows_source_and_flags(self):
        source = KERNEL_SOURCE.read_bytes()
        name = kernel_name(source, KERNEL_FLAGS)
        assert kernel_name(source, KERNEL_FLAGS) == name
        assert kernel_name(source + b"\n", KERNEL_FLAGS) != name
        assert kernel_name(source, KERNEL_FLAGS[:-1]) != name
        assert kernel_name(source, KERNEL_FLAGS + ("-ffast-math",)) != name

    def test_missing_compiler_is_named(self, tmp_path):
        with pytest.raises(ImportError, match="no-such-cc") as info:
            build_kernel(tmp_path, compiler="no-such-cc")
        assert "no-such-cc -O2 -ffp-contract=off" in str(info.value)
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_cache_directory_is_named(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(ImportError, match="writable cache directory") as info:
            build_kernel(blocker / "cache")
        assert str(blocker / "cache") in str(info.value)


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
        # the kernel writes each row's vertices as one run in step order, rows ascending;
        # the two entries past the cursor were never written
        rows = np.array([1, 1, 2, 2, 2, 2, 4, 3, 0])
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
            buf.rows[:] = [0, 1]
            buf.vertices[:] = np.column_stack([x, np.zeros(2), np.zeros(2)])
            buf.size = 2
            store.finish_round(ids, buf)
        merged = merge_curves(store)
        np.testing.assert_array_equal(merged[3][:, 0], [0.2, 0.5])
        np.testing.assert_array_equal(merged[5][:, 0], [0.3, 0.4])

    def test_dropped_vertex_is_an_invariant_error(self, monkeypatch):
        advance = advect._rk4_advance
        monkeypatch.setattr(advect, "_rk4_advance", lambda *args: advance(*args) - 1)
        block = rasterize_block(ConstantField((0.01, 0.0, 0.0)), (16, 16, 16), (0, 0, 0), (16, 16, 16))
        with pytest.raises(InvariantError, match="logged 2 vertices for 3 accepted steps"):
            run_one_round(block, queue_of([[0.5, 0.5, 0.5]], 3), 0.001)

    def test_log_one_slot_short_is_an_invariant_error(self):
        block = rasterize_block(ConstantField((0.01, 0.0, 0.0)), (16, 16, 16), (0, 0, 0), (16, 16, 16))
        queue = queue_of([[0.5, 0.5, 0.5]], 3)
        buf = CurveStore().allocate(RoundInfo(capacity=2))
        with pytest.raises(InvariantError, match="round log is full"):
            integrate(block, queue, buf, 0.001)
