import copy
import ctypes
import json
import mmap
import os
import re
import signal
import subprocess
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from particle_rows import subset
from diffadvect import advect
from diffadvect.advect import (
    CHUNK,
    KERNEL_FLAGS,
    KERNEL_SOURCE,
    LANES,
    STATUS_EXITED,
    STATUS_OOB,
    STATUS_TERMINATED,
    CurveRecord,
    CurveStore,
    GroupOutcome,
    RoundInfo,
    build_kernel,
    export_curves,
    integrate,
    integrate_group,
    kernel_bounds,
    kernel_name,
    load_kernel,
    merge_curves,
    read_curves,
    rk4_step,
)
from diffadvect.errors import InvariantError
from diffadvect.field import _EPS, AnalyticField, Block, lattice_spacing, rasterize_block, rasterize_global
from diffadvect.particles import ParticleSet, concat_particles


class ConstantField:
    def __init__(self, v):
        self.v = np.asarray(v, dtype=np.float64)

    def components(self, x, y, z):
        return tuple(self.v)


class Swirl:
    """A fast rotation about the z axis plus a slow drift in z."""

    def components(self, x, y, z):
        return 4.0 * -(y - 0.5), 4.0 * (x - 0.5), 4.0 * 0.1


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


def every(pset):
    """The index of every row of ``pset``, in order."""
    return np.arange(len(pset))


def read_rows(outcome, table, rows):
    """``outcome`` with the final ``pos`` and ``remaining`` of rows ``rows``, read from the table they advanced in."""
    return SimpleNamespace(**vars(outcome), pos=table.pos[rows], remaining=table.remaining[rows])


def advance(run, block, pset, log, h, rows=None, **kwargs):
    """``run`` (the kernel's :func:`integrate_group` or the reference) over rows ``rows`` of ``pset``, by default
    every row, advanced in place; its outcome with the rows' final positions and budgets (:func:`read_rows`)."""
    rows = every(pset) if rows is None else rows
    return read_rows(run(block, pset, rows, log, h, **kwargs), pset, rows)


def run_one_round(block, queue, h):
    info = round_info(queue)
    store = CurveStore()
    log = store.allocate(info)
    outcome, work = integrate(block, queue, every(queue), log, h)
    store.finish_round(queue.ids, every(queue), outcome, log)
    return info, store, log, read_rows(outcome, queue, every(queue)), work


def written(steps, start=None):
    """An outcome holding only what ``finish_round`` reads: each row's steps and the slot its run starts at,
    by default the exclusive cumulative sum of the steps."""
    steps = np.asarray(steps, dtype=np.int64)
    start = np.cumsum(steps) - steps if start is None else np.asarray(start, dtype=np.int64)
    n = len(steps)
    return GroupOutcome(status=np.zeros(n, dtype=np.int64), exit_dir=np.full(n, -1, dtype=np.int64), steps=steps,
                        start=start)


def row_bounds(block, home):
    """``block``'s bounds row by row for rows of homes ``home``: ``table[home]``, or the one extent for every row."""
    if block.origin.ndim == 1:
        return block
    return Block(block.lattice, block.spacing, block.origin[home], block.core_dims[home])


def owned_mask(block, points):
    """True where a point lies in its row's half-open core ``[origin, origin + core_dims)``."""
    g = block.to_g(points)
    return np.all((g >= block.origin) & (g < block.origin + block.core_dims), axis=-1)


def reference_integrate_group(block, table, index, log, h):
    """The numpy loop the kernel replaced: one vectorized step of every active row per pass.

    It gathers rows ``index`` of ``table``, advances the copy and writes its
    ``pos`` and ``remaining`` back, so the table ends as the kernel leaves it.
    Each row's bounds are built here, as ``table[home]`` (:func:`row_bounds`).
    Its passes interleave the rows, so it keeps each vertex's row and sorts
    the log by row (stably) at the end: each row's vertices as one run in step
    order, the runs back to back, so a row's run starts at the exclusive
    cumulative sum of the steps. Like the kernel's call, it leaves the log
    read-only.
    """
    pset = subset(table, index)
    n = len(pset)
    pos = pset.pos.copy()
    rem = pset.remaining.copy()
    status = np.zeros(n, dtype=np.int64)
    exit_dir = np.full(n, -1, dtype=np.int64)
    steps = np.zeros(n, dtype=np.int64)
    rows, size = [], 0
    active = np.nonzero(rem > 0)[0]
    status[rem <= 0] = STATUS_TERMINATED
    while active.size:
        newpos, ok, sdirs = advect._block_step(row_bounds(block, pset.home[active]), pos[active], h)
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
            rows.append(moved)
            if log is not None:
                log[size:size + moved.size] = newpos
            size += moved.size
            steps[moved] += 1
            rem[moved] -= 1
            done = rem[moved] == 0
            status[moved[done]] = STATUS_TERMINATED
            moved = moved[~done]
        if moved.size:
            owned = owned_mask(row_bounds(block, pset.home[moved]), pos[moved])
            left = moved[~owned]
            if left.size:
                status[left] = STATUS_OOB
                core = row_bounds(block, pset.home[left])
                exit_dir[left] = advect._exit_directions(block.to_g(pos[left]), core.origin,
                                                         core.origin + core.core_dims)
            moved = moved[owned]
        active = moved
    if log is not None:
        order = np.argsort(np.concatenate([np.zeros(0, dtype=np.int64)] + rows), kind="stable")
        log[:size] = log[order]
        log.setflags(write=False)
    table.pos[index], table.remaining[index] = pos, rem
    return GroupOutcome(status=status, exit_dir=exit_dir, steps=steps, start=np.cumsum(steps) - steps)


def random_world(rng, n, res, shared=False):
    """A random padded lattice, a table of random rank bounds, and ``n`` rows, each starting in its home's core.

    Unshared, the table has ``n`` ranks and row ``i``'s home is rank ``i``;
    shared, it has about ``n / 3`` ranks (at least one) and every row draws its
    home, so ranks hold several rows or none. Velocities lie in [-1, 1] per
    component, so a step of ``h`` moves at most ``h * (res - 1)`` voxels per axis.
    """
    lattice = rng.uniform(-1.0, 1.0, (res + 2,) * 3 + (3,))
    lattice.setflags(write=False)
    spacing = lattice_spacing((res,) * 3)
    ranks = max(n // 3, 1) if shared else n
    ends = np.sort(rng.integers(0, res, (ranks, 3, 2)), axis=-1)  # first and last core node per axis
    origin, core = ends[..., 0], ends[..., 1] - ends[..., 0] + 1
    home = rng.integers(0, ranks, n) if shared else np.arange(n)
    g = np.minimum(origin[home] + rng.random((n, 3)) * core[home], res - 1)
    pset = ParticleSet.make(np.arange(n), g * spacing, rng.integers(0, 25, n), home)
    return Block(lattice, spacing, origin, core), pset


def kernel_sample(block, home, points):
    """The kernel's trilinear sampler at ``points``, each row against its home's bounds."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    out = np.empty_like(points)
    advect.KERNEL.rk4_sample(len(points), *kernel_bounds(block, home), points.ctypes, out.ctypes)
    return out


def compile_kernel(flags, out, *extra):
    """gcc's build of the kernel source with ``flags`` and ``extra`` into the library ``out``."""
    command = ["gcc", *flags, *extra, str(KERNEL_SOURCE), "-o", str(out), "-lm"]
    return subprocess.run(command, capture_output=True, text=True)


# the kernel's flags without -mavx: the build a CPU without AVX runs
DEFAULT_FLAGS = tuple(flag for flag in KERNEL_FLAGS if flag != "-mavx")


def kernel_reach(block, home, points):
    """The kernel's reach test: the first row of ``points`` outside its home's sampling extent, or -1."""
    points = np.ascontiguousarray(points, np.float64)
    return advect.KERNEL.rk4_reach(len(points), *kernel_bounds(block, home), points.ctypes)


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
    """Both integrations of ``pset`` with curves on, as (outcome, archived pieces) pairs."""
    results = []
    for run in (integrate_group, reference_integrate_group):
        store = CurveStore()
        log = store.allocate(round_info(pset))
        outcome = advance(run, block, copy.deepcopy(pset), log, h)
        store.finish_round(pset.ids, every(pset), outcome, log)
        results.append((outcome, list(store.pieces())))
    return results


SHARED = pytest.mark.parametrize("shared", [False, True], ids=["row-per-rank", "shared-ranks"])


class TestKernelEqualsReference:
    @SHARED
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 200), st.sampled_from([0.01, 0.05, 0.2]))
    def test_outcome_and_segments_bit_for_bit(self, shared, seed, n, h):
        block, pset = random_world(np.random.default_rng(seed), n, 12, shared)
        (got, got_segments), (want, want_segments) = kernel_and_reference(block, pset, h)
        for name in ("status", "exit_dir", "pos", "remaining", "steps"):
            assert getattr(got, name).dtype == getattr(want, name).dtype, name
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert [pid for pid, _ in got_segments] == [pid for pid, _ in want_segments]
        for (_, a), (_, b) in zip(got_segments, want_segments):
            assert a.tobytes() == b.tobytes()
        off = advance(integrate_group, block, copy.deepcopy(pset), None, h)  # curves off: the kernel only counts
        for name in ("pos", "steps", "start"):
            assert getattr(off, name).tobytes() == getattr(got, name).tobytes(), name

    @SHARED
    def test_random_worlds_reach_every_event(self, shared):
        # The property test's draws reach every event. Core exits through an upper face are
        # rare (a few per thousand rows): the sampling extent ends on that face, so all four
        # stage points must stay inside while the step lands beyond it.
        rng = np.random.default_rng(0)
        stages, faces, exited, zero_budgets = set(), set(), 0, 0
        for h in (0.01, 0.05, 0.2):
            block, pset = random_world(rng, 1000, 12, shared)
            (out, segments), (want, _) = kernel_and_reference(block, pset, h)
            assert out.pos.tobytes() == want.pos.tobytes() and out.exit_dir.tobytes() == want.exit_dir.tobytes()
            rows = row_bounds(block, pset.home)
            core_exit = (out.status == STATUS_OOB) & (out.steps > 0) & ~owned_mask(rows, out.pos)
            rejected = (out.status == STATUS_OOB) & ~core_exit
            stage = first_bad_stage(rows, out.pos, h)
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

    def test_a_lower_face_point_does_not_tie_with_the_face_it_crossed(self):
        # The step lands on the +y face (overshoot 0, outside) at x on the -x face (overshoot 0, inside).
        block = rasterize_block(ConstantField((0.0, 1.0, 0.0)), (9, 9, 9), (0, 0, 0), (9, 5, 9))
        pset = queue_of([[0.0, 0.5625, 0.5]], 5)
        (got, _), (want, _) = kernel_and_reference(block, pset, 0.0625)
        assert got.status[0] == want.status[0] == STATUS_OOB
        assert got.exit_dir[0] == want.exit_dir[0] == 3
        assert got.steps[0] == want.steps[0] == 1

    @SHARED
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_sampler_equals_sample_clamped(self, shared, seed, n):
        # 9 nodes per axis: spacing 1/8, so g = p / spacing is exact and points land on the faces
        rng = np.random.default_rng(seed)
        table, pset = random_world(rng, n, 9, shared)
        block = row_bounds(table, pset.home)
        lo, hi = block.sample_bounds()
        g = lo + rng.random((n, 3)) * (hi - lo)
        snap = rng.integers(0, 3, (n, 3))  # 0 keeps the draw; 1 and 2 move it onto the lo and hi face
        g = np.where(snap == 1, lo, np.where(snap == 2, hi, g))
        points = g * block.spacing
        assert (block.to_g(points) == g).all()
        assert kernel_sample(table, pset.home, points).tobytes() == block.sample_clamped(points).tobytes()

    def test_sample_on_the_high_face_is_the_top_node(self):
        block, pset = random_world(np.random.default_rng(0), 1, 9)
        top = block.origin[0] + block.core_dims[0]  # sample_bounds' hi: the clamp moves the cell down one
        got = kernel_sample(block, pset.home, (top * block.spacing)[np.newaxis])
        assert got.tobytes() == block.sample_clamped((top * block.spacing)[np.newaxis]).tobytes()
        np.testing.assert_array_equal(got[0], block.lattice[tuple(top + 1)])

    def test_sampler_equals_sample_clamped_at_the_edges(self):
        # Every face of each rank's closed extent, and g in (-1, 0), where floor is not truncation; the
        # top cell of rank 1, whose core ends at the ghost layer, so its last corner is the lattice's last
        # node; and -0.0, where numpy's frac is -0.0, so at node 0, which holds -0.0, the lerps' zeros
        # keep their sign. rk4_sample runs the workers' sampler, from the one build in the library.
        res = 9  # spacing 1/8, so g = p / spacing is exact
        lattice = np.random.default_rng(6).uniform(-1.0, 1.0, (res + 2,) * 3 + (3,))
        lattice[1, 1, 1] = -0.0
        lattice.setflags(write=False)
        table = Block(lattice, lattice_spacing((res,) * 3), np.array([[0] * 3, [4] * 3]), np.array([[4] * 3, [5] * 3]))
        assert (table.origin[1] + table.core_dims[1] == np.array(lattice.shape[:3]) - 2).all()
        lo, hi = table.sample_bounds()
        steps = np.stack(np.meshgrid(*[[0.0, 0.1, 0.5, 1.0]] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
        g = np.concatenate([lo[0] + steps * (hi[0] - lo[0]), lo[1] + steps * (hi[1] - lo[1]), res - 1 + steps,
                            [[-0.0, -0.0, -0.0], [1.0, -0.0, 0.5]]])
        home = np.repeat([0, 1, 1, 0], [64, 64, 64, 2])
        points = g * table.spacing
        assert (row_bounds(table, home).to_g(points) == g).all() and np.signbit(points[-2:]).sum() == 4
        assert kernel_sample(table, home, points).tobytes() == row_bounds(table, home).sample_clamped(points).tobytes()

    def test_reach_is_the_first_row_the_reference_mask_rejects(self):
        # 33 nodes per axis: spacing 1/32, so g = p / spacing is exact
        rng = np.random.default_rng(3)
        table, pset = random_world(rng, 24, 33, shared=True)
        lo, hi = (b * table.spacing for b in row_bounds(table, pset.home).sample_bounds())
        faces = []  # one float inside, on and one float outside each face of each row's extent
        for a in range(3):
            for bound, outward in ((lo[:, a], -np.inf), (hi[:, a], np.inf)):
                for p_a in (np.nextafter(bound, -outward), bound, np.nextafter(bound, outward)):
                    p = (lo + hi) / 2
                    p[:, a] = p_a
                    faces.append(p)
        random = lo - table.spacing + rng.random(lo.shape) * (hi - lo + 2 * table.spacing)
        home = np.tile(pset.home, len(faces) + 1)
        points = np.concatenate(faces + [random])
        reached = row_bounds(table, home).samplable_mask(points)
        assert reached.sum() == 2 * 6 * len(pset) + reached[-len(pset):].sum() and not reached[-len(pset):].all()
        for i in range(len(points)):  # each point alone
            assert kernel_reach(table, home[i:i + 1], points[i:i + 1]) == (-1 if reached[i] else 0)
        inside = np.flatnonzero(reached)
        assert kernel_reach(table, home[inside], points[inside]) == -1
        for _ in range(20):  # the reached rows with one rejected row among them, then any order of every row
            rows = np.insert(inside, k := rng.integers(0, inside.size + 1), rng.choice(np.flatnonzero(~reached)))
            assert kernel_reach(table, home[rows], points[rows]) == k
            rows = rng.permutation(len(points))
            assert kernel_reach(table, home[rows], points[rows]) == np.argmin(reached[rows])
        assert kernel_reach(table, home[:0], points[:0]) == -1


def gapped_table(rng, pset):
    """``pset``'s rows shuffled into a table of twice as many, among gap rows (copies of them under other ids),
    and a permuted index of them: table row ``rows[i]`` holds row ``order[i]`` of ``pset``."""
    n = len(pset)
    gaps = copy.deepcopy(pset)
    gaps.ids += n
    table = concat_particles([pset, gaps])
    shuffle = rng.permutation(2 * n)
    table.compact(shuffle)
    order = rng.permutation(n)
    return table, np.argsort(shuffle)[order], order


def table_bytes(pset):
    """The bytes of each column of the table ``pset``, by name."""
    return {name: getattr(pset, name).tobytes() for name in ("ids", "pos", "remaining", "home")}


def refused_case(case, pset):
    """A row index of every row of ``pset`` that ``case`` breaks, after ``case`` breaks ``pset``'s columns."""
    rows, n = every(pset), len(pset)
    if case == "strided-pos":
        pset.pos = np.repeat(pset.pos, 2, axis=0)[::2]
    elif case == "fortran-pos":
        pset.pos = np.asfortranarray(pset.pos)
    elif case == "float32-pos":
        pset.pos = pset.pos.astype(np.float32)
    elif case == "read-only-pos":
        pset.pos.setflags(write=False)
    elif case == "int32-remaining":
        pset.remaining = pset.remaining.astype(np.int32)
    elif case == "strided-remaining":
        pset.remaining = np.repeat(pset.remaining, 2)[::2]
    elif case == "short-home":
        pset.home = pset.home[:-1]
    return {"int32-index": rows.astype(np.int32), "2-d-index": rows.reshape(1, n), "list-index": rows.tolist(),
            "negative-row": np.r_[rows[:-1], -1], "row-past-the-end": np.r_[rows[:-1], n],
            "strided-index": np.repeat(rows, 2)[::2], "reversed-index": rows[::-1],
            "repeated-row": np.r_[rows[:-1], 0]}.get(case, rows)


# each refused case, and what its error says
REFUSALS = {**dict.fromkeys(("int32-index", "2-d-index", "list-index", "negative-row", "row-past-the-end",
                             "strided-index", "reversed-index"), "not a C-contiguous 1-D int64 array of rows"),
            "repeated-row": "repeats a row",
            **dict.fromkeys(("strided-pos", "fortran-pos", "float32-pos", "read-only-pos", "int32-remaining",
                             "strided-remaining", "short-home"), "table is not n rows of writable C-contiguous")}


class TestRowIndex:
    @SHARED
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 200), st.sampled_from([0.01, 0.05, 0.2]))
    def test_a_permuted_gapped_index_gives_each_row_the_identity_outcome(self, shared, seed, n, h):
        rng = np.random.default_rng(seed)
        block, pset = random_world(rng, n, 12, shared)
        table, rows, order = gapped_table(rng, pset)
        gaps, before = np.delete(np.arange(2 * n), rows), copy.deepcopy(table)
        outcomes = []
        for world, index in ((copy.deepcopy(pset), every(pset)), (table, rows)):
            store = CurveStore()
            log = store.allocate(RoundInfo(capacity=int(world.remaining[index].sum())))
            outcomes.append(advance(integrate_group, block, world, log, h, rows=index))
            store.finish_round(world.ids, index, outcomes[-1], log)
            outcomes.append({pid: piece.tobytes() for pid, piece in store.pieces()})
        want, want_pieces, got, got_pieces = outcomes
        for name in ("status", "exit_dir", "pos", "remaining", "steps"):
            assert getattr(got, name).tobytes() == getattr(want, name)[order].tobytes(), name
        assert got_pieces == want_pieces
        for name in ("ids", "pos", "remaining", "home"):  # the gap rows are as they were
            assert getattr(table, name)[gaps].tobytes() == getattr(before, name)[gaps].tobytes(), name

    @pytest.mark.parametrize("curves", [False, True], ids=["curves-off", "curves-on"])
    def test_rows_outside_the_index_stay_bit_identical(self, curves):
        # every third row of a world whose rows all have budgets and would move if advanced
        block, pset = random_world(np.random.default_rng(8), 3 * LANES * CHUNK + 5, 12, shared=True)
        pset.remaining[:] = 20
        rows, before = np.arange(0, len(pset), 3)[::-1].copy(), copy.deepcopy(pset)
        log = CurveStore().allocate(RoundInfo(capacity=20 * len(rows))) if curves else None
        out = integrate_group(block, pset, rows, log, 0.05)
        assert out.steps.sum() > 0 and (pset.pos[rows] != before.pos[rows]).any()
        others = np.delete(np.arange(len(pset)), rows)
        for name in ("ids", "pos", "remaining", "home"):
            assert getattr(pset, name)[others].tobytes() == getattr(before, name)[others].tobytes(), name

    @pytest.mark.parametrize("case", REFUSALS)
    def test_a_refused_index_or_table_is_left_as_it_was(self, case):
        block, pset = random_world(np.random.default_rng(9), 2 * CHUNK + 1, 12, shared=True)
        rows = refused_case(case, pset)
        before, log = table_bytes(pset), CurveStore().allocate(round_info(pset))
        with pytest.raises(InvariantError, match=REFUSALS[case]):
            integrate_group(block, pset, rows, log, 0.05)
        assert table_bytes(pset) == before
        assert log.flags.writeable and not log.any()

    def test_a_table_made_from_a_transposed_pos_advances_as_a_contiguous_one(self):
        block = rasterize_block(Swirl(), (16, 16, 16), (0, 0, 0), (16, 16, 16))
        pos = np.random.default_rng(10).uniform(0.3, 0.7, (3, 5)).T
        assert not pos.flags.c_contiguous
        tables = [ParticleSet.make(np.arange(5), p, np.full(5, 30), np.zeros(5)) for p in (pos, pos.copy())]
        assert all(column.flags.c_contiguous for column in (tables[0].pos, tables[0].remaining))
        outs = [integrate_group(block, table, every(table), None, 0.001) for table in tables]
        assert (outs[0].steps > 0).all() and outs[0].steps.tobytes() == outs[1].steps.tobytes()
        assert table_bytes(tables[0]) == table_bytes(tables[1])


def kernel_arrays(pos, remaining):
    """The kernel's in-place outcome arrays for rows at ``pos`` with budgets ``remaining``."""
    n = len(pos)
    return dict(pos=np.array(pos, dtype=np.float64), remaining=np.array(remaining, dtype=np.int64),
                status=np.zeros(n, dtype=np.int64), exit_dir=np.full(n, -1, dtype=np.int64),
                steps=np.zeros(n, dtype=np.int64))


def drift_world(n, budget):
    """``n`` rows of a constant +x field over one whole-domain block, each leaving the domain
    within 500 steps of 0.001 from its start in the upper half, well short of ``budget``."""
    block = rasterize_block(ConstantField((1.0, 0.0, 0.0)), (32, 32, 32), (0, 0, 0), (32, 32, 32))
    pos = np.random.default_rng(7).uniform(0.5, 1.0, (n, 3))
    return block, queue_of(pos, budget)


def smaps_fields(start, end):
    """The ``/proc/self/smaps`` fields, in kB, summed over the mappings that overlap ``[start, end)``."""
    fields, overlaps = {}, False
    with open("/proc/self/smaps") as fh:
        for line in fh:
            head = line.split()[0]
            if not head.endswith(":"):  # a mapping's address range
                lo, hi = (int(x, 16) for x in head.split("-"))
                overlaps = lo < end and start < hi
            elif overlaps and line.split()[-1] == "kB":
                fields[head[:-1]] = fields.get(head[:-1], 0) + int(line.split()[1])
    return fields


def proc_status(tid):
    """The fields of thread ``tid``'s ``/proc/self/task/<tid>/status``, as strings."""
    with open(f"/proc/self/task/{tid}/status") as fh:
        return dict(line.rstrip("\n").split(":\t", 1) for line in fh if ":\t" in line)


class TestLanes:
    def test_one_call_equals_one_row_calls(self):
        # more workers than CPUs, too, so lanes of several threads claim the chunks
        workers = sorted({1, 2, 3, len(os.sched_getaffinity(0)) + 1})
        rng = np.random.default_rng(3)
        statuses = set()
        # a call runs one worker per LANES chunks at most, so only the last two run several
        for n in (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5, 2 * LANES * CHUNK, 3 * LANES * CHUNK + 5):
            block, pset = random_world(rng, n, 12)
            pset.remaining[::3] = 0  # every chunk holds zero-budget rows
            alone, outs, table = CurveStore(), [], copy.deepcopy(pset)
            for i in range(n):  # each row advanced alone, in place, in one table
                one_log = alone.allocate(RoundInfo(capacity=int(pset.remaining[i])))
                outs.append(advance(integrate_group, block, table, one_log, 0.05, rows=np.array([i]), workers=1))
                alone.finish_round(pset.ids, np.array([i]), outs[-1], one_log)
            for count in workers:
                whole = CurveStore()
                log = whole.allocate(round_info(pset))
                got = advance(integrate_group, block, copy.deepcopy(pset), log, 0.05, workers=count)
                whole.finish_round(pset.ids, every(pset), got, log)
                for name in ("status", "exit_dir", "pos", "remaining", "steps"):
                    want = np.concatenate([getattr(out, name) for out in outs])
                    assert getattr(got, name).tobytes() == want.tobytes(), (n, count, name)
                got_pieces, want_pieces = list(whole.pieces()), list(alone.pieces())
                assert [pid for pid, _ in got_pieces] == [pid for pid, _ in want_pieces]
                for (_, a), (_, b) in zip(got_pieces, want_pieces):
                    assert a.tobytes() == b.tobytes()
                # each chunk's region starts at the summed budgets of the rows before the chunk,
                # and a row's run after the steps of the chunk's earlier rows
                first = np.arange(n) // CHUNK * CHUNK
                before = np.cumsum(got.steps) - got.steps
                base = np.cumsum(np.r_[0, pset.remaining])[first]
                np.testing.assert_array_equal(got.start, base + before - before[first])
                statuses |= set(got.status.tolist())
        assert statuses == {STATUS_OOB, STATUS_TERMINATED, STATUS_EXITED}

    @pytest.mark.parametrize("fault", ["start-outside", "log-full"])
    def test_errors_are_raised_before_any_row_advances(self, fault):
        block, pset = random_world(np.random.default_rng(4), 2 * CHUNK + 1, 12)
        remaining = np.full(len(pset), 5)
        pos, capacity = pset.pos.copy(), int(remaining.sum())
        if fault == "start-outside":  # the last row, alone in the last chunk, starts below its sampling extent
            pos[-1] = (block.origin[-1] - 1.5) * block.spacing
        else:
            capacity -= 1
        arrays = kernel_arrays(pos, remaining)
        before = {name: a.copy() for name, a in arrays.items()}
        vertices, start = np.full((capacity, 3), np.nan), np.full(len(pset), -1, dtype=np.int64)
        outcome = (arrays[name].ctypes for name in ("pos", "remaining", "status", "exit_dir", "steps"))
        rows = every(pset)
        code = advect._rk4_advance(len(pset), *kernel_bounds(block, pset.home), 0.05, rows.ctypes, *outcome,
                                   vertices.ctypes, capacity, start.ctypes, 3)
        assert code == (-2 if fault == "start-outside" else -1)
        for name, a in arrays.items():
            assert a.tobytes() == before[name].tobytes(), name
        assert np.isnan(vertices).all()
        # the prepass writes only chunk bases; no lane recorded a row's start
        assert (np.delete(start, np.arange(0, len(pset), CHUNK)) == -1).all()

    @pytest.mark.parametrize("home", [-1, "ranks"])
    def test_a_home_outside_the_table_is_refused_before_the_kernel_reads_through_it(self, home):
        block, pset = random_world(np.random.default_rng(5), 2 * CHUNK + 1, 12, shared=True)
        pset.home[-1] = len(block.origin) if home == "ranks" else home
        before = copy.deepcopy(pset)
        log = CurveStore().allocate(round_info(pset))
        with pytest.raises(InvariantError, match="a home outside the bounds table"):
            integrate_group(block, pset, every(pset), log, 0.05)
        assert log.flags.writeable and not log.any()
        for name in ("pos", "remaining", "home"):
            assert getattr(pset, name).tobytes() == getattr(before, name).tobytes(), name
        with pytest.raises(InvariantError, match="a home outside the bounds table"):
            kernel_sample(block, pset.home, pset.pos)

    def test_a_table_is_checked_once_and_a_bad_one_refused_on_every_call(self):
        block, pset = random_world(np.random.default_rng(5), 2 * CHUNK + 1, 12, shared=True)
        first, again = kernel_bounds(block, pset.home), kernel_bounds(block, pset.home[::-1])
        assert all(a is b for a, b in zip(first[:6], again[:6]))  # the block's arguments are built once
        bad = Block(block.lattice, block.spacing, block.origin, 13 - block.origin)  # each core ends past the ghost layer
        for _ in range(2):
            with pytest.raises(InvariantError, match="block bounds outside"):
                kernel_bounds(bad, pset.home)

    @pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="needs Linux /proc/self/smaps")
    def test_log_is_resident_only_where_written(self):
        # a 25 MB log of which about 3 MB is written; huge pages would make whole 2 MB pages
        # resident around every chunk's write frontier
        block, pset = drift_world(1024, 2000)
        log = CurveStore().allocate(round_info(pset))
        out = integrate_group(block, pset, every(pset), log, 0.001, workers=2)
        base, size, page = log.ctypes.data, log.nbytes, mmap.PAGESIZE
        touched = set()
        for start, steps in zip(out.start.tolist(), out.steps.tolist()):
            if steps:
                touched |= set(range((base + 12 * start) // page, (base + 12 * (start + steps) - 1) // page + 1))
        assert smaps_fields(base, base + size)["AnonHugePages"] == 0
        # the log's own resident pages: its mapping can merge with a neighbour, such as a thread stack
        mincore = ctypes.CDLL(None).mincore
        mincore.argtypes, mincore.restype = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p], ctypes.c_int
        pages = np.zeros(-(-size // page), dtype=np.uint8)
        assert mincore(base, size, pages.ctypes.data) == 0
        resident = set((np.flatnonzero(pages & 1) + base // page).tolist())
        assert resident <= touched
        assert len(touched) * page <= 12 * int(out.steps.sum()) + 2 * page * -(-len(pset) // CHUNK)

    def test_signals_reach_the_caller_during_a_multi_worker_call(self):
        block, pset = drift_world(2048, 2000)
        want = advance(integrate_group, block, copy.deepcopy(pset), CurveStore().allocate(round_info(pset)), 0.001,
                       workers=1)
        caught = []
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: caught.append(signum))
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.001, 0.001)  # as perfbench's host-speed probe arms it
            got = advance(integrate_group, block, copy.deepcopy(pset), CurveStore().allocate(round_info(pset)), 0.001,
                          workers=3)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert caught
        for name in ("status", "exit_dir", "pos", "remaining", "steps"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.skipif(not os.path.exists("/proc/self/task"), reason="needs Linux /proc/self/task")
    def test_helpers_block_signals_and_keep_the_callers_cpus(self):
        # a thread watches /proc while the call runs (ctypes releases the GIL) and records every
        # read of a thread the call started: its blocked-signal mask and the CPUs it may run on.
        # glibc creates a thread with every signal blocked, its internal 32 and 33 too, before the
        # thread takes its creator's mask, in which pthread_sigmask never blocks those two: a read
        # with both blocked was taken in that window, before the helper's code ran
        glibc_internal = 1 << 31 | 1 << 32
        block, pset = drift_world(2048, 2000)
        before, reads, done = set(os.listdir("/proc/self/task")), [], threading.Event()
        callers_cpus = proc_status(threading.get_native_id())["Cpus_allowed_list"]

        def watch():
            while not done.is_set():
                for tid in set(os.listdir("/proc/self/task")) - before - {str(threading.get_native_id())}:
                    try:
                        fields = proc_status(tid)
                    except OSError:  # the helper has ended
                        continue
                    mask = int(fields["SigBlk"], 16)
                    # Threads is 0 once an exiting helper has released its signal state
                    if fields["Threads"] != "0" and mask & glibc_internal != glibc_internal:
                        reads.append((mask, fields["Cpus_allowed_list"]))

        watcher = threading.Thread(target=watch)
        watcher.start()
        try:
            integrate_group(block, pset, every(pset), CurveStore().allocate(round_info(pset)), 0.001, workers=3)
        finally:
            done.set()
            watcher.join(timeout=10)
        assert not watcher.is_alive() and reads  # at least one read of a live helper
        alarm, interrupt = 1 << (signal.SIGALRM - 1), 1 << (signal.SIGINT - 1)
        assert all(mask & alarm and mask & interrupt for mask, _ in reads)
        assert all(cpus == callers_cpus for _, cpus in reads)


class TestKernelBuild:
    def test_clean_cache_builds_a_loadable_library(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        stale, unrelated = cache / "rk4-0000000000000000.so", cache / "notes.txt"
        stale.write_bytes(b"")
        unrelated.write_text("")
        path = build_kernel(cache)
        # no temporary file or earlier library left behind, and nothing else removed
        assert sorted(cache.iterdir()) == sorted([path, unrelated])
        assert build_kernel(cache) == path
        block, pset = random_world(np.random.default_rng(1), 5, 9)
        points = (block.origin + 0.5) * block.spacing
        out = np.empty_like(points)
        load_kernel(path).rk4_sample(len(points), *kernel_bounds(block, pset.home), points.ctypes, out.ctypes)
        assert out.tobytes() == block.sample_clamped(points).tobytes()

    def test_kernel_compiles_without_warnings(self, tmp_path):
        # a stale variable or a mismatched signature left by a kernel edit fails here, in the loaded build and
        # in the one without -mavx, where a vector passed by value would raise -Wpsabi
        for flags in dict.fromkeys((KERNEL_FLAGS, DEFAULT_FLAGS)):
            done = compile_kernel(flags, tmp_path / "rk4.so", "-Wall", "-Wextra", "-Werror")
            assert done.returncode == 0, (flags, done.stderr)

    @pytest.mark.parametrize("sanitizers", ["thread", "address,undefined"])
    def test_kernel_runs_clean_under_sanitizers(self, tmp_path, sanitizers):
        # tests/rk4_harness.c drives rk4_advance on 1-4 workers, rk4_reach, rk4_sample, rk4_export,
        # rk4_toroidal, rk4_place and rk4_pad, built with the kernel's instruction set; any race, bad access,
        # leak or undefined behaviour, or a check of its own, exits non-zero
        harness = tmp_path / "harness"
        isa = [flag for flag in KERNEL_FLAGS if flag.startswith("-m")]
        command = ["gcc", "-g", "-O1", "-pthread", *isa, f"-fsanitize={sanitizers}", "-fno-sanitize-recover=all",
                   str(Path(__file__).with_name("rk4_harness.c")), str(KERNEL_SOURCE), "-o", str(harness), "-lm"]
        built = subprocess.run(command, capture_output=True, text=True)
        assert built.returncode == 0, built.stderr
        done = subprocess.run([str(harness)], capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and not done.stderr, done.stderr

    @pytest.mark.parametrize("workers", [1, 2])
    def test_default_build_equals_the_kernel_bit_for_bit(self, tmp_path, monkeypatch, workers):
        # The build without -mavx, which an AVX host never loads, must match the loaded kernel's outcome,
        # starts and log, its samples, its reach tests and its toroidal lattice exactly.
        library = tmp_path / "rk4-default.so"
        built = compile_kernel(DEFAULT_FLAGS, library)
        assert built.returncode == 0, built.stderr
        rng = np.random.default_rng(11)
        block, pset = random_world(rng, 3 * LANES * CHUNK + 5, 12, shared=True)
        # 9 nodes per axis: spacing 1/8, so g = p / spacing is exact, and a fifth of the coordinates lie on a face
        table, rows = random_world(rng, 200, 9, shared=True)
        lo, hi = row_bounds(table, rows.home).sample_bounds()
        g = np.where(rng.random(lo.shape) < 0.2, np.where(rng.random(lo.shape) < 0.5, lo, hi),
                     lo + rng.random(lo.shape) * (hi - lo))
        points, outside = g * table.spacing, g * table.spacing
        outside[100] = (lo[100] - 0.5) * table.spacing  # half a cell below its extent
        runs = []
        for kernel in (advect.KERNEL, load_kernel(library)):
            monkeypatch.setattr(advect, "_rk4_advance", kernel.rk4_advance)
            monkeypatch.setattr(advect, "KERNEL", kernel)
            log = CurveStore().allocate(round_info(pset))
            reached = [kernel_reach(table, rows.home, p) for p in (points, outside)]
            runs.append((advance(integrate_group, block, copy.deepcopy(pset), log, 0.05, workers=workers), log,
                         kernel_sample(table, rows.home, points).tobytes(), reached))
        (want, want_log, want_samples, want_reached), (got, got_log, got_samples, got_reached) = runs
        for name in ("status", "exit_dir", "pos", "remaining", "steps", "start"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got_log.tobytes() == want_log.tobytes()
        assert set(want.status.tolist()) == {STATUS_OOB, STATUS_TERMINATED, STATUS_EXITED}
        assert got_samples == want_samples
        assert got_reached == want_reached == [-1, 100]
        # both fill a toroidal lattice alike, on an odd shape with a node on the torus axis, where rho = eps
        res, params, filled = (9, 7, 5), AnalyticField("toroidal").params, []
        for kernel in (advect.KERNEL, load_kernel(library)):
            lattice = np.zeros((11, 9, 7, 3))
            vmax = kernel.rk4_toroidal(*res, lattice_spacing(res).ctypes, params["R0"], params["kappa"], _EPS,
                                       lattice.ctypes)
            filled.append((lattice.tobytes(), vmax))
        assert filled[0] == filled[1] and filled[0][1] == np.abs(lattice).max()

    def test_cache_key_follows_source_and_flags(self):
        source = KERNEL_SOURCE.read_bytes()
        name = kernel_name(source, KERNEL_FLAGS)
        assert kernel_name(source, KERNEL_FLAGS) == name
        assert kernel_name(source + b"\n", KERNEL_FLAGS) != name
        assert kernel_name(source, KERNEL_FLAGS[:-1]) != name
        assert kernel_name(source, KERNEL_FLAGS + ("-ffast-math",)) != name
        assert kernel_name(source, DEFAULT_FLAGS + ("-mavx",)) != kernel_name(source, DEFAULT_FLAGS)

    def test_flags_keep_the_kernel_bit_identical_to_numpy(self):
        # fused multiply-adds, fast-math reassociation and host-specific code generation would
        # each change the rounding of the numpy reference's operations
        assert "-ffp-contract=off" in KERNEL_FLAGS
        assert not any(flag in ("-ffast-math", "-Ofast") or flag.startswith(("-march", "-mfma"))
                       for flag in KERNEL_FLAGS)
        # the one instruction set the build may add is AVX, where the CPU lists it; it has no fused multiply-add
        # (FMA3 came after it). The source picks none itself.
        cpu = re.search(r"^flags\s*:(.*)$", Path("/proc/cpuinfo").read_text(), re.MULTILINE)
        avx = cpu is not None and "avx" in cpu.group(1).split()
        assert [flag for flag in KERNEL_FLAGS if flag.startswith("-m")] == (["-mavx"] if avx else [])
        source = KERNEL_SOURCE.read_text()
        assert not re.search(r"\btarget\s*\(", source) and "__builtin_cpu_" not in source
        assert "fmadd" not in source and not re.search(r"\bfma\s*\(", source)

    def test_missing_compiler_is_named(self, tmp_path):
        with pytest.raises(ImportError, match="no-such-cc") as info:
            build_kernel(tmp_path, compiler="no-such-cc")
        assert "no-such-cc -O3 -ffp-contract=off" in str(info.value)
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
        info, store, log, outcome, work = run_one_round(block, queue_of([[0.5, 0.5, 0.5]], 3), 0.001)
        assert outcome.status[0] == STATUS_TERMINATED
        assert work == 3 and outcome.start.tolist() == [0]
        assert [pid for pid, _ in store.pieces()] == [0]
        want = 0.5 + 0.01 * 0.001 * np.arange(1, 4)
        np.testing.assert_allclose(outcome.pos[0], [want[-1], 0.5, 0.5], rtol=1e-12)
        # each logged vertex is the float32 cast of its float64 position
        np.testing.assert_array_equal(log[:3], np.column_stack([want, [0.5] * 3, [0.5] * 3]).astype(np.float32))

    def test_exits_plus_x_face_in_expected_steps(self):
        block = rasterize_block(ConstantField((1.0, 0.0, 0.0)), (16, 16, 16), (0, 0, 0), (8, 16, 16))
        # core region ends at x = 8/15; start two-ish steps short of it
        x0 = 8 / 15 - 0.0022
        info, store, log, outcome, work = run_one_round(block, queue_of([[x0, 0.5, 0.5]], 1000), 0.001)
        assert outcome.status[0] == STATUS_OOB
        assert outcome.exit_dir[0] == 1  # +x
        assert work <= int(np.ceil(0.0022 / 0.001)) + 1

    def test_two_runs_bit_identical(self):
        block = rasterize_block(ConstantField((0.3, 0.2, -0.1)), (16, 16, 16), (0, 0, 0), (16, 16, 16))
        q = queue_of(np.random.default_rng(5).uniform(0.3, 0.7, (20, 3)), 50)
        _, _, log1, out1, work1 = run_one_round(block, copy.deepcopy(q), 0.001)
        _, _, log2, out2, work2 = run_one_round(block, copy.deepcopy(q), 0.001)
        assert work1 == work2 > 0
        np.testing.assert_array_equal(out1.start, out2.start)
        for start, steps in zip(out1.start, out1.steps):
            np.testing.assert_array_equal(log1[start:start + steps], log2[start:start + steps])
        np.testing.assert_array_equal(out1.pos, out2.pos)

    def test_domain_exit_terminates_without_vertex(self):
        block = rasterize_block(ConstantField((-1.0, 0.0, 0.0)), (16, 16, 16), (0, 0, 0), (16, 16, 16))
        info, store, log, outcome, work = run_one_round(block, queue_of([[0.0004, 0.5, 0.5]], 1000), 0.001)
        assert outcome.status[0] == STATUS_EXITED
        assert work == 0 and list(store.pieces()) == []  # the crossing step is rejected, not recorded

    def test_lifetime_step_budget_respected(self):
        block = rasterize_block(ConstantField((0.05, 0.02, 0.01)), (16, 16, 16), (0, 0, 0), (16, 16, 16))
        info, store, log, outcome, work = run_one_round(block, queue_of([[0.1, 0.1, 0.1]], 40), 0.001)
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
        world = concat_particles(sets)
        separate, curves = [], CurveStore()
        for block, pset in zip(blocks, sets):
            log = CurveStore().allocate(round_info(pset))
            separate.append(advance(integrate_group, block, pset, log, 0.001))
            curves.finish_round(pset.ids, every(pset), separate[-1], log)

        world_log = CurveStore().allocate(round_info(world))
        table = Block(blocks[0].lattice, blocks[0].spacing,
                      np.array([b.origin for b in blocks]), np.array([b.core_dims for b in blocks]))
        batched = advance(integrate_group, table, world, world_log, 0.001)
        world_curves = CurveStore()
        world_curves.finish_round(world.ids, every(world), batched, world_log)

        for name in ("status", "exit_dir", "pos", "remaining", "steps"):
            expected = np.concatenate([getattr(out, name) for out in separate])
            assert getattr(batched, name).tobytes() == expected.tobytes(), name
        got_pieces, want_pieces = list(world_curves.pieces()), list(curves.pieces())
        assert [pid for pid, _ in got_pieces] == [pid for pid, _ in want_pieces]
        for (_, got), (_, want) in zip(got_pieces, want_pieces):
            assert got.tobytes() == want.tobytes()
        oob = batched.status == STATUS_OOB
        inside = owned_mask(row_bounds(table, world.home), batched.pos)
        assert (oob & inside).any()   # a stage point left the sampling extent: step rejected
        assert (oob & ~inside).any()  # the accepted step left the core


class TestCurveStore:
    def test_finish_round_archives_each_written_prefix(self):
        # rows 0-1 and 2-4 are two chunks with budgets (3, 2) and (4, 1, 2); each chunk writes a
        # prefix of its region, one run per row in row order; -1 marks unwritten slots
        rows = np.array([1, 1, -1, -1, -1, 2, 2, 2, 2, 4, -1, -1])
        log = np.column_stack([np.arange(12.0), rows, rows]).astype(np.float32)
        log.setflags(write=False)  # as the kernel's call leaves it
        store = CurveStore()
        # entry i of the round is row 4 - i of a table whose ids run down from 14
        store.finish_round(np.arange(14, 9, -1), np.arange(4, -1, -1), written([0, 2, 4, 0, 1], [0, 0, 5, 9, 9]), log)
        [record] = store.records  # one record for the round, holding the moved rows only
        assert (record.ids.tolist(), record.start.tolist(), record.steps.tolist()) == ([11, 12, 14], [0, 5, 9],
                                                                                     [2, 4, 1])
        assert record.log is log and not log.flags.writeable
        assert not any(column.flags.writeable for column in (record.ids, record.start, record.steps))
        pieces = list(store.pieces())
        assert [pid for pid, _ in pieces] == [11, 12, 14]
        for (_, got), row in zip(pieces, (1, 2, 4)):
            np.testing.assert_array_equal(got[:, 0], np.flatnonzero(rows == row))
            assert (got[:, 1] == row).all()
        for _, got in pieces:  # a read-only view of the log, at its row's run (checked above)
            assert np.shares_memory(got, log) and not got.flags.writeable

    def test_archived_log_is_write_once(self):
        block = rasterize_block(ConstantField((0.01, 0.0, 0.0)), (16, 16, 16), (0, 0, 0), (16, 16, 16))
        queue = queue_of([[0.5, 0.5, 0.5]], 3)
        _, store, log, _, _ = run_one_round(block, queue, 0.001)
        with pytest.raises(ValueError, match="read-only"):
            log[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            next(store.pieces())[1][:] = 0.0
        with pytest.raises(InvariantError, match="already written"):
            integrate(block, queue, every(queue), log, 0.001)

    def test_a_written_log_is_refused_before_anything_moves(self):
        block = rasterize_block(ConstantField((0.01, 0.0, 0.0)), (16, 16, 16), (0, 0, 0), (16, 16, 16))
        log = CurveStore().allocate(RoundInfo(capacity=6))
        integrate_group(block, queue_of([[0.5, 0.5, 0.5]], 3), np.arange(1), log, 0.001)
        # rows elsewhere, so a call that went ahead would write other vertices into the log
        queue = queue_of([[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]], 3)
        before, logged = copy.deepcopy(queue), log.tobytes()
        with pytest.raises(InvariantError, match="already written"):
            integrate_group(block, queue, every(queue), log, 0.001)
        for name in ("pos", "remaining"):
            assert getattr(queue, name).tobytes() == getattr(before, name).tobytes(), name
        assert log.tobytes() == logged and not log.flags.writeable

    def test_merge_keeps_only_written_vertices(self):
        block = rasterize_block(ConstantField((0.01, 0.0, 0.0)), (16, 16, 16), (0, 0, 0), (16, 16, 16))
        q = queue_of([[0.5, 0.5, 0.5]], 3)
        info, store, log, outcome, work = run_one_round(block, q, 0.001)
        assert info.capacity == 3
        curves = merge_curves(store)
        assert list(curves) == [0]
        assert curves[0].shape == (3, 3)
        assert not np.isnan(curves[0]).any()

    def test_particle_without_vertices_contributes_nothing(self):
        store = CurveStore()
        log = store.allocate(round_info(queue_of([[0.5, 0.5, 0.5]], 5)))
        store.finish_round(np.array([7]), np.arange(1), written([0]), log)  # nothing appended
        assert merge_curves(store) == {}

    def test_zero_capacity_round_logs_nothing(self):
        block = rasterize_block(ConstantField((0.01, 0.0, 0.0)), (16, 16, 16), (0, 0, 0), (16, 16, 16))
        info, store, log, outcome, work = run_one_round(block, queue_of([[0.5, 0.5, 0.5]] * 2, 0), 0.001)
        assert info.capacity == 0 and log.shape == (0, 3)
        assert work == 0 and (outcome.status == STATUS_TERMINATED).all() and list(store.pieces()) == []

    def test_merge_orders_segments_by_round(self):
        store = CurveStore()
        for ids, x in ((np.array([3, 5]), [0.2, 0.3]), (np.array([5, 3]), [0.4, 0.5])):
            log = store.allocate(round_info(queue_of(np.zeros((2, 3)), 1)))
            log[:] = np.column_stack([x, np.zeros(2), np.zeros(2)])
            store.finish_round(ids, np.arange(2), written([1, 1]), log)
        merged = merge_curves(store)
        assert merged[3].dtype == merged[5].dtype == np.float32
        np.testing.assert_array_equal(merged[3][:, 0], np.float32([0.2, 0.5]))
        np.testing.assert_array_equal(merged[5][:, 0], np.float32([0.3, 0.4]))

    @pytest.mark.parametrize("start, steps", [([0, 4], [4, 3]), ([0, 6], [4, 1]), ([-1, 4], [2, 2])],
                             ids=["runs-past-the-end", "starts-past-the-end", "starts-before-the-log"])
    def test_a_piece_outside_its_log_is_refused_and_nothing_archived(self, start, steps):
        store = store_of_rounds([([1, 2], [4, 2])])
        log = np.zeros((6, 3), np.float32)
        with pytest.raises(InvariantError, match="runs outside its round's log"):
            store.finish_round(np.array([1, 2]), np.arange(2), written(steps, start), log)
        assert len(store.records) == 1  # the earlier round only
        store.finish_round(np.array([1, 2]), np.arange(2), written([4, 2]), log)  # the same log, its pieces inside it
        assert len(store.records) == 2

    @pytest.mark.parametrize("log", [np.zeros((3, 6), np.float32)[:, ::2], np.zeros((6, 3), np.float32, order="F"),
                                     np.zeros((6, 3)), np.zeros((6, 4), np.float32)],
                             ids=["strided", "fortran", "float64", "four-columns"])
    def test_a_log_of_another_layout_is_refused_and_nothing_archived(self, log):
        store = CurveStore()
        with pytest.raises(InvariantError, match="not a C-contiguous"):
            store.finish_round(np.array([1, 2]), np.arange(2), written([1, 2]), log)
        assert store.records == [] and merge_curves(store) == {}

    def test_ids_of_another_type_are_refused(self):
        store = CurveStore()
        for ids in (np.array([1, 2], np.int32), np.array([1.0, 2.0])):
            with pytest.raises(InvariantError, match="not int64 arrays"):
                store.finish_round(ids, np.arange(2), written([1, 2]), np.zeros((3, 3), np.float32))
        assert store.records == []

    def test_dropped_vertex_is_an_invariant_error(self, monkeypatch):
        advance = advect._rk4_advance
        monkeypatch.setattr(advect, "_rk4_advance", lambda *args: advance(*args) - 1)
        block = rasterize_block(ConstantField((0.01, 0.0, 0.0)), (16, 16, 16), (0, 0, 0), (16, 16, 16))
        with pytest.raises(InvariantError, match="logged 2 vertices for 3 accepted steps"):
            run_one_round(block, queue_of([[0.5, 0.5, 0.5]], 3), 0.001)

    def test_second_kernel_call_into_one_log_is_an_invariant_error(self):
        block = rasterize_block(ConstantField((0.01, 0.0, 0.0)), (16, 16, 16), (0, 0, 0), (16, 16, 16))
        queue = queue_of([[0.5, 0.5, 0.5]], 3)
        log = CurveStore().allocate(RoundInfo(capacity=6))
        integrate(block, queue, every(queue), log, 0.001)
        with pytest.raises(InvariantError, match="already written"):
            integrate(block, queue, every(queue), log, 0.001)

    def test_log_one_slot_short_is_an_invariant_error(self):
        block = rasterize_block(ConstantField((0.01, 0.0, 0.0)), (16, 16, 16), (0, 0, 0), (16, 16, 16))
        queue = queue_of([[0.5, 0.5, 0.5]], 3)
        log = CurveStore().allocate(RoundInfo(capacity=2))
        with pytest.raises(InvariantError, match="round log is full"):
            integrate(block, queue, every(queue), log, 0.001)


def store_of_rounds(rounds):
    """A store archiving one hand-written log per round of ``(ids, steps)``: its vertex k at x = k + 0.1."""
    store = CurveStore()
    for number, (ids, steps) in enumerate(rounds):
        total = int(np.sum(steps))
        log = np.column_stack([np.arange(total) + 0.1, np.full((total, 2), number / 3)]).astype(np.float32)
        store.finish_round(np.array(ids), np.arange(len(ids)), written(steps), log)
    return store


def file_of(curves, config_hash=None):
    """The bytes of a line-set file holding the merged ``curves``, built without ``export_curves``."""
    pids = sorted(curves)
    header = {"particle_count": len(pids), "particle_ids": pids,
              "vertex_counts": [len(curves[p]) for p in pids]}
    if config_hash is not None:
        header["config_hash"] = config_hash
    payload = np.concatenate([curves[p] for p in pids]).astype("<f4").tobytes() if pids else b""
    return json.dumps(header, sort_keys=True).encode() + b"\n" + payload


class TestExportRecords:
    def test_records_write_the_merged_file(self, tmp_path):
        # ids out of order; 5 and 9 in several rounds, 2 in one
        store = store_of_rounds([([9, 2, 5], [2, 3, 1]), ([5, 9], [4, 1]), ([9], [2])])
        export_curves(tmp_path / "records.bin", store.records, config_hash="abc")
        export_curves(tmp_path / "merged.bin", [CurveRecord.of(merge_curves(store))], config_hash="abc")
        got = (tmp_path / "records.bin").read_bytes()
        assert got == (tmp_path / "merged.bin").read_bytes() == file_of(merge_curves(store), "abc")
        assert read_curves(tmp_path / "records.bin")[0]["vertex_counts"] == [3, 5, 5]

    def test_a_piece_longer_than_a_batch_is_copied_whole_and_a_curves_pieces_may_part(self, tmp_path, monkeypatch):
        monkeypatch.setattr(advect, "EXPORT_BATCH", 8)
        # payload order 1 (19 vertices), 4 (5 + 3): id 1's piece is a batch alone, [0, 19), and the
        # payload's [8, 16) starts no piece; id 4's pieces start at 19 and 24, in two batches
        store = store_of_rounds([([4, 1], [5, 19]), ([4], [3])])
        export_curves(tmp_path / "curves.bin", store.records)
        assert (tmp_path / "curves.bin").read_bytes() == file_of(merge_curves(store))

    def test_a_batch_runs_past_its_window_to_copy_its_last_piece_whole(self, tmp_path, monkeypatch):
        monkeypatch.setattr(advect, "EXPORT_BATCH", 4)
        # payload order 2 (3 vertices), 6 (1 + 1), 7 (6): the first batch is 2's piece and 6's first, [0, 4);
        # the second starts with 6's one-vertex second piece and copies 7's whole, [4, 11), past its window
        store = store_of_rounds([([7, 6, 2], [6, 1, 3]), ([6], [1])])
        export_curves(tmp_path / "curves.bin", store.records)
        assert (tmp_path / "curves.bin").read_bytes() == file_of(merge_curves(store))

    def test_each_kernel_call_copies_whole_pieces_into_a_bounded_buffer(self, tmp_path, monkeypatch):
        monkeypatch.setattr(advect, "EXPORT_BATCH", 16)
        rng = np.random.default_rng(5)
        store = store_of_rounds([(rng.permutation(50), rng.integers(0, 40, 50)) for _ in range(3)])
        export = advect.KERNEL.rk4_export
        calls = []

        def spy(n, address, count, out):
            counts = ctypes.cast(count.data, ctypes.POINTER(ctypes.c_int64))
            calls.append([counts[i] for i in range(n)])
            export(n, address, count, out)

        monkeypatch.setattr(advect.KERNEL, "rk4_export", spy)
        export_curves(tmp_path / "curves.bin", store.records)
        assert (tmp_path / "curves.bin").read_bytes() == file_of(merge_curves(store))
        pieces = [len(verts) for _, verts in sorted(store.pieces(), key=lambda piece: piece[0])]  # payload order
        assert [k for call in calls for k in call] == pieces and len(calls) > 1
        assert max(sum(call) for call in calls) <= advect.EXPORT_BATCH + max(pieces) - 1

    def test_curve_without_vertices_keeps_its_id(self, tmp_path):
        # read_curves gives one when a header lists a count of 0
        curves = {3: np.zeros((0, 3)), 1: np.ones((2, 3)), 0: np.zeros((0, 3))}
        export_curves(tmp_path / "curves.bin", [CurveRecord.of(curves)])
        assert (tmp_path / "curves.bin").read_bytes() == file_of(curves)

    def test_curve_longer_than_the_default_batch(self, tmp_path):
        store = store_of_rounds([([3, 0], [advect.EXPORT_BATCH + 5, 2]), ([3], [advect.EXPORT_BATCH - 1])])
        export_curves(tmp_path / "curves.bin", store.records)
        assert (tmp_path / "curves.bin").read_bytes() == file_of(merge_curves(store))

    def test_read_curves_round_trip_as_a_float32_record(self, tmp_path):
        # float32 vertices, with zero-vertex ids among them, come back as the same bytes
        rng = np.random.default_rng(2)
        curves = {5: rng.random((4, 3)), 2: np.zeros((0, 3)), 9: rng.random((70, 3))}
        export_curves(tmp_path / "a.bin", [CurveRecord.of(curves)], config_hash="h")
        header, read = read_curves(tmp_path / "a.bin")
        record = CurveRecord.of(read)
        assert record.log.dtype == np.float32 and not record.log.flags.writeable
        export_curves(tmp_path / "b.bin", [record], config_hash=header["config_hash"])
        assert (tmp_path / "b.bin").read_bytes() == (tmp_path / "a.bin").read_bytes() == file_of(curves, "h")
