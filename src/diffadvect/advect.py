"""RK4 particle integration against blocks, round metadata, curve storage.

A round integrates each selected particle until one of four events:

* its iteration budget runs out (terminated),
* the updated position leaves the unit-cube domain (terminated),
* the updated position leaves its home block's core region
  (out-of-bounds: the vertex is kept and the particle is handed off at its
  new position), or
* an RK4 stage point leaves the home block's ghost-padded sampling extent
  before the step can be completed (out-of-bounds: the step is rejected and
  the particle is handed off at its pre-step position; the receiving rank's
  ghost layer covers the stage points, so it re-takes the identical step).

Every particle samples its home rank's block, whichever rank integrates it,
and every block is bounds over the same shared lattice, so the accepted
vertex sequence of a particle is independent of the decomposition; hand-offs
and loans only change which rank performs each step.

With curves on, curve vertices live in one flat per-round allocation of
``selected * vertex_stride`` slots per rank, all ranks' slots back to back in
one buffer, initialized to the reserved sentinel (quiet-NaN triplets); each
rank archives the written prefixes of its own slice after the round. With
curves off nothing is allocated or archived.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import json

import numpy as np

from .errors import InvariantError
from .field import Block
from .particles import ParticleSet

# Integration outcomes for one particle within one round.
STATUS_OOB = 1        # left its home block; still active
STATUS_TERMINATED = 2  # iteration budget exhausted
STATUS_EXITED = 3      # left the global domain

SENTINEL = np.nan


def rk4_step(sample_fn, p, h: float) -> np.ndarray:
    """One classic RK4 step against an arbitrary sampler callable.

    ``sample_fn`` must accept and return 3-vectors (or broadcast arrays).
    This is the unchecked reference form used by convergence tests; block
    integration goes through :func:`integrate`, which adds the boundary
    handling.
    """
    p = np.asarray(p, dtype=np.float64)
    k1 = np.asarray(sample_fn(p), dtype=np.float64)
    k2 = np.asarray(sample_fn(p + (h / 2.0) * k1), dtype=np.float64)
    k3 = np.asarray(sample_fn(p + (h / 2.0) * k2), dtype=np.float64)
    k4 = np.asarray(sample_fn(p + h * k3), dtype=np.float64)
    return p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass(frozen=True)
class RoundInfo:
    """Metadata for one advection round of one rank, or of several back to back."""

    count: int                 # particles selected this round
    vertex_stride: int         # slots reserved per particle (the largest, if concatenated)
    offsets: np.ndarray        # (count,) base slot per particle
    capacity: int              # slots in the round's buffer


def compute_round_info(queue: ParticleSet, particles_per_round: int) -> RoundInfo:
    """Select the round's particle range and size its curve allocation.

    The queue is FIFO; the first ``min(len(queue), particles_per_round)``
    particles run this round. The stride reserves room for the longest
    possible iteration count among them plus one.
    """
    count = min(len(queue), int(particles_per_round))
    if count == 0:
        return RoundInfo(count=0, vertex_stride=1, offsets=np.empty(0, dtype=np.int64), capacity=0)
    stride = int(queue.remaining[:count].max()) + 1
    offsets = np.arange(count, dtype=np.int64) * stride
    return RoundInfo(count=count, vertex_stride=stride, offsets=offsets, capacity=count * stride)


def concat_round_infos(infos) -> RoundInfo:
    """One round info over several ranges laid out back to back in one buffer.

    Each range's offsets are shifted by the capacity of the ranges before it,
    so range k owns the contiguous slots ``[shift_k, shift_k + capacity_k)``.
    """
    caps = np.array([i.capacity for i in infos], dtype=np.int64)
    shifts = np.cumsum(caps) - caps
    return RoundInfo(
        count=sum(i.count for i in infos),
        vertex_stride=max(i.vertex_stride for i in infos),
        offsets=np.concatenate([i.offsets + s for i, s in zip(infos, shifts)]),
        capacity=int(caps.sum()),
    )


@dataclass
class RoundBuffer:
    """The round's flat vertex allocation plus per-particle fill counters."""

    vertices: np.ndarray | None  # (capacity, 3), sentinel-initialized; None with curves off
    fills: np.ndarray            # (count,) vertices appended so far

    def part(self, rows: slice, slots: slice) -> "RoundBuffer":
        """The fill counters of ``rows`` and the vertex ``slots``, as views."""
        return RoundBuffer(vertices=None if self.vertices is None else self.vertices[slots],
                           fills=self.fills[rows])


@dataclass
class CurveStore:
    """Per-rank integral-curve storage.

    Each round allocates one flat buffer; after the round the non-sentinel
    prefixes are archived as ``(particle_id, round, vertices)`` segments and
    the raw buffer is dropped. Within one round a particle is integrated by
    exactly one rank, so ``(round, sequence)`` orders a particle's vertices
    globally. A store with ``collect`` False allocates no vertex slots and
    archives nothing.
    """

    segments: list = dc_field(default_factory=list)
    collect: bool = True

    def allocate(self, info: RoundInfo) -> RoundBuffer:
        vertices = np.full((info.capacity, 3), SENTINEL, dtype=np.float64) if self.collect else None
        return RoundBuffer(vertices=vertices, fills=np.zeros(info.count, dtype=np.int64))

    def finish_round(self, round_index: int, ids: np.ndarray, info: RoundInfo, buffer: RoundBuffer) -> None:
        # Each written prefix is copied as one contiguous slice: a per-vertex
        # gather of all prefixes at once is slower and needs an index array
        # beside the full buffer at the round's memory peak.
        if buffer.vertices is None:
            return
        rows = np.nonzero(buffer.fills)[0]
        vertices, rnd = buffer.vertices, int(round_index)
        self.segments.extend(
            (pid, rnd, vertices[base:base + n].copy())
            for pid, base, n in zip(ids[rows].tolist(), info.offsets[rows].tolist(), buffer.fills[rows].tolist()))


def merge_curves(stores) -> dict[int, np.ndarray]:
    """Merge the segments of many stores into full per-particle streamlines.

    Segments are ordered by round; concatenation reconstructs each curve in
    integration order regardless of which rank recorded which piece.
    """
    per_pid: dict[int, list] = {}
    for store in stores:
        for pid, rnd, verts in store.segments:
            per_pid.setdefault(pid, []).append((rnd, verts))
    out = {}
    for pid, segs in per_pid.items():
        segs.sort(key=lambda item: item[0])
        out[pid] = np.concatenate([v for _, v in segs], axis=0)
        if np.isnan(out[pid]).any():
            raise InvariantError(f"sentinel vertex leaked into pruned curve of particle {pid}")
    return out


def _exit_directions(g: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Dominant-axis exit direction of each g-space point from the box ``[lo, hi]``.

    Overshoot is measured in voxel units; the largest one wins, ties break in
    direction order (x before y before z).
    """
    over = np.stack([lo - g, g - hi], axis=-1).reshape(g.shape[:-1] + (6,))
    return np.argmax(over, axis=-1).astype(np.int64)


def _block_step(block: Block, pos: np.ndarray, h: float):
    """One vectorized RK4 step for all rows of ``pos``, each against its block bounds.

    Returns ``(newpos, ok, dirs)``: rows with ``ok`` False had a stage point
    outside the sampling extent and must be rejected; ``dirs`` holds their
    exit directions (computed from the first offending stage point). Rejected
    rows' ``newpos`` is garbage and must be ignored.
    """
    if not np.all(block.samplable_mask(pos)):
        raise InvariantError("particle position outside its block's sampling extent")
    k1 = block.sample_clamped(pos)
    s2 = pos + (h / 2.0) * k1
    m2 = block.samplable_mask(s2)
    k2 = block.sample_clamped(s2)
    s3 = pos + (h / 2.0) * k2
    m3 = block.samplable_mask(s3)
    k3 = block.sample_clamped(s3)
    s4 = pos + h * k3
    m4 = block.samplable_mask(s4)
    k4 = block.sample_clamped(s4)
    newpos = pos + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    ok = m2 & m3 & m4
    dirs = np.full(pos.shape[0], -1, dtype=np.int64)
    bad = ~ok
    if bad.any():
        first = np.where(~m2[:, np.newaxis], s2, np.where(~m3[:, np.newaxis], s3, s4))
        dirs[bad] = _exit_directions(block.to_g(first[bad]), *block.select(bad).sample_bounds())
    return newpos, ok, dirs


@dataclass
class GroupOutcome:
    """Integration results, one entry per integrated particle."""

    status: np.ndarray      # per particle: STATUS_*
    exit_dir: np.ndarray    # direction for STATUS_OOB rows, else -1
    pos: np.ndarray         # final positions
    remaining: np.ndarray   # remaining iteration budgets
    steps: np.ndarray       # accepted RK4 steps (work units)


def integrate_group(
    block: Block,
    pset: ParticleSet,
    offsets: np.ndarray,
    buffer: RoundBuffer,
    h: float,
) -> GroupOutcome:
    """Advance the particles of ``pset``, each against its own block bounds.

    ``block`` holds one extent or per-row bounds for the rows of ``pset``;
    ``offsets`` and ``buffer.fills`` are indexed by the same rows. Each
    particle runs until termination, domain exit, or block exit.
    """
    n = len(pset)
    pos = pset.pos.copy()
    rem = pset.remaining.copy()
    status = np.zeros(n, dtype=np.int64)
    exit_dir = np.full(n, -1, dtype=np.int64)
    steps = np.zeros(n, dtype=np.int64)
    active = np.nonzero(rem > 0)[0]
    status[rem <= 0] = STATUS_TERMINATED
    while active.size:
        newpos, ok, sdirs = _block_step(block.select(active), pos[active], h)
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
                buffer.vertices[offsets[moved] + buffer.fills[moved]] = newpos
            buffer.fills[moved] += 1
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
                exit_dir[left] = _exit_directions(block.to_g(pos[left]), *block.select(left).core_bounds())
            moved = moved[owned]
        active = moved
    return GroupOutcome(status=status, exit_dir=exit_dir, pos=pos, remaining=rem, steps=steps)


def integrate(block: Block, pset: ParticleSet, info: RoundInfo, buffer: RoundBuffer, h: float):
    """Run one rank's round over its selected range ``pset``.

    ``block`` holds one extent or per-row bounds for the rows of ``pset``.
    Returns the :class:`GroupOutcome` of the range plus its total
    accepted-step count.
    """
    outcome = integrate_group(block, pset, info.offsets, buffer, h)
    return outcome, int(outcome.steps.sum())


def export_curves(path, curves: dict[int, np.ndarray], config_hash: str | None = None) -> None:
    """Write merged curves as a line-set file.

    Layout: one UTF-8 JSON header line (particle count, per-particle vertex
    counts in ascending particle-id order, optional provenance hash) followed
    by flat little-endian float32 xyz triplets, particles in header order.
    """
    pids = sorted(curves.keys())
    counts = [int(curves[p].shape[0]) for p in pids]
    header = {"particle_count": len(pids), "particle_ids": pids, "vertex_counts": counts}
    if config_hash is not None:
        header["config_hash"] = config_hash
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for p in pids:
            fh.write(np.ascontiguousarray(curves[p], dtype="<f4").tobytes())


def read_curves(path):
    """Read a line-set file back; returns ``(header, dict pid -> float32 verts)``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        curves = {}
        for pid, count in zip(header["particle_ids"], header["vertex_counts"]):
            raw = fh.read(count * 3 * 4)
            curves[int(pid)] = np.frombuffer(raw, dtype="<f4").reshape(count, 3)
    return header, curves
