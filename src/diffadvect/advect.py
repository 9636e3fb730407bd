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

With curves on, each round appends every accepted step's row and new
position at a running cursor into one log, sized by the selection's summed
budgets but touched only as far as it is written. After the round the log is
sorted by row once and archived as one segment per particle. With curves off
nothing is allocated or archived; the log only counts the appended steps.
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
    """Metadata for one round's selection of particles."""

    count: int                 # particles selected this round
    capacity: int              # vertices they can append at most: their summed budgets


@dataclass
class RoundBuffer:
    """The round's vertex log: each accepted step's row and new position, in append order.

    ``rows`` and ``vertices`` are uninitialized and only their first ``size``
    entries are written, so memory is touched only as vertices arrive. With
    curves off both are None and only ``size`` counts the appended steps.
    """

    rows: np.ndarray | None      # (capacity,) row of the integrated set per vertex
    vertices: np.ndarray | None  # (capacity, 3)
    size: int = 0

    def append(self, rows: np.ndarray, positions: np.ndarray) -> None:
        end = self.size + rows.size
        if self.vertices is not None:
            self.rows[self.size:end] = rows
            self.vertices[self.size:end] = positions
        self.size = end


@dataclass
class CurveStore:
    """Integral-curve storage for the whole run.

    Each round logs its vertices in one buffer; after the round they are
    archived as one ``(particle_id, vertices)`` segment per particle and the
    buffer is dropped. Within one round a particle is integrated by exactly
    one rank, so the segments of a particle, in archive order, are its curve.
    A store with ``collect`` False allocates no log and archives nothing.
    """

    segments: list = dc_field(default_factory=list)
    collect: bool = True

    def allocate(self, info: RoundInfo) -> RoundBuffer:
        if not self.collect:
            return RoundBuffer(rows=None, vertices=None)
        return RoundBuffer(rows=np.empty(info.capacity, dtype=np.int64),
                           vertices=np.empty((info.capacity, 3), dtype=np.float64))

    def finish_round(self, ids: np.ndarray, buffer: RoundBuffer) -> None:
        """Archive the round's log, ``ids`` naming the particle of each row."""
        if buffer.vertices is None:
            return
        rows = buffer.rows[:buffer.size]
        order = np.argsort(rows, kind="stable")  # keeps each particle's vertices in step order
        rows = rows[order]
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        vertices = np.split(buffer.vertices[:buffer.size][order], starts[1:])
        self.segments.extend(zip(ids[rows[starts]].tolist(), vertices))


def merge_curves(store: CurveStore) -> dict[int, np.ndarray]:
    """Concatenate each particle's segments, in round order, into its streamline."""
    per_pid: dict[int, list] = {}
    for pid, verts in store.segments:
        per_pid.setdefault(pid, []).append(verts)
    return {pid: np.concatenate(segs, axis=0) for pid, segs in per_pid.items()}


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


def integrate_group(block: Block, pset: ParticleSet, buffer: RoundBuffer, h: float) -> GroupOutcome:
    """Advance the particles of ``pset``, each against its own block bounds.

    ``block`` holds one extent or per-row bounds for the rows of ``pset``.
    Each accepted step appends its row index and new position to ``buffer``.
    Each particle runs until termination, domain exit, or block exit.
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
            buffer.append(moved, newpos)
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


def integrate(block: Block, pset: ParticleSet, buffer: RoundBuffer, h: float):
    """Run one round over the selected range ``pset``.

    ``block`` holds one extent or per-row bounds for the rows of ``pset``.
    Returns the :class:`GroupOutcome` of the range plus its total
    accepted-step count, which must equal the vertices the round logged.
    """
    outcome = integrate_group(block, pset, buffer, h)
    steps = int(outcome.steps.sum())
    if buffer.size != steps:
        raise InvariantError(f"the round logged {buffer.size} vertices for {steps} accepted steps")
    return outcome, steps


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
