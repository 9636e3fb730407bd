"""RK4 particle integration against blocks, round metadata, curve storage.

A round integrates each selected particle in one compiled kernel,
``rk4_advance`` in ``rk4.c``, which runs RK4 steps for each row until one of
four events:

* its iteration budget is spent: ``STATUS_TERMINATED`` (a zero budget takes
  no step);
* the updated position leaves the unit-cube domain: ``STATUS_EXITED``; the
  position is not updated and no vertex is logged;
* the updated position leaves its home block's core region: ``STATUS_OOB``;
  the vertex is kept and the particle is handed off at its new position;
* an RK4 stage point leaves the home block's ghost-padded sampling extent
  before the step can be completed: ``STATUS_OOB``; the step is rejected,
  ``exit_dir`` comes from the first bad stage point, and the particle is
  handed off at its pre-step position (the receiving rank's ghost layer
  covers the stage points, so it re-takes the identical step).

Every particle samples its home rank's block, whichever rank integrates it,
and every block is bounds over the same shared lattice, so the accepted
vertex sequence of a particle is independent of the decomposition; hand-offs
and loans only change which rank performs each step.

The kernel writes each accepted step's row and new vertex at the log's
cursor, refusing to write at or past its capacity, and writes ``status``,
``exit_dir``, ``pos``, ``remaining`` and ``steps`` in place. It performs the
operations of the numpy reference (:func:`_block_step`,
:meth:`Block.sample_clamped`) in their order, so the two agree bit for bit:
``g = p / spacing``; the cell ``floor(g)`` clamped to
``[origin - 1, origin + core - 1]`` and ``frac = g - cell``; the z, then y,
then x lerps, each ``(1 - f) * a + f * b``; stage points ``p + (h/2) * k``
and ``p + (h/6) * (((k1 + 2*k2) + 2*k3) + k4)``; the sampling test
``lo <= g <= hi``, the core test ``origin <= g < origin + core``, the domain
test ``0 <= x <= 1``; the exit direction is the first maximum of
``(lo0 - g0, g0 - hi0, lo1 - g1, ...)``. Importing this module builds it with
gcc ``-O2 -ffp-contract=off`` (no fast-math, no fused multiply-add) into
this package's ``__pycache__``, under a name keyed by the SHA-256 of the
source and flags, and loads it.

With curves on, each round's log is sized by the selection's summed budgets
but touched only as far as it is written. The kernel advances the rows in
ascending order, each to its event, so the log holds each particle's
vertices as one run in step order; after the round each run is archived as
one segment. With curves off
nothing is allocated or archived; the kernel only counts the steps.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import subprocess
import tempfile
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .errors import InvariantError
from .field import Block
from .particles import ParticleSet

# Integration outcomes for one particle within one round.
STATUS_OOB = 1        # left its home block; still active
STATUS_TERMINATED = 2  # iteration budget exhausted
STATUS_EXITED = 3      # left the global domain

KERNEL_SOURCE = Path(__file__).with_name("rk4.c")
KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_KERNEL_ERRORS = {
    -1: "the round log is full: the kernel would write past its capacity",
    -2: "particle position outside its block's sampling extent",
}


def kernel_name(source: bytes, flags) -> str:
    """The cached library's file name, keyed by the SHA-256 of the source and flags."""
    digest = hashlib.sha256(source + b"\0" + "\0".join(flags).encode("utf-8")).hexdigest()
    return f"rk4-{digest[:16]}.so"


def build_kernel(cache_dir, compiler: str = "gcc") -> Path:
    """The kernel library in ``cache_dir``, compiled there first unless already cached.

    The compiler reads the very source text that was hashed, and writes a
    temporary file that is renamed into place, so a concurrent reader never
    sees a partial library.
    """
    source = KERNEL_SOURCE.read_bytes()
    path = Path(cache_dir) / kernel_name(source, KERNEL_FLAGS)
    if path.is_file():
        return path
    command, tmp = [compiler, *KERNEL_FLAGS, "-x", "c", "-", "-o", "<tmp>", "-lm"], None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem + "-", suffix=".tmp")
        os.close(fd)
        command[-2] = tmp
        subprocess.run(command, input=source, check=True, capture_output=True)
        os.replace(tmp, path)
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = exc.stderr.decode(errors="replace") if isinstance(exc, subprocess.CalledProcessError) else exc
        raise ImportError(f"the RK4 kernel {KERNEL_SOURCE.name} needs the C compiler {compiler!r} and the "
                          f"writable cache directory {str(path.parent)!r}: "
                          f"`{' '.join(command)}` failed: {detail}") from exc
    finally:
        if tmp is not None:
            Path(tmp).unlink(missing_ok=True)
    return path


def load_kernel(path) -> ctypes.CDLL:
    """The kernel library at ``path``, with the signatures of its two functions declared."""
    lib = ctypes.CDLL(str(path))
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    bounds = [i64, ptr, i64, i64, ptr, ptr, ptr]  # n, lattice, sx, sy, spacing, origin, core
    lib.rk4_sample.argtypes = bounds + [ptr, ptr]
    lib.rk4_sample.restype = None
    lib.rk4_advance.argtypes = bounds + [ctypes.c_double, ptr, ptr, ptr, ptr, ptr, ptr, ptr, i64, i64]
    lib.rk4_advance.restype = i64
    return lib


KERNEL = load_kernel(build_kernel(Path(__file__).with_name("__pycache__")))
_rk4_advance = KERNEL.rk4_advance


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

    capacity: int              # vertices the selected particles can append at most: their summed budgets


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
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        # a copy of the written prefix, so the segments do not hold the capacity-sized log alive
        vertices = np.split(buffer.vertices[:buffer.size].copy(), starts[1:])
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


def kernel_bounds(block: Block, n: int) -> tuple:
    """The kernel's ``n, lattice, sx, sy, spacing, origin, core`` arguments for ``n`` rows of ``block``.

    A single extent is broadcast to ``(n, 3)`` bounds. Each array is passed
    as its ``ctypes`` view, which holds the array alive through the call.
    """
    lattice = block.lattice
    origin, core = (np.ascontiguousarray(np.broadcast_to(a, (n, 3)), dtype=np.int64)
                    for a in (block.origin, block.core_dims))
    if not (lattice.dtype == np.float64 and lattice.flags.c_contiguous and lattice.ndim == 4
            and lattice.shape[3] == 3 and (origin >= 0).all() and (core >= 1).all()
            and (origin + core <= np.array(lattice.shape[:3]) - 2).all()):
        raise InvariantError("block bounds outside a C-contiguous (x, y, z, 3) float64 padded lattice")
    spacing = np.ascontiguousarray(block.spacing, dtype=np.float64).reshape(3)
    _, py, pz, _ = lattice.shape
    return n, lattice.ctypes, py * pz, pz, spacing.ctypes, origin.ctypes, core.ctypes


def integrate_group(block: Block, pset: ParticleSet, buffer: RoundBuffer, h: float) -> GroupOutcome:
    """Advance the particles of ``pset``, each against its own block bounds, in the kernel.

    ``block`` holds one extent or per-row bounds for the rows of ``pset``.
    Each accepted step writes its row index and new position at the
    buffer's cursor. Each particle runs until termination, domain exit, or
    block exit.
    """
    n = len(pset)
    out = GroupOutcome(status=np.zeros(n, dtype=np.int64), exit_dir=np.full(n, -1, dtype=np.int64),
                       pos=np.array(pset.pos, dtype=np.float64, order="C").reshape(n, 3),
                       remaining=np.array(pset.remaining, dtype=np.int64), steps=np.zeros(n, dtype=np.int64))
    rows, vertices, capacity = buffer.rows, buffer.vertices, 0
    if vertices is not None:
        capacity = rows.shape[0]
        if (rows.dtype != np.int64 or rows.ndim != 1 or vertices.dtype != np.float64
                or vertices.shape != (capacity, 3) or not (rows.flags.c_contiguous and vertices.flags.c_contiguous)):
            raise InvariantError("the round log is not a C-contiguous int64 row and (capacity, 3) float64 pair")
    cursor = _rk4_advance(*kernel_bounds(block, n), float(h), out.pos.ctypes, out.remaining.ctypes,
                          out.status.ctypes, out.exit_dir.ctypes, out.steps.ctypes,
                          None if rows is None else rows.ctypes,
                          None if vertices is None else vertices.ctypes, buffer.size, capacity)
    if cursor < 0:
        raise InvariantError(_KERNEL_ERRORS[cursor])
    buffer.size = cursor
    return out


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
    """Read a line-set file back; returns ``(header, dict pid -> float32 verts)``.

    Raises ``ValueError`` unless the header describes the payload exactly:
    ``particle_count`` distinct ids and as many vertex counts, all ints >= 0,
    then exactly the counts' vertices.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        payload = fh.read()
    ids, counts = header["particle_ids"], header["vertex_counts"]
    if not len(set(ids)) == len(ids) == len(counts) == header["particle_count"]:
        raise ValueError("particle_ids repeat an id, or disagree with vertex_counts or particle_count")
    if not all(type(n) is int and n >= 0 for n in ids + counts):
        raise ValueError("a particle id or vertex count is not an int >= 0")
    if len(payload) != 12 * sum(counts):
        raise ValueError(f"the payload has {len(payload)} bytes; the vertex counts need {12 * sum(counts)}")
    vertices = np.frombuffer(payload, dtype="<f4").reshape(-1, 3)
    return header, dict(zip(ids, np.split(vertices, np.cumsum(counts)[:-1])))
