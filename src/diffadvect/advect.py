"""RK4 particle integration against blocks, round metadata, curve storage.

A round integrates each selected particle in one compiled kernel,
``rk4_advance`` in ``rk4.c``, which runs RK4 steps for each row until one of
four events:

* its iteration budget is spent: ``STATUS_TERMINATED`` (a zero budget takes
  no step);
* the updated position leaves the unit-cube domain: ``STATUS_EXITED``, the
  one way out of the domain, tested before the core region; the position is
  not updated and no vertex is logged;
* the updated position leaves its home block's core region: ``STATUS_OOB``;
  the vertex is kept and the particle is handed off at its new position;
* an RK4 stage point leaves the home block's ghost-padded sampling extent
  before the step can be completed: ``STATUS_OOB``; the step is rejected,
  ``exit_dir`` comes from the first bad stage point, and the particle is
  handed off at its pre-step position (the receiving rank's ghost layer
  covers the stage points, so it re-takes the identical step).

Every particle samples its home rank's block, read at its ``home`` in one
table of rank bounds over the same shared lattice, whichever rank integrates
it, so the accepted vertex sequence of a particle is independent of the
decomposition; hand-offs and loans only change which rank performs each step.

The kernel advances the table's rows at an index in place: it reads ``home``
and updates ``pos`` and ``remaining`` at each indexed row, and writes
``status``, ``exit_dir``, ``steps`` and ``start`` per index entry. Each of its
float64 operations is one of the numpy reference's (:func:`_block_step`,
:meth:`Block.sample_clamped`), in their order, so the two agree bit for bit:
``g = p / spacing``; the cell ``floor(g)`` clamped to
``[origin - 1, origin + core - 1]`` and ``frac = g - cell``; the z, then y,
then x lerps, each ``(1 - f) * a + f * b``; stage points ``p + (h/2) * k``
and ``p + (h/6) * (((k1 + 2*k2) + 2*k3) + k4)``; the sampling test
``lo <= g <= hi``, the core test ``origin <= g < origin + core``, the domain
test ``0 <= x <= 1``; the exit direction is the first maximum of
``(lo0 - g0, g0 - hi0, lo1 - g1, ...)`` over the faces the point is outside
of, strictly below ``lo`` or on or above ``hi``, so a point on a lower face
never ties with the upper face it crossed. A point's x, y and z go through
each operation together, as one 4-wide vector whose spare lane feeds no
decision and no output; the cell and the tests stay scalar. Importing this
module builds it with gcc ``-O3 -ffp-contract=off`` (no fast-math, no fused
multiply-add) into this package's ``__pycache__``, under a name keyed by the
SHA-256 of the source and flags, and loads it. The library holds one build of
every function: with ``-mavx``, the one ``-m`` flag, where ``/proc/cpuinfo``
lists AVX (which has no fused multiply-add), else the default build, which on
x86 is two to three times slower.

The kernel runs on one worker per CPU this process may run on
(``os.sched_getaffinity``, so ``taskset`` limits it), but on no more than one
per :data:`LANES` chunks of :data:`CHUNK` rows, since a helper thread costs
tens of microseconds to start: the calling thread plus helper threads started
for the call, which block every signal and keep the caller's CPU mask. Each
worker advances :data:`LANES` rows together, one per lane, stage by stage, so
the lanes' independent chains of divides, gathers and lerps overlap. A lane
claims its next chunk from one shared counter, so the work balances itself,
and each row still runs to its event before its lane takes the next. Before
any row advances the kernel checks that every row with a positive budget
starts in its reach, its closed sampling extent, by the one reach test that
its stage points and ``rk4_reach`` share, and that the summed budgets fit the
log, so either error leaves every array untouched.

With curves on, each round's log holds vertices only, sized by the
selection's summed budgets, in float32 as ``curves.bin`` holds them: each is
the round-to-nearest cast of its float64 position, as ``astype(np.float32)``
casts, and positions, budgets and decisions stay float64. The log is a
private anonymous memory mapping kept from huge pages, so only the pages the
kernel writes become resident. Each chunk writes into its own region, which
starts at the summed budgets of the rows before the chunk, each of its rows
as one run in step order, and the kernel reports the slot where each row's
run starts. The call leaves the log read-only. :meth:`CurveStore.finish_round`
archives the round as one :class:`CurveRecord`, the log with the ids, starts
and steps of the rows that took a step, and builds nothing per row.
:func:`export_curves` orders all rounds' pieces with one stable argsort of
their ids and copies them whole in the kernel's ``rk4_export``, a batch of
pieces at a time, from their logs, so a vertex is written and read once.
The outcome and the log are the same for any number of workers. With curves
off nothing is allocated or archived; the kernel only counts the steps.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import mmap
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


def _isa_flags() -> tuple:
    """``("-mavx",)`` when the first ``flags`` line of ``/proc/cpuinfo`` lists ``avx`` (only x86's do), else ``()``."""
    try:
        with open("/proc/cpuinfo") as fh:
            flags = next((line.split(":", 1)[-1].split() for line in fh if line.startswith("flags")), [])
    except OSError:
        flags = []
    return ("-mavx",) if "avx" in flags else ()


KERNEL_SOURCE = Path(__file__).with_name("rk4.c")
KERNEL_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC", "-pthread", *_isa_flags())
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
    sees a partial library. A fresh build then deletes the directory's other
    ``rk4-*.so`` libraries, built from earlier sources or flags.
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
    for stale in path.parent.glob("rk4-*.so"):
        if stale != path:
            stale.unlink(missing_ok=True)
    return path


def load_kernel(path) -> ctypes.CDLL:
    """The kernel library at ``path``, with the signatures of its seven functions declared."""
    lib = ctypes.CDLL(str(path))
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    bounds = [i64, ptr, i64, i64, ptr, ptr, ptr, ptr]  # n, lattice, sx, sy, spacing, origin, core, home
    lib.rk4_sample.argtypes = bounds + [ptr, ptr]
    lib.rk4_sample.restype = None
    lib.rk4_reach.argtypes = bounds + [ptr]
    lib.rk4_reach.restype = i64
    lib.rk4_advance.argtypes = bounds + [f64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, i64, ptr, i64]
    lib.rk4_advance.restype = i64
    lib.rk4_export.argtypes = [i64, ptr, ptr, ptr]
    lib.rk4_export.restype = None
    lib.rk4_toroidal.argtypes = [i64, i64, i64, ptr, f64, f64, f64, ptr]  # resolution, spacing, R0, kappa, eps, lattice
    lib.rk4_toroidal.restype = f64
    lib.rk4_place.argtypes = [i64, i64, i64, i64, ptr, ptr]  # x0, planes, ry, rz, component table, lattice
    lib.rk4_place.restype = None
    lib.rk4_pad.argtypes = [i64, i64, i64, ptr]  # resolution, lattice
    lib.rk4_pad.restype = None
    return lib


KERNEL = load_kernel(build_kernel(Path(__file__).with_name("__pycache__")))
_rk4_advance = KERNEL.rk4_advance
LANES = ctypes.c_int64.in_dll(KERNEL, "rk4_lanes").value  # rows a kernel worker advances together
CHUNK = ctypes.c_int64.in_dll(KERNEL, "rk4_chunk").value  # rows a kernel lane claims at a time


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


@dataclass(frozen=True)
class CurveRecord:
    """One round's archived curve pieces: particle ``ids[i]``'s piece is ``log[start[i]:start[i] + steps[i]]``.

    ``ids``, ``start`` and ``steps`` are int64 arrays of one length and ``log`` is a C-contiguous
    ``(n, 3)`` float32 array, as ``curves.bin`` holds. :func:`export_curves` reads each piece at its address
    in C, so a record is checked once, when made: another layout, or a piece outside its log, is an
    :class:`InvariantError`. The three arrays are then made read-only, so the check keeps holding.
    """

    ids: np.ndarray
    start: np.ndarray
    steps: np.ndarray
    log: np.ndarray

    def __post_init__(self):
        log, n = self.log, len(self.ids)
        if log.dtype != np.float32 or log.ndim != 2 or log.shape[1] != 3 or not log.flags.c_contiguous:
            raise InvariantError("a curve record's log is not a C-contiguous (n, 3) float32 array")
        if not all(a.dtype == np.int64 and a.shape == (n,) for a in (self.ids, self.start, self.steps)):
            raise InvariantError("a curve record's ids, start and steps are not int64 arrays of one length")
        if not ((self.start >= 0) & (self.steps >= 0) & (self.start + self.steps <= len(log))).all():
            raise InvariantError("a curve piece runs outside its round's log")
        for column in (self.ids, self.start, self.steps):
            column.setflags(write=False)

    @classmethod
    def of(cls, curves: dict) -> CurveRecord:
        """One record of ``curves``, particle id -> vertices, each curve one piece, in a read-only float32 copy.

        A float32 curve, as :func:`read_curves` gives, is copied, so the record exports the same floats.
        """
        steps = np.array([len(verts) for verts in curves.values()], dtype=np.int64)
        log = np.concatenate([np.empty((0, 3)), *curves.values()], dtype=np.float32)
        log.setflags(write=False)
        return cls(np.fromiter(curves, np.int64, len(curves)), np.cumsum(steps) - steps, steps, log)


@dataclass
class CurveStore:
    """Integral-curve storage for the whole run.

    Each round logs its vertices in one ``(capacity, 3)`` log, written by
    one kernel call; after the round they are archived as one
    :class:`CurveRecord`: the ids, starts and steps of the rows that took a
    step, as arrays, and the read-only log, which is the curves' only copy.
    Within one round a particle is integrated by exactly one rank, so the
    pieces of a particle, in archive order, are its curve. A store with
    ``collect`` False allocates no log and archives nothing.
    """

    records: list = dc_field(default_factory=list)
    collect: bool = True

    def allocate(self, info: RoundInfo) -> np.ndarray | None:
        """The round's ``(capacity, 3)`` float32 log, or None with curves off."""
        if not self.collect:
            return None
        # a private anonymous mapping (at least 1 byte), kept from huge pages, so that only the
        # pages the kernel writes become resident
        log = mmap.mmap(-1, max(12 * info.capacity, 1), flags=mmap.MAP_PRIVATE)
        log.madvise(mmap.MADV_NOHUGEPAGE)
        return np.frombuffer(log, np.float32, 3 * info.capacity).reshape(info.capacity, 3)

    def finish_round(self, ids: np.ndarray, rows: np.ndarray, outcome: GroupOutcome, log: np.ndarray | None) -> None:
        """Archive the round as one record of each moved row's run, ``log[start:start + steps]``, and id.

        ``rows``, one per ``outcome`` entry, index the table whose ``ids`` column is given. Only the moved rows'
        ids are gathered, and none with curves off (``log`` None).
        """
        if log is None:
            return
        moved = outcome.steps > 0
        self.records.append(CurveRecord(ids[rows[moved]], outcome.start[moved], outcome.steps[moved], log))

    def pieces(self):
        """Each archived piece, in archive order, as ``(particle_id, vertices)``: a view of its log."""
        for record in self.records:
            for pid, a, k in zip(record.ids.tolist(), record.start.tolist(), record.steps.tolist()):
                yield pid, record.log[a:a + k]


def merge_curves(store: CurveStore) -> dict[int, np.ndarray]:
    """Concatenate each particle's pieces, in round order, into its streamline, float32 as ``curves.bin`` holds."""
    per_pid: dict[int, list] = {}
    for pid, verts in store.pieces():
        per_pid.setdefault(pid, []).append(verts)
    return {pid: segs[0] if len(segs) == 1 else np.concatenate(segs, axis=0) for pid, segs in per_pid.items()}


def _exit_directions(g: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Dominant-axis exit direction of each g-space point from the box ``[lo, hi]``.

    Only the faces a point is outside of compete: strictly below ``lo`` or
    on or above ``hi``. Overshoot is measured in voxel units; the largest one
    wins, ties break in direction order (x before y before z).
    """
    shape = g.shape[:-1] + (6,)
    over = np.stack([lo - g, g - hi], axis=-1).reshape(shape)
    outside = np.stack([g < lo, g >= hi], axis=-1).reshape(shape)
    return np.argmax(np.where(outside, over, -np.inf), axis=-1).astype(np.int64)


def _block_step(block: Block, pos: np.ndarray, h: float):
    """One vectorized RK4 step for all rows of ``pos``, against one extent or ``(n, 3)`` bounds, one per row.

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
        lo, hi = (np.broadcast_to(b, pos.shape)[bad] for b in block.sample_bounds())
        dirs[bad] = _exit_directions(block.to_g(first[bad]), lo, hi)
    return newpos, ok, dirs


@dataclass
class GroupOutcome:
    """Integration results, one entry per integrated particle."""

    status: np.ndarray      # per particle: STATUS_*
    exit_dir: np.ndarray    # direction for STATUS_OOB rows, else -1
    steps: np.ndarray       # accepted RK4 steps (work units)
    start: np.ndarray       # the log slot where each row's run of vertices starts


def kernel_bounds(block: Block, home) -> tuple:
    """The kernel's ``lattice, sx, sy, spacing, origin, core, home`` arguments for rows of homes ``home``.

    Each row reads ``block``'s ``(ranks, 3)`` table at its home, which must be
    a row of it; a single extent is a one-row table. Only ``home`` is checked
    here: the block's arguments are its :attr:`~Block.kernel_table`, checked once.
    """
    home = np.zeros(len(home), np.int64) if block.origin.ndim == 1 else np.ascontiguousarray(home, dtype=np.int64)
    if home.view(np.uint64).max(initial=0) >= len(block.origin):  # one pass: a negative home reads as huge
        raise InvariantError("a home outside the bounds table")
    return *block.kernel_table, home.ctypes


def integrate_group(block: Block, pset: ParticleSet, rows: np.ndarray, log: np.ndarray | None, h: float,
                    workers: int | None = None) -> GroupOutcome:
    """Advance rows ``rows`` of the table ``pset`` in place, each against its home's block bounds, in the kernel.

    ``block`` holds one extent or the rank table each row reads at its ``home``.
    The rows' ``pos`` and ``remaining`` change in ``pset``'s own columns; the
    outcome's entry ``i`` is row ``rows[i]``'s. C reads and writes through the
    index, so an index that is not C-contiguous 1-D int64, leaves the table or
    repeats a row, or a table of another layout, is refused before anything moves.
    Each accepted step logs its new position, in float32, in its chunk's region
    of ``log``, and the outcome's ``start`` says where each row's run begins.
    The call leaves the log read-only, and refuses a read-only log before
    anything moves, since a log holds one call. With ``log`` None the steps are
    only counted. Each particle runs until termination, domain exit, or block
    exit. The kernel runs on ``workers`` threads, by default one per CPU this
    process may run on; the outcome and the log do not depend on it. The
    vertices the kernel logged must equal the accepted steps.
    """
    capacity = 0
    if log is not None:
        if not log.flags.writeable:
            raise InvariantError("the round log is already written: it holds one kernel call")
        capacity = log.shape[0]
        if log.dtype != np.float32 or log.shape != (capacity, 3) or not log.flags.c_contiguous:
            raise InvariantError("the round log is not a C-contiguous (capacity, 3) float32 array")
    pos, remaining, n = pset.pos, pset.remaining, len(pset)
    if not (pos.dtype == np.float64 and pos.shape == (n, 3) and remaining.dtype == np.int64 and remaining.shape == (n,)
            and pset.home.shape == (n,) and all(a.flags.c_contiguous and a.flags.writeable for a in (pos, remaining))):
        raise InvariantError("the table is not n rows of writable C-contiguous float64 pos and int64 remaining")
    if not (isinstance(rows, np.ndarray) and rows.dtype == np.int64 and rows.ndim == 1 and rows.flags.c_contiguous
            and rows.min(initial=0) >= 0 and rows.max(initial=-1) < n):
        raise InvariantError("the row index is not a C-contiguous 1-D int64 array of rows of the table")
    seen = np.zeros(n, bool)
    seen[rows] = True
    if np.count_nonzero(seen) != len(rows):
        raise InvariantError("the row index repeats a row")
    del seen  # freed before the outcome's columns, which can reuse its memory
    out = GroupOutcome(status=np.zeros(len(rows), np.int64), exit_dir=np.full(len(rows), -1, np.int64),
                       steps=np.zeros(len(rows), np.int64), start=np.empty(len(rows), np.int64))
    workers = len(os.sched_getaffinity(0)) if workers is None else workers
    logged = _rk4_advance(len(rows), *kernel_bounds(block, pset.home), float(h), rows.ctypes, pos.ctypes,
                          remaining.ctypes, out.status.ctypes, out.exit_dir.ctypes, out.steps.ctypes,
                          None if log is None else log.ctypes, capacity, out.start.ctypes, workers)
    if logged < 0:
        raise InvariantError(_KERNEL_ERRORS[logged])
    if log is not None:
        log.setflags(write=False)
    steps = int(out.steps.sum())
    if logged != steps:
        raise InvariantError(f"the round logged {logged} vertices for {steps} accepted steps")
    return out


def integrate(block: Block, pset: ParticleSet, rows: np.ndarray, log: np.ndarray | None, h: float):
    """Run one round over the selected rows ``rows`` of the table ``pset``, advancing them in place.

    ``block`` holds one extent or the rank table that each row reads at its
    ``home``. Returns the :class:`GroupOutcome` of the rows plus its total
    accepted-step count.
    """
    outcome = integrate_group(block, pset, rows, log, h)
    return outcome, int(outcome.steps.sum())


EXPORT_BATCH = 65_536  # export_curves batch k is the pieces that start in the payload's [k, k + 1) * EXPORT_BATCH


def export_curves(path, records, config_hash: str | None = None) -> None:
    """Write the curves of ``records``, :class:`CurveRecord` s in archive order, as a line-set file.

    A particle's pieces, in archive order, are its curve, so one stable argsort
    of the pieces' ids orders the payload. Batch ``k`` is the pieces whose first
    vertex lies in the payload's ``[k, k + 1) * EXPORT_BATCH``; the kernel's
    ``rk4_export`` copies each of them whole, from its log's address, into one
    buffer reused for every batch and sized to the largest, which is under
    :data:`EXPORT_BATCH` plus the longest piece's vertices. Layout: one UTF-8
    JSON header line (particle count, per-particle vertex counts in ascending
    particle-id order, optional provenance hash) followed by flat
    little-endian float32 xyz triplets, particles in header order.
    """
    records, empty = list(records), np.empty(0, np.int64)
    ids = np.concatenate([empty, *(r.ids for r in records)])
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    lengths = np.concatenate([empty, *(r.steps for r in records)])[order]
    addresses = np.concatenate([empty, *(r.log.ctypes.data + 12 * r.start for r in records)])[order]
    first = np.flatnonzero(np.diff(sorted_ids, prepend=sorted_ids[:1] - 1))  # each id's first piece
    header = {"particle_count": len(first), "particle_ids": sorted_ids[first].tolist(),
              "vertex_counts": np.add.reduceat(lengths, first).tolist()}
    if config_hash is not None:
        header["config_hash"] = config_hash
    edges = np.append(0, np.cumsum(lengths))  # piece i is the payload's [edges[i], edges[i + 1])
    cuts = [*np.flatnonzero(np.diff(edges[:-1] // EXPORT_BATCH, prepend=-1)).tolist(), len(lengths)]
    sizes = np.diff(edges[cuts])  # batch k: pieces cuts[k]:cuts[k + 1], sizes[k] vertices
    batch = np.empty((sizes.max(initial=0), 3), np.float32)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for a, b, size in zip(cuts, cuts[1:], sizes.tolist()):
            KERNEL.rk4_export(b - a, addresses[a:b].ctypes, lengths[a:b].ctypes, batch.ctypes)
            fh.write(batch[:size].astype("<f4", copy=False))


def read_curves(path):
    """Read a line-set file back; returns ``(header, dict pid -> float32 verts)``.

    Raises ``ValueError`` unless the header describes the payload exactly:
    ``particle_count`` distinct ids and as many vertex counts, all ints that
    int64 holds and >= 0, then exactly the counts' vertices.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        payload = fh.read()
    ids, counts = header["particle_ids"], header["vertex_counts"]
    if not len(set(ids)) == len(ids) == len(counts) == header["particle_count"]:
        raise ValueError("particle_ids repeat an id, or disagree with vertex_counts or particle_count")
    if not all(type(n) is int and 0 <= n < 2**63 for n in ids + counts):
        raise ValueError("a particle id or vertex count is not an int in [0, 2**63)")
    if len(payload) != 12 * sum(counts):
        raise ValueError(f"the payload has {len(payload)} bytes; the vertex counts need {12 * sum(counts)}")
    vertices = np.frombuffer(payload, dtype="<f4").reshape(-1, 3)
    return header, dict(zip(ids, np.split(vertices, np.cumsum(counts)[:-1])))
