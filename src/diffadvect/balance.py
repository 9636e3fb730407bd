"""Workload schedulers for nearest-neighbor diffusive load balancing.

Four schedulers are provided, selected by token:

* ``none``     -- keep everything local (the baseline),
* ``constant`` -- fixed-parameter diffusion: send ``floor(alpha * (local - w))``
                  to each lesser-loaded neighbor, with ``alpha`` defaulting to
                  :data:`DEFAULT_ALPHA`,
* ``lma``      -- lesser mean assignment: equalize with the strictly
                  lesser-loaded neighbors via an iteratively pruned mean,
* ``gllma``    -- greater-limited LMA: a quota phase in which each rank caps
                  what its greater-loaded neighbors may send it, followed by
                  LMA clipped to the received quotas.

Every rank decides from its own load and its face neighbors' loads only, and
all ranks decide in the same synchronous step, so one step of a whole grid is
one function of the ``(ranks, 6)`` neighbor-load matrix ``W`` gathered over
the neighbor table of :func:`topology.neighbor_table` (``W[r, d]`` is -1 where
rank ``r`` has no neighbor in direction ``d``). :func:`decide` computes every
rank's send row at once; :func:`plan_transfers` gathers ``W`` (and, under
gllma, the quotas each rank was granted) and calls it; :func:`select_particles`
names the queue positions that realise the sends.

All arithmetic is integer (particles are indivisible); means use floor
division. Every scheduler conserves particles: no rank sends more than it
holds, and what it does not send it keeps. Loads are at most the seed count,
which the lattice cap keeps below about 4.5e7, so products of two loads, such
as a quota share's ``total_quota * w``, fit in int64.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantError
from .topology import ProcessGrid, neighbor_table

SCHEDULERS = ("none", "constant", "lma", "gllma")
# The constant scheduler's diffusion parameter: 1 - 2/(d + 1) for a grid of
# dimensionality d, and the rank grid is always 3-D.
DEFAULT_ALPHA = 0.5


def _pruned_mean(local: np.ndarray, W: np.ndarray, greater: bool) -> tuple[np.ndarray, np.ndarray]:
    """Each row's iteratively pruned floor-mean of its local load and one side of it.

    With ``greater=False`` the contributors are neighbors strictly below the
    mean and pruning repeats while any contributor sits strictly above it;
    with ``greater=True`` both comparisons flip. A row freezes in the first
    pass that leaves it no offender: another pass over a settled row would
    drop the contributors equal to its mean and move the floored mean. Every
    row settles within ``W.shape[1] + 1`` passes, because its contributor set
    shrinks strictly whenever it has an offender. Returns the means and the
    ``W``-shaped contributor mask.
    """
    mean, contributors = local.copy(), np.zeros(W.shape, dtype=bool)
    rows = np.arange(len(local))
    for _ in range(W.shape[1] + 2):
        w, m = W[rows], mean[rows, np.newaxis]
        c = (w >= 0) & ((w > m) if greater else (w < m))
        m = (local[rows] + np.where(c, w, 0).sum(axis=1)) // (1 + c.sum(axis=1))
        mean[rows], contributors[rows] = m, c
        m = m[:, np.newaxis]
        rows = rows[np.any(c & ((w < m) if greater else (w > m)), axis=1)]
        if not rows.size:
            return mean, contributors
    raise InvariantError("pruned-mean loop failed to settle")


def quota_offers(local: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Each rank's inflow quotas offered to its strictly greater-loaded neighbors.

    A rank's total quota is the gap between its pruned greater-mean and its
    local load; each greater-loaded contributor gets a share proportional to
    its load (floor division, so the shares never exceed the total).
    """
    mean, contributors = _pruned_mean(local, W, greater=True)
    total_quota = mean - local
    if np.any(total_quota < 0):
        raise InvariantError("greater-mean fell below the local load")
    denom = np.where(contributors, W, 0).sum(axis=1, keepdims=True)
    return np.where(contributors, total_quota[:, np.newaxis] * W // np.maximum(denom, 1), 0)


def _constant(local: np.ndarray, W: np.ndarray, alpha: float) -> np.ndarray:
    """Fixed-parameter diffusion toward each strictly lesser-loaded neighbor.

    Only the higher-loaded side of each pair sends, so one exchange never
    runs in both directions. A row whose naive total exceeds its local load
    (easy with several near-empty neighbors at alpha = 0.5) is scaled down to
    exactly that load by largest remainders, ties going to the lower
    direction.
    """
    lesser = (W >= 0) & (W < local[:, np.newaxis])
    sends = np.where(lesser, (alpha * (local[:, np.newaxis] - W)).astype(np.int64), 0)
    over = np.flatnonzero(sends.sum(axis=1) > local)
    weights, total = sends[over], local[over, np.newaxis]
    wsum = weights.sum(axis=1, keepdims=True)
    split = weights * total // wsum
    # rank each direction's remainder within its row, largest first
    order = np.argsort(-(weights * total % wsum), axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(W.shape[1]), axis=1)
    sends[over] = split + (rank < total - split.sum(axis=1, keepdims=True))
    return sends


def decide(scheduler: str, local, W, granted=None, alpha: float | None = None) -> np.ndarray:
    """Every rank's sends for one synchronous step, as a ``W``-shaped matrix.

    ``local`` holds each rank's load and ``W`` its neighbors' loads, -1 where
    there is no neighbor. Under gllma ``granted[r, d]`` is the quota the
    neighbor in direction ``d`` granted rank ``r``, which caps LMA's send.
    """
    local, W = np.asarray(local, dtype=np.int64), np.asarray(W, dtype=np.int64)
    if scheduler == "none":
        sends = np.zeros(W.shape, dtype=np.int64)
    elif scheduler == "constant":
        sends = _constant(local, W, DEFAULT_ALPHA if alpha is None else alpha)
    elif scheduler in ("lma", "gllma"):
        if scheduler == "gllma" and granted is None:
            raise InvariantError("gllma requires the gathered quota vector")
        mean, contributors = _pruned_mean(local, W, greater=False)
        sends = np.where(contributors, mean[:, np.newaxis] - W, 0)
        if scheduler == "gllma":
            sends = np.minimum(sends, granted)
    else:
        raise InvariantError(f"unknown scheduler {scheduler!r}")
    if np.any(sends < 0) or np.any(sends.sum(axis=1) > local):
        raise InvariantError(f"{scheduler} planned a negative send or more than a rank holds")
    return sends


def plan_transfers(neighbors, loads, scheduler: str, alpha: float | None = None) -> np.ndarray:
    """Every rank's balancing decision for one lockstep step, as a send matrix.

    ``neighbors`` is the ``(ranks, 6)`` table of :func:`topology.neighbor_table`;
    ``sends[r, d]`` is what rank ``r`` sends its neighbor in direction ``d``,
    0 at the hull. Under gllma each rank also sees the quota each neighbor
    offered it, which the neighbor in direction ``d`` holds in its own column
    ``d ^ 1``. This is the single source of scheduler decisions: the
    runtime's distribute stage and :func:`synchronous_step` both realise its
    result.
    """
    table = np.asarray(neighbors)
    loads = np.asarray(loads, dtype=np.int64)
    if loads.shape != (len(table),):
        raise InvariantError("one load per rank required")
    if np.any(loads < 0):
        raise InvariantError(f"negative load at rank {np.argmax(loads < 0)}")
    hull = table < 0
    W = np.where(hull, -1, loads[table])
    granted = None
    if scheduler == "gllma":
        granted = np.where(hull, 0, quota_offers(loads, W)[table, np.arange(table.shape[1]) ^ 1])
    return decide(scheduler, loads, W, granted, alpha)


def run_rows(starts, lengths) -> np.ndarray:
    """The rows of consecutive runs laid end to end: run ``i`` is ``lengths[i]`` rows from ``starts[i]``."""
    starts, lengths = np.asarray(starts, dtype=np.int64), np.asarray(lengths, dtype=np.int64)
    return np.arange(lengths.sum()) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)


def select_particles(loads, sends) -> tuple[np.ndarray, list[np.ndarray]]:
    """Pick the queue positions that realise a send matrix: most recently queued first.

    Positions count along the ranks' queues laid end to end in rank order,
    rank ``r``'s ``loads[r]`` long, which is how the particle table stores
    them. Every queued particle is at home, since a loan lasts only the round
    that makes it. Rank ``r`` lends the tail of its queue, ``sends[r].sum()``
    positions, a direction at a time: direction 0 takes the first run of the
    tail, direction 1 the next, and so on.

    Returns ``(first, per_direction)``: ``first[r, d]`` is the first position
    of the run rank ``r`` lends in direction ``d``, ``sends[r, d]`` long, and
    ``per_direction`` holds one ascending array of lent positions per column
    of ``sends``.
    """
    loads, sends = np.asarray(loads, dtype=np.int64), np.asarray(sends, dtype=np.int64)
    first = (np.cumsum(loads) - sends.sum(axis=1))[:, np.newaxis] + np.cumsum(sends, axis=1) - sends
    rows = run_rows(first.T.ravel(), sends.T.ravel())  # direction-major
    return first, np.split(rows, np.cumsum(sends.sum(axis=0))[:-1])


def synchronous_step(grid: ProcessGrid, loads, scheduler: str, alpha: float | None = None) -> list[int]:
    """Apply one lockstep balancing step to a whole grid of integer loads.

    All sends of :func:`plan_transfers` execute simultaneously: each rank
    keeps its load minus its sends and gains what its neighbors send it.
    Returns the new per-rank loads: the pure-integer view of the runtime's
    distribute stage, useful for studying scheduler behavior in isolation.
    """
    table = neighbor_table(grid)
    sends = plan_transfers(table, loads, scheduler, alpha)
    new_loads = np.asarray(loads, dtype=np.int64) - sends.sum(axis=1)
    np.add.at(new_loads, table[table >= 0], sends[table >= 0])
    return new_loads.tolist()
