"""The scalar schedulers: one rank's decision at a time, in plain Python.

This is the reference the array code of :mod:`diffadvect.balance` is tested
against: every function here decides for one rank from its own load and its
in-bounds neighbors' loads in direction order, and :func:`plan_transfers`
loops over the ranks of a neighbor table. :func:`select_particles` picks one
rank's lent rows from its own queue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from diffadvect.balance import DEFAULT_ALPHA
from diffadvect.errors import InvariantError
from diffadvect.particles import ParticleSet


@dataclass(frozen=True)
class LoadVector:
    """A rank's own queued-particle count and its neighbors' counts.

    ``per_neighbor`` follows the rank's neighborhood order.
    """

    local: int
    per_neighbor: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "local", int(self.local))
        object.__setattr__(self, "per_neighbor", tuple(int(w) for w in self.per_neighbor))
        if self.local < 0 or any(w < 0 for w in self.per_neighbor):
            raise InvariantError(f"negative load in {self}")


@dataclass(frozen=True)
class BalanceDecision:
    """Per-neighbor outgoing particle counts plus the retained remainder."""

    outgoing: tuple[int, ...]
    retained: int

    def __post_init__(self):
        object.__setattr__(self, "outgoing", tuple(int(o) for o in self.outgoing))
        object.__setattr__(self, "retained", int(self.retained))
        if any(o < 0 for o in self.outgoing) or self.retained < 0:
            raise InvariantError(f"negative send/retain in {self}")

    @property
    def total_outgoing(self) -> int:
        return sum(self.outgoing)


def _decision(local: int, outgoing: list[int]) -> BalanceDecision:
    total = sum(outgoing)
    if total > local:
        raise InvariantError(f"scheduler wants to send {total} of {local} particles")
    return BalanceDecision(outgoing=tuple(outgoing), retained=local - total)


def balance_none(lv: LoadVector) -> BalanceDecision:
    """Baseline: no transfers."""
    return BalanceDecision(outgoing=(0,) * len(lv.per_neighbor), retained=lv.local)


def largest_remainder_split(weights: list[int], total: int) -> list[int]:
    """Split ``total`` proportionally to ``weights`` using largest remainders.

    Exact integer apportionment; ties go to the lower index. Used to scale a
    send plan down when it exceeds what is actually available.
    """
    wsum = sum(weights)
    if wsum == 0 or total == 0:
        return [0] * len(weights)
    base = [w * total // wsum for w in weights]
    rem = [(w * total % wsum, -i) for i, w in enumerate(weights)]
    leftover = total - sum(base)
    for _, negi in sorted(rem, reverse=True)[:leftover]:
        base[-negi] += 1
    return base


def balance_constant(lv: LoadVector, alpha: float | None = None) -> BalanceDecision:
    """Fixed-parameter diffusion toward each strictly lesser-loaded neighbor.

    Only the higher-loaded side of each pair sends, so one exchange never
    runs in both directions. If the naive total exceeds the local load (easy
    with several near-empty neighbors at alpha = 0.5) the plan is scaled down
    proportionally to exactly the local load.
    """
    if alpha is None:
        alpha = DEFAULT_ALPHA
    sends = [int(alpha * (lv.local - w)) if w < lv.local else 0 for w in lv.per_neighbor]
    total = sum(sends)
    if total > lv.local:
        sends = largest_remainder_split(sends, lv.local)
    return _decision(lv.local, sends)


def _pruned_mean(local: int, loads: tuple[int, ...], greater: bool) -> tuple[int, list[bool]]:
    """Iteratively pruned floor-mean of the local load and one side of it.

    With ``greater=False`` the contributors are neighbors strictly below the
    mean and pruning repeats while any contributor sits strictly above it;
    with ``greater=True`` both comparisons flip. Terminates within
    ``len(loads) + 1`` passes because the contributor set shrinks strictly
    whenever the loop guard fires.
    """
    mean = local
    contributors = [False] * len(loads)
    for _ in range(len(loads) + 2):
        contributors = [(w > mean if greater else w < mean) for w in loads]
        total = local + sum(w for w, c in zip(loads, contributors) if c)
        count = 1 + sum(contributors)
        mean = total // count
        offenders = any(c and (w < mean if greater else w > mean) for w, c in zip(loads, contributors))
        if not offenders:
            return mean, contributors
    raise InvariantError("pruned-mean loop failed to settle")


def balance_lma(lv: LoadVector) -> BalanceDecision:
    """Lesser mean assignment.

    Computes the pruned mean of the local load and its strictly lesser-loaded
    neighbors, then sends each final contributor the difference up to that
    mean. Workload flows in one direction only: toward lesser loads.
    """
    mean, contributors = _pruned_mean(lv.local, lv.per_neighbor, greater=False)
    sends = [mean - w if c else 0 for w, c in zip(lv.per_neighbor, contributors)]
    return _decision(lv.local, sends)


def quota_offer(lv: LoadVector) -> tuple[int, ...]:
    """Per-neighbor inflow quotas offered to strictly greater-loaded neighbors.

    The total quota is the gap between the pruned greater-mean and the local
    load; each greater-loaded contributor gets a share proportional to its
    load (floor division, so the shares never exceed the total).
    """
    mean, contributors = _pruned_mean(lv.local, lv.per_neighbor, greater=True)
    total_quota = mean - lv.local
    if total_quota < 0:
        raise InvariantError("greater-mean fell below the local load")
    denom = sum(w for w, c in zip(lv.per_neighbor, contributors) if c)
    if denom == 0:
        return (0,) * len(lv.per_neighbor)
    return tuple(total_quota * w // denom if c else 0 for w, c in zip(lv.per_neighbor, contributors))


def balance_gllma(lv: LoadVector, granted_quotas) -> BalanceDecision:
    """LMA limited pairwise by the quotas the neighbors granted this rank."""
    granted = tuple(int(q) for q in granted_quotas)
    if len(granted) != len(lv.per_neighbor):
        raise InvariantError("granted quota vector length mismatch")
    lma = balance_lma(lv)
    sends = [min(o, q) for o, q in zip(lma.outgoing, granted)]
    return _decision(lv.local, sends)


def select_particles(queue: ParticleSet, outgoing, rank: int):
    """Pick which rows of ``queue`` realize per-direction send counts: most recently arrived first.

    Only particles whose home is ``rank`` (so not on loan here) are eligible.
    If ``outgoing`` asks for more than is eligible it is scaled down with
    largest-remainder rounding.

    Returns ``(kept_rows, per_direction_rows)``, row indices into ``queue``
    in queue order, with one entry of ``per_direction_rows`` per count.
    """
    eligible = np.flatnonzero(queue.home == rank)
    wanted = [int(o) for o in outgoing]
    if sum(wanted) > len(eligible):
        wanted = largest_remainder_split(wanted, len(eligible))
    chosen = eligible[len(eligible) - sum(wanted):]  # queue tail, in queue order
    keep = np.ones(len(queue), dtype=bool)
    keep[chosen] = False
    return np.flatnonzero(keep), [chosen[end - w:end] for end, w in zip(np.cumsum(wanted), wanted)]


def decide(scheduler: str, lv: LoadVector, granted_quotas=None, alpha: float | None = None) -> BalanceDecision:
    """Dispatch on the scheduler token."""
    if scheduler == "none":
        return balance_none(lv)
    if scheduler == "constant":
        return balance_constant(lv, alpha=alpha)
    if scheduler == "lma":
        return balance_lma(lv)
    if scheduler == "gllma":
        if granted_quotas is None:
            raise InvariantError("gllma requires the gathered quota vector")
        return balance_gllma(lv, granted_quotas)
    raise InvariantError(f"unknown scheduler {scheduler!r}")


def plan_transfers(neighbors, loads, scheduler: str, alpha: float | None = None) -> np.ndarray:
    """Every rank's balancing decision for one lockstep step, as a send matrix.

    ``neighbors`` is the ``(ranks, 6)`` table of :func:`topology.neighbor_table`;
    ``sends[r, d]`` is what rank ``r`` sends its neighbor in direction ``d``,
    0 at the hull. Each rank sees its own load and its in-bounds neighbors'
    loads in direction order; under gllma it also sees the quota each
    neighbor offered it, which the neighbor in direction ``d`` holds in its
    own column ``d ^ 1``. This is the single source of scheduler decisions:
    the runtime's distribute stage and :func:`synchronous_step` both realise
    its result.
    """
    loads = [int(w) for w in loads]
    table = np.asarray(neighbors).tolist()
    if len(loads) != len(table):
        raise InvariantError("one load per rank required")
    cols = [[d for d, j in enumerate(row) if j >= 0] for row in table]
    lvs = [LoadVector(loads[r], tuple(loads[table[r][d]] for d in cols[r])) for r in range(len(table))]
    granted = [None] * len(table)
    if scheduler == "gllma":
        offers = [dict(zip(cols[r], quota_offer(lvs[r]))) for r in range(len(table))]
        granted = [tuple(offers[table[r][d]][d ^ 1] for d in cols[r]) for r in range(len(table))]
    sends = np.zeros((len(table), 6), dtype=np.int64)
    for r, lv in enumerate(lvs):
        sends[r, cols[r]] = decide(scheduler, lv, granted_quotas=granted[r], alpha=alpha).outgoing
    return sends
