"""Workload schedulers for nearest-neighbor diffusive load balancing.

Four schedulers are provided, selected by token:

* ``none``     -- keep everything local (the baseline),
* ``constant`` -- fixed-parameter diffusion: send ``floor(alpha * (local - w))``
                  to each lesser-loaded neighbor, with ``alpha = 1 - 2/(d+1)``
                  for grid dimensionality ``d`` (0.5 in 3D),
* ``lma``      -- lesser mean assignment: equalize with the strictly
                  lesser-loaded neighbors via an iteratively pruned mean,
* ``gllma``    -- greater-limited LMA: a quota phase in which each rank caps
                  what its greater-loaded neighbors may send it, followed by
                  LMA clipped to the received quotas.

All arithmetic is integer (particles are indivisible); means use floor
division. Every scheduler is a pure function of its inputs and conserves
particles: ``sum(outgoing) + retained == local``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .particles import ParticleSet
from .topology import ProcessGrid, neighborhood_of

SCHEDULERS = ("none", "constant", "lma", "gllma")


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


def balance_constant(lv: LoadVector, dims: int = 3, alpha: float | None = None) -> BalanceDecision:
    """Fixed-parameter diffusion toward each strictly lesser-loaded neighbor.

    Only the higher-loaded side of each pair sends, so one exchange never
    runs in both directions. If the naive total exceeds the local load (easy
    with several near-empty neighbors at alpha = 0.5) the plan is scaled down
    proportionally to exactly the local load.
    """
    if alpha is None:
        alpha = 1.0 - 2.0 / (dims + 1)
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


def select_particles(queue: ParticleSet, decision: BalanceDecision, rank: int):
    """Pick which particles realize a decision: most recently arrived first.

    Only particles whose home is ``rank`` (so not on loan here) are eligible.
    If the decision asks for more than is eligible it is scaled down with
    largest-remainder rounding.

    Returns ``(kept_queue, per_neighbor_sets)``.
    """
    eligible_idx = np.nonzero(queue.home == rank)[0]
    wanted = list(decision.outgoing)
    total = sum(wanted)
    if total > len(eligible_idx):
        wanted = largest_remainder_split(wanted, len(eligible_idx))
        total = sum(wanted)
    if total == 0:
        return queue, [ParticleSet.empty() for _ in decision.outgoing]
    chosen = eligible_idx[len(eligible_idx) - total:]  # queue tail, in queue order
    sends = []
    start = 0
    for count in wanted:
        sends.append(queue.select(chosen[start:start + count]))
        start += count
    keep_mask = np.ones(len(queue), dtype=bool)
    keep_mask[chosen] = False
    return queue.select(np.nonzero(keep_mask)[0]), sends


def decide(scheduler: str, lv: LoadVector, granted_quotas=None, dims: int = 3,
           alpha: float | None = None) -> BalanceDecision:
    """Dispatch on the scheduler token."""
    if scheduler == "none":
        return balance_none(lv)
    if scheduler == "constant":
        return balance_constant(lv, dims=dims, alpha=alpha)
    if scheduler == "lma":
        return balance_lma(lv)
    if scheduler == "gllma":
        if granted_quotas is None:
            raise InvariantError("gllma requires the gathered quota vector")
        return balance_gllma(lv, granted_quotas)
    raise InvariantError(f"unknown scheduler {scheduler!r}")


def plan_transfers(grid: ProcessGrid, loads, scheduler: str,
                   alpha: float | None = None) -> list[BalanceDecision]:
    """Every rank's balancing decision for one lockstep step, indexed by rank.

    Each rank sees its own load and its face neighbors' loads in direction
    order; under gllma it also sees the quota each neighbor offered it. This
    is the single source of scheduler decisions: the runtime's distribute
    stage and :func:`synchronous_step` both realise its result.
    """
    loads = [int(w) for w in loads]
    if len(loads) != grid.rank_count:
        raise InvariantError("one load per rank required")
    hoods = [neighborhood_of(grid, r).ranks for r in range(grid.rank_count)]
    lvs = [LoadVector(loads[r], tuple(loads[j] for j in hoods[r])) for r in range(grid.rank_count)]
    granted = [None] * grid.rank_count
    if scheduler == "gllma":
        offers = [dict(zip(hoods[r], quota_offer(lvs[r]))) for r in range(grid.rank_count)]
        granted = [tuple(offers[j][r] for j in hoods[r]) for r in range(grid.rank_count)]
    return [decide(scheduler, lvs[r], granted_quotas=granted[r], alpha=alpha)
            for r in range(grid.rank_count)]


def synchronous_step(grid: ProcessGrid, loads, scheduler: str, alpha: float | None = None) -> list[int]:
    """Apply one lockstep balancing step to a whole grid of integer loads.

    All decisions of :func:`plan_transfers` execute simultaneously. Returns
    the new per-rank loads: the pure-integer view of the runtime's
    distribute stage, useful for studying scheduler behavior in isolation.
    """
    decisions = plan_transfers(grid, loads, scheduler, alpha)
    new_loads = [0] * grid.rank_count
    for r, dec in enumerate(decisions):
        new_loads[r] += dec.retained
        for j, sent in zip(neighborhood_of(grid, r).ranks, dec.outgoing):
            new_loads[j] += sent
    if sum(new_loads) != sum(int(w) for w in loads):
        raise InvariantError("synchronous step lost particles")
    return new_loads
