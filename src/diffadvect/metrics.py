"""Per-round accounting, load-imbalance factor, and speedup tables.

Wall-clock columns vary run to run; everything else (work units, loads,
transfer counts) is deterministic and byte-reproducible in the CSV output.
Simulated total time uses lockstep semantics: each round costs its slowest
rank, and rounds add up.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .errors import ConfigError, InvariantError

LIF_CSV_HEADER = "round,lif_load,lif_steps"


@dataclass
class RoundRecord:
    """One rank's accounting for one round."""

    round: int
    rank: int
    stage_lb_distribute_s: float = 0.0
    stage_round_info_s: float = 0.0
    stage_alloc_s: float = 0.0
    stage_integrate_s: float = 0.0
    stage_collect_s: float = 0.0
    stage_oob_s: float = 0.0
    idle_s: float = 0.0
    integrate_steps: int = 0
    load_pre: int = 0
    load_post: int = 0
    sent_balanced: int = 0
    recv_balanced: int = 0
    sent_oob: int = 0
    recv_oob: int = 0

    def stage_sum(self) -> float:
        return sum(getattr(self, col) for col in STAGE_COLUMNS)


# The rounds.csv columns are the record's fields, in order; the stages are in stage order.
ROUNDS_CSV_COLUMNS = tuple(f.name for f in fields(RoundRecord))
ROUNDS_CSV_HEADER = ",".join(ROUNDS_CSV_COLUMNS)
STAGE_COLUMNS = tuple(col for col in ROUNDS_CSV_COLUMNS if col.startswith("stage_"))


def lif(loads) -> float:
    """Load imbalance factor: max load over mean load.

    Equal to 1 when all loads match. Undefined for all-zero loads; NaN is
    returned as the "not applicable" sentinel for such rounds.
    """
    loads = [float(w) for w in loads]
    if not loads:
        raise ConfigError("lif of an empty load list")
    total = sum(loads)
    if total == 0.0:
        return math.nan
    return max(loads) / (total / len(loads))


def lif_from_steps(records: list[RoundRecord]) -> float:
    """Work-unit LIF of one round, computed from accepted RK4 step counts."""
    if not records:
        raise ConfigError("lif of an empty record list")
    rounds = {r.round for r in records}
    if len(rounds) != 1:
        raise InvariantError(f"records span rounds {sorted(rounds)}; expected one")
    return lif([r.integrate_steps for r in records])


def lockstep_total(records: list[RoundRecord], value):
    """Sum over rounds of the per-round maximum of ``value(record)``.

    Lockstep semantics: each round costs its slowest rank, and rounds add up.
    """
    by_round: dict = {}
    for r in records:
        v = value(r)
        by_round[r.round] = max(by_round.get(r.round, v), v)
    return sum(by_round.values())


def speedup(times: dict[int, float]) -> dict[int, float]:
    """Relative speedup ``S(N) = T(baseline) / T(N)`` keyed by node count.

    The baseline is the smallest node count present; at least two
    measurements are required.
    """
    if len(times) < 2:
        raise ConfigError("speedup needs at least two node counts")
    counts = sorted(times)
    base = float(times[counts[0]])
    if base <= 0.0:
        raise ConfigError("baseline time must be positive")
    return {n: base / float(times[n]) for n in counts}


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.9e" % value
    return str(int(value))


def rounds_csv_lines(records: list[RoundRecord]) -> list[str]:
    lines = [ROUNDS_CSV_HEADER]
    for r in sorted(records, key=lambda r: (r.round, r.rank)):
        lines.append(",".join(_fmt(getattr(r, col)) for col in ROUNDS_CSV_COLUMNS))
    return lines


def write_rounds_csv(path, records: list[RoundRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rounds_csv_lines(records)) + "\n")


def lif_csv_lines(rows) -> list[str]:
    """``rows`` is an iterable of (round, lif_load, lif_steps)."""
    lines = [LIF_CSV_HEADER]
    for rnd, lf_load, lf_steps in rows:
        lines.append("%d,%s,%s" % (int(rnd), _fmt(float(lf_load)), _fmt(float(lf_steps))))
    return lines


def write_lif_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lif_csv_lines(rows)) + "\n")


def build_summary(
    config_dict: dict,
    config_hash: str,
    node_count: int,
    records: list[RoundRecord],
    lif_rows,
    seed_count: int,
    terminated: int,
    exited: int,
) -> dict:
    """Assemble the run summary written beside the CSVs.

    ``total_advection_s`` follows lockstep semantics (sum over rounds of the
    per-round max stage sum); ``lockstep_integrate_steps`` is its
    deterministic work-unit analogue.
    """
    total_s = lockstep_total(records, RoundRecord.stage_sum)
    lockstep_steps = lockstep_total(records, lambda r: r.integrate_steps)
    total_steps = sum(r.integrate_steps for r in records)
    stage_totals = {col: sum(getattr(r, col) for r in records) for col in STAGE_COLUMNS + ("idle_s",)}
    def _mean(values):
        vals = [v for v in values if not math.isnan(v)]
        return sum(vals) / len(vals) if vals else None
    return {
        "config": config_dict,
        "config_hash": config_hash,
        "node_count": int(node_count),
        "rounds": len({r.round for r in records}),
        "seed_count": int(seed_count),
        "terminated": int(terminated),
        "exited_domain": int(exited),
        "total_advection_s": total_s,
        "total_integrate_steps": int(total_steps),
        "lockstep_integrate_steps": int(lockstep_steps),
        "lif_load_mean": _mean([row[1] for row in lif_rows]),
        "lif_steps_mean": _mean([row[2] for row in lif_rows]),
        "stage_totals_s": stage_totals,
    }


def write_summary(path, summary: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
