"""Per-round accounting, load-imbalance factor, and speedup tables.

Wall-clock columns vary run to run; everything else (work units, loads,
transfer counts) is deterministic and byte-reproducible in the CSV output.
Simulated total time uses lockstep semantics: each round costs its slowest
rank, and rounds add up.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ConfigError

LIF_CSV_HEADER = "round,lif_load,lif_steps"

# The rounds.csv columns, in order; the stages are in stage order.
ROUNDS_CSV_COLUMNS = (
    "round", "rank",
    "stage_lb_distribute_s", "stage_round_info_s", "stage_alloc_s", "stage_integrate_s",
    "stage_collect_s", "stage_oob_s", "idle_s",
    "integrate_steps", "load_pre", "load_post", "sent_balanced", "recv_balanced", "sent_oob", "recv_oob",
)
ROUNDS_CSV_HEADER = ",".join(ROUNDS_CSV_COLUMNS)
STAGE_COLUMNS = tuple(col for col in ROUNDS_CSV_COLUMNS if col.startswith("stage_"))
# One row per (round, rank): wall-clock ``_s`` columns are reals, every other column a count.
ROUNDS_DTYPE = np.dtype([(col, np.float64 if col.endswith("_s") else np.int64) for col in ROUNDS_CSV_COLUMNS])
_ROUNDS_ROW_FORMAT = ",".join("%.9e" if ROUNDS_DTYPE[col].kind == "f" else "%d" for col in ROUNDS_CSV_COLUMNS)


def round_table(rows: int) -> np.recarray:
    """A zeroed rounds table of ``rows`` rows.

    Read the ``round`` column as ``table["round"]``: on a record array
    ``table.round`` is numpy's rounding method.
    """
    return np.zeros(rows, ROUNDS_DTYPE).view(np.recarray)


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


def rounds_csv_lines(records: np.ndarray) -> list[str]:
    """The ``rounds.csv`` lines of a rounds table, one per row in table order."""
    return [ROUNDS_CSV_HEADER] + [_ROUNDS_ROW_FORMAT % row for row in records.tolist()]


def write_rounds_csv(path, records: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rounds_csv_lines(records)) + "\n")


def lif_csv_lines(rows) -> list[str]:
    """``rows`` is an iterable of (round, lif_load, lif_steps)."""
    lines = [LIF_CSV_HEADER]
    for rnd, lf_load, lf_steps in rows:
        lines.append("%d,%.9e,%.9e" % (int(rnd), float(lf_load), float(lf_steps)))
    return lines


def write_lif_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lif_csv_lines(rows)) + "\n")


def build_summary(
    config_dict: dict,
    config_hash: str,
    node_count: int,
    records: np.ndarray,
    lif_rows,
    seed_count: int,
    terminated: int,
    exited: int,
) -> dict:
    """Assemble the run summary written beside the CSVs.

    ``total_advection_s`` follows lockstep semantics (sum over rounds of the
    per-round max stage sum); ``lockstep_integrate_steps`` is its
    deterministic work-unit analogue. ``records`` is the rounds table in
    (round, rank) order, ``node_count`` rows per round.
    """
    table = records.reshape(-1, node_count)  # (rounds, ranks)
    stage_sum = sum(table[col] for col in STAGE_COLUMNS)
    stage_totals = {col: float(table[col].sum()) for col in STAGE_COLUMNS + ("idle_s",)}
    def _mean(values):
        vals = [v for v in values if not math.isnan(v)]
        return sum(vals) / len(vals) if vals else None
    return {
        "config": config_dict,
        "config_hash": config_hash,
        "node_count": int(node_count),
        "rounds": len(table),
        "seed_count": int(seed_count),
        "terminated": int(terminated),
        "exited_domain": int(exited),
        "total_advection_s": float(stage_sum.max(axis=1).sum()),
        "total_integrate_steps": int(table["integrate_steps"].sum()),
        "lockstep_integrate_steps": int(table["integrate_steps"].max(axis=1).sum()),
        "lif_load_mean": _mean([row[1] for row in lif_rows]),
        "lif_steps_mean": _mean([row[2] for row in lif_rows]),
        "stage_totals_s": stage_totals,
    }


def write_summary(path, summary: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
