"""Per-round accounting, load-imbalance factor, and speedup tables.

Wall-clock columns vary run to run; everything else (work units, loads,
transfer counts) is deterministic and byte-reproducible in the CSV output.
Simulated total time uses lockstep semantics: each round costs its slowest
rank, and rounds add up.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

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


def lif(loads):
    """Load imbalance factor over the last axis: max load over mean load.

    ``loads`` are counts, one per rank; a ``(rounds, ranks)`` table gives one
    factor per round. Equal to 1 when all loads match. Undefined for all-zero
    loads; NaN is returned as the "not applicable" sentinel for such rounds.
    """
    loads = np.asarray(loads)
    if loads.ndim == 0 or loads.shape[-1] == 0:
        raise ConfigError("lif of an empty load list")
    # summed as integers: exact, so equal to a float sum in any order while the total is below 2**53
    total = loads.sum(axis=-1).astype(np.float64)
    peak = loads.max(axis=-1).astype(np.float64)
    factors = np.divide(peak, total / loads.shape[-1], out=np.full(total.shape, math.nan), where=total != 0)
    return factors[()]  # a scalar for one round's loads


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
    Path(path).write_text("\n".join(rounds_csv_lines(records)) + "\n", encoding="utf-8", newline="\n")


def round_lifs(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each round's LIF over its post-balance loads and over its integrate steps."""
    return lif(table["load_post"]), lif(table["integrate_steps"])


def lif_csv_lines(table: np.ndarray) -> list[str]:
    """The ``lif.csv`` lines of a ``(rounds, ranks)`` rounds table, one per round."""
    rounds = table["round"][:, 0].tolist()
    rows = zip(rounds, *(column.tolist() for column in round_lifs(table)))
    return [LIF_CSV_HEADER] + ["%d,%.9e,%.9e" % row for row in rows]


def write_lif_csv(path, table: np.ndarray) -> None:
    Path(path).write_text("\n".join(lif_csv_lines(table)) + "\n", encoding="utf-8", newline="\n")


def build_summary(config_dict: dict, config_hash: str, result) -> dict:
    """Assemble the summary of a :class:`runtime.RunResult`, written beside the CSVs.

    Every figure but the run's seed, terminated and exited counts is read off
    its rounds table. ``total_advection_s`` follows lockstep semantics (sum
    over rounds of the per-round max stage sum); ``lockstep_integrate_steps``
    is its deterministic work-unit analogue.
    """
    table = result.table
    stage_sum = sum(table[col] for col in STAGE_COLUMNS)
    def _mean(values):  # summed in order as Python floats, as numpy's pairwise sum may differ in the last bit
        vals = values[~np.isnan(values)].tolist()
        return sum(vals) / len(vals) if vals else None
    lif_load, lif_steps = round_lifs(table)
    return {
        "config": config_dict,
        "config_hash": config_hash,
        "node_count": result.node_count,
        "rounds": result.rounds,
        "seed_count": result.seed_count,
        "terminated": result.terminated,
        "exited_domain": result.exited,
        "total_advection_s": float(stage_sum.max(axis=1).sum()),
        "total_integrate_steps": result.total_integrate_steps(),
        "lockstep_integrate_steps": result.lockstep_integrate_steps(),
        "lif_load_mean": _mean(lif_load),
        "lif_steps_mean": _mean(lif_steps),
        "stage_totals_s": {col: float(table[col].sum()) for col in STAGE_COLUMNS + ("idle_s",)},
    }


def write_summary(path, summary: dict) -> None:
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")
