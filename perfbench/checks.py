"""Output check applied to every benchmark run.

A run is correct when the curves decoded from its ``curves.bin`` equal, bit
for bit, those of the one-rank unbalanced oracle run of the same inputs, and
its work counts match the expected ones. Decoded curves are compared rather
than file bytes because the file header carries the configuration hash,
which names the decomposition and scheduler.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from diffadvect.advect import read_curves

# summary.json fields that count work; they never depend on timing.
WORK_FIELDS = ("rounds", "seed_count", "terminated", "exited_domain",
               "total_integrate_steps", "lockstep_integrate_steps")

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference(workload: str, seed: int) -> dict | None:
    """Reference outputs recorded for ``workload``; they exist only for seed 0."""
    if seed != 0:
        return None
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def run_outputs(out_dir) -> dict:
    """The checked outputs of one run directory, other than its curves."""
    out_dir = Path(out_dir)
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    return {
        "lif_csv_sha256": hashlib.sha256((out_dir / "lif.csv").read_bytes()).hexdigest(),
        "work": {key: summary[key] for key in WORK_FIELDS},
        "lif_steps_mean": summary["lif_steps_mean"],
    }


def curve_mismatches(oracle: dict, path) -> list[str]:
    """Differences between the curves decoded from ``path`` and ``oracle``."""
    _, curves = read_curves(path)
    if sorted(curves) != sorted(oracle):
        return [f"curves.bin holds {len(curves)} particles, the oracle {len(oracle)}"]
    bad = [pid for pid, verts in oracle.items()
           if verts.shape != curves[pid].shape
           or not np.array_equal(verts.view(np.uint32), curves[pid].view(np.uint32))]
    if bad:
        return [f"{len(bad)} curves differ from the oracle, first particle {bad[0]}"]
    return []


def check_run(out_dir, oracle: dict, expected: dict | None) -> list[str]:
    """Every problem with one run's outputs; an empty list means correct.

    ``expected`` holds the ``lif.csv`` digest and the work fields the run
    must reproduce, from the reference or from the invocation's first run.
    """
    problems = curve_mismatches(oracle, Path(out_dir) / "curves.bin")
    if expected is not None:
        got = run_outputs(out_dir)
        if got["lif_csv_sha256"] != expected["lif_csv_sha256"]:
            problems.append("lif.csv differs from the expected bytes")
        for key in WORK_FIELDS:
            if got["work"][key] != expected["work"][key]:
                problems.append(f"summary {key} = {got['work'][key]}, expected {expected['work'][key]}")
    return problems
