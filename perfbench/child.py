"""One measured run, or the kernel calibration, in a fresh process.

    python3 perfbench/child.py run <config.txt> <out_dir> [<spans.json>]
    python3 perfbench/child.py calibrate <seed>

``run`` executes ``cli.execute_run`` on the configuration file, exactly as
``diffadvect run`` does, and prints one JSON line with its timings, each
normalized to the reference host speed by ``hostspeed.HostProbe``. Given a
spans path it runs traced and adds the per-layer metrics, which are raw.
``calibrate`` times ``advect._block_step`` alone at a few batch sizes. The parent sets
``PYTHONPATH`` and pins numpy to one thread.
"""

from __future__ import annotations

import contextlib
import functools
import json
import resource
import statistics
import sys
import time

import numpy as np

from diffadvect import advect, cli
from diffadvect.config import load_config_file
from diffadvect.field import AnalyticField, rasterize_block, rasterize_global
from hostspeed import HostProbe
from spans import Tracer, layer_metrics

# Extra Simulator constructions after an untraced run, so that setup_s is a
# median even in a run that measures only once.
SETUP_REPEATS = 8
CALIBRATION_ROWS = (8, 512, 8192)
CALIBRATION_SECONDS = 0.5  # per batch size


class _TimedSetup:
    """Records the interval of every Simulator construction made through ``cli``."""

    def __init__(self, simulator):
        self.simulator = simulator
        self.args = None
        self.intervals: list = []

    def __call__(self, *args, **kwargs):
        self.args = (args, kwargs)
        start = time.perf_counter()
        sim = self.simulator(*args, **kwargs)
        self.intervals.append((start, time.perf_counter()))
        return sim

    def repeat(self, times: int) -> None:
        args, kwargs = self.args
        for _ in range(times):
            self(*args, **kwargs)


def _run(config_path, out_dir, spans_path=None) -> dict:
    """One run; its times are normalized to the reference host speed (``hostspeed``)."""
    config = load_config_file(config_path)
    setup = _TimedSetup(cli.Simulator)
    cli.Simulator = setup
    tracer = Tracer() if spans_path is not None else None
    with HostProbe() as probe:
        with tracer if tracer is not None else contextlib.nullcontext():
            run = tracer.span("run", cli.execute_run) if tracer is not None else cli.execute_run
            start = time.perf_counter()
            _, summary = run(config, out_dir)
            end = time.perf_counter()
        if tracer is None:
            setup.repeat(SETUP_REPEATS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = probe.normalize(start, end)
    in_run_setup = probe.normalize(*setup.intervals[0])
    result = {
        "wall_s": wall,
        "raw_wall_s": end - start,
        "probes": len(probe.samples),
        "in_run_setup_s": in_run_setup,
        "steps_per_s": summary["total_integrate_steps"] / (wall - in_run_setup),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(probe.normalize(a, b) for a, b in setup.intervals),
    }
    if tracer is not None:
        tracer.write(spans_path)
        # Span times get the run's own host-speed factor, so they add up to wall_s.
        factor = wall / (end - start)
        result["layers"] = {name: value * factor if name.endswith("_s") else value
                            for name, value in layer_metrics(tracer).items()}
        result["span_totals"] = tracer.totals()
    return result


def _median_call_s(fn) -> float:
    intervals = []
    with HostProbe() as probe:
        deadline = time.perf_counter() + CALIBRATION_SECONDS
        while len(intervals) < 5 or time.perf_counter() < deadline:
            start = time.perf_counter()
            fn()
            intervals.append((start, time.perf_counter()))
    return statistics.median(probe.normalize(a, b) for a, b in intervals)


def _calibrate(seed: int) -> dict:
    """Fit ``seconds = fixed + per_row * rows`` for one ``_block_step`` call.

    The block is the whole 64^3 toroidal lattice, and the rows are drawn
    well inside it, so no stage point is rejected.
    """
    res = (64, 64, 64)
    field = AnalyticField("toroidal")
    block = rasterize_block(field, res, (0, 0, 0), res, global_data=rasterize_global(field, res))
    rng = np.random.default_rng(seed)
    per_call = []
    for rows in CALIBRATION_ROWS:
        pos = rng.uniform(0.2, 0.8, size=(rows, 3))
        per_call.append(_median_call_s(functools.partial(advect._block_step, block, pos, 0.001)))
    # Weights 1/t fit relative error, so the small batch pins the fixed cost.
    t = np.asarray(per_call)
    per_row, fixed = np.polyfit(np.asarray(CALIBRATION_ROWS, dtype=np.float64), t, 1, w=1.0 / t)
    return {
        "advect.block_step_fixed_us": float(fixed) * 1e6,
        "advect.block_step_per_row_ns": float(per_row) * 1e9,
        "per_call_s": dict(zip((str(r) for r in CALIBRATION_ROWS), per_call)),
    }


def main(argv) -> int:
    if argv[0] == "run":
        result = _run(argv[1], argv[2], argv[3] if len(argv) > 3 else None)
    elif argv[0] == "calibrate":
        result = _calibrate(int(argv[1]))
    else:
        print(f"unknown mode {argv[0]!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
