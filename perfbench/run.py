"""diffadvect benchmark: time whole runs of one workload and check their outputs.

    python3 perfbench/run.py --workload toroidal-gllma --seed 0 --seconds 30 --trace 0

Run from any directory of a source checkout; the program is imported from
``src/`` without installing it. The workload's configuration at ``--seed`` is
first run once, untimed, on one rank with no balancing: that oracle's curves
are what every timed run must reproduce bit for bit. Then, for ``--seconds``,
fresh child processes run the configuration one at a time through
``cli.execute_run``; each reports its times at the reference host speed
(``hostspeed.py``). With ``--trace 1`` the children alternate between
untraced and traced runs, and a calibration of the RK4 kernel runs first.

The output lists every metric by name with its unit, the work counts, and the
path of the JSON record of this invocation; its last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and the ``metrics`` named in
BENCHMARK.json (end-to-end ones untraced, per-layer ones traced).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One thread per process: the benchmark measures the single-process simulator.
# A fixed hash seed removes one source of run-to-run layout difference.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}
# Every invocation ends within this many seconds, a hung child included.
DEADLINE_S = 170.0


def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _child(args: list, deadline: float) -> subprocess.CompletedProcess:
    timeout = max(1.0, deadline - time.monotonic())
    return subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                          capture_output=True, text=True, timeout=timeout, check=False)


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # Exit through SystemExit on SIGTERM, so subprocess.run kills the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "diffadvect" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'diffadvect'}", file=sys.stderr)
        return 2
    os.environ.update(CHILD_ENV)
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    sys.path[:0] = [str(SRC)]
    import numpy as np
    from diffadvect.advect import read_curves
    from diffadvect.cli import execute_run
    from diffadvect.config import load_config_file
    from checks import check_run, load_reference, run_outputs
    from workloads import WORKLOADS, config_for, oracle_config

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tag = f"{args.workload}_seed{args.seed}" + ("_trace" if args.trace else "")
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = config_for(args.workload, args.seed)
    config_path = work / "config.txt"
    config_path.write_text(config.canonical_text(), encoding="utf-8")
    if load_config_file(config_path).config_hash() != config.config_hash():
        raise RuntimeError("the configuration file does not reproduce the workload's configuration")

    execute_run(oracle_config(config), work / "oracle")
    _, oracle = read_curves(work / "oracle" / "curves.bin")
    shutil.rmtree(work / "oracle")
    expected = load_reference(args.workload, args.seed)

    run_dir = work / "run"
    samples: list = []

    def one_run(traced: bool) -> dict:
        nonlocal expected
        shutil.rmtree(run_dir, ignore_errors=True)
        extra = [str(work / "spans.json")] if traced else []
        started = time.monotonic()
        try:
            proc = _child(["run", str(config_path), str(run_dir), *extra], deadline)
        except subprocess.TimeoutExpired:
            return {"traced": traced, "process_s": time.monotonic() - started,
                    "problems": ["child killed at the invocation's deadline"]}
        sample = {"traced": traced, "process_s": time.monotonic() - started}
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            sample["problems"] = [f"child exited with code {proc.returncode}: {tail[0]}"]
            return sample
        sample.update(_last_json(proc))
        outputs = run_outputs(run_dir)
        if expected is None:
            expected = outputs
        sample["problems"] = check_run(run_dir, oracle, expected)
        sample.update(outputs)
        shutil.rmtree(run_dir)
        return sample

    calibration = None
    measure_start = time.monotonic()
    if args.trace:
        calibration = _last_json(_child(["calibrate", str(args.seed)], deadline))
    plan = itertools.cycle((False, True) if args.trace else (False,))
    longest = 0.0
    while True:
        sample = one_run(next(plan))
        samples.append(sample)
        longest = max(longest, sample["process_s"])
        kinds = {s["traced"] for s in samples}
        out_of_time = time.monotonic() - measure_start + longest > args.seconds
        if (out_of_time and len(kinds) == (2 if args.trace else 1)) or time.monotonic() + longest > deadline:
            break

    completed = [s for s in samples if "wall_s" in s]
    untraced = [s for s in completed if not s["traced"]]
    traced = [s for s in completed if s["traced"]]
    attempted = len(samples)
    failed = sum(1 for s in samples if s["problems"])
    for number, s in enumerate(samples, start=1):
        for problem in s["problems"]:
            print(f"FAILED run {number}: {problem}")
    if not untraced or (args.trace and not traced):
        print("perfbench: no run completed; no metrics to report", file=sys.stderr)
        return 1

    def summarize(values: list, unit: str) -> dict:
        q1, median, q3 = _quartiles(values)
        return {"value": median, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["raw_wall_s"] = "s"
    stats = {name: summarize([s[name] for s in untraced], units[name])
             for name in ("wall_s", "setup_s", "steps_per_s", "peak_rss_mb", "raw_wall_s")}
    stats["passed_run_ratio"] = summarize([(attempted - failed) / attempted], units["passed_run_ratio"])
    stats["failed_run_ratio"] = summarize([failed / attempted], "ratio")
    if args.trace:
        for name in traced[0]["layers"]:
            stats[name] = summarize([s["layers"][name] for s in traced], units[name])
        for name in ("advect.block_step_fixed_us", "advect.block_step_per_row_ns"):
            stats[name] = summarize([calibration[name]], units[name])
        overhead = statistics.median(s["wall_s"] for s in traced) - stats["wall_s"]["value"]
        stats["trace.overhead_s"] = summarize([overhead], units["trace.overhead_s"])

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} runs attempted, {failed} failed the output check"
          f" ({len(untraced)} untraced, {len(traced)} traced)")
    width = max(len(name) for name in stats)
    for name, st in stats.items():
        print(f"  {name:<{width}}  {st['value']:.6g} {st['unit']}"
              f"  (median of {st['n']}; q1 {st['q1']:.6g}, q3 {st['q3']:.6g})")
    if args.trace:
        print(f"  tracing overhead: {stats['trace.overhead_s']['value'] / stats['wall_s']['value']:.1%}"
              " of the untraced wall_s")
    work_counts = dict(untraced[0]["work"], lif_steps_mean=untraced[0]["lif_steps_mean"])
    print("  work: " + " ".join(f"{k}={v}" for k, v in work_counts.items()))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "config": config.to_dict(),
        "git_sha": _git_sha(ROOT),
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "work": work_counts,
        "calibration": calibration,
        "samples": samples,
        "summary": stats,
    }
    record_path = OUT / f"BENCH_{tag}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"  record: {record_path.relative_to(ROOT)}")

    metrics = {m["name"]: {"value": stats[m["name"]]["value"], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
