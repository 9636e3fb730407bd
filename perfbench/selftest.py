"""The benchmark's own tests, kept out of the repository's test suite.

    python3 -m pytest -q perfbench/selftest.py

The file name does not match pytest's ``test_*.py`` pattern on purpose, so
the tier-1 run from the repository root never collects it.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from diffadvect.advect import read_curves  # noqa: E402
from diffadvect.cli import execute_run  # noqa: E402

import hostspeed  # noqa: E402
from checks import check_run, load_reference  # noqa: E402
from workloads import config_for, oracle_config  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", "smoke", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(trace, section):
    proc = _bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for metric in SPEC[section]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines[:-1]), name


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """One seed-0 smoke run and its oracle curves."""
    base = tmp_path_factory.mktemp("smoke")
    config = config_for("smoke", 0)
    execute_run(oracle_config(config), base / "oracle")
    _, oracle = read_curves(base / "oracle" / "curves.bin")
    execute_run(config, base / "run")
    return base / "run", oracle


def _tampered_copy(run_dir: Path, tmp_path: Path) -> Path:
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    return copy


def test_untampered_run_passes_the_check(smoke_run):
    run_dir, oracle = smoke_run
    assert check_run(run_dir, oracle, load_reference("smoke", 0)) == []


def test_tampered_curve_fails_the_check(smoke_run, tmp_path):
    run_dir, oracle = smoke_run
    copy = _tampered_copy(run_dir, tmp_path)
    data = bytearray((copy / "curves.bin").read_bytes())
    data[-1] ^= 1  # lowest mantissa bit of the last vertex's z
    (copy / "curves.bin").write_bytes(bytes(data))
    problems = check_run(copy, oracle, load_reference("smoke", 0))
    assert problems and "differ from the oracle" in problems[0]


def test_tampered_work_count_fails_the_check(smoke_run, tmp_path):
    run_dir, oracle = smoke_run
    copy = _tampered_copy(run_dir, tmp_path)
    summary = json.loads((copy / "summary.json").read_text(encoding="utf-8"))
    summary["total_integrate_steps"] += 1
    (copy / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    problems = check_run(copy, oracle, load_reference("smoke", 0))
    assert problems == [f"summary total_integrate_steps = {summary['total_integrate_steps']}, "
                        f"expected {summary['total_integrate_steps'] - 1}"]


def test_host_probe_scales_time_to_the_reference_speed():
    probe = hostspeed.HostProbe()
    d = 2 * hostspeed.REFERENCE_S  # every probe ran at half the reference speed
    probe.samples = [(1.0 + 0.1 * i, d) for i in range(1, 10)]
    # Nine probes lie inside [1, 2]; their time is not the program's.
    assert probe.normalize(1.0, 2.0) == pytest.approx((1.0 - 9 * d) / 2)
    # No probe inside: the nearest ones give the speed, and nothing is subtracted.
    assert probe.normalize(1.0, 1.05) == pytest.approx(0.05 / 2)


def test_host_probe_samples_while_installed_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostProbe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
