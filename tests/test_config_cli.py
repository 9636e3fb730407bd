import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import diffadvect
from diffadvect.cli import main
from diffadvect.config import (
    LATTICE_CAP_BYTES,
    RANK_CAP,
    ROUND_BUFFER_CAP_BYTES,
    SEED_BYTES,
    SEED_TABLE_CAP_BYTES,
    SETTINGS,
    RunConfig,
    apply_setting,
    parse_config_text,
)
from diffadvect.errors import ConfigError
from diffadvect.metrics import LIF_CSV_HEADER, ROUNDS_CSV_HEADER

FAST = [
    "field = abc",
    "resolution = 16",
    "grid = 2,1,1",
    "scheduler = lma",
    "stride = 4,4,4",
    "max_iterations = 10",
    "particles_per_round = 1000",
]


def write_config(tmp_path, lines, name="run.cfg"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def summary_work(out_dir):
    """The fields of a run's ``summary.json`` that count work and never depend on timing."""
    summary = json.loads((out_dir / "summary.json").read_text())
    return {key: summary[key] for key in ("rounds", "seed_count", "terminated", "exited_domain",
                                          "total_integrate_steps", "lockstep_integrate_steps")}


class TestConfigParsing:
    def test_file_roundtrip_with_comments(self):
        cfg = parse_config_text(
            """
            # experiment
            field = toroidal
            param.kappa = 0.75
            resolution = 32,32,16
            scheduler = gllma  # inline comment
            aabb_scale = 0.5
            export_curves = false
            """
        )
        assert cfg.field == "toroidal"
        assert cfg.field_params == {"kappa": 0.75}
        assert cfg.resolution == (32, 32, 16)
        assert cfg.scheduler == "gllma"
        assert cfg.export_curves is False

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("fields = abc\nstep = 0.001\n")
        assert any("line 1" in e for e in err.value.errors)

    def test_all_errors_collected(self):
        cfg = RunConfig(field="abc", scheduler="magic", aabb_scale=2.0,
                        stride=(0, 4, 4), step=-1.0, max_iterations=5000)
        errors = cfg.validate()
        assert len(errors) >= 4
        joined = "\n".join(errors)
        for word in ("scheduler", "aabb_scale", "stride", "step", "max_iterations"):
            assert word in joined

    def test_grid_nodes_consistency(self):
        assert RunConfig(grid=(4, 2, 2), nodes=16).validate() == []
        assert RunConfig(grid=(4, 2, 2), nodes=8).validate() != []
        assert RunConfig(nodes=16).grid_dims() == (4, 2, 2)
        # factoring takes time linear in the node count: a count above the rank cap is refused first
        errors = RunConfig(nodes=10**18, resolution=(8, 8, 8)).validate()
        assert errors == ["nodes: 1000000000000000000 ranks exceed the cap of 4096"]

    def test_oversized_lattice_rejected_by_estimate(self):
        def resolution_errors(r):
            return [e for e in RunConfig(resolution=(r, r, r)).validate() if e.startswith("resolution")]

        largest = round((LATTICE_CAP_BYTES / 24) ** (1 / 3)) - 2
        while (largest + 3) ** 3 * 24 <= LATTICE_CAP_BYTES:
            largest += 1
        while (largest + 2) ** 3 * 24 > LATTICE_CAP_BYTES:
            largest -= 1
        assert resolution_errors(largest) == []
        assert len(resolution_errors(largest + 1)) == 1
        assert "GiB" in resolution_errors(4096)[0]

    def test_oversized_round_buffer_rejected_by_estimate(self):
        def buffer_errors(cfg):
            return [e for e in cfg.validate() if e.startswith("export_curves")]

        dense = RunConfig(stride=(1, 1, 1))  # 64^3 seeds, 50,000 selected per round
        assert dense.round_buffer_bytes() == 50_000 * 1000 * 12 > ROUND_BUFFER_CAP_BYTES
        assert len(buffer_errors(dense)) == 1 and "GiB" in buffer_errors(dense)[0]
        assert RunConfig(stride=(1, 1, 1), export_curves=False).validate() == []
        # one rank, every 4th node: 4,096 seeds and a 49 MB log
        oracle = RunConfig(stride=(4, 4, 4))
        assert oracle.round_buffer_bytes() == 4096 * 1000 * 12
        assert oracle.validate() == []
        # few particles per round bound the buffer whatever the seed count
        assert RunConfig(stride=(1, 1, 1), grid=(4, 2, 2), particles_per_round=64).validate() == []

    def test_oversized_seed_table_rejected_by_estimate(self):
        # every node of a lattice just under the lattice cap: 43,986,977 seeds, counted without seeding
        cfg = RunConfig(resolution=(353, 353, 353), stride=(1, 1, 1), step=1e-4, export_curves=False)
        assert cfg.seed_table_bytes() == 353 ** 3 * SEED_BYTES > SEED_TABLE_CAP_BYTES
        [problem] = cfg.validate()
        assert problem.startswith("seeds: 43,986,977 seeds") and "GiB" in problem
        assert all(remedy in problem for remedy in ("raise stride", "aabb_scale", "resolution"))
        # it is listed with every other problem
        problems = RunConfig(resolution=(353, 353, 353), stride=(1, 1, 1), scheduler="foo").validate()
        assert [p.split(":")[0] for p in problems] == ["scheduler", "seeds", "export_curves"]

    def test_round_buffer_estimate_counts_the_seeds(self):
        from diffadvect.runtime import Simulator

        cfg = RunConfig(resolution=(19, 23, 17), stride=(3, 2, 5), aabb_scale=0.6, max_iterations=7)
        sim = Simulator(cfg)
        assert cfg.round_buffer_bytes() == sim.seed_count * 7 * 12

    @settings(max_examples=40, deadline=None)
    @given(hst.tuples(*[hst.integers(2, 24)] * 3), hst.floats(0.01, 1.0), hst.tuples(*[hst.integers(1, 9)] * 3))
    def test_counted_seeds_equal_the_seeded_ones(self, resolution, aabb_scale, stride):
        from diffadvect.runtime import Simulator

        cfg = RunConfig(resolution=resolution, aabb_scale=aabb_scale, stride=stride, max_iterations=1,
                        export_curves=False)
        sim = Simulator(cfg)
        assert cfg.seed_count() == sim.seed_count

    @pytest.mark.parametrize("settings_", [
        dict(resolution=(8, 8)), dict(resolution=(8, 8, 8, 8)), dict(stride=(2, 2)), dict(stride=(2, 2, 2, 2)),
        dict(grid=(2, 2)), dict(grid=(2, 2), nodes=4), dict(grid=(1, 1, 1, 1)),
    ])
    def test_axis_that_is_not_a_triple_is_a_listed_problem(self, settings_):
        # listed beside every other problem, and the seed-table and curve-log estimates skip it
        [key] = [k for k in settings_ if k != "nodes"]
        problems = RunConfig(scheduler="foo", **settings_).validate()
        assert sorted(p.split(":")[0] for p in problems) == sorted([key, "scheduler"])

    def test_settings_and_the_summary_config_name_every_field(self):
        # SETTINGS is the one list of settable keys; field coefficients are set as param.<name>
        names = {f.name for f in fields(RunConfig)}
        assert set(SETTINGS) == names - {"field_params"}
        # the summary's config names the resolved grid and no output directory
        assert set(RunConfig().to_dict()) == names - {"output", "nodes"}

    def test_apply_setting_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            apply_setting(RunConfig(), "step", "fast")
        with pytest.raises(ConfigError):
            apply_setting(RunConfig(), "warp", "9")

    def test_hash_is_stable_and_output_independent(self):
        a = RunConfig(output="x")
        b = RunConfig(output="y")
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != RunConfig(scheduler="lma").config_hash()


class TestRunCommand:
    def test_run_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, FAST)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
        for name in ("rounds.csv", "lif.csv", "summary.json", "config.txt", "curves.bin"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["node_count"] == 2
        assert summary["config"]["scheduler"] == "lma"

    def test_run_that_seeds_nothing_writes_empty_tables(self, tmp_path):
        # the 0.05 box around the centre holds no node of a stride-8 lattice on 16 voxels
        out = tmp_path / "out"
        assert main(["run", "--resolution", "16", "--stride", "8", "--aabb-scale", "0.05", "--grid", "2,1,1",
                     "--output", str(out)]) == 0
        assert (out / "rounds.csv").read_text().splitlines() == [ROUNDS_CSV_HEADER]
        assert (out / "lif.csv").read_text().splitlines() == [LIF_CSV_HEADER]
        assert summary_work(out) == dict(rounds=0, seed_count=0, terminated=0, exited_domain=0,
                                         total_integrate_steps=0, lockstep_integrate_steps=0)
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["stage_totals_s"].values()) == {0} and summary["lif_steps_mean"] is None

    def test_rounds_csv_is_reproducible_and_time_is_measured_once_per_stage(self, tmp_path):
        import math
        import time

        from diffadvect.cli import execute_run
        from diffadvect.metrics import STAGE_COLUMNS

        config = RunConfig(field="toroidal", resolution=(16, 16, 16), grid=(2, 2, 1), scheduler="gllma",
                           stride=(2, 2, 2), aabb_scale=0.5, max_iterations=50, particles_per_round=16)
        for name in ("a", "b"):
            start = time.perf_counter()
            _, summary = execute_run(config, tmp_path / name)
            elapsed = time.perf_counter() - start
            totals = summary["stage_totals_s"]
            assert tuple(totals) == STAGE_COLUMNS == (
                "stage_lb_distribute_s", "stage_round_info_s", "stage_alloc_s", "stage_integrate_s",
                "stage_collect_s", "stage_oob_s")
            assert all(math.isfinite(t) and t >= 0.0 for t in totals.values())
            assert sum(totals.values()) <= elapsed
        assert summary["rounds"] > 1
        assert (tmp_path / "a" / "rounds.csv").read_bytes() == (tmp_path / "b" / "rounds.csv").read_bytes()

    def test_a_run_imports_no_module_after_the_cli(self, tmp_path):
        # a module imported on first use (np.unique imports numpy.ma, say) costs every run its
        # import time and resident memory
        script = (
            "import sys\n"
            "from diffadvect.cli import execute_run\n"
            "from diffadvect.config import RunConfig\n"
            "before = set(sys.modules)\n"
            "execute_run(RunConfig(resolution=(16, 16, 16), grid=(2, 2, 1), scheduler='gllma', stride=(4, 4, 4),"
            " max_iterations=50, particles_per_round=8), sys.argv[1])\n"
            "print(sorted(set(sys.modules) - before))\n"
        )
        src = Path(diffadvect.__file__).parents[1]
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
        assert (tmp_path / "curves.bin").exists()

    def test_curves_add_no_more_than_their_written_vertices_to_the_peak(self, tmp_path):
        # the abc-oracle benchmark run in fresh processes, curves on and off: the curves may cost
        # their written float32 vertices (12 B each) and 4 MiB, not a second copy of them. The peak
        # is the process's VmHWM, since ru_maxrss keeps the peak of the forked test process
        script = (
            "import json, re, sys\n"
            "from pathlib import Path\n"
            "from diffadvect.cli import execute_run\n"
            "from diffadvect.config import RunConfig\n"
            "config = RunConfig(field='abc', grid=(1, 1, 1), scheduler='none', stride=(4, 4, 4),"
            " max_iterations=1000, export_curves=sys.argv[2] == 'on')\n"
            "result, _ = execute_run(config, sys.argv[1])\n"
            "peak = re.search(r'VmHWM:\\s*(\\d+) kB', Path('/proc/self/status').read_text()).group(1)\n"
            "print(json.dumps([int(peak), result.total_integrate_steps()]))\n"
        )
        src = Path(diffadvect.__file__).parents[1]
        peaks, steps = {}, {}
        for curves in ("on", "off"):
            done = subprocess.run([sys.executable, "-c", script, str(tmp_path / curves), curves],
                                  capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
                                  timeout=120)
            assert done.returncode == 0, done.stderr
            peak_kib, steps[curves] = json.loads(done.stdout)
            peaks[curves] = 1024 * peak_kib
        assert steps["on"] == steps["off"] > 0
        assert peaks["on"] - peaks["off"] <= 12 * steps["on"] + 4 * 2**20

    def test_seed_bytes_bounds_the_peak_per_seed(self):
        # the many-seed run (abc, 128^3, 2x2x2 gllma, 1 iteration, curves off) in fresh processes at
        # stride 1 and 2: the peak may grow by at most SEED_BYTES per further seed, the estimate that
        # keeps an oversized table from being seeded at all. The peak is the process's VmHWM.
        script = (
            "import json, re, sys\n"
            "from pathlib import Path\n"
            "from diffadvect.cli import execute_run\n"
            "from diffadvect.config import RunConfig\n"
            "config = RunConfig(field='abc', resolution=(128, 128, 128), grid=(2, 2, 2), scheduler='gllma',"
            " stride=(int(sys.argv[1]),) * 3, max_iterations=1, export_curves=False)\n"
            "result, _ = execute_run(config)\n"
            "peak = re.search(r'VmHWM:\\s*(\\d+) kB', Path('/proc/self/status').read_text()).group(1)\n"
            "print(json.dumps([1024 * int(peak), result.seed_count]))\n"
        )
        src = Path(diffadvect.__file__).parents[1]
        runs = []
        for stride in (1, 2):
            done = subprocess.run([sys.executable, "-c", script, str(stride)], capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
            assert done.returncode == 0, done.stderr
            runs.append(json.loads(done.stdout))
        (peak_many, many), (peak_few, few) = runs
        assert (many, few) == (128 ** 3, 64 ** 3)
        assert peak_many - peak_few <= SEED_BYTES * (many - few)

    def test_a_run_merges_curves_only_when_they_are_read(self, tmp_path, monkeypatch):
        from diffadvect import runtime
        from diffadvect.cli import execute_run

        merged = []
        monkeypatch.setattr(runtime, "merge_curves", lambda store: merged.append(store) or {})
        result, _ = execute_run(RunConfig(resolution=(16, 16, 16), stride=(4, 4, 4), max_iterations=10), tmp_path)
        assert merged == [] and (tmp_path / "curves.bin").exists()
        assert result.curves == {} and result.curves == {}
        assert merged == [result.store]  # merged once, on first read

    def test_the_archived_curves_are_the_file(self, tmp_path):
        # a run of many rounds, whose curves are pieces from several: what RunResult.curves holds is
        # what curves.bin holds, float32 and byte for byte
        from diffadvect.advect import read_curves
        from diffadvect.cli import execute_run

        config = RunConfig(field="jets", grid=(4, 2, 2), scheduler="lma", stride=(4, 4, 4), max_iterations=100,
                           particles_per_round=64)
        result, _ = execute_run(config, tmp_path)
        _, read = read_curves(tmp_path / "curves.bin")
        pieces = [pid for record in result.store.records for pid in record.ids.tolist()]
        assert result.rounds > 1 and len(pieces) > len(set(pieces))  # some curves span rounds
        assert list(read) == sorted(result.curves)
        for pid, curve in result.curves.items():
            assert curve.dtype == read[pid].dtype == np.float32, pid
            assert curve.tobytes() == read[pid].tobytes(), pid

    def test_bad_config_exits_2_listing_everything(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ["scheduler = magic", "aabb_scale = 7",
                                      "step = nan", "param.A = nan"])
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "scheduler" in err and "aabb_scale" in err
        assert "step" in err and "field params" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--kind", "balance"]], ids=["run", "sweep"])
    def test_every_source_listed_in_one_exit_2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, FAST + ["step = fast"])
        out = tmp_path / "out"
        argv = command + ["--config", str(cfg), "--set", "nodes=y", "--max-iterations", "lots",
                          "--set", "particles_per_round=0", "--output", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"line {len(FAST) + 1}: bad value for step" in err
        assert "--set: bad value for nodes" in err
        assert "--max-iterations: bad value for max_iterations" in err
        assert "particles_per_round: must be >= 1, got 0" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("lines, argv", [(["alpha = 0.5"], []), ([], ["--set", "alpha=0.5"])],
                             ids=["file", "set"])
    def test_alpha_is_an_unknown_key(self, tmp_path, capsys, lines, argv):
        # constant diffusion sends half of each gap, so no setting names a diffusion parameter
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, FAST + lines)), *argv,
                     "--output", str(out)]) == 2
        assert "unknown configuration key 'alpha'" in capsys.readouterr().err
        assert not out.exists()

    def test_alpha_flag_is_refused_by_the_parser(self):
        with pytest.raises(SystemExit) as refused:
            main(["run", "--alpha", "0.5"])
        assert refused.value.code == 2

    @pytest.mark.parametrize("command, key, token", [
        (["run"], "scheduler", "scheduler: unknown token 'foo'"),
        (["sweep", "--kind", "balance"], "field", "field: unknown kind 'foo'"),  # members set the scheduler
    ], ids=["run", "sweep"])
    def test_flag_value_starting_with_a_dash(self, tmp_path, capsys, command, key, token):
        out = tmp_path / "out"
        assert main(command + ["--step", "-1e-3", f"--{key}", "foo", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "step: must be positive and finite, got -0.001" in err
        assert token in err
        assert not out.exists()

    def test_axis_without_param_kind_is_a_listed_problem(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--kind", "balance", "--axis", "field", "--particles-per-round", "0",
                     "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--axis: only --kind param takes an axis, not --kind balance" in err
        assert "particles_per_round: must be >= 1, got 0" in err
        assert not out.exists()

    def test_rerun_without_curves_removes_stale_curves(self, tmp_path):
        cfg = write_config(tmp_path, FAST)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
        assert (out / "curves.bin").exists()
        assert main(["run", "--config", str(cfg), "--export-curves", "off", "--output", str(out)]) == 0
        assert not (out / "curves.bin").exists()
        assert main(["export-curves", "--run", str(out), "--out", str(tmp_path / "x.bin")]) == 2

    def test_oversized_lattice_exits_2_without_allocating(self, tmp_path, capsys, monkeypatch):
        from diffadvect import cli

        class NeverBuilt:
            def __init__(self, *a, **k):
                raise AssertionError("an oversized lattice reached the simulator")

        monkeypatch.setattr(cli, "Simulator", NeverBuilt)
        out = tmp_path / "out"
        assert main(["run", "--resolution", "4096", "--output", str(out)]) == 2
        assert "resolution" in capsys.readouterr().err
        assert not out.exists()

    def test_rank_count_above_the_cap_exits_2_without_building(self, tmp_path, capsys, monkeypatch):
        from diffadvect import cli

        class NeverBuilt:
            def __init__(self, *a, **k):
                raise AssertionError("a grid above the rank cap reached the simulator")

        monkeypatch.setattr(cli, "Simulator", NeverBuilt)
        out = tmp_path / "out"
        assert main(["run", "--grid", "353,353,353", "--resolution", "353", "--output", str(out)]) == 2
        assert f"43986977 ranks exceed the cap of {RANK_CAP}" in capsys.readouterr().err
        assert not out.exists()
        assert RunConfig(grid=(16, 16, 16), export_curves=False).validate() == []
        assert len(RunConfig(grid=(16, 16, 17), export_curves=False).validate()) == 1

    def test_oversized_round_buffer_exits_2_without_allocating(self, tmp_path, capsys, monkeypatch):
        from diffadvect import cli

        class NeverBuilt:
            def __init__(self, *a, **k):
                raise AssertionError("an oversized round buffer reached the simulator")

        monkeypatch.setattr(cli, "Simulator", NeverBuilt)
        out = tmp_path / "out"
        assert main(["run", "--stride", "1", "--output", str(out)]) == 2
        assert "export_curves" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_lattice_exits_2_without_output(self, tmp_path, capsys):
        # finite parameters whose field overflows to NaN on the lattice
        out = tmp_path / "out"
        assert main(["run", "--field", "toroidal", "--set", "param.R0=1e308", "--set", "param.kappa=1e308",
                     "--resolution", "16", "--stride", "4", "--max-iterations", "5",
                     "--export-curves", "false", "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert "not finite on the lattice" in captured.err and "Warning" not in captured.err
        assert not out.exists()

    def test_overflow_near_the_torus_axis_exits_2_without_output(self, tmp_path, capsys):
        # vz = kappa * (rho - R0) / rs overflows to -inf at the nodes within 0.3 of the torus axis, and only there
        out = tmp_path / "out"
        assert main(["run", "--field", "toroidal", "--set", "param.R0=1.5", "--set", "param.kappa=1.5e308",
                     "--resolution", "16", "--stride", "4", "--max-iterations", "5",
                     "--export-curves", "false", "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert "not finite on the lattice" in captured.err and "Warning" not in captured.err
        assert not out.exists()

    def test_overflow_in_a_plane_component_exits_2_without_output(self, tmp_path, capsys):
        # abc's vx = A sin(2 pi z) + C cos(2 pi y) is a (y, z) plane that overflows before any broadcast
        out = tmp_path / "out"
        assert main(["run", "--field", "abc", "--set", "param.A=1e308", "--set", "param.C=1e308",
                     "--resolution", "16", "--stride", "4", "--max-iterations", "5",
                     "--export-curves", "false", "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert "not finite on the lattice" in captured.err and "Warning" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("slab_nodes", [1 << 16, 700])
    def test_nan_in_the_last_slab_exits_2_without_output(self, tmp_path, capsys, monkeypatch, slab_nodes):
        # the x = 1 plane alone is NaN: 4 slabs at 1 << 16 nodes, 64 one-plane slabs at 700. The run's field
        # is the numpy toroidal formula in a field that is not an AnalyticField, so it rasterizes in slabs.
        from diffadvect import field as field_module, runtime

        class NanOnTheFarFace:
            def __init__(self, kind, params):
                self.kind, self.analytic = kind, field_module.AnalyticField(kind, params)

            def components(self, x, y, z):
                vx, vy, vz = self.analytic.components(x, y, z)
                return vx, vy, np.where(x > 0.99, np.nan, vz)

        monkeypatch.setattr(field_module, "_SLAB_NODES", slab_nodes)
        monkeypatch.setattr(runtime, "AnalyticField", NanOnTheFarFace)
        out = tmp_path / "out"
        assert main(["run", "--field", "toroidal", "--resolution", "64", "--stride", "8", "--max-iterations", "5",
                     "--export-curves", "false", "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert "not finite on the lattice" in captured.err and "Warning" not in captured.err
        assert not out.exists()

    def test_flags_override_file(self, tmp_path):
        cfg = write_config(tmp_path, FAST)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--scheduler", "none",
                     "--output", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["scheduler"] == "none"

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, FAST + ["field = toroidal", "aabb_scale = 0.5"])
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--output", str(out1)]) == 0
        assert main(["run", "--config", str(cfg), "--output", str(out2)]) == 0
        assert (out1 / "lif.csv").read_bytes() == (out2 / "lif.csv").read_bytes()
        assert (out1 / "curves.bin").read_bytes() == (out2 / "curves.bin").read_bytes()
        assert (out1 / "rounds.csv").read_bytes() == (out2 / "rounds.csv").read_bytes()

    def test_provenance_block_reproduces_the_run(self, tmp_path):
        cfg = write_config(tmp_path, FAST + ["param.A = 1.5"])
        out1 = tmp_path / "orig"
        assert main(["run", "--config", str(cfg), "--output", str(out1)]) == 0
        # re-run purely from the emitted provenance block
        out2 = tmp_path / "replay"
        assert main(["run", "--config", str(out1 / "config.txt"), "--output", str(out2)]) == 0
        assert (out1 / "lif.csv").read_bytes() == (out2 / "lif.csv").read_bytes()
        assert (out1 / "curves.bin").read_bytes() == (out2 / "curves.bin").read_bytes()
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s1["config_hash"] == s2["config_hash"]


class TestCompareCommand:
    def _summary(self, path, scheduler, nodes, steps):
        data = {
            "config": {"scheduler": scheduler},
            "node_count": nodes,
            "lockstep_integrate_steps": steps,
        }
        path.write_text(json.dumps(data), encoding="utf-8")
        return path

    def test_speedup_table(self, tmp_path, capsys):
        files = [
            self._summary(tmp_path / "a.json", "none", 16, 100),
            self._summary(tmp_path / "b.json", "none", 32, 50),
        ]
        assert main(["compare"] + [str(f) for f in files]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "scheduler,node_count,lockstep_integrate_steps,speedup"
        assert out[1] == "none,16,100,1"
        assert out[2] == "none,32,50,2"

    def test_speedup_is_the_ratio_of_lockstep_steps(self, tmp_path, capsys):
        files = [
            self._summary(tmp_path / "a.json", "lma", 4, 3000000),
            self._summary(tmp_path / "b.json", "lma", 2, 5000000),
            self._summary(tmp_path / "c.json", "lma", 8, 0),
            self._summary(tmp_path / "d.json", "lma", 16, 1200000),
        ]
        assert main(["compare"] + [str(f) for f in files]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "lma,2,5000000,1", "lma,4,3000000,1.66667", "lma,8,0,nan", "lma,16,1200000,4.16667"]

    def test_summary_without_lockstep_steps_is_listed_as_a_problem(self, tmp_path, capsys):
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps({"config": {"scheduler": "none"}, "node_count": 2,
                                      "total_advection_s": 1.0}), encoding="utf-8")
        fine = self._summary(tmp_path / "fine.json", "none", 4, 10)
        assert main(["compare", str(fine), str(legacy)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"config error: {legacy}: not a run summary: missing lockstep_integrate_steps"]


class TestUnreadableInputFiles:
    MALFORMED_SUMMARIES = {
        "summary without config": {"node_count": 2, "lockstep_integrate_steps": 1},
        "config without scheduler": {"config": {}, "node_count": 2, "lockstep_integrate_steps": 1},
        "node_count not a number": {"config": {"scheduler": "none"}, "node_count": "x", "lockstep_integrate_steps": 1},
        "config not an object": {"config": [], "node_count": 2, "lockstep_integrate_steps": 1},
    }

    @pytest.mark.parametrize("case", ["missing summary", *MALFORMED_SUMMARIES, "curves header not JSON"])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, case):
        if case == "missing summary":
            path = tmp_path / "absent.json"
            argv = ["compare", str(path)]
        elif case in self.MALFORMED_SUMMARIES:
            path = tmp_path / "summary.json"
            path.write_text(json.dumps(self.MALFORMED_SUMMARIES[case]), encoding="utf-8")
            argv = ["compare", str(path)]
        else:
            path = tmp_path / "curves.bin"
            path.write_bytes(b"not a header\n\x00\x01")
            argv = ["export-curves", "--run", str(tmp_path), "--out", str(tmp_path / "x.bin")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
        assert not (tmp_path / "x.bin").exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--kind", "strong"]], ids=["run", "sweep"])
@pytest.mark.parametrize("case", ["missing", "directory", "not UTF-8"])
def test_unreadable_config_exits_2_naming_the_file(tmp_path, capsys, command, case):
    path = tmp_path / "run.cfg"
    if case == "directory":
        path.mkdir()
    elif case == "not UTF-8":
        path.write_bytes(b"field = abc\nscheduler = \xff\n")
    out = tmp_path / "out"
    assert main(command + ["--config", str(path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"--config: cannot read {path}" in err and "Traceback" not in err
    assert not out.exists()


class TestExportCurves:
    def test_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path, FAST)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
        dest = tmp_path / "lines.bin"
        assert main(["export-curves", "--run", str(out), "--out", str(dest)]) == 0
        from diffadvect.advect import read_curves

        h1, c1 = read_curves(out / "curves.bin")
        h2, c2 = read_curves(dest)
        assert h1["particle_ids"] == h2["particle_ids"]
        for pid in c1:
            np.testing.assert_array_equal(c1[pid], c2[pid])
        # the re-export is the run's own file, byte for byte, provenance included
        assert dest.read_bytes() == (out / "curves.bin").read_bytes()
        assert h2["config_hash"] == json.loads((out / "summary.json").read_text())["config_hash"]

    def test_missing_run_dir_is_config_error(self, tmp_path):
        assert main(["export-curves", "--run", str(tmp_path), "--out", str(tmp_path / "x.bin")]) == 2

    # (header fields, payload bytes) of files whose header does not describe their payload
    BAD_HEADERS = {
        "ids and counts disagree": (dict(particle_count=3, particle_ids=[0, 1, 2], vertex_counts=[1]), 108),
        "particle_count disagrees": (dict(particle_count=3, particle_ids=[0, 1], vertex_counts=[1, 1]), 24),
        "repeated id": (dict(particle_count=2, particle_ids=[4, 4], vertex_counts=[1, 1]), 24),
        "id not an int": (dict(particle_count=1, particle_ids=["7"], vertex_counts=[1]), 12),
        "negative count": (dict(particle_count=2, particle_ids=[0, 1], vertex_counts=[3, -1]), 24),
        "count not an int": (dict(particle_count=1, particle_ids=[0], vertex_counts=[1.0]), 12),
        "count is a bool": (dict(particle_count=1, particle_ids=[0], vertex_counts=[True]), 12),
        "short payload": (dict(particle_count=2, particle_ids=[0, 1], vertex_counts=[1, 2]), 24),
        "trailing bytes": (dict(particle_count=2, particle_ids=[0, 1], vertex_counts=[1, 2]), 40),
    }

    @pytest.mark.parametrize("case", sorted(BAD_HEADERS))
    def test_header_that_does_not_describe_the_payload_is_rejected(self, tmp_path, capsys, case):
        from diffadvect.advect import read_curves

        header, payload_bytes = self.BAD_HEADERS[case]
        src = tmp_path / "curves.bin"
        src.write_bytes(json.dumps(header).encode() + b"\n" + bytes(payload_bytes))
        with pytest.raises(ValueError):
            read_curves(src)
        dest = tmp_path / "o2.bin"
        assert main(["export-curves", "--run", str(tmp_path), "--out", str(dest)]) == 2
        err = capsys.readouterr().err
        assert f"{src}: not a curves file" in err and "Traceback" not in err
        assert not dest.exists()

    def test_empty_file_set_roundtrips(self, tmp_path):
        from diffadvect.advect import export_curves, read_curves

        export_curves(tmp_path / "curves.bin", [])  # no records: the header line alone
        header = b'{"particle_count": 0, "particle_ids": [], "vertex_counts": []}\n'
        assert (tmp_path / "curves.bin").read_bytes() == header
        assert read_curves(tmp_path / "curves.bin")[1] == {}

    def test_unwritable_destination_exits_2_naming_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 0
        dest = tmp_path / "nodir" / "x.bin"
        assert main(["export-curves", "--run", str(out), "--out", str(dest)]) == 2
        err = capsys.readouterr().err
        assert f"{dest}: No such file or directory" in err and "Traceback" not in err

    def test_unreadable_curves_file_exits_2_naming_it(self, tmp_path, capsys):
        (tmp_path / "curves.bin").mkdir()
        assert main(["export-curves", "--run", str(tmp_path), "--out", str(tmp_path / "x.bin")]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'curves.bin'}: Is a directory" in err and "Traceback" not in err


class TestOutputPaths:
    """An output path that cannot be a directory is a listed problem, found before anything runs."""

    @pytest.fixture(autouse=True)
    def no_run(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a run started")
        monkeypatch.setattr("diffadvect.cli.Simulator", refuse)

    @pytest.mark.parametrize("below", [False, True])
    def test_run_output_that_is_a_file(self, tmp_path, capsys, below):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / "sub" if below else afile
        assert main(["run", "--resolution", "3", "--scheduler", "magic", "--output", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert f"config error: output: {afile} exists and is not a directory" in err
        assert any("scheduler" in line for line in err)  # listed with the other problems
        assert afile.read_text() == "kept\n"

    def test_sweep_output_that_is_a_file(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        assert main(["sweep", "--kind", "balance", "--output", str(afile)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: output: {afile} exists and is not a directory"]
        assert afile.read_text() == "kept\n"

    def test_sweep_member_directory_that_is_a_file(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "lma").write_text("kept\n")
        assert main(["sweep", "--kind", "balance", "--output", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: output: {out / 'lma'} exists and is not a directory"]


class TestExitCodes:
    def test_round_cap_maps_to_4(self, tmp_path, monkeypatch):
        from diffadvect import cli
        from diffadvect.errors import RoundLimitError

        class Exploding:
            def __init__(self, *a, **k):
                pass

            def run(self):
                raise RoundLimitError("synthetic")

        monkeypatch.setattr(cli, "Simulator", Exploding)
        cfg = write_config(tmp_path, FAST)
        assert main(["run", "--config", str(cfg)]) == 4

    def test_invariant_violation_maps_to_3(self, tmp_path, monkeypatch):
        from diffadvect import cli
        from diffadvect.errors import InvariantError

        class Exploding:
            def __init__(self, *a, **k):
                pass

            def run(self):
                raise InvariantError("synthetic")

        monkeypatch.setattr(cli, "Simulator", Exploding)
        cfg = write_config(tmp_path, FAST)
        assert main(["run", "--config", str(cfg)]) == 3


_FIELD_PARAMS = {"abc": ("A", "B", "C"), "jets": ("w0",), "toroidal": ("R0", "kappa")}
_VALID = {
    "field": hst.sampled_from(sorted(_FIELD_PARAMS)),
    "resolution": hst.tuples(*[hst.integers(2, 12)] * 3).map(lambda t: ",".join(map(str, t))),
    "grid": hst.tuples(*[hst.integers(1, 3)] * 3).map(lambda t: ",".join(map(str, t))),
    "nodes": hst.integers(1, 8),
    "scheduler": hst.sampled_from(("none", "constant", "lma", "gllma")),
    "aabb_scale": hst.floats(0.05, 1.0),
    "stride": hst.integers(1, 12),
    "step": hst.floats(1e-6, 1e-2),
    "max_iterations": hst.integers(1, 5),
    "particles_per_round": hst.integers(1, 64),
}
# Extreme integers are never a valid resolution or iteration count, so no run exceeds 12^3 or 5 steps.
_EXTREME = hst.one_of(
    hst.integers(max_value=0), hst.integers(min_value=10**6), hst.floats(),
    hst.sampled_from((5e-324, 1e-300, 1e300, 1.7e308, -1.7e308, float("nan"), float("inf"), float("-inf"))),
    hst.sampled_from(("", "x", "1.5", "1,2", "2,2,2,2", "nan", "-inf", "true")),
).map(str)


@hst.composite
def run_settings(draw):
    """A resolution, an iteration budget and any other keys: valid values, plus up to two extreme ones.

    Field parameters are drawn for the chosen field; ``grid`` and ``nodes`` are
    not both valid at once. Extremes go to any key or to a parameter of any name.
    """
    run = {"resolution": draw(_VALID["resolution"]), "max_iterations": draw(_VALID["max_iterations"])}
    for key in ("field", "grid", "scheduler", "aabb_scale", "stride", "step", "particles_per_round"):
        if draw(hst.booleans()):
            run[key] = draw(_VALID[key])
    if "grid" not in run and draw(hst.booleans()):
        run["nodes"] = draw(_VALID["nodes"])
    for name in _FIELD_PARAMS[run.get("field", "abc")]:
        if draw(hst.booleans()):
            run[f"param.{name}"] = draw(hst.floats(-10.0, 10.0))
    any_param = [f"param.{n}" for n in ("A", "B", "C", "w0", "R0", "kappa", "bogus")]
    for key in draw(hst.lists(hst.sampled_from(sorted(_VALID) + any_param), max_size=2, unique=True)):
        run[key] = draw(_EXTREME)
    return {key: str(value) for key, value in run.items()}


class TestRunFuzz:
    @settings(max_examples=80, deadline=None)
    @given(run_settings(), hst.data())
    def test_any_input_exits_0_or_2(self, run, data):
        # Each setting goes in as its long flag or as --set; field parameters have no flag.
        argv = ["run", "--export-curves", "false"]
        for key, value in run.items():
            if key in SETTINGS and data.draw(hst.booleans()):
                argv.append(f"--{key.replace('_', '-')}={value}")
            else:
                argv += ["--set", f"{key}={value}"]
        assert main(argv) in (0, 2)


GOLDEN_RUNS = {
    # every kernel call has at most 64 rows, so it runs one worker
    "toroidal-gllma": dict(
        config=dict(grid=(2, 2, 2), scheduler="gllma", stride=(3, 3, 3), max_iterations=80, particles_per_round=8),
        loans=42, handoffs=44,
        curves="ae245ec1694adf79b3e0fa5b14411d435fc3c7f3f10b2a850d4568f12b7dcb7e",
        lif="8a867145f5b85e4c7f32803245dbc1fc3e4e1b0acc045ed4737adbf893490c27",
        rounds="cc404a0850711c4efc1623dc5a5aaf5cd1ffb6bb2b569f6e0208dda88b67d7a7",
        work=dict(rounds=4, seed_count=125, terminated=125, exited_domain=0,
                  total_integrate_steps=10000, lockstep_integrate_steps=1887)),
    # calls of 512, 228 and 30 rows, so the first two run several workers on a multi-CPU host;
    # 228 particles have several segments
    "toroidal-lma-workers": dict(
        config=dict(grid=(4, 2, 1), scheduler="lma", stride=(2, 2, 2), max_iterations=100, particles_per_round=64),
        loans=355, handoffs=258,
        curves="f55ec474899a20bbafc52c3de878e572e18fc348085d6fd45c2077bd592bcfd7",
        lif="e7194034380b60e66ddae787475e0f9b7561d3fdb59a43b0cf6a598d982046bc",
        rounds="9924a1b5ccbfff2781016b71739c636aea2ef94906a7cfe044dea3801c477730",
        work=dict(rounds=3, seed_count=512, terminated=512, exited_domain=0,
                  total_integrate_steps=51200, lockstep_integrate_steps=9130)),
    # 8 rows a round drain each rank's 64 seeds over 14 rounds, so loans outlive their round and
    # return to their home's queue, whose order later rounds' selections and loans read
    "toroidal-constant-queued": dict(
        config=dict(grid=(4, 2, 1), scheduler="constant", stride=(2, 2, 2), max_iterations=80, particles_per_round=8),
        loans=2022, handoffs=228,
        curves="f9f618dc55ca259de67a4246b78900079728ce192d966e7b44ba0d9037127455",
        lif="056ae5cb892a433071bcfff04fc18714851048e70b934a1b525398618ef9f6e5",
        rounds="ae6a6c95a2264e641888b56efc351d3496c060d8f8749df13bcf777a0966ea7c",
        work=dict(rounds=14, seed_count=512, terminated=512, exited_domain=0,
                  total_integrate_steps=40960, lockstep_integrate_steps=7511)),
}


class TestGoldenOutput:
    @pytest.mark.parametrize("name", list(GOLDEN_RUNS))
    def test_run_matches_pinned_digests(self, name, tmp_path):
        # Pins the outputs themselves, which an oracle comparison cannot: a change that moved
        # the oracle and the run alike would pass it. The toroidal field needs only + - * / and
        # sqrt, which are correctly rounded, so the digests do not depend on the CPU's libm.
        import hashlib

        from diffadvect.cli import execute_run

        golden = GOLDEN_RUNS[name]
        cfg = RunConfig(field="toroidal", resolution=(32, 32, 32), aabb_scale=0.5, **golden["config"])
        result, _ = execute_run(cfg, tmp_path)
        assert (result.rounds, result.seed_count) == (golden["work"]["rounds"], golden["work"]["seed_count"])
        assert sum(r.sent_balanced for r in result.records) == golden["loans"]
        assert sum(r.sent_oob for r in result.records) == golden["handoffs"]
        digests = {file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
                   for file in ("curves.bin", "lif.csv", "rounds.csv")}
        assert digests == {"curves.bin": golden["curves"], "lif.csv": golden["lif"], "rounds.csv": golden["rounds"]}
        assert summary_work(tmp_path) == golden["work"]


class TestSweepCommand:
    def test_strong_sweep_structure(self, tmp_path):
        cfg = write_config(tmp_path, [
            "field = abc",
            "resolution = 8",
            "stride = 4,4,4",
            "max_iterations = 5",
            "particles_per_round = 1000",
            "export_curves = false",
        ])
        out = tmp_path / "sweep"
        assert main(["sweep", "--kind", "strong", "--config", str(cfg),
                     "--output", str(out)]) == 0
        run_dirs = [p for p in out.iterdir() if p.is_dir()]
        assert len(run_dirs) == 16  # 4 node counts x 4 schedulers
        table = (out / "speedup.csv").read_text().splitlines()
        assert table[0] == "scheduler,node_count,lockstep_integrate_steps,speedup"
        assert len(table) == 1 + 16
        for row in table[1:]:
            scheduler, nodes, steps, _ = row.split(",")
            summary = json.loads((out / f"{scheduler}_n{nodes}" / "summary.json").read_text())
            assert int(steps) == summary["lockstep_integrate_steps"]

    def test_invalid_member_stops_the_sweep_before_any_run(self, tmp_path, capsys):
        # members with n <= 8 fit a 3^3 lattice; the four n = 16 members, a 4x2x2 grid, do not
        out = tmp_path / "sweep"
        assert main(["sweep", "--kind", "strong", "--resolution", "3", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert not out.exists()
        assert [line for line in err.splitlines() if "smaller than grid" in line] == [
            f"config error: [{s}_n16] resolution (3, 3, 3) smaller than grid (4, 2, 2) on some axis"
            for s in ("none", "constant", "lma", "gllma")]

    def test_param_sweep_aabb_axis(self, tmp_path):
        cfg = write_config(tmp_path, [
            "field = abc",
            "resolution = 8",
            "grid = 2,1,1",
            "stride = 4,4,4",
            "max_iterations = 5",
            "export_curves = false",
        ])
        out = tmp_path / "sweep"
        assert main(["sweep", "--kind", "param", "--axis", "aabb_scale",
                     "--config", str(cfg), "--output", str(out)]) == 0
        assert (out / "comparison.csv").exists()
        run_dirs = [p.name for p in out.iterdir() if p.is_dir()]
        assert len(run_dirs) == 12  # 3 scales x 4 schedulers
        table = (out / "comparison.csv").read_text().splitlines()
        assert table[0] == "scheduler,node_count,lockstep_integrate_steps,speedup"
        assert len(table) == 1 + 12
