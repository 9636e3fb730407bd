"""The benchmark's hooks into the program still hold.

The tracer (``perfbench/spans.py``) patches each trace point as
``owner.__dict__[attr]``, so a refactor that renames or drops one breaks every
traced benchmark run. ``perfbench/run.py`` writes each workload's config as its
canonical text, reloads it, and refuses to run when the hash moved. Every run,
traced or not, must pass ``perfbench/checks.py``'s output check.
"""

import contextlib
import copy
import dataclasses
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from diffadvect import RunConfig, Simulator, load_config_file
from diffadvect.advect import read_curves
from diffadvect.field import AnalyticField, rasterize_global


def _load_perfbench(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _load_perfbench("workloads")
_CHECKS = _load_perfbench("checks")


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(_WORKLOADS.WORKLOADS))
def test_workload_config_reloads_from_its_canonical_text(tmp_path, workload, seed):
    config = _WORKLOADS.config_for(workload, seed)
    path = tmp_path / "config.txt"
    path.write_text(config.canonical_text(), encoding="utf-8")
    reloaded = load_config_file(path)
    assert reloaded == config
    assert reloaded.config_hash() == config.config_hash()


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", ["toroidal-gllma", "abc-oracle", "jets-queued", "smoke"])
def test_workload_run_passes_the_output_check(tmp_path, workload, traced):
    # perfbench fails a run whose curves differ from the one-rank oracle's, or whose lif.csv and work
    # fields differ from reference.json; the measured workloads are 64^3 lattices of each field, written
    # by the kernel library's rk4_toroidal or rk4_place and padded by its rk4_pad
    from diffadvect import cli

    config = _WORKLOADS.config_for(workload, 0)
    cli.execute_run(_WORKLOADS.oracle_config(config), tmp_path / "oracle")
    _, oracle = read_curves(tmp_path / "oracle" / "curves.bin")
    with _load_perfbench("spans").Tracer() if traced else contextlib.nullcontext():
        cli.execute_run(config, tmp_path / "run")
    assert _CHECKS.check_run(tmp_path / "run", oracle, _CHECKS.load_reference(workload, 0)) == []


@pytest.mark.parametrize("resolution, seed, digest", [
    ((64, 64, 64), 0, "84b13968b65c64d753acdd987b8b9b47449a26cf409aba5f5646ef1f2f68c7bc"),
    ((64, 64, 64), 1, "89700b2b1412c84a54c0eca397f0c80c5458c99b76fe812fe3fa8648fa851e70"),
    ((80, 72, 64), 0, "d5a0acee870df4df6a7608c96a507a1022dcd4c2f234f0e2233a51e9701ddbb0"),
    ((80, 72, 64), 1, "39b8771ac9d3a2de53ec3fa9e58e1fdcc1bb777bdfa2309728d0345df5fec405"),
], ids=["64^3-seed0", "64^3-seed1", "80x72x64-seed0", "80x72x64-seed1"])
def test_toroidal_workload_lattice_bytes_are_pinned(resolution, seed, digest):
    # the padded lattice every toroidal-gllma run samples; the toroidal field needs only + - * / and
    # sqrt, which are correctly rounded, so its bytes do not depend on the C library
    config = _WORKLOADS.config_for("toroidal-gllma", seed)
    lattice = rasterize_global(AnalyticField(config.field, config.field_params), resolution, padded=True,
                               step=config.step)
    assert hashlib.sha256(lattice.tobytes()).hexdigest() == digest


def test_every_trace_point_resolves():
    spans = _load_perfbench("spans")
    for owner, attr, name, _, _ in spans.TRACE_POINTS:
        assert callable(vars(owner).get(attr)), f"trace point {name}: {owner.__name__}.{attr} is gone"


def test_traced_run_counts_rounds_and_hand_offs():
    spans = _load_perfbench("spans")
    with spans.Tracer() as tracer:
        result = Simulator(RunConfig(field="toroidal", resolution=(16, 16, 16), grid=(2, 2, 1), scheduler="gllma",
                                     max_iterations=20, stride=(4, 4, 4), aabb_scale=0.5)).run()
    metrics = spans.layer_metrics(tracer)
    assert metrics["runtime.rounds"] == result.rounds
    assert metrics["runtime.oob_handoffs"] == sum(rec.sent_oob for rec in result.records) > 0
    assert metrics["advect.integrate_group_calls"] == result.rounds
    assert metrics["balance.decide_calls"] == result.rounds  # one whole-grid decision per round
    assert metrics["balance.particles_loaned"] == sum(rec.sent_balanced for rec in result.records)


def test_traced_setup_records_one_rasterize_span():
    # setup_s stays measured through the name the tracer patches: the Simulator that perfbench builds
    # through cli rasterizes, and validates, the lattice in one runtime.rasterize_global call
    from diffadvect import cli

    spans = _load_perfbench("spans")
    with spans.Tracer() as tracer:
        cli.Simulator(RunConfig(field="toroidal", resolution=(16, 16, 16), grid=(2, 2, 1), scheduler="gllma",
                                stride=(4, 4, 4)))
    names = [span[0] for span in tracer.spans]
    assert names.count("runtime.setup") == names.count("field.rasterize") == 1
    assert tracer.spans[names.index("field.rasterize")][3] == names.index("runtime.setup")


def test_traced_run_measures_the_curve_archive_and_export(tmp_path):
    # advect.finish_round_s, advect.export_curves_s and advect.curves_bytes keep reading through the
    # names the tracer patches: each round archives through CurveStore.finish_round, and the run's
    # curves.bin is written through cli.export_curves
    from diffadvect import cli

    spans = _load_perfbench("spans")
    config = _WORKLOADS.config_for("smoke", 0)
    assert config.export_curves
    with spans.Tracer() as tracer:
        result, _ = cli.execute_run(config, tmp_path)
    totals = tracer.totals()
    assert totals["advect.export_curves"]["calls"] == 1
    assert spans.layer_metrics(tracer)["advect.curves_bytes"] == (tmp_path / "curves.bin").stat().st_size > 0
    assert totals["advect.finish_round"]["calls"] == result.rounds


def test_traced_metrics_are_plain_json(tmp_path):
    # perfbench/child.py prints a traced run's layer metrics and span totals with json.dumps, so a count
    # that became a numpy integer would fail every traced benchmark run
    from diffadvect import cli

    spans = _load_perfbench("spans")
    with spans.Tracer() as tracer:
        cli.execute_run(_WORKLOADS.config_for("smoke", 0), tmp_path)
    metrics, totals = spans.layer_metrics(tracer), tracer.totals()
    assert metrics["runtime.oob_handoffs"] > 0 and metrics["balance.particles_loaned"] > 0
    assert json.loads(json.dumps(metrics)) == metrics
    assert json.loads(json.dumps(totals)) == totals


def test_a_replayed_setup_builds_the_same_simulator(monkeypatch):
    # perfbench/child.py measures setup_s by calling cli.Simulator again with the run's first arguments,
    # so the run builds its simulator there once, and the replay builds the same table and blocks from
    # a config that neither call changed
    from diffadvect import cli

    built = []

    def recording(*args, **kwargs):
        sim = Simulator(*args, **kwargs)
        built.append((args, kwargs, copy.deepcopy(sim.particles), sim.blocks))
        return sim

    monkeypatch.setattr(cli, "Simulator", recording)
    config = _WORKLOADS.config_for("smoke", 0)
    before = copy.deepcopy(config)
    cli.execute_run(config)
    assert len(built) == 1
    args, kwargs, _, _ = built[0]
    cli.Simulator(*args, **kwargs)
    assert config == before
    (*_, first, first_blocks), (*_, again, again_blocks) = built
    for column in ("ids", "pos", "remaining", "home"):
        assert getattr(again, column).tobytes() == getattr(first, column).tobytes(), column
    for block_field in dataclasses.fields(first_blocks):
        name = block_field.name
        assert getattr(again_blocks, name).tobytes() == getattr(first_blocks, name).tobytes(), name
