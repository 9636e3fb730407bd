"""The benchmark's hooks into the program still hold.

The tracer (``perfbench/spans.py``) patches each trace point as
``owner.__dict__[attr]``, so a refactor that renames or drops one breaks every
traced benchmark run. ``perfbench/run.py`` writes each workload's config as its
canonical text, reloads it, and refuses to run when the hash moved.
"""

import copy
import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from diffadvect import RunConfig, Simulator, load_config_file


def _load_perfbench(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _load_perfbench("workloads")


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(_WORKLOADS.WORKLOADS))
def test_workload_config_reloads_from_its_canonical_text(tmp_path, workload, seed):
    config = _WORKLOADS.config_for(workload, seed)
    path = tmp_path / "config.txt"
    path.write_text(config.canonical_text(), encoding="utf-8")
    reloaded = load_config_file(path)
    assert reloaded == config
    assert reloaded.config_hash() == config.config_hash()


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
        built.append((args, kwargs, sim.particles.copy(), sim.blocks))
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
