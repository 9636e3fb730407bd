"""The benchmark's hooks into the program still hold.

The tracer (``perfbench/spans.py``) patches each trace point as
``owner.__dict__[attr]``, so a refactor that renames or drops one breaks every
traced benchmark run. ``perfbench/run.py`` writes each workload's config as its
canonical text, reloads it, and refuses to run when the hash moved.
"""

import importlib.util
from pathlib import Path

import pytest

from diffadvect import AnalyticField, Simulator, load_config_file


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
        result = Simulator(AnalyticField("toroidal"), (16, 16, 16), (2, 2, 1), "gllma",
                           max_iterations=20, stride=(4, 4, 4), aabb_scale=0.5).run()
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
        cli.Simulator(AnalyticField("toroidal"), (16, 16, 16), (2, 2, 1), "gllma", stride=(4, 4, 4))
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
