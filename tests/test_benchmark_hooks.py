"""The benchmark's trace hooks (``perfbench/spans.py``) still find what they patch.

The tracer patches each trace point as ``owner.__dict__[attr]``, so a
refactor that renames or drops one breaks every traced benchmark run.
"""

import importlib.util
from pathlib import Path

from diffadvect import AnalyticField, Simulator


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves():
    spans = _load_spans()
    for owner, attr, name, _, _ in spans.TRACE_POINTS:
        assert callable(vars(owner).get(attr)), f"trace point {name}: {owner.__name__}.{attr} is gone"


def test_traced_run_counts_rounds_and_hand_offs():
    spans = _load_spans()
    with spans.Tracer() as tracer:
        result = Simulator(AnalyticField("toroidal"), (16, 16, 16), (2, 2, 1), "gllma",
                           max_iterations=20, stride=(4, 4, 4), aabb_scale=0.5).run()
    metrics = spans.layer_metrics(tracer)
    assert metrics["runtime.rounds"] == result.rounds
    assert metrics["runtime.oob_handoffs"] == sum(rec.sent_oob for rec in result.records) > 0
    assert metrics["advect.integrate_group_calls"] == result.rounds
    assert metrics["balance.particles_loaned"] == sum(rec.sent_balanced for rec in result.records)
