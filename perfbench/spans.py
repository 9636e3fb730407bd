"""In-memory span tracing of one run, installed from outside the program.

Each traced call is wrapped where its caller looks it up: ``runtime`` and
``cli`` bind their helpers at import, so those names are patched on the
importing module; ``advect`` looks up ``integrate_group`` and ``_block_step``
in its own globals and methods are looked up on their class, so those are
patched in place. A span is ``(name, start, end, parent)``, with ``parent``
the index of the enclosing span or -1. Counts are taken at the same
boundaries, from the arguments and results of the wrapped call.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

from diffadvect import advect, balance, cli, field, runtime

# (owner, attribute, span name, count name, count). ``count`` gets the
# call's positional arguments and its result and returns the increment.
TRACE_POINTS = (
    (cli, "Simulator", "runtime.setup", None, None),
    (runtime, "rasterize_global", "field.rasterize", None, None),
    (field.Block, "sample_clamped", "field.sample", "field.sample_rows",
     lambda args, result: args[1].shape[0]),
    (advect, "_block_step", "advect.block_step", "advect.block_step_rows",
     lambda args, result: args[1].shape[0]),
    (advect, "integrate_group", "advect.integrate_group", None, None),
    (runtime, "integrate", "advect.integrate", None, None),
    (advect.CurveStore, "allocate", "advect.curve_alloc", "advect.curve_alloc_bytes",
     lambda args, result: 24 * args[1].capacity),
    (advect.CurveStore, "finish_round", "advect.finish_round", None, None),
    (runtime, "merge_curves", "advect.merge_curves", None, None),
    (cli, "export_curves", "advect.export_curves", "advect.curves_bytes",
     lambda args, result: os.path.getsize(args[0])),
    (balance, "decide", "balance.decide", None, None),
    (balance, "select_particles", "balance.select", "balance.particles_loaned",
     lambda args, result: sum(len(part) for part in result[1])),
    (runtime.Simulator, "run_round", "runtime.run_round", "runtime.oob_handoffs",
     lambda args, result: sum(record.sent_oob for record in result)),
    (runtime, "concat_particles", "particles.concat", None, None),
    (cli, "write_rounds_csv", "metrics.write", None, None),
    (cli, "write_lif_csv", "metrics.write", None, None),
    (cli, "write_summary", "metrics.write", None, None),
)


class Tracer:
    """Records spans and counts while installed; restores every patch on exit."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name, fn, count_name=None, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent)
                stack.pop()
            if count is not None:
                counts[count_name] += count(args, result)
            return result

        return traced

    def span(self, name, fn):
        """Wrap a call made by the benchmark itself, such as the whole run."""
        return self._wrap(name, fn)

    def __enter__(self):
        for owner, attr, name, count_name, count in TRACE_POINTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count_name, count))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def totals(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
        return out

    def write(self, path) -> None:
        """Write every span, times relative to the first, as JSON."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[n, s - origin, e - origin, p] for n, s, e, p in self.spans]}, fh)


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced run, named ``<module>.<metric>``."""
    t = tracer.totals()
    c = tracer.counts

    def total(name):
        return t.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    block_calls = calls("advect.block_step")
    return {
        "field.rasterize_s": total("field.rasterize"),
        "field.sample_calls": calls("field.sample"),
        "field.sample_rows": c["field.sample_rows"],
        "field.sample_s": total("field.sample"),
        "advect.block_step_calls": block_calls,
        "advect.block_step_rows_per_call": c["advect.block_step_rows"] / block_calls if block_calls else 0.0,
        "advect.block_step_s": total("advect.block_step"),
        "advect.integrate_group_calls": calls("advect.integrate_group"),
        "advect.integrate_group_s": total("advect.integrate_group"),
        "advect.integrate_s": total("advect.integrate"),
        "advect.curve_alloc_bytes": c["advect.curve_alloc_bytes"],
        "advect.curve_alloc_s": total("advect.curve_alloc"),
        "advect.finish_round_s": total("advect.finish_round"),
        "advect.merge_curves_s": total("advect.merge_curves"),
        "advect.export_curves_s": total("advect.export_curves"),
        "advect.curves_bytes": c["advect.curves_bytes"],
        "balance.decide_calls": calls("balance.decide"),
        "balance.decide_s": total("balance.decide"),
        "balance.select_s": total("balance.select"),
        "balance.particles_loaned": c["balance.particles_loaned"],
        "runtime.rounds": calls("runtime.run_round"),
        "runtime.run_round_s": total("runtime.run_round"),
        "runtime.round_self_s": t.get("runtime.run_round", {}).get("self_s", 0.0),
        "runtime.oob_handoffs": c["runtime.oob_handoffs"],
        "particles.concat_calls": calls("particles.concat"),
        "particles.concat_s": total("particles.concat"),
        "metrics.write_s": total("metrics.write"),
    }
