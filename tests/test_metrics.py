import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_lif as ref
from diffadvect import RunConfig, RunResult, Simulator
from diffadvect.advect import CurveStore
from diffadvect.errors import ConfigError
from diffadvect.metrics import (
    LIF_CSV_HEADER,
    ROUNDS_CSV_HEADER,
    build_summary,
    lif,
    lif_csv_lines,
    round_table,
    speedup,
    write_lif_csv,
    write_rounds_csv,
)


def table(**columns):
    """A rounds table whose named columns hold the given values and the rest 0."""
    records = round_table(len(next(iter(columns.values()))))
    for name, values in columns.items():
        records[name] = values
    return records


class TestLif:
    def test_equal_loads(self):
        assert lif([4, 4, 4, 4]) == 1.0

    def test_single_hot_rank(self):
        assert lif([8, 0, 0, 0]) == 4.0

    def test_single_rank(self):
        assert lif([10]) == 1.0

    def test_all_zero_is_not_applicable(self):
        assert math.isnan(lif([0, 0]))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            lif([])

    def test_at_least_one(self):
        for loads in ([1, 2, 3], [5], [9, 9]):
            assert lif(loads) >= 1.0

    def test_one_factor_per_round(self):
        np.testing.assert_array_equal(lif([[4, 4], [8, 0], [0, 0]]), [1.0, 2.0, np.nan])

    def test_empty_rounds_rejected(self):
        with pytest.raises(ConfigError):
            lif(np.zeros((3, 0), dtype=np.int64))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda ranks: arrays(
        np.int64, st.tuples(st.integers(0, 30), st.just(ranks)),
        elements=st.one_of(st.just(0), st.integers(0, 4 * 10**7)))))
    def test_equals_the_scalar_reference_bit_for_bit(self, loads):
        # (rounds, ranks) tables of one rank or more, half-zero loads up to 4e7
        loads[::3] = 0  # every third round is all zeros, a NaN round
        got = lif(loads)
        want = np.array([ref.lif(row) for row in loads.tolist()], dtype=np.float64)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestSpeedup:
    def test_doubling(self):
        assert speedup({16: 100.0, 32: 50.0}) == {16: 1.0, 32: 2.0}

    def test_no_scaling(self):
        assert speedup({16: 100.0, 64: 100.0}) == {16: 1.0, 64: 1.0}

    def test_monotone(self):
        s = speedup({2: 80.0, 4: 40.0, 8: 30.0, 16: 10.0})
        vals = [s[n] for n in sorted(s)]
        assert vals == sorted(vals)

    def test_single_measurement_rejected(self):
        with pytest.raises(ConfigError):
            speedup({16: 100.0})


class TestCsvFormats:
    def test_rounds_header_and_formats(self, tmp_path):
        rec = table(round=[1], rank=[0], integrate_steps=[42], load_pre=[7], load_post=[9])
        path = tmp_path / "rounds.csv"
        write_rounds_csv(path, rec)
        assert ROUNDS_CSV_HEADER == (  # the file-format contract
            "round,rank,integrate_steps,load_pre,load_post,sent_balanced,recv_balanced,sent_oob,recv_oob")
        assert path.read_bytes() == (ROUNDS_CSV_HEADER + "\n1,0,42,7,9,0,0,0,0\n").encode()  # %d, LF

    def test_run_records_are_in_round_then_rank_order(self):
        # rounds.csv writes the table in its own order, so the run must build it in (round, rank) order
        res = Simulator(RunConfig(field="toroidal", resolution=(32, 32, 32), grid=(2, 2, 2), scheduler="gllma",
                                  max_iterations=40, stride=(4, 4, 4), aabb_scale=0.5, particles_per_round=8)).run()
        assert res.rounds > 1 and len(res.records) == res.rounds * res.node_count
        assert np.all(np.diff(res.records["round"]) >= 0)
        for block in res.records.reshape(res.rounds, res.node_count):
            np.testing.assert_array_equal(block.rank, np.arange(res.node_count))

    def test_lif_csv(self, tmp_path):
        path = tmp_path / "lif.csv"
        recs = table(round=[1, 1, 2, 2], rank=[0, 1, 0, 1], load_post=[4, 0, 0, 0],
                     integrate_steps=[30, 10, 2, 2])
        write_lif_csv(path, recs.reshape(2, 2))
        lines = path.read_text().splitlines()
        assert lines[0] == LIF_CSV_HEADER
        assert lines[1] == "1,2.000000000e+00,1.500000000e+00"
        assert lines[2] == "2,nan,1.000000000e+00"

    def test_lif_lines_deterministic(self):
        recs = table(round=[1, 1], rank=[0, 1], load_post=[5, 3], integrate_steps=[7, 1])
        assert lif_csv_lines(recs.reshape(1, 2)) == lif_csv_lines(recs.copy().reshape(1, 2))

    def test_lif_lines_of_a_run_without_rounds(self):
        assert lif_csv_lines(round_table(0).reshape(0, 3)) == [LIF_CSV_HEADER]


class TestSummary:
    def test_lockstep_totals(self):
        recs = table(round=[1, 1, 2, 2], rank=[0, 1, 0, 1], integrate_steps=[100, 300, 200, 50])
        recs.load_post = [2, 2, 0, 0]
        result = RunResult(grid_dims=(2, 1, 1), seed_count=10, rounds=2, terminated=8, exited=2, records=recs,
                           round_totals=[], store=CurveStore(collect=False),
                           stage_totals_s=np.array([0.5, 0.25, 0.125, 2.0, 0.0625, 0.03125]))
        s = build_summary({}, "deadbeef", result)
        assert s["stage_totals_s"] == dict(stage_lb_distribute_s=0.5, stage_round_info_s=0.25, stage_alloc_s=0.125,
                                           stage_integrate_s=2.0, stage_collect_s=0.0625, stage_oob_s=0.03125)
        assert s["lockstep_integrate_steps"] == 300 + 200
        assert s["total_integrate_steps"] == 650
        assert s["rounds"] == 2 and s["node_count"] == 2
        assert s["lif_steps_mean"] == (300 / 200 + 200 / 125) / 2
        assert s["lif_load_mean"] == 1.0  # the all-zero round 2 has no LIF and is left out
        assert s["seed_count"] == 10 and s["terminated"] == 8 and s["exited_domain"] == 2
        assert result.curves is None
