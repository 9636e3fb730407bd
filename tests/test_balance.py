import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffadvect.balance import (
    LoadVector,
    balance_constant,
    balance_gllma,
    balance_lma,
    balance_none,
    decide,
    largest_remainder_split,
    quota_offer,
    select_particles,
    synchronous_step,
)
from diffadvect.particles import ParticleSet
from diffadvect.topology import ProcessGrid, coords_to_rank

load_vectors = st.builds(
    LoadVector,
    local=st.integers(0, 10**6),
    per_neighbor=st.lists(st.integers(0, 10**6), min_size=0, max_size=6).map(tuple),
)


def make_queue(n, rank=0):
    return ParticleSet.make(
        ids=np.arange(n),
        pos=np.tile([0.5, 0.5, 0.5], (n, 1)),
        remaining=np.full(n, 100),
        home=np.full(n, rank),
    )


class TestNone:
    def test_keeps_everything(self):
        d = balance_none(LoadVector(100, (5, 5)))
        assert d.outgoing == (0, 0) and d.retained == 100

    def test_empty(self):
        d = balance_none(LoadVector(0, ()))
        assert d.outgoing == () and d.retained == 0

    @given(load_vectors)
    def test_never_sends(self, lv):
        assert balance_none(lv).total_outgoing == 0


class TestConstant:
    def test_single_lesser_neighbor(self):
        assert balance_constant(LoadVector(100, (40,))).outgoing == (30,)

    def test_overdraw_scales_down_to_local(self):
        d = balance_constant(LoadVector(60, (0,) * 6))
        assert d.outgoing == (10,) * 6 and d.retained == 0

    def test_no_lesser_neighbor_sends_nothing(self):
        d = balance_constant(LoadVector(50, (50, 80)))
        assert d.outgoing == (0, 0) and d.retained == 50

    def test_alpha_override(self):
        assert balance_constant(LoadVector(100, (0,)), alpha=0.25).outgoing == (25,)

    @given(load_vectors)
    def test_conservation(self, lv):
        d = balance_constant(lv)
        assert d.total_outgoing + d.retained == lv.local

    @given(load_vectors)
    def test_only_lesser_neighbors_receive(self, lv):
        d = balance_constant(lv)
        for w, o in zip(lv.per_neighbor, d.outgoing):
            if w >= lv.local:
                assert o == 0


class TestLargestRemainder:
    def test_exact_total(self):
        assert largest_remainder_split([26, 6], 10) == [8, 2]
        assert largest_remainder_split([30] * 6, 60) == [10] * 6

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=8), st.integers(0, 1000))
    def test_sums_to_total_when_weights_exist(self, weights, total):
        out = largest_remainder_split(weights, total)
        if sum(weights):
            assert sum(out) == total
        else:
            assert sum(out) == 0
        assert all(v >= 0 for v in out)


class TestLMA:
    def test_hand_trace_one_pass(self):
        d = balance_lma(LoadVector(100, (40, 60, 200)))
        assert d.outgoing == (26, 6, 0) and d.retained == 68

    def test_hand_trace_two_passes(self):
        d = balance_lma(LoadVector(100, (10, 90)))
        assert d.outgoing == (45, 0) and d.retained == 55

    def test_equal_loads_do_nothing(self):
        assert balance_lma(LoadVector(50, (50, 50))).outgoing == (0, 0)

    @given(load_vectors)
    def test_conservation(self, lv):
        d = balance_lma(lv)
        assert d.total_outgoing + d.retained == lv.local

    @given(load_vectors)
    def test_no_send_to_equal_or_greater(self, lv):
        d = balance_lma(lv)
        for w, o in zip(lv.per_neighbor, d.outgoing):
            if w >= lv.local:
                assert o == 0

    @given(load_vectors)
    def test_retained_dominates_each_receivers_new_load(self, lv):
        # the sender never pushes a receiver above what it keeps itself
        d = balance_lma(lv)
        for w, o in zip(lv.per_neighbor, d.outgoing):
            if o:
                assert d.retained >= w + o

    @given(load_vectors)
    def test_retained_within_floor_slack_of_the_mean(self, lv):
        from diffadvect.balance import _pruned_mean

        mean, contributors = _pruned_mean(lv.local, lv.per_neighbor, greater=False)
        d = balance_lma(lv)
        assert mean <= d.retained <= mean + 1 + sum(contributors)

    @given(load_vectors)
    def test_purity(self, lv):
        assert balance_lma(lv) == balance_lma(lv)


class TestQuotaOffer:
    def test_star_scenario(self):
        assert quota_offer(LoadVector(10, (100, 100, 100, 100))) == (18, 18, 18, 18)

    def test_chain_middle(self):
        assert quota_offer(LoadVector(40, (100, 160))) == (23, 36)

    def test_no_greater_neighbor(self):
        assert quota_offer(LoadVector(50, (50, 40))) == (0, 0)

    @given(load_vectors)
    def test_quota_soundness(self, lv):
        from diffadvect.balance import _pruned_mean

        quotas = quota_offer(lv)
        mean, _ = _pruned_mean(lv.local, lv.per_neighbor, greater=True)
        assert sum(quotas) <= mean - lv.local  # never offer more than the gap
        for q, w in zip(quotas, lv.per_neighbor):
            if q:
                assert w > lv.local


class TestGLLMA:
    def test_caps_lma_pairwise(self):
        lv = LoadVector(100, (10, 90))
        lma = balance_lma(lv)
        d = balance_gllma(lv, (20, 100))
        assert d.outgoing == (min(lma.outgoing[0], 20), min(lma.outgoing[1], 100))

    @pytest.mark.parametrize("dims", [(3, 1, 1), (1, 3, 1), (1, 1, 3)], ids=["x", "y", "z"])
    def test_three_rank_chain(self, dims):
        # each neighbor grants its offer in the opposite direction's column, on every axis
        after = synchronous_step(ProcessGrid(dims), [100, 40, 160], "gllma")
        assert after == [77, 99, 124]  # transfers 23 and 36; middle lands at 99

    @given(load_vectors, st.data())
    def test_conservation_with_arbitrary_quotas(self, lv, data):
        quotas = data.draw(
            st.lists(st.integers(0, 10**6), min_size=len(lv.per_neighbor), max_size=len(lv.per_neighbor))
        )
        d = balance_gllma(lv, tuple(quotas))
        assert d.total_outgoing + d.retained == lv.local


class TestSynchronousGrid:
    def test_overbalancing_witness_on_surrounded_center(self):
        # A zero-loaded rank ringed by greater-loaded ones: plain LMA raises
        # the global maximum; the quota phase prevents it.
        grid = ProcessGrid((3, 3, 1))
        loads = [1000] * 9
        center = coords_to_rank(grid, (1, 1, 0))
        loads[center] = 0
        after_lma = synchronous_step(grid, loads, "lma")
        assert after_lma[center] == 2000 > max(loads)
        after_gllma = synchronous_step(grid, loads, "gllma")
        assert after_gllma[center] == 800
        assert max(after_gllma) <= max(loads)

    @given(
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
        st.data(),
        st.sampled_from(["none", "constant", "lma", "gllma"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_gllma_never_raises_max_and_all_conserve(self, dims, data, scheduler):
        grid = ProcessGrid(dims)
        loads = data.draw(
            st.lists(st.integers(0, 10**5), min_size=grid.rank_count, max_size=grid.rank_count)
        )
        after = synchronous_step(grid, loads, scheduler)
        assert sum(after) == sum(loads)
        if scheduler == "gllma":
            assert max(after) <= max(loads)


class TestSelectParticles:
    def test_tail_rule(self):
        queue = make_queue(100)
        kept, sends = select_particles(queue, (26, 6), rank=0)
        assert [len(s) for s in sends] == [26, 6]
        np.testing.assert_array_equal(queue.ids[sends[0]], np.arange(68, 94))
        np.testing.assert_array_equal(queue.ids[sends[1]], np.arange(94, 100))
        np.testing.assert_array_equal(queue.ids[kept], np.arange(68))
        assert (queue.home[sends[0]] == 0).all()  # on loan from rank 0 wherever they go

    def test_cap_with_largest_remainder(self):
        queue = make_queue(10)
        kept, sends = select_particles(queue, (26, 6), rank=0)
        assert [len(s) for s in sends] == [8, 2]
        assert len(kept) == 0

    def test_zero_decision_leaves_queue_untouched(self):
        queue = make_queue(5)
        kept, sends = select_particles(queue, (0, 0), rank=0)
        assert len(kept) == 5 and all(len(s) == 0 for s in sends)

    def test_on_loan_particles_not_rebalanced(self):
        queue = make_queue(4)
        queue.home[2:] = 3  # two already borrowed from rank 3
        kept, sends = select_particles(queue, (4,), rank=0)
        assert len(sends[0]) == 2  # capped at the two eligible home particles
        np.testing.assert_array_equal(queue.ids[sends[0]], [0, 1])


class TestDecide:
    def test_dispatch(self):
        lv = LoadVector(10, (0,))
        assert decide("none", lv).outgoing == (0,)
        assert decide("constant", lv).outgoing == (5,)
        assert decide("lma", lv).outgoing == (5,)
        assert decide("gllma", lv, granted_quotas=(3,)).outgoing == (3,)
