import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_balance as ref
from diffadvect.balance import (
    SCHEDULERS,
    _pruned_mean,
    decide,
    plan_transfers,
    quota_offers,
    select_particles,
    synchronous_step,
)
from diffadvect.errors import InvariantError
from diffadvect.particles import ParticleSet
from diffadvect.topology import ProcessGrid, coords_to_rank, neighbor_table

# A load of 0 and of the full range both, so zero-heavy rows are common.
loads_st = st.one_of(st.just(0), st.integers(0, 10**6))
neighbor_st = st.one_of(st.just(-1), loads_st)


@st.composite
def load_rows(draw):
    """A batch of ranks: each one's load and its six neighbor loads, -1 where it has no neighbor."""
    n = draw(st.integers(1, 3))
    return draw(arrays(np.int64, n, elements=loads_st)), draw(arrays(np.int64, (n, 6), elements=neighbor_st))


def one_row(scheduler, local, neighbors, **kwargs):
    """One rank's sends, in the order of its neighbors."""
    W = np.array([neighbors], dtype=np.int64).reshape(1, -1)
    return tuple(decide(scheduler, [local], W, **kwargs)[0].tolist())


def offers(local, neighbors):
    return tuple(quota_offers(np.array([local]), np.array([neighbors], dtype=np.int64).reshape(1, -1))[0].tolist())


def assert_conserves(local, W, sends):
    # nothing is sent past the hull, and no rank sends a negative count or more than it holds
    assert (sends[W < 0] == 0).all()
    assert (sends >= 0).all() and (sends.sum(axis=1) <= local).all()


def make_queue(n, rank=0):
    return ParticleSet.make(
        ids=np.arange(n),
        pos=np.tile([0.5, 0.5, 0.5], (n, 1)),
        remaining=np.full(n, 100),
        home=np.full(n, rank),
    )


class TestNone:
    def test_keeps_everything(self):
        assert one_row("none", 100, (5, 5)) == (0, 0)

    def test_empty(self):
        assert one_row("none", 0, ()) == ()

    @given(load_rows())
    def test_never_sends(self, rows):
        assert not decide("none", *rows).any()


class TestConstant:
    def test_single_lesser_neighbor(self):
        assert one_row("constant", 100, (40,)) == (30,)

    def test_overdraw_scales_down_to_local(self):
        assert one_row("constant", 60, (0,) * 6) == (10,) * 6

    def test_no_lesser_neighbor_sends_nothing(self):
        assert one_row("constant", 50, (50, 80)) == (0, 0)

    @given(load_rows())
    def test_conservation(self, rows):
        assert_conserves(*rows, decide("constant", *rows))

    @given(load_rows())
    def test_only_lesser_neighbors_receive(self, rows):
        local, W = rows
        assert not decide("constant", local, W)[W >= local[:, np.newaxis]].any()


class TestLargestRemainder:
    def test_exact_total(self):
        # the naive sends of 5 oversubscribe 10: 1 each by floor, and the equal remainders 20/30 give the
        # 4 left over to the lower directions
        assert one_row("constant", 10, (0,) * 6) == (2, 2, 2, 2, 1, 1)
        # the naive sends (10, 10, 9, 9, 8, 8) oversubscribe 21: 3 each by floor, and the remainders
        # 48, 48, 27, 27, 6, 6 (of 54) give the 3 left over to the first three
        assert one_row("constant", 21, (0, 1, 2, 3, 4, 5)) == (4, 4, 4, 3, 3, 3)
        assert one_row("constant", 10, (0, 7)) == (5, 1)  # not oversubscribed: half of each gap

    @given(load_rows())
    def test_sums_to_total_when_weights_exist(self, rows):
        local, W = rows
        sends = decide("constant", local, W)
        for r in range(len(local)):
            naive = [(local[r] - w) // 2 if 0 <= w < local[r] else 0 for w in W[r]]
            if sum(naive) > local[r]:
                assert sends[r].sum() == local[r]
                assert sends[r].tolist() == ref.largest_remainder_split(naive, int(local[r]))
            else:
                assert sends[r].tolist() == naive


class TestLMA:
    def test_hand_trace_one_pass(self):
        assert one_row("lma", 100, (40, 60, 200)) == (26, 6, 0)  # retains 68

    def test_hand_trace_two_passes(self):
        assert one_row("lma", 100, (10, 90)) == (45, 0)  # retains 55

    def test_equal_loads_do_nothing(self):
        assert one_row("lma", 50, (50, 50)) == (0, 0)

    @given(load_rows())
    def test_conservation(self, rows):
        assert_conserves(*rows, decide("lma", *rows))

    @given(load_rows())
    def test_no_send_to_equal_or_greater(self, rows):
        local, W = rows
        assert not decide("lma", local, W)[W >= local[:, np.newaxis]].any()

    @given(load_rows())
    def test_retained_dominates_each_receivers_new_load(self, rows):
        # the sender never pushes a receiver above what it keeps itself
        local, W = rows
        sends = decide("lma", local, W)
        retained = (local - sends.sum(axis=1))[:, np.newaxis]
        assert (retained >= W + sends)[sends > 0].all()

    @given(load_rows())
    def test_retained_within_floor_slack_of_the_mean(self, rows):
        local, W = rows
        mean, contributors = _pruned_mean(local, W, greater=False)
        retained = local - decide("lma", local, W).sum(axis=1)
        assert (mean <= retained).all() and (retained <= mean + 1 + contributors.sum(axis=1)).all()

    @given(load_rows())
    def test_purity(self, rows):
        local, W = rows
        before = (local.copy(), W.copy())
        np.testing.assert_array_equal(decide("lma", local, W), decide("lma", local, W))
        np.testing.assert_array_equal(local, before[0])
        np.testing.assert_array_equal(W, before[1])


class TestQuotaOffer:
    def test_star_scenario(self):
        assert offers(10, (100, 100, 100, 100)) == (18, 18, 18, 18)

    def test_chain_middle(self):
        assert offers(40, (100, 160)) == (23, 36)

    def test_no_greater_neighbor(self):
        assert offers(50, (50, 40)) == (0, 0)

    @given(load_rows())
    def test_quota_soundness(self, rows):
        local, W = rows
        quotas = quota_offers(local, W)
        mean, _ = _pruned_mean(local, W, greater=True)
        assert (quotas.sum(axis=1) <= mean - local).all()  # never offer more than the gap
        assert (W > local[:, np.newaxis])[quotas > 0].all()


class TestGLLMA:
    def test_caps_lma_pairwise(self):
        lma = one_row("lma", 100, (10, 90))
        assert one_row("gllma", 100, (10, 90), granted=[[20, 100]]) == (min(lma[0], 20), min(lma[1], 100))

    @pytest.mark.parametrize("dims", [(3, 1, 1), (1, 3, 1), (1, 1, 3)], ids=["x", "y", "z"])
    def test_three_rank_chain(self, dims):
        # each neighbor grants its offer in the opposite direction's column, on every axis
        after = synchronous_step(ProcessGrid(dims), [100, 40, 160], "gllma")
        assert after == [77, 99, 124]  # transfers 23 and 36; middle lands at 99

    @given(load_rows(), st.data())
    def test_conservation_with_arbitrary_quotas(self, rows, data):
        local, W = rows
        granted = np.array(data.draw(st.lists(loads_st, min_size=W.size, max_size=W.size))).reshape(W.shape)
        sends = decide("gllma", local, W, granted=granted)
        assert_conserves(local, W, sends)
        assert (sends <= np.minimum(decide("lma", local, W), granted)).all()  # the gllma cap


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


@st.composite
def grids_and_loads(draw):
    grid = ProcessGrid(tuple(draw(st.integers(1, 4)) for _ in range(3)))
    high = draw(st.sampled_from((3, 1000, 10**6)))
    loads = draw(st.lists(st.one_of(st.just(0), st.integers(0, high)),
                          min_size=grid.rank_count, max_size=grid.rank_count))
    return neighbor_table(grid), loads


class TestArrayEqualsReference:
    @settings(max_examples=150, deadline=None)
    @given(grids_and_loads(), st.sampled_from(SCHEDULERS))
    def test_plan_transfers_equals_the_scalar_loop(self, grid_loads, scheduler):
        table, loads = grid_loads
        np.testing.assert_array_equal(plan_transfers(table, loads, scheduler),
                                      ref.plan_transfers(table, loads, scheduler))

    @settings(max_examples=60, deadline=None)
    @given(grids_and_loads(), st.sampled_from(SCHEDULERS))
    def test_select_particles_equals_each_ranks_tail(self, grid_loads, scheduler):
        table, loads = grid_loads
        loads = [w % 200 for w in loads]  # a world table of at most 64 x 199 rows
        sends = plan_transfers(table, loads, scheduler)
        first, per_direction = select_particles(loads, sends)
        starts = np.cumsum(loads) - loads
        want_first, want_kept, want = np.zeros_like(sends), [], [[] for _ in range(6)]
        for r, (start, load) in enumerate(zip(starts, loads)):
            rank_kept, rank_sends = ref.select_particles(make_queue(load, r), sends[r], r)
            want_kept.append(start + rank_kept)
            for d, rows in enumerate(rank_sends):
                want[d].append(start + rows)
                # each run starts where the runs before it in the rank's queue end
                want_first[r, d] = start + len(rank_kept) + sum(len(before) for before in rank_sends[:d])
        np.testing.assert_array_equal(first, want_first)
        for d in range(6):
            np.testing.assert_array_equal(per_direction[d], np.concatenate(want[d]))
        kept = np.setdiff1d(np.arange(sum(loads)), np.concatenate(per_direction))
        np.testing.assert_array_equal(kept, np.concatenate(want_kept))


class TestSelectParticles:
    def test_tail_rule(self):
        first, sends = select_particles([100], [[26, 6]])
        assert [len(s) for s in sends] == [26, 6]
        np.testing.assert_array_equal(sends[0], np.arange(68, 94))
        np.testing.assert_array_equal(sends[1], np.arange(94, 100))
        assert first.tolist() == [[68, 94]]

    def test_each_rank_lends_the_tail_of_its_own_slice(self):
        # rank 0 holds rows 0-9, rank 1 rows 10-14; rank 1's empty direction-0 run starts where its tail does
        first, sends = select_particles([10, 5], [[2, 1], [0, 3]])
        np.testing.assert_array_equal(sends[0], [7, 8])
        np.testing.assert_array_equal(sends[1], [9, 12, 13, 14])
        assert first.tolist() == [[7, 9], [12, 12]]

    def test_zero_decision_leaves_queue_untouched(self):
        first, sends = select_particles([5], [[0, 0]])
        assert first.tolist() == [[5, 5]] and all(len(s) == 0 for s in sends)


class TestDecide:
    def test_dispatch(self):
        assert one_row("none", 10, (0,)) == (0,)
        assert one_row("constant", 10, (0,)) == (5,)
        assert one_row("lma", 10, (0,)) == (5,)
        assert one_row("gllma", 10, (0,), granted=[[3]]) == (3,)

    def test_refusals(self):
        with pytest.raises(InvariantError, match="unknown scheduler"):
            one_row("diffuse", 10, (0,))
        with pytest.raises(InvariantError, match="quota"):
            one_row("gllma", 10, (0,))
        with pytest.raises(InvariantError, match="negative load"):
            plan_transfers(neighbor_table(ProcessGrid((2, 1, 1))), [3, -1], "lma")
