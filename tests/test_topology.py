import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffadvect
from diffadvect.errors import ConfigError
from diffadvect.field import seed_axes
from diffadvect.topology import (
    DIR_AXIS,
    DIR_SIGN,
    DIRECTIONS,
    ProcessGrid,
    coords_to_rank,
    decompose,
    most_cubic_dims,
    neighbor_table,
    node_ranks,
    rank_to_coords,
)

grids = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))


class TestRankCoords:
    def test_corner_ranks(self):
        g = ProcessGrid((2, 2, 2))
        assert rank_to_coords(g, 0) == (0, 0, 0)
        assert rank_to_coords(g, 7) == (1, 1, 1)

    def test_round_trip_all_ranks(self):
        g = ProcessGrid((3, 2, 4))
        for r in range(g.rank_count):
            assert coords_to_rank(g, rank_to_coords(g, r)) == r

    def test_out_of_range_rank_rejected(self):
        g = ProcessGrid((2, 2, 2))
        with pytest.raises(ConfigError):
            rank_to_coords(g, 8)
        with pytest.raises(ConfigError):
            rank_to_coords(g, -1)

    def test_out_of_grid_coords_rejected(self):
        g = ProcessGrid((2, 3, 4))
        for coords in [(2, 0, 0), (0, 3, 0), (0, 0, 4), (-1, 0, 0), (0, 0, -1)]:
            with pytest.raises(ConfigError):
                coords_to_rank(g, coords)
        with pytest.raises(ConfigError):
            coords_to_rank(g, (np.array([0, 1]), np.array([2, 3]), 0))

    def test_arrays_of_coords_broadcast(self):
        g = ProcessGrid((2, 3, 4))
        ranks = coords_to_rank(g, (np.arange(2)[:, None], np.arange(3), 1))
        assert ranks.tolist() == [[6, 8, 10], [7, 9, 11]]

    @given(grids)
    def test_bijection(self, dims):
        g = ProcessGrid(dims)
        seen = {coords_to_rank(g, rank_to_coords(g, r)) for r in range(g.rank_count)}
        assert seen == set(range(g.rank_count))


def neighbor_count(grid, coords):
    return int((neighbor_table(grid)[coords_to_rank(grid, coords)] >= 0).sum())


class TestNeighborhood:
    def test_corner_of_cube_has_three_neighbors(self):
        assert neighbor_count(ProcessGrid((2, 2, 2)), (0, 0, 0)) == 3

    def test_interior_x_rank_has_four_neighbors(self):
        assert neighbor_count(ProcessGrid((4, 2, 2)), (1, 0, 0)) == 4  # both x, one y, one z

    def test_single_rank_has_no_neighbors(self):
        assert (neighbor_table(ProcessGrid((1, 1, 1))) == -1).all()

    def test_directions_are_unique_and_ordered(self):
        g = ProcessGrid((3, 3, 3))
        row = neighbor_table(g)[coords_to_rank(g, (1, 1, 1))]
        assert [rank_to_coords(g, j) for j in row] == [
            (0, 1, 1), (2, 1, 1), (1, 0, 1), (1, 2, 1), (1, 1, 0), (1, 1, 2)]
        assert len(DIRECTIONS) == 6

    @given(grids)
    @settings(max_examples=40)
    def test_symmetry(self, dims):
        table = neighbor_table(ProcessGrid(dims))
        for r, d in zip(*np.nonzero(table >= 0)):
            assert table[table[r, d], d ^ 1] == r

    @given(grids)
    @settings(max_examples=40)
    def test_entry_is_the_rank_one_step_along_its_axis(self, dims):
        g = ProcessGrid(dims)
        table = neighbor_table(g)
        assert table.shape == (g.rank_count, 6) and table.dtype == np.int64
        for r in range(g.rank_count):
            for d in range(6):
                stepped = list(rank_to_coords(g, r))
                stepped[DIR_AXIS[d]] += DIR_SIGN[d]
                inside = 0 <= stepped[DIR_AXIS[d]] < dims[DIR_AXIS[d]]
                assert table[r, d] == (coords_to_rank(g, stepped) if inside else -1)


class TestDecompose:
    def test_even_cube_split(self):
        g = ProcessGrid((2, 2, 2))
        origin, core_dims = decompose(g, (64, 64, 64))
        assert origin.shape == core_dims.shape == (8, 3)
        assert origin.dtype == core_dims.dtype == np.int64
        assert (core_dims == 32).all()
        # each rank reaches exactly its face neighbors' blocks
        assert ((neighbor_table(g) >= 0).sum(axis=1) == 3).all()

    def test_remainder_goes_to_low_ranks(self):
        origin, core_dims = decompose(ProcessGrid((2, 1, 1)), (65, 8, 8))
        assert origin[:, 0].tolist() == [0, 33] and core_dims[:, 0].tolist() == [33, 32]
        origin, core_dims = decompose(ProcessGrid((1, 1, 3)), (8, 8, 7))
        assert origin[:, 2].tolist() == [0, 3, 5] and core_dims[:, 2].tolist() == [3, 2, 2]

    def test_resolution_smaller_than_grid_rejected(self):
        with pytest.raises(ConfigError):
            decompose(ProcessGrid((4, 1, 1)), (3, 8, 8))

    @given(grids, st.tuples(st.integers(5, 40), st.integers(5, 40), st.integers(5, 40)))
    @settings(max_examples=40)
    def test_partition_property(self, dims, res):
        g = ProcessGrid(dims)
        covered = np.zeros(res, dtype=np.int64)
        for (ox, oy, oz), (nx, ny, nz) in zip(*decompose(g, res)):
            covered[ox:ox + nx, oy:oy + ny, oz:oz + nz] += 1
        assert (covered == 1).all()

    @given(grids, st.tuples(st.integers(5, 40), st.integers(5, 40), st.integers(5, 40)),
           st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)))
    @settings(max_examples=40)
    def test_every_node_lies_in_its_ranks_core(self, dims, res, stride):
        g = ProcessGrid(dims)
        origin, core_dims = decompose(g, res)
        axes = seed_axes(res, 1.0, stride)
        ranks = node_ranks(g, res, axes)
        assert ranks.shape == tuple(len(a) for a in axes[::-1])
        node = np.stack([a.ravel() for a in np.meshgrid(*axes[::-1], indexing="ij")[::-1]], axis=1)  # x fastest
        home = ranks.ravel()
        assert ((node >= origin[home]) & (node < (origin + core_dims)[home])).all()


class TestRouting:
    def test_interior_plus_x(self):
        assert neighbor_table(ProcessGrid((3, 1, 1)))[1, 1] == 2  # +x

    def test_domain_boundary_terminates(self):
        assert neighbor_table(ProcessGrid((3, 1, 1)))[2, 1] == -1


class TestMostCubic:
    @pytest.mark.parametrize(
        "n,expect",
        [(1, (1, 1, 1)), (2, (2, 1, 1)), (4, (2, 2, 1)), (8, (2, 2, 2)),
         (16, (4, 2, 2)), (12, (3, 2, 2)), (27, (3, 3, 3))],
    )
    def test_factorizations(self, n, expect):
        assert most_cubic_dims(n) == expect


def test_every_public_name_resolves():
    for name in diffadvect.__all__:
        assert hasattr(diffadvect, name), name
