import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffadvect.errors import ConfigError
from diffadvect.topology import (
    DIRECTIONS,
    ProcessGrid,
    coords_to_rank,
    decompose,
    most_cubic_dims,
    neighborhood_of,
    rank_to_coords,
    route_out_of_bounds,
    split_axis,
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

    @given(grids)
    def test_bijection(self, dims):
        g = ProcessGrid(dims)
        seen = {coords_to_rank(g, rank_to_coords(g, r)) for r in range(g.rank_count)}
        assert seen == set(range(g.rank_count))


class TestNeighborhood:
    def test_corner_of_cube_has_three_neighbors(self):
        g = ProcessGrid((2, 2, 2))
        assert len(neighborhood_of(g, coords_to_rank(g, (0, 0, 0)))) == 3

    def test_interior_x_rank_has_four_neighbors(self):
        g = ProcessGrid((4, 2, 2))
        n = neighborhood_of(g, coords_to_rank(g, (1, 0, 0)))
        assert len(n) == 4  # both x, one y, one z

    def test_single_rank_has_no_neighbors(self):
        g = ProcessGrid((1, 1, 1))
        assert len(neighborhood_of(g, 0)) == 0

    def test_directions_are_unique_and_ordered(self):
        g = ProcessGrid((3, 3, 3))
        n = neighborhood_of(g, coords_to_rank(g, (1, 1, 1)))
        dirs = [d for d, _ in n.neighbors]
        assert dirs == sorted(dirs) and len(set(dirs)) == 6
        assert len(DIRECTIONS) == 6

    @given(grids)
    @settings(max_examples=40)
    def test_symmetry(self, dims):
        g = ProcessGrid(dims)
        hoods = [neighborhood_of(g, r) for r in range(g.rank_count)]
        for r, hood in enumerate(hoods):
            for _, j in hood.neighbors:
                assert r in hoods[j].ranks


class TestDecompose:
    def test_even_cube_split(self):
        g = ProcessGrid((2, 2, 2))
        extents = decompose(g, (64, 64, 64))
        assert all(e.core_dims == (32, 32, 32) for e in extents)
        # each rank reaches exactly its face neighbors' blocks
        for r in range(8):
            assert len(neighborhood_of(g, r)) == 3

    def test_remainder_goes_to_low_ranks(self):
        assert split_axis(65, 2) == [(0, 33), (33, 32)]
        assert split_axis(7, 3) == [(0, 3), (3, 2), (5, 2)]

    def test_resolution_smaller_than_grid_rejected(self):
        with pytest.raises(ConfigError):
            decompose(ProcessGrid((4, 1, 1)), (3, 8, 8))

    @given(grids, st.tuples(st.integers(5, 40), st.integers(5, 40), st.integers(5, 40)))
    @settings(max_examples=40)
    def test_partition_property(self, dims, res):
        g = ProcessGrid(dims)
        extents = decompose(g, res)
        covered = np.zeros(res, dtype=np.int64)
        for e in extents:
            ox, oy, oz = e.origin
            nx, ny, nz = e.core_dims
            covered[ox:ox + nx, oy:oy + ny, oz:oz + nz] += 1
        assert (covered == 1).all()


class TestRouting:
    def test_interior_plus_x(self):
        g = ProcessGrid((3, 1, 1))
        n = neighborhood_of(g, 1)
        assert route_out_of_bounds(n, 1) == 2  # +x

    def test_domain_boundary_terminates(self):
        g = ProcessGrid((3, 1, 1))
        n = neighborhood_of(g, 2)
        assert route_out_of_bounds(n, 1) is None

    def test_bad_direction_rejected(self):
        g = ProcessGrid((2, 1, 1))
        with pytest.raises(ConfigError):
            route_out_of_bounds(neighborhood_of(g, 0), 6)


class TestMostCubic:
    @pytest.mark.parametrize(
        "n,expect",
        [(1, (1, 1, 1)), (2, (2, 1, 1)), (4, (2, 2, 1)), (8, (2, 2, 2)),
         (16, (4, 2, 2)), (12, (3, 2, 2)), (27, (3, 3, 3))],
    )
    def test_factorizations(self, n, expect):
        assert most_cubic_dims(n) == expect
