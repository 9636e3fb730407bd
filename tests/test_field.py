import math
import tracemalloc

import numpy as np
import pytest

from diffadvect import field as field_module
from diffadvect.errors import ConfigError, DomainError, OutOfBlockError
from diffadvect.field import (
    AnalyticField,
    evaluate_field,
    lattice_spacing,
    rasterize_block,
    rasterize_global,
    sample_trilinear,
)


class NumpyToroidal:
    """The numpy toroidal formula in a field that is not an AnalyticField, so it rasterizes in slabs."""

    kind = "toroidal"

    def components(self, x, y, z):
        return AnalyticField("toroidal").components(x, y, z)


class DuckField:
    """A field that is not an AnalyticField, whose components are those of the given function."""

    kind = "duck"

    def __init__(self, components):
        self.components = components


class LinearField:
    """v = (x, 2y, -z): trilinear interpolation reproduces it exactly."""

    def components(self, x, y, z):
        return x, 2.0 * y, -z


def brick(block):
    """One extent's ghost-padded brick, as a view of the shared lattice."""
    (ox, oy, oz), (nx, ny, nz) = block.origin, block.core_dims
    return block.lattice[ox:ox + nx + 2, oy:oy + ny + 2, oz:oz + nz + 2]


class TestAnalyticField:
    def test_abc_at_origin_returns_c_a_b(self):
        f = AnalyticField("abc")
        v = evaluate_field(f, (0.0, 0.0, 0.0))
        A, B, C = f.params["A"], f.params["B"], f.params["C"]
        np.testing.assert_array_equal(v, [C, A, B])
        assert A == pytest.approx(math.sqrt(3.0))
        assert B == pytest.approx(math.sqrt(2.0))
        assert C == 1.0

    def test_toroidal_axis_offset_point_is_tangential(self):
        v = evaluate_field(AnalyticField("toroidal"), (0.75, 0.5, 0.5))
        assert v[2] == 0.0
        # direction (0, +1, 0) scaled by its own magnitude
        np.testing.assert_allclose(v / np.linalg.norm(v), [0.0, 1.0, 0.0], atol=1e-15)

    def test_jets_formula_spot_check(self):
        f = AnalyticField("jets")
        v = evaluate_field(f, (0.5, 0.25, 0.5))
        assert v[0] == pytest.approx(-math.pi * math.sin(math.pi * 0.5) * math.cos(math.pi * 0.25))
        assert v[1] == pytest.approx(math.pi * math.cos(math.pi * 0.5) * math.sin(math.pi * 0.25))
        assert v[2] == pytest.approx(0.3 * math.sin(math.pi * 0.5) * math.sin(math.pi * 0.5))

    @pytest.mark.parametrize("kind", ["abc", "jets", "toroidal"])
    def test_evaluation_is_pure(self, kind):
        f = AnalyticField(kind)
        p = (0.371, 0.642, 0.118)
        np.testing.assert_array_equal(evaluate_field(f, p), evaluate_field(f, p))

    def test_out_of_domain_point_raises_domain_error(self):
        with pytest.raises(DomainError):
            evaluate_field(AnalyticField("abc"), (1.2, 0.5, 0.5))
        with pytest.raises(DomainError):
            evaluate_field(AnalyticField("abc"), (0.5, -0.01, 0.5))

    def test_unknown_kind_and_param_rejected(self):
        with pytest.raises(ConfigError):
            AnalyticField("vortex")
        with pytest.raises(ConfigError):
            AnalyticField("abc", {"Q": 1.0})

    def test_param_override(self):
        f = AnalyticField("toroidal", {"kappa": 0.0})
        v = evaluate_field(f, (0.9, 0.5, 0.3))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12  # pure unit tangential flow


class TestRasterize:
    def test_zero_sized_dims_rejected(self):
        with pytest.raises(ConfigError):
            rasterize_block(AnalyticField("abc"), (16, 16, 16), (0, 0, 0), (0, 16, 16))

    def test_block_exceeding_resolution_rejected(self):
        with pytest.raises(ConfigError):
            rasterize_block(AnalyticField("abc"), (16, 16, 16), (8, 0, 0), (16, 16, 16))

    def test_lattice_samples_match_evaluate_field(self):
        f = AnalyticField("toroidal")
        res = (9, 9, 9)
        blk = rasterize_block(f, res, (2, 2, 2), (4, 4, 4))
        s = lattice_spacing(res)
        for node in [(2, 2, 2), (3, 4, 5), (5, 5, 5)]:
            expect = evaluate_field(f, tuple(node[a] * s[a] for a in range(3)))
            got = brick(blk)[node[0] - 1, node[1] - 1, node[2] - 1]  # ghost offset 1
            np.testing.assert_array_equal(got, expect)

    def test_ghost_clamped_at_domain_edge(self):
        f = AnalyticField("abc")
        blk = rasterize_block(f, (8, 8, 8), (0, 0, 0), (4, 4, 4))
        # ghost plane at node -1 replicates node 0
        np.testing.assert_array_equal(brick(blk)[0], brick(blk)[1])

    def test_adjacent_blocks_share_the_lattice(self):
        f = AnalyticField("jets")
        res = (16, 16, 16)
        a = rasterize_block(f, res, (0, 0, 0), (8, 16, 16))
        b = rasterize_block(f, res, (8, 0, 0), (8, 16, 16))
        # A's +x ghost plane (node 8) equals B's first core plane (node 8).
        np.testing.assert_array_equal(brick(a)[-1], brick(b)[1])
        # a block padded from given global data, here touching the hull on five faces, gets the same
        # read-only lattice as one that rasterizes its own
        g = rasterize_global(f, res)
        a2 = rasterize_block(f, res, (0, 0, 0), (8, 16, 16), global_data=g)
        assert not a2.lattice.flags.writeable
        assert a2.lattice.tobytes() == a.lattice.tobytes()

    @pytest.mark.parametrize("kind", ["abc", "jets", "toroidal"])
    @pytest.mark.parametrize("slab_nodes", [1 << 18, 700])
    def test_slabs_equal_one_whole_lattice_evaluation_padded(self, kind, slab_nodes, monkeypatch):
        # broadcast axes, or toroidal's compiled pass, equal pointwise evaluation byte for byte, for the default
        # coefficients, draws from the benchmark's seeded +-0.5% band and a wide +-30% band; 700 nodes splits
        # (21, 17, 19) into 2-plane slabs and (2, 31, 23), a 2-node axis, into 1-plane slabs. (21, 17, 19) has
        # nodes on the torus axis, where rho = eps; toroidal adds a ring of radius 0, the flow reversed, and
        # the ring through the nodes (x, 0.5, 0.5) with x = 0 or 1, where rs = eps.
        monkeypatch.setattr(field_module, "_SLAB_NODES", slab_nodes)
        rng = np.random.default_rng(11)
        defaults = AnalyticField(kind).params
        edges = [{"R0": 0.0}, {"kappa": -0.5}, {"R0": 0.5}] if kind == "toroidal" else []
        for res in [(21, 17, 19), (2, 31, 23)]:
            s = lattice_spacing(res)
            axes = [np.arange(r, dtype=np.float64) * s[a] for a, r in enumerate(res)]
            pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
            draws = [{k: v * rng.uniform(1 - band, 1 + band) for k, v in defaults.items()}
                     for band in (0.0, 0.005, 0.005, 0.3, 0.3)]
            for params in draws + edges:
                f = AnalyticField(kind, params)
                whole = f.evaluate(pts.reshape(-1, 3)).reshape(res + (3,))
                expected = np.pad(whole, ((1, 1), (1, 1), (1, 1), (0, 0)), mode="edge")
                padded = rasterize_global(f, res, padded=True)
                assert padded.tobytes() == expected.tobytes(), (res, f.params)
                assert rasterize_global(f, res).tobytes() == whole.tobytes()
                assert not padded.flags.writeable

    @pytest.mark.parametrize("components", [
        lambda x, y, z: (1.5, 2.0 * y, -z),
        lambda x, y, z: (np.rint(100.0 * x).astype(np.int64), (y / 3.0).astype(np.float32), z * x),
        lambda x, y, z: (np.stack((z, -z), axis=-1)[..., 1], np.negative((x + y)[:, ::-1])[:, ::-1], y),
        lambda x, y, z: (x * y * z, x + y + z, np.asfortranarray(np.broadcast_arrays(x, y, z)[1] + 0.0)),
    ], ids=["python-float", "int64-and-float32", "non-contiguous-views", "full-3d"])
    @pytest.mark.parametrize("slab_nodes", [1 << 18, 700])
    def test_duck_typed_components_write_the_assigned_bytes(self, components, slab_nodes, monkeypatch):
        # whatever a field's components are, the lattice holds what assigning each to a float64 array of the
        # evaluation points gives, padded by edge replication
        monkeypatch.setattr(field_module, "_SLAB_NODES", slab_nodes)
        for res in [(21, 17, 19), (2, 31, 23)]:
            s = lattice_spacing(res)
            points = np.meshgrid(*[np.arange(r, dtype=np.float64) * s[a] for a, r in enumerate(res)], indexing="ij")
            whole = np.empty(res + (3,))
            for d, v in enumerate(components(*points)):
                whole[..., d] = v
            expected = np.pad(whole, ((1, 1), (1, 1), (1, 1), (0, 0)), mode="edge")
            assert rasterize_global(DuckField(components), res, padded=True).tobytes() == expected.tobytes(), res

    def test_duck_typed_components_that_are_nan_or_do_not_broadcast_are_refused(self):
        with pytest.raises(ConfigError, match="not finite on the lattice"):
            rasterize_global(DuckField(lambda x, y, z: (x, math.nan, z)), (9, 8, 7))
        with pytest.raises(ValueError):
            rasterize_global(DuckField(lambda x, y, z: (x, y, np.zeros(z.shape[-1] + 1))), (9, 8, 7))
        with pytest.raises(ValueError):
            rasterize_global(DuckField(lambda x, y, z: (x, y)), (9, 8, 7))

    def test_global_data_of_another_shape_is_refused(self):
        g = rasterize_global(AnalyticField("abc"), (8, 8, 8))
        with pytest.raises(ConfigError, match="global_data has shape"):
            rasterize_block(AnalyticField("abc"), (8, 8, 8), (0, 0, 0), (8, 8, 8), global_data=g[:1])

    @pytest.mark.parametrize("slab_nodes", [1 << 18, 700])
    def test_ghost_margin_reads_a_negative_extreme_in_the_last_slab(self, slab_nodes, monkeypatch):
        # max|v| is vx = -3 on the x = 1 plane, the last slab's at both sizes; the largest value is only
        # vz = 2, and the slabs before the last reach |vx| = 3 * 0.95^8 < 2
        class FarFaceSink:
            kind = "sink"

            def components(self, x, y, z):
                return -3.0 * x ** 8, y, 2.0 * z

        monkeypatch.setattr(field_module, "_SLAB_NODES", slab_nodes)
        res = (21, 17, 19)
        margin_step = float(lattice_spacing(res).min()) / (2.0 * 3.0)
        padded = rasterize_global(FarFaceSink(), res, padded=True, step=0.999 * margin_step)
        assert padded[-2, 1, 1, 0] == -3.0
        with pytest.raises(ConfigError, match="too large for ghost margin"):
            rasterize_global(FarFaceSink(), res, padded=True, step=1.001 * margin_step)

    def test_toroidal_ghost_margin_refusal_keeps_its_digits(self):
        # the compiled pass's max|v| is the slab-wise max(hi, -lo) the numpy lattice gave
        with pytest.raises(ConfigError) as info:
            rasterize_global(AnalyticField("toroidal"), (64, 64, 64), padded=True, step=0.01)
        assert str(info.value) == ("step 0.01 too large for ghost margin: 2*h*max|v| = 0.0224 exceeds min "
                                   "spacing 0.0159")

    def test_rasterization_peak_stays_near_one_padded_lattice(self, monkeypatch):
        monkeypatch.setattr(field_module, "_SLAB_NODES", 1 << 12)
        res = (48, 48, 48)  # 27 slabs
        padded_bytes = 50 ** 3 * 24
        tracemalloc.start()
        try:
            rasterize_global(NumpyToroidal(), res, padded=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * padded_bytes

    @pytest.mark.parametrize("kind, bound", [("abc", 1.5), ("jets", 1.5), ("toroidal", 1.05)])
    def test_default_slab_peak_at_64_cubed(self, kind, bound):
        # the default slab holds all 64 x-planes, and abc's and jets' components are planes; the
        # toroidal field's compiled pass writes the padded lattice and allocates nothing more (1.016 times it)
        f = AnalyticField(kind)
        padded_bytes = 66 ** 3 * 24
        tracemalloc.start()
        try:
            rasterize_global(f, (64, 64, 64), padded=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * padded_bytes

    def test_rasterization_deterministic(self):
        f = AnalyticField("abc")
        b1 = rasterize_block(f, (12, 12, 12), (4, 4, 4), (4, 4, 4))
        b2 = rasterize_block(f, (12, 12, 12), (4, 4, 4), (4, 4, 4))
        np.testing.assert_array_equal(brick(b1), brick(b2))


class TestTrilinear:
    def test_sample_at_node_returns_stored_vector(self):
        f = AnalyticField("abc")
        res = (16, 16, 16)
        blk = rasterize_block(f, res, (4, 4, 4), (8, 8, 8))
        s = lattice_spacing(res)
        node = (6, 7, 9)
        got = sample_trilinear(blk, tuple(node[a] * s[a] for a in range(3)))
        np.testing.assert_array_equal(got, brick(blk)[node[0] - 3, node[1] - 3, node[2] - 3])

    def test_cell_center_is_mean_of_corners(self):
        f = AnalyticField("toroidal")
        res = (16, 16, 16)
        blk = rasterize_block(f, res, (4, 4, 4), (8, 8, 8))
        s = lattice_spacing(res)
        p = tuple((6 + 0.5) * s[a] for a in range(3))
        got = sample_trilinear(blk, p)
        corners = brick(blk)[3:5, 3:5, 3:5].reshape(8, 3)
        np.testing.assert_allclose(got, corners.mean(axis=0), rtol=1e-14, atol=1e-15)

    def test_affine_field_reproduced_everywhere(self):
        res = (11, 13, 9)
        blk = rasterize_block(LinearField(), res, (0, 0, 0), res)
        rng = np.random.default_rng(7)
        pts = rng.random((1000, 3))
        got = blk.sample(pts)
        expect = np.stack(LinearField().components(*pts.T), axis=-1)
        err = np.abs(got - expect) / np.maximum(1.0, np.abs(expect))
        assert err.max() <= 1e-12

    def test_ghost_consistency_bit_identical(self):
        f = AnalyticField("abc")
        res = (16, 16, 16)
        g = rasterize_global(f, res)
        a = rasterize_block(f, res, (0, 0, 0), (8, 16, 16), global_data=g)
        b = rasterize_block(f, res, (8, 0, 0), (8, 16, 16), global_data=g)
        s = lattice_spacing(res)
        rng = np.random.default_rng(3)
        # points in the shared face band g_x in [7, 8], reachable by both blocks
        pts = rng.random((500, 3)) * s * np.array([1.0, 15.0, 15.0]) + np.array([7.0 * s[0], 0, 0])
        np.testing.assert_array_equal(a.sample(pts), b.sample(pts))

    def test_sampling_extent_ends_land_on_lattice_nodes(self):
        f = AnalyticField("toroidal")
        res = (16, 16, 16)
        g = rasterize_global(f, res)
        blk = rasterize_block(f, res, (4, 4, 4), (8, 8, 8), global_data=g)
        s = lattice_spacing(res)

        def exact_position(node, axis):
            # a position whose g-space coordinate is exactly ``node``
            p = node * s[axis]
            while p / s[axis] != node:
                p = np.nextafter(p, np.inf if p / s[axis] < node else -np.inf)
            return p

        inner = (6, 7, 9)
        for axis in range(3):
            for end in (3, 12):  # sample_lo and sample_hi of core [4, 12)
                node = list(inner)
                node[axis] = end
                p = np.array([[exact_position(node[a], a) for a in range(3)]])
                assert blk.samplable_mask(p)[0]
                np.testing.assert_array_equal(blk.sample_clamped(p)[0], g[tuple(node)])

    def test_out_of_block_error_distinct_from_domain_error(self):
        f = AnalyticField("abc")
        blk = rasterize_block(f, (16, 16, 16), (0, 0, 0), (8, 8, 8))
        with pytest.raises(OutOfBlockError):
            sample_trilinear(blk, (0.9, 0.9, 0.9))  # in domain, outside block
        assert not issubclass(OutOfBlockError, DomainError)
        assert not issubclass(DomainError, OutOfBlockError)

