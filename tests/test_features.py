"""Features: map validation, normalization, bilinear lookup, pyramids."""

import math

import numpy as np
import pytest
from cvloc.errors import ContractError, DomainError
from cvloc.features import (AttentionMap, FeatureMap, FeaturePyramid,
                            attention_lookup_many, bilinear_lookup_many,
                            bilinear_weights, normalize_features)
from cvloc.geometry import PointSet, Pose3
from cvloc.harness.checks import bilinear_gradient_error
from cvloc.problem import evaluate_pose

from conftest import tiny_problem


class TestFeatureMapValidation:
    def test_rejects_nan(self):
        data = np.zeros((2, 2, 1))
        data[0, 0, 0] = np.nan
        with pytest.raises(DomainError):
            FeatureMap(data)

    def test_rejects_bad_shape(self):
        with pytest.raises(ContractError):
            FeatureMap(np.zeros((4, 4)))

    def test_attention_range_enforced(self):
        with pytest.raises(DomainError):
            AttentionMap(np.full((2, 2), 1.5))
        with pytest.raises(DomainError):
            AttentionMap(np.full((2, 2), -0.1))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cls, shape", [(FeatureMap, (3, 4, 2)), (AttentionMap, (3, 4))])
    def test_misaligned_buffer_stored_aligned_read_only(self, cls, shape, dtype):
        values = np.linspace(0.0, 1.0, math.prod(shape), dtype=dtype).reshape(shape)
        view = np.frombuffer(b"\0\0" + values.tobytes(), dtype=dtype,
                             offset=2).reshape(shape)
        assert not view.flags.aligned
        data = cls(view).data
        assert data.flags.aligned and data.flags.c_contiguous
        assert not data.flags.writeable
        assert np.array_equal(data, values)

    @pytest.mark.parametrize("cls, shape", [(FeatureMap, (3, 4, 2)), (AttentionMap, (3, 4))])
    def test_aligned_read_only_array_kept_without_copy(self, cls, shape):
        values = np.linspace(0.0, 1.0, math.prod(shape), dtype=np.float32).reshape(shape)
        values.setflags(write=False)
        assert cls(values).data is values

    @pytest.mark.parametrize("cls, shape", [(FeatureMap, (2, 2, 1)), (AttentionMap, (2, 2))])
    def test_callers_array_stays_writeable(self, cls, shape):
        values = np.zeros(shape)
        data = cls(values).data
        assert values.flags.writeable and not data.flags.writeable
        assert np.shares_memory(data, values)


class TestNormalizeFeatures:
    def test_hand_example_three_four(self):
        data = np.zeros((1, 1, 2))
        data[0, 0] = [3.0, 4.0]
        out = normalize_features(FeatureMap(data))
        assert np.allclose(out.data[0, 0], [0.6, 0.8])

    def test_idempotent_on_unit_vectors(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((5, 6, 3))
        once = normalize_features(FeatureMap(data))
        twice = normalize_features(once)
        assert np.allclose(once.data, twice.data, atol=1e-12)

    def test_zero_pixel_stays_zero(self):
        data = np.zeros((2, 2, 3))
        data[0, 0] = [1.0, 0.0, 0.0]
        out = normalize_features(FeatureMap(data))
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data[1, 1], 0.0)

    def test_unit_norms_within_tolerance(self):
        rng = np.random.default_rng(1)
        out = normalize_features(FeatureMap(rng.standard_normal((8, 8, 4)).astype(np.float32)))
        norms = np.linalg.norm(out.data.astype(np.float64), axis=-1)
        assert np.max(np.abs(norms - 1.0)) < 1e-6


class TestBilinearLookup:
    def test_integer_coordinates_exact(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((6, 7, 3))
        uv = np.array([[0.0, 0.0], [3.0, 2.0], [6.0, 5.0]])
        vals, _, inb = bilinear_lookup_many(data, uv)
        assert inb.all()
        assert np.allclose(vals, data[[0, 2, 5], [0, 3, 6]], atol=1e-15)

    def test_cell_center_hand_value(self):
        data = np.array([[[0.0], [1.0]], [[0.0], [1.0]]])
        vals, _, inb = bilinear_lookup_many(data, np.array([[0.5, 0.5]]))
        assert inb[0]
        assert vals[0, 0] == pytest.approx(0.5)

    def test_exact_on_affine_field(self):
        a, b, k = 0.7, -1.3, 2.5
        h, w = 9, 11
        uu, vv = np.meshgrid(np.arange(w), np.arange(h))
        data = (a * uu + b * vv + k)[:, :, None].astype(np.float64)
        rng = np.random.default_rng(3)
        uv = np.stack([rng.uniform(0, w - 1, 200), rng.uniform(0, h - 1, 200)], axis=1)
        vals, grads, inb = bilinear_lookup_many(data, uv)
        assert inb.all()
        expect = a * uv[:, 0] + b * uv[:, 1] + k
        assert np.allclose(vals[:, 0], expect, atol=1e-12)
        assert np.allclose(grads[:, 0, 0], a, atol=1e-12)
        assert np.allclose(grads[:, 0, 1], b, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((20, 25, 2))
        n = 1000
        # interior of cells, away from the piecewise kinks
        uv = np.stack([rng.integers(1, 23, n) + rng.uniform(0.05, 0.95, n),
                       rng.integers(1, 18, n) + rng.uniform(0.05, 0.95, n)], axis=1)
        error, checked = bilinear_gradient_error(data, uv)
        assert checked == n
        assert error < 1e-5

    def test_out_of_bounds_soft_fail(self):
        vals, grads, inb = bilinear_lookup_many(np.ones((4, 4, 2)),
                                                np.array([[-0.01, 2.0], [3.01, 2.0]]))
        assert not inb.any()
        assert np.all(vals == 0) and np.all(grads == 0)

    def test_border_texel_exact(self):
        data = np.arange(12.0).reshape(3, 4, 1)
        vals, _, inb = bilinear_lookup_many(data, np.array([[3.0, 2.0]]))
        assert inb[0]
        assert vals[0, 0] == data[2, 3, 0]


def _lookup_2d_reference(data, uv):
    """Bilinear lookup by 2-D fancy indexing at each corner, same arithmetic.

    Builds its own clamped corners and weights rather than calling the
    library's ``bilinear_weights``, which is part of the code under test.
    """
    h, w, _ = data.shape
    u, v = uv[:, 0], uv[:, 1]
    in_bounds = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
    u, v = np.clip(u, 0.0, w - 1.0), np.clip(v, 0.0, h - 1.0)
    u0 = np.minimum(np.floor(u), max(w - 2, 0)).astype(np.intp)
    v0 = np.minimum(np.floor(v), max(h - 2, 0)).astype(np.intp)
    u1, v1 = np.minimum(u0 + 1, w - 1), np.minimum(v0 + 1, h - 1)
    fu, fv = u - u0, v - v0
    w11 = fu * fv
    w00, w01, w10 = 1.0 - fu - fv + w11, fu - w11, fv - w11
    f00 = data[v0, u0].astype(np.float64)
    f01 = data[v0, u1].astype(np.float64)
    f10 = data[v1, u0].astype(np.float64)
    f11 = data[v1, u1].astype(np.float64)
    values = (w00[:, None] * f00 + w01[:, None] * f01
              + w10[:, None] * f10 + w11[:, None] * f11)
    grads = np.empty((uv.shape[0], data.shape[2], 2))
    grads[:, :, 0] = (1.0 - fv)[:, None] * (f01 - f00) + fv[:, None] * (f11 - f10)
    grads[:, :, 1] = (1.0 - fu)[:, None] * (f10 - f00) + fu[:, None] * (f11 - f01)
    values[~in_bounds] = 0.0
    grads[~in_bounds] = 0.0
    return values, grads, in_bounds


def _probe_uv(h, w, rng, n=300):
    """Interior, border-texel, corner and out-of-bounds coordinates."""
    inside = np.stack([rng.uniform(0, w - 1, n), rng.uniform(0, h - 1, n)], axis=1)
    border = np.array([[0.0, 0.0], [w - 1.0, 0.0], [0.0, h - 1.0], [w - 1.0, h - 1.0],
                       [w - 1.0, (h - 1) / 2.0], [(w - 1) / 2.0, h - 1.0]])
    outside = np.array([[-0.5, 0.0], [w - 0.5, 0.0], [0.0, -1e-9], [0.0, h - 0.9],
                        [-3.0, -3.0], [w + 5.0, h + 5.0]])
    return np.concatenate([inside, border, outside])


class TestFlatGather:
    """The flat-index corner gather equals 2-D indexing bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(13, 17, 4), (1, 9, 3), (9, 1, 3), (1, 1, 2),
                                       (2, 2, 1)])
    def test_matches_2d_indexing(self, dtype, shape):
        rng = np.random.default_rng(sum(shape))
        data = rng.standard_normal(shape).astype(dtype)
        uv = _probe_uv(shape[0], shape[1], rng)
        got = bilinear_lookup_many(data, uv)
        want = _lookup_2d_reference(data, uv)
        for g, e in zip(got, want):
            assert np.array_equal(g, e)
        assert not got[2][-6:].any()  # the out-of-bounds rows

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(13, 17), (1, 9), (9, 1), (1, 1)])
    def test_attention_equals_one_channel_lookup(self, dtype, shape):
        rng = np.random.default_rng(sum(shape) + 1)
        amap = AttentionMap(rng.uniform(0.0, 1.0, shape).astype(dtype))
        uv = _probe_uv(shape[0], shape[1], rng)
        values, inb = attention_lookup_many(amap, uv)
        expect, _, expect_inb = bilinear_lookup_many(amap.data[:, :, None], uv)
        assert np.array_equal(values, expect[:, 0])
        assert np.array_equal(inb, expect_inb)
        assert values.dtype == np.float64


class TestSharedCorners:
    """Lookups handed one set of corners equal lookups that build their own."""

    @pytest.mark.parametrize("shape", [(13, 17, 4), (1, 9, 3), (9, 1, 3), (1, 1, 2)])
    def test_passed_corners_change_nothing(self, shape):
        rng = np.random.default_rng(sum(shape) + 2)
        data = rng.standard_normal(shape).astype(np.float32)
        amap = AttentionMap(rng.uniform(0.0, 1.0, shape[:2]).astype(np.float32))
        uv = _probe_uv(shape[0], shape[1], rng)
        corners = bilinear_weights(shape[:2], uv)

        shared = bilinear_lookup_many(data, uv, corners)
        for got, alone, ref in zip(shared, bilinear_lookup_many(data, uv),
                                   _lookup_2d_reference(data, uv)):
            assert np.array_equal(got, alone)
            assert np.array_equal(got, ref)
        att_shared = attention_lookup_many(amap, uv, corners)
        for got, alone in zip(att_shared, attention_lookup_many(amap, uv)):
            assert np.array_equal(got, alone)
        in_bounds = shared[2]
        assert in_bounds[:-6].all() and not in_bounds[-6:].any()

    def test_gradient_planes_are_contiguous(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((13, 17, 4))
        uv = _probe_uv(13, 17, rng)
        _, grads, _ = bilinear_lookup_many(data, uv)
        assert grads.shape == (len(uv), 4, 2)
        for axis in range(2):
            assert grads[:, :, axis].flags.c_contiguous

    def test_in_bounds_edges(self):
        _, _, _, _, inb = bilinear_weights(
            (4, 5), np.array([[0.0, 0.0], [4.0, 3.0], [-0.0, 3.0], [4.0 + 1e-12, 0.0],
                              [1.0, np.inf], [2.5, -1e-300]]))
        assert inb.tolist() == [True, True, True, False, False, False]


class TestFeaturePyramid:
    def test_dimension_mismatch_rejected(self):
        fmap = FeatureMap(np.zeros((4, 4, 2)))
        att = AttentionMap(np.ones((5, 4)))
        with pytest.raises(ContractError):
            FeaturePyramid(((fmap, att),))

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            FeaturePyramid(())


# The residual and weight formulas live in problem.evaluate_pose: satellite
# minus ground feature, and the product of the two attention lookups, with
# rows zeroed wherever either lookup misses its map. These cases pin the
# out-of-bounds masking on a ground point whose satellite projection lies
# 20 m east, outside the 16 px crop of tiny_problem.
_IN_MAP, _OFF_MAP = 0, 1
_OFF_MAP_POINTS = PointSet(np.array([[0.0, 0.0, 3.0], [20.0, 0.0, 20.0]]))


def _off_map_alignment(**kwargs):
    problem = tiny_problem(points=_OFF_MAP_POINTS, **kwargs)
    return evaluate_pose(problem, Pose3(0.0, 0.0, 0.0)).alignment


class TestEvaluatePoseMasksResiduals:
    def test_out_of_bounds_masks(self):
        al = _off_map_alignment()
        assert not al.valid_mask[_OFF_MAP]
        assert np.all(al.residuals[_OFF_MAP] == 0)
        # the in-bounds row is untouched
        assert al.valid_mask[_IN_MAP]
        assert np.linalg.norm(al.residuals[_IN_MAP]) > 0


class TestEvaluatePoseMasksWeights:
    def test_out_of_bounds_zero(self):
        al = _off_map_alignment()
        assert al.weights[_OFF_MAP] == 0.0
        assert al.weights[_IN_MAP] == 1.0
