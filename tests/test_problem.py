"""Problem: the residual/weight formula of evaluate_pose and problem checks."""

import dataclasses
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvloc.features
import cvloc.problem
from cvloc.errors import ContractError
from cvloc.features import (AttentionMap, FeatureMap, FeaturePyramid,
                            attention_lookup_many, bilinear_lookup_many)
from cvloc.geometry import (PointSet, Pose3, pose_to_transform, project_ground,
                            project_satellite, transform_points)
from cvloc.harness.checks import build_jacobian
from cvloc.problem import evaluate_pose, ground_level_data

from conftest import tiny_problem

# The three default tiny_problem points, then one behind the camera (its
# satellite projection is in bounds) and one visible on the ground but
# projecting 20 m east, outside the 16 px satellite crop.
_DEFAULT = [[0.0, 0.0, 3.0], [1.25, -1.25, 5.0], [-2.0, 2.0, 4.0]]
_INVISIBLE, _OFF_MAP = 3, 4
_MASKED_POINTS = PointSet(np.array(_DEFAULT + [[0.0, 0.0, -2.0], [20.0, 0.0, 20.0]]))


def _constant(size: int, vec) -> np.ndarray:
    return np.tile(np.asarray(vec, dtype=np.float32), (size, size, 1))


def _alignment(**kwargs):
    problem = tiny_problem(**kwargs)
    return evaluate_pose(problem, Pose3(0.0, 0.0, 0.0)).alignment


class TestEvaluatePose:
    def test_identical_maps_zero_residual(self):
        # the same feature everywhere in both views
        al = _alignment(sat_data=_constant(16, [0.6, 0.8]),
                        grd_data=_constant(17, [0.6, 0.8]))
        assert al.valid_mask.all()
        assert np.allclose(al.residuals, 0.0, atol=1e-15)

    def test_antipodal_unit_vectors_norm_two(self):
        al = _alignment(sat_data=_constant(16, [1.0, 0.0]),
                        grd_data=_constant(17, [-1.0, 0.0]))
        assert al.valid_mask.all()
        assert np.allclose(np.linalg.norm(al.residuals, axis=1), 2.0)

    def test_invisible_rows_zeroed(self):
        al = _alignment(points=_MASKED_POINTS)
        assert not al.valid_mask[_INVISIBLE]
        assert np.all(al.residuals[_INVISIBLE] == 0)
        assert al.weights[_INVISIBLE] == 0.0

    def test_off_map_rows_zeroed(self):
        problem = tiny_problem(points=_MASKED_POINTS)
        ev = evaluate_pose(problem, Pose3(0.0, 0.0, 0.0))
        al = ev.alignment
        assert not al.valid_mask[_OFF_MAP]
        assert np.all(al.residuals[_OFF_MAP] == 0) and al.weights[_OFF_MAP] == 0.0
        assert np.all(ev.sat_grads[_OFF_MAP] == 0) and ev.sq_norms[_OFF_MAP] == 0.0
        # the lookup itself only interpolates: its border-clamped value is not zero
        sat = problem.sat_pyramid.feature(0).data
        vals, _, inb = bilinear_lookup_many(sat, project_satellite(
            ev.pts_sat[_OFF_MAP:], problem.georef))
        assert not inb[0] and np.linalg.norm(vals[0]) > 0
        # the in-map rows keep a nonzero residual and unit weight
        assert al.valid_mask[:_INVISIBLE].all()
        assert np.all(np.linalg.norm(al.residuals[:_INVISIBLE], axis=1) > 0)
        assert np.all(al.weights[:_INVISIBLE] == 1.0)

    def test_unit_attention_gives_unit_weights(self):
        al = _alignment()
        assert np.allclose(al.weights, 1.0)

    def test_weight_is_attention_product(self):
        al = _alignment(sat_att=np.full((16, 16), 0.5), grd_att=np.full((17, 17), 0.8))
        assert al.weights == pytest.approx([0.4, 0.4, 0.4])

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_weights_in_unit_interval(self, a, b):
        al = _alignment(sat_att=np.full((16, 16), a), grd_att=np.full((17, 17), b),
                        points=_MASKED_POINTS)
        assert np.all((al.weights >= 0.0) & (al.weights <= 1.0))


def _unfused_evaluation(problem, pose, level):
    """evaluate_pose's formulas from two lookups that each build their own
    corners, with fresh residual and weight arrays and unconditional masking."""
    f_sat, a_sat, georef = problem.satellite_level(level)
    ground = ground_level_data(problem, level)
    uv = project_satellite(
        transform_points(problem.points.points[ground.rows], pose_to_transform(pose)),
        georef)
    vals, grads, inb = bilinear_lookup_many(f_sat.data, uv)
    att, _ = attention_lookup_many(a_sat, uv)
    valid = ground.valid & inb
    masked = ~valid
    residuals = vals - ground.features
    residuals[masked] = 0.0
    weights = att * ground.attention
    weights[masked] = 0.0
    grads[masked] = 0.0
    return residuals, weights, valid, grads


def _assert_matches_unfused(problem, pose, level=0):
    ev = evaluate_pose(problem, pose, level)
    got = (ev.alignment.residuals, ev.alignment.weights, ev.alignment.valid_mask,
           ev.sat_grads)
    for g, e in zip(got, _unfused_evaluation(problem, pose, level)):
        assert np.array_equal(g, e)
    return ev.alignment.valid_mask


class TestFusedEvaluation:
    """One corner build per pose gives the unfused evaluation to the bit."""

    @staticmethod
    def _attention_problem(points=None):
        rng = np.random.default_rng(21)
        return tiny_problem(points=points, sat_att=rng.uniform(0.2, 1.0, (16, 16)),
                            grd_att=rng.uniform(0.2, 1.0, (17, 17)))

    def test_all_valid_pose(self):
        valid = _assert_matches_unfused(self._attention_problem(), Pose3(0.3, -0.2, 0.05))
        assert valid.all()

    def test_partly_masked_pose(self):
        valid = _assert_matches_unfused(self._attention_problem(_MASKED_POINTS),
                                        Pose3(0.3, -0.2, 0.05))
        assert valid.any() and not valid.all()

    def test_generated_scene_every_level(self, small_scene):
        n = small_scene.points.count
        for level in range(small_scene.level_count):
            valid = _assert_matches_unfused(small_scene, Pose3(2.5, -1.5, 0.08), level)
            # the coarsest level evaluates every 4th point, the others all
            assert len(valid) == (-(-n // 4) if level == 2 else n)

    def test_one_corner_build_per_evaluation(self, small_scene, monkeypatch):
        ground = ground_level_data(small_scene, 0)  # filled before counting
        real = cvloc.features.bilinear_weights
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cvloc.features, "bilinear_weights", counting)
        monkeypatch.setattr(cvloc.problem, "bilinear_weights", counting)
        evaluate_pose(small_scene, Pose3(1.0, -0.5, 0.05), 0, ground=ground)
        assert len(calls) == 1


@pytest.mark.parametrize("level", [-1, 3], ids=["negative", "level_count"])
@pytest.mark.parametrize("call", [
    lambda problem, level: evaluate_pose(problem, problem.gt_pose, level),
    lambda problem, level: build_jacobian(problem, problem.gt_pose, level),
    lambda problem, level: ground_level_data(problem, level),
    lambda problem, level: problem.satellite_level(level),
], ids=["evaluate_pose", "build_jacobian", "ground_level_data", "satellite_level"])
def test_level_outside_pyramid_rejected(small_scene, call, level):
    assert small_scene.level_count == 3
    with pytest.raises(ContractError, match=f"level {level} is outside"):
        call(small_scene, level)


class TestAlignmentProblem:
    def test_channel_mismatch_rejected(self):
        with pytest.raises(ContractError):
            tiny_problem(sat_data=np.ones((16, 16, 3), dtype=np.float32))

    @staticmethod
    def _two_levels(pyramid, h, w):
        """``pyramid``'s level 0 and a zero-feature h x w level 1."""
        coarse = (FeatureMap(np.zeros((h, w, pyramid.feature(0).channels))),
                  AttentionMap(np.ones((h, w))))
        return FeaturePyramid((pyramid.levels[0], coarse))

    def test_ground_level_one_row_short_rejected(self):
        # level 0 is 16x16 on the satellite and 17x17 on the ground
        problem = tiny_problem()
        halved = dataclasses.replace(
            problem, sat_pyramid=self._two_levels(problem.sat_pyramid, 8, 8),
            grd_pyramid=self._two_levels(problem.grd_pyramid, 9, 9))
        assert halved.level_count == 2
        with pytest.raises(ContractError, match=re.escape(
                "ground pyramid level 1 is 8x9, expected 9x9 (halving per level)")):
            dataclasses.replace(halved, grd_pyramid=self._two_levels(problem.grd_pyramid, 8, 9))


class TestGroundLevelData:
    def test_cached_read_only_and_equal_to_fresh_lookups(self, small_scene):
        n = small_scene.points.count
        for level in range(small_scene.level_count):
            first = ground_level_data(small_scene, level)
            assert ground_level_data(small_scene, level) is first
            # ceil(N / 4) rows at the coarsest level, every row elsewhere
            points = small_scene.points.points[::4 if level == 2 else 1]
            assert len(points) == (-(-n // 4) if level == 2 else n)
            uv0, visible = project_ground(points, small_scene.intrinsics)
            uv = uv0 / float(2**level)
            feats, _, inb_f = bilinear_lookup_many(
                small_scene.grd_pyramid.feature(level).data, uv)
            att, inb_a = attention_lookup_many(small_scene.grd_pyramid.attention(level), uv)
            fresh = {"points": points, "features": feats, "attention": att,
                     "valid": visible & inb_f & inb_a}
            for name, expect in fresh.items():
                arr = getattr(first, name)
                assert not arr.flags.writeable, name
                assert np.array_equal(arr, expect), name

    def test_replaced_problem_gets_its_own_entries(self):
        problem = tiny_problem()
        ground = ground_level_data(problem, 0)
        flipped = dataclasses.replace(problem, grd_pyramid=tiny_problem(
            grd_data=-problem.grd_pyramid.feature(0).data, normalize=False).grd_pyramid)
        assert np.array_equal(ground_level_data(flipped, 0).features, -ground.features)
        assert ground_level_data(problem, 0) is ground

    def test_concurrent_first_fills_agree(self, small_scene):
        # more threads than cores race on a cold cache with frequent switches
        problem = dataclasses.replace(small_scene)
        assert "_ground_levels" not in vars(problem)
        levels = range(problem.level_count)
        start = threading.Barrier(8, timeout=30)

        def fill(_):
            start.wait()
            return [ground_level_data(problem, lvl) for lvl in levels]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = [f.result(timeout=60) for f in
                           [pool.submit(fill, i) for i in range(8)]]
        finally:
            sys.setswitchinterval(interval)
        for lvl in levels:
            kept = ground_level_data(problem, lvl)
            assert ground_level_data(problem, lvl) is kept
            for got in results:
                for name in ("points", "features", "attention", "valid"):
                    assert np.array_equal(getattr(got[lvl], name), getattr(kept, name))
