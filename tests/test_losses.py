"""Losses: re-projection error, weighted distance, triplet loss, gating."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cvloc.errors import DegenerateProblemError, DomainError
from cvloc.geometry import PointSet, Pose3, translate_pose_east_south
from cvloc.losses import (LossConfig, pab_weight, reprojection_error, total_loss,
                          triplet_loss, weighted_distance)
from cvloc.solver import RobustCost

from conftest import tiny_problem


class TestReprojectionError:
    def test_zero_for_equal_poses(self, small_scene):
        p = Pose3(1.0, 2.0, 0.3)
        err = reprojection_error(p, p, small_scene.points, small_scene.ctx,
                                 small_scene.georef)
        assert err == 0.0

    def test_pure_east_translation_hand_value(self, small_scene):
        # every pixel shifts by delta/gamma, so the sum is N*(delta/gamma)^2
        gamma = small_scene.georef.gamma
        base = Pose3(0.0, 0.0, 0.55)
        moved = translate_pose_east_south(base, 1.5, 0.0)
        err = reprojection_error(base, moved, small_scene.points, small_scene.ctx,
                                 small_scene.georef)
        n = small_scene.points.count
        assert err == pytest.approx(n * (1.5 / gamma)**2, rel=1e-12)

    def test_symmetric(self, small_scene):
        a = Pose3(1.0, -2.0, 0.2)
        b = Pose3(-0.5, 0.7, -0.4)
        args = (small_scene.points, small_scene.ctx, small_scene.georef)
        assert reprojection_error(a, b, *args) == reprojection_error(b, a, *args)

    def test_no_visibility_mask(self):
        # points far outside every view still contribute
        problem = tiny_problem(points=PointSet(np.array([[500.0, 0.0, 3.0]])))
        err = reprojection_error(Pose3(0, 0, 0), Pose3(1.0, 0, 0),
                                 problem.points, problem.ctx, problem.georef)
        assert err > 0.0

    def test_zero_iff_equal_translation(self, small_scene):
        a = Pose3(1.0, 2.0, 0.1)
        b = Pose3(1.0, 2.0, 0.1)
        args = (small_scene.points, small_scene.ctx, small_scene.georef)
        assert reprojection_error(a, b, *args) == 0.0
        assert reprojection_error(a, Pose3(1.001, 2.0, 0.1), *args) > 0.0


class TestWeightedDistance:
    def test_vanishes_at_ground_truth(self, small_scene):
        dis = weighted_distance(small_scene, small_scene.gt_pose, RobustCost.huber())
        assert dis < 1e-8

    def test_single_contributing_point(self):
        # constant maps give every point the same residual; ground attention
        # selects exactly one point (its lookup texel is (8, 8)).
        sat = np.zeros((16, 16, 2))
        sat[:, :] = [0.5, 0.5]
        grd = np.zeros((17, 17, 2))
        delta = math.sqrt(0.15)
        grd[:, :] = [0.5 - delta, 0.5 - delta]  # ||r||^2 = 2*0.15 = 0.3
        att_g = np.zeros((17, 17))
        att_g[8, 8] = 1.0
        problem = tiny_problem(sat_data=sat, grd_data=grd, grd_att=att_g,
                               normalize=False)
        dis = weighted_distance(problem, problem.gt_pose, RobustCost.squared())
        assert dis == pytest.approx(0.3, rel=1e-12)

    def test_permutation_invariant(self):
        problem = tiny_problem()
        shuffled = tiny_problem(points=PointSet(problem.points.points[::-1]))
        cost = RobustCost.huber()
        assert weighted_distance(problem, Pose3(0.3, -0.2, 0.05), cost) == \
            pytest.approx(weighted_distance(shuffled, Pose3(0.3, -0.2, 0.05), cost),
                          rel=1e-12)

    def test_degenerate_when_no_valid_points(self, small_scene):
        with pytest.raises(DegenerateProblemError):
            weighted_distance(small_scene, Pose3(500.0, 0.0, 0.0), RobustCost.huber())


class TestTripletLoss:
    def test_equal_distances_gives_ln2(self):
        assert triplet_loss(3.7, 3.7, alpha=10.0) == pytest.approx(math.log(2.0),
                                                                   abs=1e-12)

    def test_hand_value_ratio_two(self):
        val = triplet_loss(2.0, 1.0, alpha=10.0)
        assert val == pytest.approx(math.log(1 + math.exp(-10)), rel=1e-9)
        assert val == pytest.approx(4.54e-5, abs=1e-7)

    def test_hand_value_ratio_half(self):
        val = triplet_loss(0.5, 1.0, alpha=10.0)
        assert val == pytest.approx(math.log(1 + math.exp(5)), rel=1e-12)
        assert val == pytest.approx(5.0067, abs=1e-4)

    def test_overflow_safe(self):
        big = triplet_loss(1e-8, 1.0, alpha=1e4)
        assert math.isfinite(big)
        assert big == pytest.approx(1e4, rel=1e-6)
        tiny = triplet_loss(1e8, 1.0, alpha=1e4)
        assert tiny == 0.0 or (0 < tiny < 1e-300) or tiny > 0  # no overflow, no nan
        assert math.isfinite(tiny)

    def test_invalid_gt_distance(self):
        with pytest.raises(DomainError):
            triplet_loss(1.0, 0.0)
        with pytest.raises(DomainError):
            triplet_loss(1.0, -2.0)

    def test_negative_init_distance(self):
        with pytest.raises(DomainError):
            triplet_loss(-0.1, 1.0)

    @given(st.floats(0.01, 100.0), st.floats(0.01, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_decreasing_in_ratio_and_bounded(self, d1, d2):
        alpha = 10.0
        assume(alpha * (1.0 - d1 / d2) > -700)  # stay above exp underflow
        v1 = triplet_loss(d1, d2, alpha)
        v2 = triplet_loss(d1 * 1.1, d2, alpha)
        assert v2 <= v1
        ratio = d1 / d2
        assert 0.0 < v1 < alpha * max(0.0, 1.0 - ratio) + math.log(2.0) + 1e-9


class TestPabWeight:
    @pytest.mark.parametrize("l_init,expect", [
        (5.0, 0.0), (10.0, 10.0), (30.0, 30.0), (50.0, 50.0), (100.0, 50.0),
    ])
    def test_probe_points(self, l_init, expect):
        assert pab_weight(l_init) == expect

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            pab_weight(-1.0)

    @given(st.floats(0.0, 200.0), st.floats(0.0, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_and_identity_inside(self, x, dx):
        cfg = LossConfig()
        assert pab_weight(x + dx, cfg) >= pab_weight(x, cfg)
        if cfg.beta_lo <= x <= cfg.beta_hi:
            assert pab_weight(x, cfg) == x

    def test_config_validation(self):
        with pytest.raises(DomainError):
            LossConfig(alpha=0.0)
        with pytest.raises(DomainError):
            LossConfig(beta_lo=50.0, beta_hi=10.0)
        for dis_level in (0.5, 1.0, False, -1):
            with pytest.raises(DomainError):
                LossConfig(dis_level=dis_level)


class TestTotalLoss:
    def test_all_equal_poses_zero(self, small_scene):
        gt = small_scene.gt_pose
        total, parts = total_loss(small_scene, gt, gt, gt)
        assert total == 0.0
        assert parts["beta"] == 0.0
        assert parts["triplet"] == 0.0

    def test_gate_engages_at_threshold(self, small_scene):
        # pure east shift: reprojection error is N*(d/gamma)^2; choose d so
        # the error crosses the lower gate exactly
        n = small_scene.points.count
        gamma = small_scene.georef.gamma
        gt = small_scene.gt_pose
        d_at_gate = gamma * math.sqrt(10.0 / n)
        below = translate_pose_east_south(gt, d_at_gate * 0.99, 0.0)
        at = translate_pose_east_south(gt, d_at_gate * 1.01, 0.0)
        _, parts_below = total_loss(small_scene, gt, below, gt)
        _, parts_at = total_loss(small_scene, gt, at, gt)
        assert parts_below["beta"] == 0.0
        assert parts_at["beta"] > 0.0

    def test_components_sum_to_total(self, small_scene):
        gt = small_scene.gt_pose
        init = translate_pose_east_south(gt, 2.0, 1.0)
        pre = translate_pose_east_south(gt, 0.1, 0.0)
        total, parts = total_loss(small_scene, pre, init, gt)
        assert total == pytest.approx(
            parts["reprojection_pre"] + parts["beta"] * parts["triplet"], abs=1e-12)
        assert parts["beta"] == pab_weight(parts["reprojection_init"])

    def test_gated_run_reports_distances(self, small_scene):
        gt = small_scene.gt_pose
        init = translate_pose_east_south(gt, 3.0, -2.0)
        _, parts = total_loss(small_scene, gt, init, gt)
        if parts["beta"] > 0:
            assert parts["dis_init"] is not None
            assert parts["dis_gt"] is not None
            assert parts["dis_init"] > parts["dis_gt"]
