"""Geometry: projections, pose transform, analytic Jacobians."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvloc.errors import DomainError
from cvloc.geometry import (CameraIntrinsics, PointSet, Pose3, SatelliteGeoref,
                            d_satproj_d_pose_many, pose_to_transform,
                            project_ground, project_satellite, transform_points,
                            translate_pose_east_south, wrap_angle)
from cvloc.harness.checks import projection_jacobian_error


class TestSatelliteGeoref:
    def test_coarsened_consistency(self):
        g = SatelliteGeoref(255.5, 0.2)
        g2 = g.coarsened(2)
        assert g2 == SatelliteGeoref(255.5 / 4, 0.2 * 4)
        assert g.coarsened(0) is g

    def test_invalid_gamma(self):
        with pytest.raises(DomainError):
            SatelliteGeoref(10.0, -0.1)

    @pytest.mark.parametrize("gamma", [1e-300, 0.5, 1e9])
    def test_any_finite_positive_gamma(self, gamma):
        # no tile zoom or latitude has to reach it
        assert SatelliteGeoref(10.0, gamma).gamma == gamma


class TestProjectSatellite:
    GEOREF = SatelliteGeoref(640.0, 0.2)

    def test_image_center_identity(self):
        uv = project_satellite(np.array([[0.0, 0.0, -5.0]]), self.GEOREF)
        assert np.allclose(uv, [[640.0, 640.0]])

    def test_hand_evaluated_offset(self):
        uv = project_satellite(np.array([[2.0, -1.0, 0.0]]), self.GEOREF)
        assert np.allclose(uv, [[650.0, 635.0]])

    def test_doubling_gamma_halves_pixel_offset(self):
        pts = np.random.default_rng(1).uniform(-30, 30, size=(20, 3))
        g2 = SatelliteGeoref(640.0, 0.4)
        off1 = project_satellite(pts, self.GEOREF) - 640.0
        off2 = project_satellite(pts, g2) - 640.0
        assert np.allclose(off1, 2.0 * off2)


class TestProjectGround:
    K = CameraIntrinsics(fx=700.0, fy=700.0, cx=600.0, cy=180.0, width=1200, height=370)

    def test_principal_axis_point(self):
        uv, vis = project_ground(np.array([[0.0, 0.0, 10.0]]), self.K)
        assert np.allclose(uv, [[600.0, 180.0]])
        assert vis[0]

    def test_hand_evaluated_point(self):
        uv, vis = project_ground(np.array([[1.0, 0.5, 10.0]]), self.K)
        assert np.allclose(uv, [[670.0, 215.0]])
        assert vis[0]

    def test_behind_camera_invisible(self):
        uv, vis = project_ground(np.array([[0.0, 0.0, -1.0]]), self.K)
        assert not vis[0]
        assert np.all(np.isfinite(uv))

    def test_outside_image_invisible(self):
        uv, vis = project_ground(np.array([[100.0, 0.0, 1.0]]), self.K)
        assert not vis[0]

    def test_depth_floor(self):
        _, vis = project_ground(np.array([[0.0, 0.0, 0.05]]), self.K)
        assert not vis[0]


class TestPose3:
    def test_yaw_wrapped_on_construction(self):
        p = Pose3(0.0, 0.0, math.pi + 0.5)
        assert -math.pi < p.yaw <= math.pi
        assert p.yaw == pytest.approx(-math.pi + 0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            Pose3(float("nan"), 0.0, 0.0)

    def test_fields_stored_as_python_floats(self):
        p = Pose3(np.float64(1.5), np.float32(-2.0), np.float64(0.25)).with_delta(
            np.array([0.5, 0.5, 0.5]))
        assert [type(v) for v in (p.lateral, p.longitudinal, p.yaw)] == [float] * 3
        assert repr(p) == "Pose3(lateral=2.0, longitudinal=-1.5, yaw=0.75)"

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_wrap_angle_range(self, theta):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi
        # same angle modulo 2*pi
        assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-12)
        assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-12)


IDENTITY = (np.eye(3), np.zeros(3))


class TestTransformPoints:
    def test_identity(self):
        pts = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(transform_points(pts, IDENTITY), pts)

    def test_pure_translation(self):
        pts = np.zeros((3, 3))
        assert np.allclose(transform_points(pts, (np.eye(3), np.array([1.0, 2.0, 3.0]))),
                           [[1, 2, 3]] * 3)

    def test_accepts_point_set(self):
        ps = PointSet(np.ones((2, 3)))
        out = transform_points(ps, IDENTITY)
        assert np.array_equal(out, ps.points)


class TestPoseToTransform:
    def test_identity_pose_axis_permutation(self):
        rotation, translation = pose_to_transform(Pose3(0.0, 0.0, 0.0))
        # camera x (right) -> east, y (down) -> down, z (forward) -> north
        expect = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        assert np.allclose(rotation, expect, atol=1e-15)
        assert np.allclose(translation, [0.0, 0.0, 0.0])

    def test_rotation_is_proper(self):
        rng = np.random.default_rng(12)
        yaws = [*rng.uniform(-math.pi, math.pi, 500), 0.0, math.pi, -math.pi / 2]
        for yaw in yaws:
            rotation, _ = pose_to_transform(Pose3(0.0, 0.0, yaw))
            assert np.max(np.abs(rotation.T @ rotation - np.eye(3))) <= 1e-12, yaw
            assert abs(np.linalg.det(rotation) - 1.0) <= 1e-12, yaw

    def test_yaw_periodicity(self):
        r1, t1 = pose_to_transform(Pose3(1.0, 2.0, 0.4))
        r2, t2 = pose_to_transform(Pose3(1.0, 2.0, 0.4 + 2 * math.pi))
        assert np.allclose(r1, r2, atol=1e-9)
        assert np.allclose(t1, t2, atol=1e-9)

    def test_point_ahead_under_quarter_turn(self):
        # Independent oracle: rotate the heading vector by hand.
        t = pose_to_transform(Pose3(0.0, 0.0, math.pi / 2))
        ahead = transform_points(np.array([[0.0, 0.0, 10.0]]), t)[0]
        yaw = math.pi / 2
        heading_east_south = np.array([math.sin(yaw), -math.cos(yaw)])
        assert np.allclose(ahead[:2], 10.0 * heading_east_south, atol=1e-12)
        assert ahead[2] == pytest.approx(0.0)

    def test_lateral_axis_is_vehicle_right(self):
        # Heading north (yaw 0): +lateral should move the vehicle east.
        _, translation = pose_to_transform(Pose3(2.0, 0.0, 0.0))
        assert np.allclose(translation[:2], [2.0, 0.0])
        # +longitudinal at yaw 0 moves north (negative south coordinate).
        _, translation = pose_to_transform(Pose3(0.0, 3.0, 0.0))
        assert np.allclose(translation[:2], [0.0, -3.0])

class TestProjectionConsistency:
    def test_east_south_shift_moves_pixels_exactly(self):
        georef = SatelliteGeoref(255.5, 0.2)
        rng = np.random.default_rng(8)
        pts = rng.uniform(-10, 10, size=(40, 3))
        pts[:, 2] = rng.uniform(3, 30, 40)
        pose = Pose3(1.5, -2.0, 0.7)
        de, ds = 3.2, -1.7
        shifted = translate_pose_east_south(pose, de, ds)
        uv0 = project_satellite(transform_points(pts, pose_to_transform(pose)), georef)
        uv1 = project_satellite(transform_points(pts, pose_to_transform(shifted)), georef)
        assert np.allclose(uv1 - uv0, [de / 0.2, ds / 0.2], atol=1e-9)


class TestSatProjJacobian:
    GEOREF = SatelliteGeoref(255.5, 0.2)

    def _jac(self, pts_cam, pose):
        pts_sat = transform_points(pts_cam, pose_to_transform(pose))
        return d_satproj_d_pose_many(pts_sat, pose, self.GEOREF)

    def test_translation_block_magnitude(self):
        pose = Pose3(0.3, -0.8, 0.9)
        jac = self._jac(np.array([[3.0, -1.0, 12.0], [-4.0, 0.5, 8.0]]), pose)
        norms = np.linalg.norm(jac[:, :, :2], axis=1)
        assert np.allclose(norms, 1.0 / 0.2, rtol=1e-12)
        # 1 m east shift at yaw 0 moves u by 1/gamma pixels
        jac0 = self._jac(np.array([[0.0, 0.0, 5.0]]), Pose3(0, 0, 0))
        assert jac0[0, 0, 0] == pytest.approx(5.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            pose = Pose3(float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20)),
                         float(rng.uniform(-math.pi, math.pi)))
            pt = np.array([[rng.uniform(-30, 30), rng.uniform(-5, 5), rng.uniform(2, 40)]])
            column_error, _, _ = projection_jacobian_error(pt, pose, self.GEOREF)
            assert column_error.max() < 1e-4

    def test_yaw_column_zero_at_rotation_center(self):
        # A point whose planar map position is the origin does not move
        # under yaw: camera point (0, y, 0) at zero pose.
        jac = self._jac(np.array([[0.0, 4.0, 0.0]]), Pose3(0, 0, 0.3))
        assert np.allclose(jac[0, :, 2], 0.0, atol=1e-12)

    def test_one_buffer_layout(self):
        # laid out as one (3, 2, N) buffer with a contiguous yaw plane read
        # straight from the satellite-frame points
        rng = np.random.default_rng(5)
        pts = np.column_stack([rng.uniform(-30, 30, 50), rng.uniform(-5, 5, 50),
                               rng.uniform(2, 40, 50)])
        pose = Pose3(1.5, -2.0, 0.7)
        pts_sat = transform_points(pts, pose_to_transform(pose))
        jac = d_satproj_d_pose_many(pts_sat, pose, self.GEOREF)
        assert jac.shape == (50, 2, 3)
        assert jac.transpose(2, 1, 0).flags.c_contiguous
        inv_g = 1.0 / self.GEOREF.gamma
        assert np.array_equal(jac[:, 0, 2], -pts_sat[:, 1] * inv_g)
        assert np.array_equal(jac[:, 1, 2], pts_sat[:, 0] * inv_g)
