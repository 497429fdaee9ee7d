"""Geometry: projections, pose transform, analytic Jacobians."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvloc.errors import DomainError
from cvloc.geometry import (CameraIntrinsics, Pose3, SatelliteGeoref,
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
        uv = project_satellite(np.array([[0.0, 0.0]]), self.GEOREF)
        assert np.allclose(uv, [[640.0, 640.0]])

    def test_hand_evaluated_offset(self):
        uv = project_satellite(np.array([[2.0, -1.0]]), self.GEOREF)
        assert np.allclose(uv, [[650.0, 635.0]])

    def test_doubling_gamma_halves_pixel_offset(self):
        pts = np.random.default_rng(1).uniform(-30, 30, size=(20, 2))
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

    @pytest.mark.parametrize("width, height", [(0, 370), (1200, 0), (-5, 370)])
    def test_empty_image_rejected(self, width, height):
        with pytest.raises(DomainError, match="image size"):
            CameraIntrinsics(fx=700.0, fy=700.0, cx=0.0, cy=0.0, width=width, height=height)

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


def _composition_oracle(points, pose):
    """Map positions by the 3-D composition Rz(yaw) @ body-to-map plus the
    vehicle position, with body axes (right, down, forward) turned to
    (east, down, north) at zero yaw; the down row is discarded."""
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    rot_z = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    body_to_map = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    position = rot_z[:2, :2] @ [pose.lateral, -pose.longitudinal]
    return (points @ (rot_z @ body_to_map).T)[:, :2] + position


class TestTransformPoints:
    def test_identity(self):
        # the identity pose maps (x, y, z) to (x, -z): right is east,
        # forward is north, and the height is dropped
        pts = np.arange(12.0).reshape(4, 3)
        out = transform_points(pts, pose_to_transform(Pose3(0.0, 0.0, 0.0)))
        assert out.shape == (4, 2)
        assert np.array_equal(out, np.column_stack([pts[:, 0], -pts[:, 2]]))

    def test_pure_translation(self):
        # the vehicle position is added to every point
        pts = np.zeros((3, 3))
        out = transform_points(pts, (1.0, 0.0, 2.5, -4.0))
        assert np.array_equal(out, [[2.5, -4.0]] * 3)


class TestPoseToTransform:
    def test_identity_pose_axis_permutation(self):
        assert pose_to_transform(Pose3(0.0, 0.0, 0.0)) == (1.0, 0.0, 0.0, 0.0)
        # camera x (right) -> east, z (forward) -> north; y (down) is dropped
        out = transform_points(np.eye(3), pose_to_transform(Pose3(0.0, 0.0, 0.0)))
        assert np.array_equal(out, [[1.0, 0.0], [0.0, 0.0], [0.0, -1.0]])

    def test_yaw_periodicity(self):
        t1 = pose_to_transform(Pose3(1.0, 2.0, 0.4))
        t2 = pose_to_transform(Pose3(1.0, 2.0, 0.4 + 2 * math.pi))
        assert np.allclose(t1, t2, atol=1e-9)

    def test_point_ahead_under_quarter_turn(self):
        # Independent oracle: rotate the heading vector by hand.
        t = pose_to_transform(Pose3(0.0, 0.0, math.pi / 2))
        ahead = transform_points(np.array([[0.0, 0.0, 10.0]]), t)[0]
        yaw = math.pi / 2
        heading_east_south = np.array([math.sin(yaw), -math.cos(yaw)])
        assert np.allclose(ahead, 10.0 * heading_east_south, atol=1e-12)

    def test_lateral_axis_is_vehicle_right(self):
        # Heading north (yaw 0): +lateral moves the vehicle east.
        assert pose_to_transform(Pose3(2.0, 0.0, 0.0))[2:] == (2.0, 0.0)
        # +longitudinal at yaw 0 moves north (negative south coordinate).
        assert pose_to_transform(Pose3(0.0, 3.0, 0.0))[2:] == (0.0, -3.0)
        # after a quarter turn the vehicle heads east, and its right is south
        _, _, east, south = pose_to_transform(Pose3(2.0, 0.0, math.pi / 2))
        assert (east, south) == pytest.approx((0.0, 2.0), abs=1e-12)

    def test_matches_rotation_composition(self):
        rng = np.random.default_rng(12)
        for yaw in [*rng.uniform(-math.pi, math.pi, 200), 0.0, math.pi, -math.pi / 2]:
            pose = Pose3(float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20)), yaw)
            pts = rng.uniform(-30, 30, size=(25, 3))
            got = transform_points(pts, pose_to_transform(pose))
            assert np.max(np.abs(got - _composition_oracle(pts, pose))) <= 1e-12, yaw


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
