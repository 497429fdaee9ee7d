"""Geometry: projections, pose transform, analytic Jacobians."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvloc.errors import DomainError
from cvloc.geometry import (CameraIntrinsics, PointSet, Pose3, PoseContext,
                            RigidTransform, SatelliteGeoref, d_satproj_d_pose_many,
                            meters_per_pixel, pose_to_transform, project_ground,
                            project_satellite, transform_points,
                            translate_pose_east_south, wrap_angle)
from cvloc.harness.checks import projection_jacobian_error


class TestMetersPerPixel:
    def test_equator_zoom18_scale2(self):
        # hand evaluation: 156543.03392 * cos(0) / (2^18 * 2)
        assert meters_per_pixel(0.0, 18, 2) == pytest.approx(0.2985820, abs=1e-6)

    def test_mid_latitude_resolution_near_point_two(self):
        assert 0.195 <= meters_per_pixel(49.0, 18, 2) <= 0.197

    def test_vanishes_toward_pole(self):
        vals = [meters_per_pixel(lat, 18, 2) for lat in (80.0, 89.0, 89.999)]
        assert vals[0] > vals[1] > vals[2] > 0
        assert vals[2] < 1e-5

    def test_monotone_in_zoom_and_latitude(self):
        zooms = [meters_per_pixel(30.0, z, 2) for z in range(10, 20)]
        assert all(a > b for a, b in zip(zooms, zooms[1:]))
        lats = [meters_per_pixel(lat, 18, 2) for lat in (0.0, 20.0, 45.0, 70.0, 89.0)]
        assert all(a > b for a, b in zip(lats, lats[1:]))

    @pytest.mark.parametrize("lat", [90.0, -90.0, 120.0])
    def test_out_of_range_latitude(self, lat):
        with pytest.raises(DomainError):
            meters_per_pixel(lat, 18, 2)

    def test_bad_zoom_and_scale(self):
        with pytest.raises(DomainError):
            meters_per_pixel(0.0, -1, 2)
        with pytest.raises(DomainError):
            meters_per_pixel(0.0, 18, 0)


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


class TestRigidTransform:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(DomainError):
            RigidTransform(np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(DomainError):
            RigidTransform(r, np.zeros(3))

    def test_preserves_pairwise_distances(self):
        rng = np.random.default_rng(6)
        t = RigidTransform(_random_rotation(rng), rng.uniform(-5, 5, 3))
        pts = rng.uniform(-10, 10, size=(30, 3))
        d_before = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        moved = transform_points(pts, t)
        d_after = np.linalg.norm(moved[:, None] - moved[None, :], axis=-1)
        assert np.allclose(d_after, d_before, rtol=1e-9, atol=1e-12)


def _random_rotation(rng) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    return q


class TestTransformPoints:
    def test_identity(self):
        pts = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(transform_points(pts, RigidTransform.identity()), pts)

    def test_pure_translation(self):
        t = RigidTransform(np.eye(3), np.array([1.0, 2.0, 3.0]))
        pts = np.zeros((3, 3))
        assert np.allclose(transform_points(pts, t), [[1, 2, 3]] * 3)

    def test_accepts_point_set(self):
        ps = PointSet(np.ones((2, 3)))
        out = transform_points(ps, RigidTransform.identity())
        assert np.array_equal(out, ps.points)


class TestPoseToTransform:
    CTX = PoseContext()

    def test_identity_pose_axis_permutation(self):
        t = pose_to_transform(Pose3(0.0, 0.0, 0.0), self.CTX)
        # camera x (right) -> east, y (down) -> down, z (forward) -> north
        expect = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        assert np.allclose(t.rotation, expect, atol=1e-15)
        assert np.allclose(t.translation, [0.0, 0.0, 0.0])

    def test_yaw_periodicity(self):
        p1 = pose_to_transform(Pose3(1.0, 2.0, 0.4), self.CTX)
        p2 = pose_to_transform(Pose3(1.0, 2.0, 0.4 + 2 * math.pi), self.CTX)
        assert np.allclose(p1.rotation, p2.rotation, atol=1e-9)
        assert np.allclose(p1.translation, p2.translation, atol=1e-9)

    def test_point_ahead_under_quarter_turn(self):
        # Independent oracle: rotate the heading vector by hand.
        t = pose_to_transform(Pose3(0.0, 0.0, math.pi / 2), self.CTX)
        ahead = transform_points(np.array([[0.0, 0.0, 10.0]]), t)[0]
        yaw = math.pi / 2
        heading_east_south = np.array([math.sin(yaw), -math.cos(yaw)])
        assert np.allclose(ahead[:2], 10.0 * heading_east_south, atol=1e-12)
        assert ahead[2] == pytest.approx(0.0)

    def test_lateral_axis_is_vehicle_right(self):
        # Heading north (yaw 0): +lateral should move the vehicle east.
        t = pose_to_transform(Pose3(2.0, 0.0, 0.0), self.CTX)
        assert np.allclose(t.translation[:2], [2.0, 0.0])
        # +longitudinal at yaw 0 moves north (negative south coordinate).
        t = pose_to_transform(Pose3(0.0, 3.0, 0.0), self.CTX)
        assert np.allclose(t.translation[:2], [0.0, -3.0])

    def test_cam_to_gps_composition(self):
        rng = np.random.default_rng(3)
        mount = RigidTransform(_random_rotation(rng), rng.uniform(-1, 1, 3))
        ctx = PoseContext(cam_to_gps=mount)
        pose = Pose3(1.0, -2.0, 0.3)
        pts = rng.uniform(-5, 5, (10, 3))
        direct = transform_points(pts, pose_to_transform(pose, ctx))
        chained = transform_points(
            transform_points(pts, mount),
            pose_to_transform(pose, PoseContext()))
        assert np.allclose(direct, chained, atol=1e-12)

    def test_mount_composed_like_rigid_transform_compose(self):
        # to the bit: the composition's products, pose after mount, written out
        rng = np.random.default_rng(4)
        mount = RigidTransform(_random_rotation(rng), rng.uniform(-1, 1, 3))
        bare = PoseContext(roll=0.02, pitch=-0.05)
        mounted = PoseContext(roll=0.02, pitch=-0.05, cam_to_gps=mount)
        for pose in (Pose3(1.0, -2.0, 0.3), Pose3(-7.5, 4.25, -2.9)):
            direct = pose_to_transform(pose, mounted)
            outer = pose_to_transform(pose, bare)
            assert np.array_equal(direct.rotation, outer.rotation @ mount.rotation)
            assert np.array_equal(direct.translation,
                                  outer.rotation @ mount.translation + outer.translation)


class TestProjectionConsistency:
    def test_east_south_shift_moves_pixels_exactly(self):
        georef = SatelliteGeoref(255.5, 0.2)
        ctx = PoseContext()
        rng = np.random.default_rng(8)
        pts = rng.uniform(-10, 10, size=(40, 3))
        pts[:, 2] = rng.uniform(3, 30, 40)
        pose = Pose3(1.5, -2.0, 0.7)
        de, ds = 3.2, -1.7
        shifted = translate_pose_east_south(pose, de, ds)
        uv0 = project_satellite(transform_points(pts, pose_to_transform(pose, ctx)), georef)
        uv1 = project_satellite(transform_points(pts, pose_to_transform(shifted, ctx)), georef)
        assert np.allclose(uv1 - uv0, [de / 0.2, ds / 0.2], atol=1e-9)


class TestSatProjJacobian:
    GEOREF = SatelliteGeoref(255.5, 0.2)
    CTX = PoseContext()

    def _jac(self, pts_cam, pose):
        pts_sat = transform_points(pts_cam, pose_to_transform(pose, self.CTX))
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
            column_error, _, _ = projection_jacobian_error(pt, pose, self.CTX, self.GEOREF)
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
        pts_sat = transform_points(pts, pose_to_transform(pose, self.CTX))
        jac = d_satproj_d_pose_many(pts_sat, pose, self.GEOREF)
        assert jac.shape == (50, 2, 3)
        assert jac.transpose(2, 1, 0).flags.c_contiguous
        inv_g = 1.0 / self.GEOREF.gamma
        assert np.array_equal(jac[:, 0, 2], -pts_sat[:, 1] * inv_g)
        assert np.array_equal(jac[:, 1, 2], pts_sat[:, 0] * inv_g)
