"""Coordinate frames, camera models, and the 3-DoF pose parameterization.

Frame conventions used throughout the package:

    Satellite 3D frame (right-handed):
      - x: east, y: south, z: vertically down.
      - The satellite image is a parallel (orthographic) projection:
        u = x / gamma + center, v = y / gamma + center; depth is discarded.
    Ground camera frame (standard computer vision):
      - x: right, y: down, z: forward along the optical axis.
      - It is also the vehicle body frame: the camera is mounted at the
        vehicle origin, looking along the heading.

Pose convention:
    yaw = 0 points the vehicle north (satellite -y); positive yaw rotates
    the heading toward east, which is clockwise in image coordinates.
    The lateral / longitudinal translations live in the vehicle frame at
    the current yaw: longitudinal along the heading, lateral along the
    heading rotated +90 degrees (the vehicle's right side). The vehicle's
    planar position in the satellite frame is therefore

        position = R(yaw) @ (lateral, -longitudinal).

    The vehicle is level (roll and pitch are zero) and sits at z = 0: the
    satellite projection discards z, so a camera height changes no result.

Angles are radians internally; degrees appear only at CLI and file
boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError

_TWO_PI = 2.0 * math.pi

#: Ground-camera depth (m) a point must exceed to be visible.
DEPTH_MIN = 0.1


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.remainder(theta, _TWO_PI)
    if wrapped <= -math.pi:
        wrapped += _TWO_PI
    return wrapped


@dataclass(frozen=True)
class SatelliteGeoref:
    """Georeference of a square satellite crop.

    ``center_px`` is the pixel coordinate of the map origin on both image
    axes; ``gamma`` is the meters-per-pixel ratio.
    """

    center_px: float
    gamma: float

    def __post_init__(self):
        if not math.isfinite(self.center_px):
            raise DomainError(f"center_px must be finite, got {self.center_px}")
        if not 0 < self.gamma < math.inf:
            raise DomainError(f"gamma must be finite and > 0, got {self.gamma}")

    def coarsened(self, level: int) -> "SatelliteGeoref":
        """Georeference of the same crop downsampled by 2**level.

        Pixel coordinates scale by 2**-level; one coarse pixel covers
        2**level times more meters.
        """
        if level == 0:
            return self
        f = 2**level
        return SatelliteGeoref(self.center_px / f, self.gamma * f)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics of the ground camera (pixels)."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise DomainError("focal lengths must be finite and positive")
        if self.width < 1 or self.height < 1:
            raise DomainError(f"image size must be >= 1, got {self.width}x{self.height}")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise DomainError("principal point must lie inside the image")


@dataclass(frozen=True)
class Pose3:
    """3-DoF vehicle pose: lateral shift (m), longitudinal shift (m), yaw (rad).

    The fields are stored as Python floats; yaw is wrapped to (-pi, pi] on
    construction.
    """

    lateral: float
    longitudinal: float
    yaw: float

    def __post_init__(self):
        if not (math.isfinite(self.lateral) and math.isfinite(self.longitudinal)
                and math.isfinite(self.yaw)):
            raise DomainError("pose fields must be finite")
        object.__setattr__(self, "lateral", float(self.lateral))
        object.__setattr__(self, "longitudinal", float(self.longitudinal))
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))

    def with_delta(self, delta) -> "Pose3":
        """Pose after adding (d_lateral, d_longitudinal, d_yaw); yaw rewrapped."""
        d = np.asarray(delta, dtype=np.float64)
        return Pose3(self.lateral + d[0], self.longitudinal + d[1], self.yaw + d[2])

    def to_dict(self) -> dict:
        """JSON form used by run records and scene files; yaw in degrees."""
        return {"lateral_m": self.lateral, "longitudinal_m": self.longitudinal,
                "yaw_deg": math.degrees(self.yaw)}


@dataclass(frozen=True)
class PointSet:
    """N 3D points in the ground-camera frame, meters."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ContractError(f"points must be Nx3, got {pts.shape}")
        if pts.shape[0] < 1:
            raise ContractError("point set must contain at least one point")
        if not np.all(np.isfinite(pts)):
            raise DomainError("points contain non-finite coordinates")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return self.points.shape[0]


def _rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# Body axes (x right, y down, z forward) expressed in satellite axes
# (east, south, down) at zero yaw: right->east, down->down,
# forward->north.
_BODY_TO_SAT = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 0.0, -1.0],
    [0.0, 1.0, 0.0],
])


def pose_translation(pose: Pose3) -> np.ndarray:
    """Vehicle position in the satellite frame for a given pose, at z = 0."""
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    return np.array([
        pose.lateral * c + pose.longitudinal * s,
        pose.lateral * s - pose.longitudinal * c,
        0.0,
    ])


def pose_to_transform(pose: Pose3) -> tuple[np.ndarray, np.ndarray]:
    """Rotation and translation from the ground-camera frame to the satellite 3D frame.

    The rotation turns the camera axes to the satellite axes at the pose's
    yaw; the translation is the vehicle position, :func:`pose_translation`.
    """
    return _rot_z(pose.yaw) @ _BODY_TO_SAT, pose_translation(pose)


def transform_points(points, transform: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Apply a (rotation, translation) pair to an Nx3 array or a PointSet row-wise."""
    rotation, translation = transform
    pts = points.points if isinstance(points, PointSet) else np.asarray(points, dtype=np.float64)
    return pts @ rotation.T + translation


def project_satellite(points_sat: np.ndarray, georef: SatelliteGeoref) -> np.ndarray:
    """Parallel projection of satellite-frame points onto the satellite image.

    Returns Nx2 pixel coordinates (u, v); the z (down) component is
    discarded. Out-of-image coordinates are returned as-is, and one beyond
    the float range as inf, which is off the map too.
    """
    pts = np.asarray(points_sat, dtype=np.float64)
    with np.errstate(over="ignore"):
        return pts[..., :2] / georef.gamma + georef.center_px


def satellite_pixels_finite(georef: SatelliteGeoref, pose: Pose3, reach: float) -> bool:
    """Whether ``project_satellite`` keeps u and v finite at ``pose`` for
    every point whose coordinates are at most ``reach`` m in absolute value.

    Such a point lies within |lateral| + |longitudinal| + sqrt(3) * reach
    meters of the map origin on each axis.
    """
    extent = abs(pose.lateral) + abs(pose.longitudinal) + math.sqrt(3.0) * reach
    return math.isfinite(extent / georef.gamma + abs(georef.center_px))


def project_ground(points_cam, intrinsics: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Pinhole projection of camera-frame points onto the ground image.

    Returns (Nx2 pixel coordinates, N visibility flags). A point is visible
    iff its depth exceeds ``DEPTH_MIN`` and the pixel lies inside
    [0, width) x [0, height). Coordinates of invisible points are computed
    with the depth clamped to ``DEPTH_MIN`` so the output stays finite.
    """
    pts = points_cam.points if isinstance(points_cam, PointSet) else np.asarray(points_cam, dtype=np.float64)
    z = pts[:, 2]
    safe_z = np.maximum(z, DEPTH_MIN)
    u = intrinsics.fx * pts[:, 0] / safe_z + intrinsics.cx
    v = intrinsics.fy * pts[:, 1] / safe_z + intrinsics.cy
    visible = ((z > DEPTH_MIN)
               & (u >= 0) & (u < intrinsics.width)
               & (v >= 0) & (v < intrinsics.height))
    return np.stack([u, v], axis=1), visible


def ground_pixels_finite(intrinsics: CameraIntrinsics, reach_x: float,
                         reach_y: float) -> bool:
    """Whether ``project_ground`` keeps u and v finite for every point with
    |x| at most ``reach_x`` and |y| at most ``reach_y`` m, whatever its
    depth: the depth divides after its clamp to ``DEPTH_MIN``.
    """
    return math.isfinite(max(intrinsics.fx * reach_x, intrinsics.fy * reach_y) / DEPTH_MIN
                         + max(intrinsics.cx, intrinsics.cy))


def d_satproj_d_pose_many(pts_sat: np.ndarray, pose: Pose3,
                          georef: SatelliteGeoref) -> np.ndarray:
    """Analytic Jacobians of satellite pixel coordinates w.r.t. the pose.

    ``pts_sat`` is the (N, 3) points already transformed into the satellite
    frame at ``pose``. Returns an Nx2x3 array: for each point, d(u, v) /
    d(lateral, longitudinal, yaw). The translation columns are constant
    across points (each with norm 1/gamma); the yaw column is the rotation
    derivative (-v_m, u_m)/gamma of the point's planar map position.

    The result is the transposed view of one (3, 2, N) buffer, so the 2x2
    translation block is four scalar fills and the yaw column's two rows
    are one contiguous (2, N) plane.
    """
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    inv_g = 1.0 / georef.gamma
    cols = np.empty((3, 2, pts_sat.shape[0]))
    cols[0, 0] = c * inv_g
    cols[0, 1] = s * inv_g
    cols[1, 0] = s * inv_g
    cols[1, 1] = -c * inv_g
    np.multiply(pts_sat[:, 1], -inv_g, out=cols[2, 0])
    np.multiply(pts_sat[:, 0], inv_g, out=cols[2, 1])
    return cols.transpose(2, 1, 0)


def translate_pose_east_south(pose: Pose3, d_east: float, d_south: float) -> Pose3:
    """Pose whose map position is shifted by (d_east, d_south), same yaw."""
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    return Pose3(pose.lateral + c * d_east + s * d_south,
                 pose.longitudinal + s * d_east - c * d_south,
                 pose.yaw)
