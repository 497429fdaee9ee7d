"""One localization instance and shared pose-evaluation machinery."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError
from .features import (AttentionMap, FeatureMap, FeaturePyramid, attention_lookup_many,
                       bilinear_lookup_many, bilinear_values_many, bilinear_weights)
from .geometry import (CameraIntrinsics, PointSet, Pose3, SatelliteGeoref,
                       ground_pixels_finite, pose_to_transform, project_ground,
                       project_satellite, satellite_pixels_finite, transform_points)


def _check_halving(name: str, pyramid: FeaturePyramid) -> None:
    h0, w0 = pyramid.feature(0).height, pyramid.feature(0).width
    for lvl in range(1, pyramid.level_count):
        feat = pyramid.feature(lvl)
        expect = (-(-h0 // 2**lvl), -(-w0 // 2**lvl))
        if (feat.height, feat.width) != expect:
            raise ContractError(
                f"{name} pyramid level {lvl} is {feat.height}x{feat.width}, "
                f"expected {expect[0]}x{expect[1]} (halving per level)")


@dataclass(frozen=True)
class AlignmentProblem:
    """Everything needed to localize one frame against a satellite crop."""

    sat_pyramid: FeaturePyramid
    georef: SatelliteGeoref
    grd_pyramid: FeaturePyramid
    intrinsics: CameraIntrinsics
    points: PointSet
    gt_pose: Pose3

    def __post_init__(self):
        if self.sat_pyramid.level_count != self.grd_pyramid.level_count:
            raise ContractError(
                f"level counts differ: satellite {self.sat_pyramid.level_count} "
                f"vs ground {self.grd_pyramid.level_count}")
        for lvl in range(self.sat_pyramid.level_count):
            cs = self.sat_pyramid.feature(lvl).channels
            cg = self.grd_pyramid.feature(lvl).channels
            if cs != cg:
                raise ContractError(f"level {lvl}: channel mismatch {cs} vs {cg}")
        _check_halving("satellite", self.sat_pyramid)
        _check_halving("ground", self.grd_pyramid)
        # The points' largest coordinates bound their pixel coordinates: on
        # the map at the true pose, and in the ground image.
        reach = np.abs(self.points.points).max(axis=0).tolist()
        if not satellite_pixels_finite(self.georef, self.gt_pose, max(reach)):
            raise ContractError(f"gamma {self.georef.gamma} and the true pose put "
                                "satellite pixel coordinates beyond the float range")
        if not ground_pixels_finite(self.intrinsics, reach[0], reach[1]):
            raise ContractError("the camera intrinsics put ground pixel coordinates "
                                "beyond the float range")

    @property
    def level_count(self) -> int:
        return self.sat_pyramid.level_count

    def _check_level(self, level: int) -> None:
        """Raise ContractError unless ``level`` is in [0, level_count)."""
        if not 0 <= level < self.level_count:
            raise ContractError(f"pyramid level {level} is outside [0, {self.level_count})")

    def satellite_level(self, level: int) -> tuple[FeatureMap, AttentionMap, SatelliteGeoref]:
        """Feature map, attention map and georeference of one pyramid level."""
        self._check_level(level)
        return (self.sat_pyramid.feature(level), self.sat_pyramid.attention(level),
                self.georef.coarsened(level))

    @cached_property
    def _ground_levels(self) -> tuple[GroundLevelData, ...]:
        # Filled on first use; a concurrent first fill from two threads
        # computes the same read-only arrays, so either result may stay.
        return tuple(_compute_ground_level(self, lvl) for lvl in range(self.level_count))


#: The coarsest level of a problem with more than one level solves on every
#: ``COARSEST_STRIDE``-th point, in stored order; every other level keeps
#: every point. The coarse levels only have to bring the start into the
#: finest level's basin, and the finest level reaches the full-data optimum.
COARSEST_STRIDE = 4


@dataclass(frozen=True)
class GroundLevelData:
    """Pose-independent ground-view lookups for one pyramid level.

    ``rows`` selects the level's points from ``problem.points``: every
    ``COARSEST_STRIDE``-th one at the coarsest level of a multi-level
    problem, all of them elsewhere. So the coarsest level's rows are a
    subset of every finer level's. ``points`` holds those rows as a
    contiguous array, and the lookups are sampled at their ground-image
    projections scaled to the level, border-clamped in rows that ``valid``
    marks False and ``evaluate_pose`` masks unread. The arrays are read-only.
    """

    rows: slice
    points: np.ndarray     # (N_l, 3)
    features: np.ndarray   # (N_l, c)
    attention: np.ndarray  # (N_l,)
    valid: np.ndarray      # (N_l,) ground-visible and in level bounds


def ground_level_data(problem: AlignmentProblem, level: int) -> GroundLevelData:
    """Ground-view lookups of one level, computed once per problem.

    The pose never moves ground pixels, so every solve and trial on the same
    problem shares one read-only entry per level.
    """
    problem._check_level(level)
    return problem._ground_levels[level]


def _compute_ground_level(problem: AlignmentProblem, level: int) -> GroundLevelData:
    """Select the level's rows, project them into the ground view and sample
    that level's maps.

    Coordinates are projected at full resolution and scaled by 2**-level
    for coarser maps.
    """
    coarsest = problem.level_count > 1 and level == problem.level_count - 1
    rows = slice(None, None, COARSEST_STRIDE if coarsest else 1)
    # a view of the point set's own array where every row is kept
    points = np.ascontiguousarray(problem.points.points[rows])
    uv0, visible = project_ground(points, problem.intrinsics)
    uv = uv0 / float(2**level)
    fmap = problem.grd_pyramid.feature(level)
    # The attention map has the feature map's size: one set of corners serves both.
    corners = bilinear_weights(fmap.data.shape[:2], uv)
    feats, in_bounds = bilinear_values_many(fmap.data, uv, corners)
    att, _ = attention_lookup_many(problem.grd_pyramid.attention(level), uv, corners)
    valid = visible & in_bounds
    for arr in (points, feats, att, valid):
        arr.setflags(write=False)
    return GroundLevelData(rows=rows, points=points, features=feats, attention=att,
                           valid=valid)


@dataclass(frozen=True)
class SparseAlignment:
    """Per-point residuals and weights of one cross-view evaluation, both zero
    where ``valid_mask`` is False: ``evaluate_pose`` masks those rows."""

    residuals: np.ndarray
    weights: np.ndarray
    valid_mask: np.ndarray


@dataclass(frozen=True)
class PoseEvaluation:
    """Sparse alignment at one pose and level, plus solver-side extras."""

    alignment: SparseAlignment
    sat_grads: np.ndarray  # (N_l, c, 2) satellite feature gradients, zero where masked
    pts_sat: np.ndarray    # (N_l, 2) the level's map positions (east, south) at the pose
    sq_norms: np.ndarray   # (N_l,) squared residual norms sum_c r^2, zero where masked


def evaluate_pose(problem: AlignmentProblem, pose: Pose3, level: int = 0,
                  ground: GroundLevelData | None = None) -> PoseEvaluation:
    """Residuals, weights and satellite gradients of the alignment at ``pose``,
    one row per point of the level (``GroundLevelData.rows``).

    The one place rows are masked: zero residual, weight and gradient for a
    point off either map or hidden from the ground camera. Also keeps the
    points' map positions and each point's squared residual norm, the one
    home of sum_c r^2 for the robust cost and the weights.
    ``ground`` may carry precomputed ground-view lookups for the level.
    """
    f_sat, a_sat, georef = problem.satellite_level(level)
    if ground is None:
        ground = ground_level_data(problem, level)

    pts_sat = transform_points(ground.points, pose_to_transform(pose))
    uv_sat = project_satellite(pts_sat, georef)

    # One set of corners serves both lookups: the attention map has the
    # feature map's size at every level.
    corners = bilinear_weights(f_sat.data.shape[:2], uv_sat)
    residuals, grads_sat, inb_sat = bilinear_lookup_many(f_sat.data, uv_sat, corners)
    weights, _ = attention_lookup_many(a_sat, uv_sat, corners)

    residuals -= ground.features
    weights *= ground.attention
    valid = ground.valid & inb_sat
    if not valid.all():
        masked = ~valid
        residuals[masked] = weights[masked] = grads_sat[masked] = 0.0

    alignment = SparseAlignment(residuals=residuals, weights=weights, valid_mask=valid)
    return PoseEvaluation(alignment=alignment, sat_grads=grads_sat, pts_sat=pts_sat,
                          sq_norms=np.einsum("nc,nc->n", residuals, residuals))
