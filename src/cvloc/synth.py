"""Synthetic alignment scenes with a known global optimum.

Scenes are built so the weighted feature cost vanishes exactly at the
ground-truth pose: smooth random satellite fields are sampled per level,
3D points are back-projected from ground pixels aligned to the coarsest
level's texel grid, and each point's satellite feature (looked up at the
true pose) is splatted into the ground map so its bilinear lookup
reproduces it. The ground map is zero away from the points' texels: the
solver reads the ground view only at the points' own projections, so
nothing between them enters the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GenerationError, require_int
from .features import (AttentionMap, FeatureMap, FeaturePyramid,
                       bilinear_lookup_many, bilinear_weights, normalize_features)
from .geometry import (CameraIntrinsics, PointSet, Pose3, PoseContext,
                       SatelliteGeoref, pose_to_transform, project_ground,
                       project_satellite, transform_points)
from .problem import AlignmentProblem, ground_level_data


@dataclass(frozen=True)
class SynthConfig:
    """Scene-generation parameters."""

    seed: int = 0
    sat_size: int = 512
    gamma: float = 0.2
    levels: int = 3
    channels: int = 8
    point_count: int = 5000
    point_depth_range: tuple = (3.0, 25.0)
    feature_smoothness: float = 8.0
    attention_mode: str = "uniform"
    gt_pose: Pose3 = field(default_factory=lambda: Pose3(0.0, 0.0, 0.0))
    grd_width: int = 832
    grd_height: int = 256
    grd_focal: float = 400.0
    cam_height_m: float = -1.65

    def __post_init__(self):
        for name, minimum in (("seed", 0), ("sat_size", 64), ("point_count", 10),
                              ("levels", 1), ("channels", 1), ("grd_width", 1),
                              ("grd_height", 1)):
            require_int(name, getattr(self, name), minimum)
        lo, hi = self.point_depth_range
        if not (0 < lo < hi < math.inf):
            raise DomainError(f"depth range must be 0 < min < max < inf, got {lo}, {hi}")
        if self.attention_mode not in ("uniform", "random_smooth"):
            raise DomainError(f"unknown attention mode {self.attention_mode!r}")
        if not 0 < self.feature_smoothness < math.inf:
            raise DomainError("feature_smoothness must be finite and > 0")
        self._geometry()  # a bad gamma, camera or height fails here

    def _geometry(self) -> tuple[SatelliteGeoref, CameraIntrinsics, PoseContext]:
        """Satellite georeference, ground camera and pose context of the scene."""
        georef = SatelliteGeoref((self.sat_size - 1) / 2.0, self.gamma)
        intrinsics = CameraIntrinsics(
            fx=self.grd_focal, fy=self.grd_focal,
            cx=(self.grd_width - 1) / 2.0, cy=(self.grd_height - 1) / 2.0,
            width=self.grd_width, height=self.grd_height)
        return georef, intrinsics, PoseContext(height=self.cam_height_m)


@dataclass(frozen=True)
class PerturbBounds:
    """Uniform initial-pose perturbation bounds.

    Each bound b is sampled over [-b, b], so its span 2 * b must be finite
    too: b may be at most half the largest float.
    """

    max_shift: float = 10.0
    max_yaw_deg: float = 30.0

    def __post_init__(self):
        if not (0 <= 2 * self.max_shift < math.inf and 0 <= 2 * self.max_yaw_deg < math.inf):
            raise DomainError("perturbation bounds must be finite and >= 0, "
                              "at most half the largest float")


def _gaussian_filter(data: np.ndarray, sigma) -> np.ndarray:
    # Imported here, not at module level: loading and localizing saved
    # scenes never filter, and importing scipy takes longer than the rest
    # of their start-up.
    from scipy import ndimage
    return ndimage.gaussian_filter(data, sigma=sigma, mode="wrap")


def _smooth_field(rng: np.random.Generator, shape, sigma: float) -> np.ndarray:
    noise = rng.standard_normal(shape)
    spatial = (sigma, sigma) + (0.0,) * (len(shape) - 2)
    return _gaussian_filter(noise, spatial)


def _attention(rng: np.random.Generator, shape, mode: str, sigma: float) -> AttentionMap:
    if mode == "uniform":
        return AttentionMap(np.ones(shape, dtype=np.float32))
    a = _smooth_field(rng, shape, sigma)
    a = (a - a.mean()) / max(a.std(), 1e-12)
    return AttentionMap((1.0 / (1.0 + np.exp(-a))).astype(np.float32))


def _sat_level_sizes(cfg: SynthConfig) -> list[int]:
    return [-(-cfg.sat_size // 2**lvl) for lvl in range(cfg.levels)]


def generate_scene(cfg: SynthConfig) -> AlignmentProblem:
    """Generate one alignment problem whose optimum sits at ``cfg.gt_pose``.

    Deterministic given the config (including its seed). Raises
    GenerationError if fewer than 10 points survive visibility filtering.
    """
    rng = np.random.default_rng(cfg.seed)
    step = 2**(cfg.levels - 1)
    margin = 2 * step

    georef, intrinsics, ctx = cfg._geometry()

    # Ground pixels on the coarsest level's texel grid, so every pyramid
    # level sees the splats at integer coordinates.
    us = np.arange(margin, cfg.grd_width - margin, step)
    vs = np.arange(margin, cfg.grd_height - margin, step)
    n_slots = len(us) * len(vs)
    if cfg.point_count > n_slots:
        raise GenerationError(
            f"point_count {cfg.point_count} exceeds the {n_slots} distinct "
            f"ground raster positions at this image size")
    chosen = rng.choice(n_slots, size=cfg.point_count, replace=False)
    pix_u = us[chosen % len(us)].astype(np.float64)
    pix_v = vs[chosen // len(us)].astype(np.float64)
    depth = rng.uniform(cfg.point_depth_range[0], cfg.point_depth_range[1],
                        cfg.point_count)

    pts = np.stack([
        (pix_u - intrinsics.cx) * depth / intrinsics.fx,
        (pix_v - intrinsics.cy) * depth / intrinsics.fy,
        depth,
    ], axis=1).astype(np.float32)
    points = PointSet(pts.astype(np.float64))

    # Satellite pyramid: independent smooth unit-norm field per level.
    sat_levels = []
    for size in _sat_level_sizes(cfg):
        feat = _smooth_field(rng, (size, size, cfg.channels), cfg.feature_smoothness)
        fmap = normalize_features(FeatureMap(feat.astype(np.float32)))
        att = _attention(rng, (size, size), cfg.attention_mode, cfg.feature_smoothness)
        sat_levels.append((fmap, att))

    # True-pose lookups; points must be ground-visible and land inside the
    # satellite crop at every level.
    pts_sat = transform_points(points, pose_to_transform(cfg.gt_pose, ctx))
    uv_grd, visible = project_ground(points, intrinsics)
    valid = visible.copy()
    sat_vals_per_level = []
    for lvl, (fmap, _) in enumerate(sat_levels):
        uv = project_satellite(pts_sat, georef.coarsened(lvl))
        vals, _, inb = bilinear_lookup_many(fmap.data, uv)
        sat_vals_per_level.append(vals)
        valid &= inb

    if int(valid.sum()) < 10:
        raise GenerationError(
            f"only {int(valid.sum())} of {cfg.point_count} points survive "
            f"visibility filtering")
    points = PointSet(points.points[valid])
    uv_grd = uv_grd[valid]
    sat_vals_per_level = [v[valid] for v in sat_vals_per_level]

    grd_levels = []
    for lvl in range(cfg.levels):
        gh = -(-cfg.grd_height // 2**lvl)
        gw = -(-cfg.grd_width // 2**lvl)
        grd_map = _splat_ground_map((gh, gw, cfg.channels), uv_grd / float(2**lvl),
                                    sat_vals_per_level[lvl])
        fmap = FeatureMap(grd_map.astype(np.float32))
        att = _attention(rng, (gh, gw), cfg.attention_mode, cfg.feature_smoothness)
        grd_levels.append((fmap, att))

    problem = AlignmentProblem(
        sat_pyramid=FeaturePyramid(tuple(sat_levels)), georef=georef,
        grd_pyramid=FeaturePyramid(tuple(grd_levels)), intrinsics=intrinsics,
        points=points, ctx=ctx, gt_pose=cfg.gt_pose)

    _assert_zero_residual(problem, sat_vals_per_level)
    return problem


def _splat_ground_map(shape, uv: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Ground feature map whose bilinear lookups at uv equal the targets.

    The (h, w, c) map is zero away from the points' texels, since the
    solver never reads there.
    Each target is written at its nearest texel; the solver looks up at the
    float32-quantized projection, a hair off that texel, so the dominant
    corner is then corrected against the actual interpolation weights and
    the constraint holds to float precision.
    """
    out = np.zeros(shape)
    out[np.rint(uv[:, 1]).astype(np.intp), np.rint(uv[:, 0]).astype(np.intp)] = targets

    corners = bilinear_weights(shape[:2], uv)
    idx, weights = corners[:2]
    contrib, _, _ = bilinear_lookup_many(out, uv, corners)
    rows = np.arange(uv.shape[0])
    dom = np.argmax(weights, axis=0)
    flat = out.reshape(-1, shape[2])  # a view: writes land in out
    flat[idx[dom, rows]] += (targets - contrib) / weights[dom, rows][:, None]
    return out


def _assert_zero_residual(problem: AlignmentProblem, sat_vals_per_level,
                          tol: float = 1e-6) -> None:
    """Check the ground lookups the solver will read against the satellite's."""
    for lvl in range(problem.level_count):
        grd_vals = ground_level_data(problem, lvl).features
        worst = float(np.max(np.linalg.norm(sat_vals_per_level[lvl] - grd_vals, axis=1)))
        if worst > tol:
            raise GenerationError(
                f"splat construction failed at level {lvl}: residual {worst:.2e}")


def sample_initial_pose(gt: Pose3, bounds: PerturbBounds, seed: int) -> Pose3:
    """Perturb a pose uniformly within the bounds, deterministically per seed."""
    rng = np.random.default_rng(seed)
    d_lat = rng.uniform(-bounds.max_shift, bounds.max_shift)
    d_lon = rng.uniform(-bounds.max_shift, bounds.max_shift)
    d_yaw = math.radians(rng.uniform(-bounds.max_yaw_deg, bounds.max_yaw_deg))
    return Pose3(gt.lateral + d_lat, gt.longitudinal + d_lon, gt.yaw + d_yaw)
