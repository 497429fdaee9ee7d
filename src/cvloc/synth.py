"""Synthetic alignment scenes with a known global optimum.

Scenes are built so the weighted feature cost vanishes exactly at the
ground-truth pose, ``GT_POSE``: the map origin, heading north. Only a
start's offset from the truth enters the objective, so one truth serves
every scene. Smooth random satellite fields are sampled per level, 3D
points are back-projected from ground pixels aligned to the coarsest
level's texel grid, and each point's satellite feature (looked up at the
true pose) is splatted into the ground map so its bilinear lookup
reproduces it. The ground map is zero away from the points' texels: the
solver reads the ground view only at the points' own projections, so
nothing between them enters the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GenerationError, require_int
from .features import (AttentionMap, FeatureMap, FeaturePyramid,
                       bilinear_values_many, bilinear_weights, normalize_features)
from .geometry import (CameraIntrinsics, PointSet, Pose3, SatelliteGeoref,
                       pose_to_transform, project_ground, project_satellite,
                       satellite_pixels_finite, transform_points)
from .problem import AlignmentProblem, evaluate_pose

# The size budget of a scene's arrays, checked before anything is allocated.
# Each satellite and ground texel of every level holds a float64 field and a
# float32 copy (12 bytes) of each channel; the attention plane, float32 ones,
# is counted like a channel, which overestimates it.
MAX_SCENE_BYTES = 2**31

#: The true pose of every generated scene: the map origin, heading north.
GT_POSE = Pose3(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class SynthConfig:
    """Scene-generation parameters."""

    seed: int = 0
    sat_size: int = 512
    gamma: float = 0.2
    levels: int = 3
    channels: int = 8
    point_count: int = 5000
    depth_min: float = 3.0
    depth_max: float = 25.0
    feature_smoothness: float = 8.0
    grd_width: int = 832
    grd_height: int = 256
    grd_focal: float = 400.0

    def __post_init__(self):
        for name, minimum in (("seed", 0), ("sat_size", 64), ("point_count", 10),
                              ("levels", 1), ("channels", 1), ("grd_width", 1),
                              ("grd_height", 1)):
            require_int(name, getattr(self, name), minimum)
        short_side = min(self.grd_width, self.grd_height)
        # generate_scene keeps a 2 * 2**(levels - 1) px margin on each side
        # of the ground image. The bit_length test comes first, so a huge
        # levels from a config file never builds its power of 2.
        if (self.levels >= short_side.bit_length()
                or 4 * 2**(self.levels - 1) >= short_side):
            raise DomainError(f"levels {self.levels} leaves the coarsest ground grid "
                              f"no point slot: need 4 * 2**(levels - 1) < "
                              f"min(grd_width, grd_height) = {short_side}")
        # Python ints: a size from a config file cannot overflow here
        texels = sum(size**2 for size in _sat_level_sizes(self)) + sum(
            -(-self.grd_width // 2**lvl) * -(-self.grd_height // 2**lvl)
            for lvl in range(self.levels))
        if 12 * (self.channels + 1) * texels > MAX_SCENE_BYTES:
            raise DomainError(f"sat_size {self.sat_size}, levels {self.levels}, channels "
                              f"{self.channels} and a {self.grd_width}x{self.grd_height} "
                              f"ground image exceed the {MAX_SCENE_BYTES >> 30} GiB "
                              f"scene size budget")
        lo, hi = self.depth_min, self.depth_max
        if not (0 < lo < hi < math.inf):
            raise DomainError(f"depth range must be 0 < min < max < inf, got {lo}, {hi}")
        if not 0 < self.feature_smoothness < math.inf:
            raise DomainError("feature_smoothness must be finite and > 0")
        if 4 * self.feature_smoothness > self.sat_size:
            # A field smoothed past a quarter of the crop is almost
            # constant across it.
            raise DomainError(f"feature_smoothness {self.feature_smoothness} exceeds "
                              f"sat_size / 4 = {self.sat_size / 4}")
        georef, _ = self._geometry()  # a bad gamma or camera fails here
        # The farthest point lies depth_max times the image's widest ray
        # slope away, and points are stored as float32.
        reach = hi * max(1.0, (self.grd_width - 1) / (2 * self.grd_focal),
                         (self.grd_height - 1) / (2 * self.grd_focal))
        if not reach < float(np.finfo(np.float32).max):
            raise DomainError(f"depth_max {hi} puts points beyond the float32 range "
                              f"(farthest coordinate {reach:.3g} m)")
        if not satellite_pixels_finite(georef, GT_POSE, reach):
            raise DomainError(f"gamma {self.gamma} puts satellite pixel "
                              f"coordinates beyond the float range (farthest point "
                              f"coordinate {reach:.3g} m)")

    def _geometry(self) -> tuple[SatelliteGeoref, CameraIntrinsics]:
        """Satellite georeference and ground camera of the scene."""
        georef = SatelliteGeoref((self.sat_size - 1) / 2.0, self.gamma)
        intrinsics = CameraIntrinsics(
            fx=self.grd_focal, fy=self.grd_focal,
            cx=(self.grd_width - 1) / 2.0, cy=(self.grd_height - 1) / 2.0,
            width=self.grd_width, height=self.grd_height)
        return georef, intrinsics


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


def _smooth_periodic(noise: np.ndarray, sigma: float) -> np.ndarray:
    """The (h, w, c) ``noise`` convolved with a periodic Gaussian of ``sigma``
    texels, channel by channel, as float32.

    The filter is applied as its transfer function exp(-2 pi^2 sigma^2 |k|^2),
    with k in cycles per texel, on one channel's spectrum at a time.
    """
    h, w, channels = noise.shape
    fy, fx = np.fft.fftfreq(h), np.fft.rfftfreq(w)
    transfer = np.exp(-2.0 * math.pi**2 * sigma**2 * (fy[:, None]**2 + fx**2))
    out = np.empty(noise.shape, dtype=np.float32)
    for ch in range(channels):
        out[..., ch] = np.fft.irfft2(np.fft.rfft2(noise[..., ch]) * transfer, s=(h, w))
    return out


def _satellite_levels(cfg: SynthConfig, rng: np.random.Generator) -> list[tuple]:
    """The satellite pyramid: an independent smooth unit-norm field per level."""
    levels = []
    for size in _sat_level_sizes(cfg):
        feat = _smooth_periodic(rng.standard_normal((size, size, cfg.channels)),
                                cfg.feature_smoothness)
        levels.append((normalize_features(FeatureMap(feat)),
                       AttentionMap(np.ones((size, size), dtype=np.float32))))
    return levels


def _sat_level_sizes(cfg: SynthConfig) -> list[int]:
    return [-(-cfg.sat_size // 2**lvl) for lvl in range(cfg.levels)]


def generate_scene(cfg: SynthConfig) -> AlignmentProblem:
    """Generate one alignment problem whose optimum sits at ``GT_POSE``.

    Deterministic given the config (including its seed). Raises
    GenerationError if fewer than 10 points survive visibility filtering.
    """
    rng = np.random.default_rng(cfg.seed)
    step = 2**(cfg.levels - 1)
    margin = 2 * step

    georef, intrinsics = cfg._geometry()

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
    depth = rng.uniform(cfg.depth_min, cfg.depth_max, cfg.point_count)

    pts = np.stack([
        (pix_u - intrinsics.cx) * depth / intrinsics.fx,
        (pix_v - intrinsics.cy) * depth / intrinsics.fy,
        depth,
    ], axis=1).astype(np.float32)
    points = PointSet(pts.astype(np.float64))

    sat_levels = _satellite_levels(cfg, rng)

    # True-pose lookups; points must be ground-visible and land inside the
    # satellite crop at every level.
    pts_sat = transform_points(points.points, pose_to_transform(GT_POSE))
    uv_grd, visible = project_ground(points.points, intrinsics)
    valid = visible.copy()
    sat_vals_per_level = []
    for lvl, (fmap, _) in enumerate(sat_levels):
        uv = project_satellite(pts_sat, georef.coarsened(lvl))
        vals, inb = bilinear_values_many(fmap.data, uv)
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
        grd_levels.append((FeatureMap(grd_map.astype(np.float32)),
                           AttentionMap(np.ones((gh, gw), dtype=np.float32))))

    problem = AlignmentProblem(
        sat_pyramid=FeaturePyramid(tuple(sat_levels)), georef=georef,
        grd_pyramid=FeaturePyramid(tuple(grd_levels)), intrinsics=intrinsics,
        points=points, gt_pose=GT_POSE)

    _assert_zero_residual(problem)
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
    contrib, _ = bilinear_values_many(out, uv, corners)
    rows = np.arange(uv.shape[0])
    dom = np.argmax(weights, axis=0)
    flat = out.reshape(-1, shape[2])  # a view: writes land in out
    flat[idx[dom, rows]] += (targets - contrib) / weights[dom, rows][:, None]
    return out


def _assert_zero_residual(problem: AlignmentProblem, tol: float = 1e-6) -> None:
    """Check the solver's own evaluation at the truth: on every level each
    row is valid and its residual norm at most ``tol``."""
    for lvl in range(problem.level_count):
        ev = evaluate_pose(problem, problem.gt_pose, lvl)
        worst = math.sqrt(float(ev.sq_norms.max()))
        if not ev.alignment.valid_mask.all() or worst > tol:
            raise GenerationError(f"splat construction failed at level {lvl}: residual "
                                  f"{worst:.2e}, {np.sum(~ev.alignment.valid_mask)} rows masked")


def sample_initial_pose(gt: Pose3, bounds: PerturbBounds, seed: int) -> Pose3:
    """Perturb a pose uniformly within the bounds, deterministically per seed."""
    rng = np.random.default_rng(seed)
    d_lat = rng.uniform(-bounds.max_shift, bounds.max_shift)
    d_lon = rng.uniform(-bounds.max_shift, bounds.max_shift)
    d_yaw = math.radians(rng.uniform(-bounds.max_yaw_deg, bounds.max_yaw_deg))
    return Pose3(gt.lateral + d_lat, gt.longitudinal + d_lon, gt.yaw + d_yaw)
