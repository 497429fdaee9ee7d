"""Evaluable objective functions of the two supervision branches.

These are diagnostic quantities here (nothing is trained): the geometric
re-projection error of a refined pose, the weighted feature distance, the
soft-margin triplet loss comparing an erroneous pose against the true one,
and the gate that enables the triplet term only when the initial pose is
far enough from the truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProblemError, DomainError, require_int
from .geometry import (PointSet, Pose3, PoseContext, SatelliteGeoref,
                       pose_to_transform, project_satellite, transform_points)
from .problem import AlignmentProblem, evaluate_pose
from .solver import RobustCost, weighted_cost


@dataclass(frozen=True)
class LossConfig:
    """Triplet sharpness, gating thresholds, and the feature-distance level.

    ``dis_level`` selects the pyramid level used for the weighted feature
    distance; 0 (the finest) is where the comparison is most discriminative.
    """

    alpha: float = 10.0
    beta_lo: float = 10.0
    beta_hi: float = 50.0
    dis_level: int = 0

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise DomainError("alpha must be finite and > 0")
        if not 0 <= self.beta_lo < self.beta_hi < math.inf:
            raise DomainError("need 0 <= beta_lo < beta_hi < inf")
        require_int("dis_level", self.dis_level, 0)


def reprojection_error(pose_a: Pose3, pose_b: Pose3, points: PointSet,
                       ctx: PoseContext, georef: SatelliteGeoref) -> float:
    """Summed squared satellite-pixel distance between two poses' projections.

    Purely geometric: every sampled point contributes, no visibility mask.
    """
    uv_a = project_satellite(transform_points(points, pose_to_transform(pose_a, ctx)),
                             georef)
    uv_b = project_satellite(transform_points(points, pose_to_transform(pose_b, ctx)),
                             georef)
    return float(np.sum((uv_a - uv_b)**2))


def weighted_distance(problem: AlignmentProblem, pose: Pose3, cost: RobustCost,
                      level: int = 0) -> float:
    """Weighted robust feature distance sum_i w_i * rho(||r_i||^2).

    Evaluated at the finest pyramid level by default.
    """
    ev = evaluate_pose(problem, pose, level=level)
    if not np.any(ev.alignment.valid_mask):
        raise DegenerateProblemError(
            f"no valid points at level {level} for pose {pose}", pose=pose)
    return weighted_cost(ev.alignment.weights, ev.sq_norms, cost)


def triplet_loss(dis_init: float, dis_gt: float, alpha: float = 10.0) -> float:
    """Soft-margin triplet loss log(1 + exp(alpha * (1 - dis_init/dis_gt))).

    Computed through log1p/softplus so large arguments cannot overflow.
    """
    if dis_gt <= 0:
        raise DomainError(f"distance at the true pose must be > 0, got {dis_gt}")
    if dis_init < 0:
        raise DomainError(f"distance at the initial pose must be >= 0, got {dis_init}")
    return float(np.logaddexp(0.0, alpha * (1.0 - dis_init / dis_gt)))


def pab_weight(l_init: float, cfg: LossConfig | None = None) -> float:
    """Gating weight for the triplet term.

    Zero below the lower threshold, the re-projection error itself inside
    [beta_lo, beta_hi], and capped at beta_hi above.
    """
    cfg = cfg or LossConfig()
    if l_init < 0:
        raise DomainError(f"re-projection error must be >= 0, got {l_init}")
    if l_init < cfg.beta_lo:
        return 0.0
    if l_init <= cfg.beta_hi:
        return float(l_init)
    return float(cfg.beta_hi)


def total_loss(problem: AlignmentProblem, pose_pre: Pose3, pose_init: Pose3,
               pose_gt: Pose3, cost: RobustCost | None = None,
               cfg: LossConfig | None = None) -> tuple[float, dict]:
    """Combined objective: re-projection term plus gated triplet term.

    Returns (total, components); the triplet branch is only evaluated when
    the gate is open, so a zero feature distance at the true pose cannot
    poison a run whose initial pose was already accurate.
    """
    cost = cost or RobustCost()
    cfg = cfg or LossConfig()

    reproj_pre = reprojection_error(pose_pre, pose_gt, problem.points, problem.ctx,
                                    problem.georef)
    reproj_init = reprojection_error(pose_init, pose_gt, problem.points, problem.ctx,
                                     problem.georef)
    beta = pab_weight(reproj_init, cfg)

    if beta > 0.0:
        dis_init = weighted_distance(problem, pose_init, cost, level=cfg.dis_level)
        dis_gt = weighted_distance(problem, pose_gt, cost, level=cfg.dis_level)
        triplet = triplet_loss(dis_init, dis_gt, cfg.alpha)
    else:
        dis_init = dis_gt = None
        triplet = 0.0

    total = reproj_pre + beta * triplet
    components = {
        "total": total,
        "reprojection_pre": reproj_pre,
        "reprojection_init": reproj_init,
        "beta": beta,
        "triplet": triplet,
        "dis_init": dis_init,
        "dis_gt": dis_gt,
    }
    return total, components
