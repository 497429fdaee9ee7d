"""Pose error decomposition and aggregate localization metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .geometry import Pose3, pose_to_transform, wrap_angle

SHIFT_THRESHOLDS_M = (0.25, 0.5, 1.0, 2.0)
YAW_THRESHOLDS_DEG = (1.0, 2.0, 4.0)


@dataclass(frozen=True)
class PoseError:
    """Absolute pose error in the ground-truth vehicle frame.

    Longitudinal is along the true heading, lateral perpendicular to it;
    yaw is the wrapped absolute angular difference in [0, 180] degrees.
    """

    lateral_err: float
    longitudinal_err: float
    yaw_err_deg: float


def pose_error(est: Pose3, gt: Pose3) -> PoseError:
    """Decompose the estimate-minus-truth offset in the truth's heading frame."""
    _, _, east, south = pose_to_transform(est)
    c, s, gt_east, gt_south = pose_to_transform(gt)
    d_east, d_south = east - gt_east, south - gt_south
    # projected on the vehicle's right, (c, s), and its heading, (s, -c)
    return PoseError(
        lateral_err=abs(d_east * c + d_south * s),
        longitudinal_err=abs(d_east * s - d_south * c),
        yaw_err_deg=abs(math.degrees(wrap_angle(est.yaw - gt.yaw))),
    )


@dataclass(frozen=True)
class MetricsSummary:
    """Medians and recall percentages over a batch of pose errors."""

    median_lateral: float
    median_longitudinal: float
    median_yaw_deg: float
    recall_lateral: dict
    recall_longitudinal: dict
    recall_yaw: dict
    trial_count: int

    def to_dict(self) -> dict:
        return {
            "median": {
                "lateral_m": self.median_lateral,
                "longitudinal_m": self.median_longitudinal,
                "yaw_deg": self.median_yaw_deg,
            },
            "recall_pct": {
                "lateral": {str(k): v for k, v in self.recall_lateral.items()},
                "longitudinal": {str(k): v for k, v in self.recall_longitudinal.items()},
                "yaw": {str(k): v for k, v in self.recall_yaw.items()},
            },
            "trial_count": self.trial_count,
        }


def _lower_median(values: np.ndarray) -> float:
    # Lower-middle element for even counts: deterministic and never invents
    # a value that was not observed.
    ordered = np.sort(values)
    return float(ordered[(len(ordered) - 1) // 2])


def _recalls(values: np.ndarray, thresholds, denominator: int) -> dict:
    return {t: 100.0 * float(np.sum(values <= t)) / denominator for t in thresholds}


def summarize(errors, trial_count: int | None = None) -> MetricsSummary:
    """Aggregate pose errors into medians and recalls.

    ``trial_count`` sets the recall denominator when some trials failed to
    produce an error at all (failures count as misses); medians are always
    over the completed trials.
    """
    errors = list(errors)
    if not errors:
        raise ContractError("cannot summarize an empty error list")
    denom = trial_count if trial_count is not None else len(errors)
    if denom < len(errors):
        raise ContractError("trial_count smaller than the number of errors")
    lat = np.array([e.lateral_err for e in errors])
    lon = np.array([e.longitudinal_err for e in errors])
    yaw = np.array([e.yaw_err_deg for e in errors])
    return MetricsSummary(
        median_lateral=_lower_median(lat),
        median_longitudinal=_lower_median(lon),
        median_yaw_deg=_lower_median(yaw),
        recall_lateral=_recalls(lat, SHIFT_THRESHOLDS_M, denom),
        recall_longitudinal=_recalls(lon, SHIFT_THRESHOLDS_M, denom),
        recall_yaw=_recalls(yaw, YAW_THRESHOLDS_DEG, denom),
        trial_count=denom,
    )
