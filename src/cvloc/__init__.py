"""Cross-view vehicle localization toolkit.

Refines a coarse 3-DoF vehicle pose (lateral, longitudinal, yaw) against a
satellite-frame feature map by aligning sparse 3D-point features from the
ground view with a weighted, damped Levenberg-Marquardt solver.
"""

from .cvls import load_scene, save_scene
from .errors import (ConfigError, ContractError, CvlocError, DegenerateProblemError,
                     DomainError, FormatError, GenerationError, SingularSystemError)
from .features import (AttentionMap, FeatureMap, FeaturePyramid, SparseAlignment,
                       normalize_features)
from .geometry import (CameraIntrinsics, PointSet, Pose3, PoseContext,
                       RigidTransform, SatelliteGeoref, meters_per_pixel,
                       pose_to_transform, project_ground, project_satellite,
                       transform_points)
from .losses import LossConfig, pab_weight, reprojection_error, total_loss, triplet_loss, weighted_distance
from .metrics import MetricsSummary, PoseError, pose_error, summarize
from .problem import AlignmentProblem
from .solver import (LMConfig, OptimReport, RobustCost, build_jacobian,
                     build_weight_matrix, lm_step, refine_pose)
from .synth import PerturbBounds, SynthConfig, generate_scene, sample_initial_pose

__version__ = "0.1.0"
