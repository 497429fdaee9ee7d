"""Cross-view vehicle localization toolkit.

Refines a coarse 3-DoF vehicle pose (lateral, longitudinal, yaw) against a
satellite-frame feature map by aligning sparse 3D-point features from the
ground view with a weighted, damped Levenberg-Marquardt solver.

The top level holds the names of README's library example; everything
else is imported from its submodule.
"""

from .cvls import load_scene, save_scene
from .metrics import pose_error
from .solver import LMConfig, RobustCost, refine_pose
from .synth import PerturbBounds, SynthConfig, generate_scene, sample_initial_pose

__all__ = [
    "SynthConfig", "generate_scene", "sample_initial_pose", "PerturbBounds",
    "refine_pose", "LMConfig", "RobustCost", "pose_error", "save_scene", "load_scene",
]

__version__ = "0.1.0"
