"""Shared fixtures: small handmade and generated scenes, and the Hypothesis
profile of CI runs."""

from __future__ import annotations

import functools
import os

import numpy as np
import pytest
from hypothesis import settings

from cvloc.features import AttentionMap, FeatureMap, FeaturePyramid, normalize_features
from cvloc.geometry import (CameraIntrinsics, PointSet, Pose3, PoseContext,
                            SatelliteGeoref)
from cvloc.problem import AlignmentProblem
from cvloc.synth import SynthConfig, generate_scene

# CI (GitHub Actions sets CI) draws the same examples on every run, with no
# deadline on a shared runner's timing.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


def tiny_problem(sat_data=None, grd_data=None, sat_att=None, grd_att=None,
                 points=None, gt_pose=None, gamma=1.0, sat_size=16,
                 normalize=True):
    """One-level handmade problem with integer-pixel ground projections.

    Default points sit on exact ground texels (fx=fy=8, cx=cy=8) and fall
    inside the gamma=1 m/px satellite crop, so tests can control lookups
    precisely.
    """
    rng = np.random.default_rng(99)
    c = 2
    if sat_data is None:
        sat_data = rng.standard_normal((sat_size, sat_size, c)).astype(np.float32)
    fmap_s = FeatureMap(sat_data)
    if normalize:
        fmap_s = normalize_features(fmap_s)
    if grd_data is None:
        grd_data = rng.standard_normal((17, 17, c)).astype(np.float32)
    fmap_g = FeatureMap(grd_data)
    if normalize:
        fmap_g = normalize_features(fmap_g)
    att_s = AttentionMap(sat_att if sat_att is not None else np.ones(fmap_s.data.shape[:2]))
    att_g = AttentionMap(grd_att if grd_att is not None else np.ones(fmap_g.data.shape[:2]))
    intr = CameraIntrinsics(fx=8.0, fy=8.0, cx=8.0, cy=8.0, width=17, height=17)
    if points is None:
        # Project to ground pixels (8, 8), (10, 6), (4, 12) at depths 3, 5, 4.
        pix = np.array([[8.0, 8.0], [10.0, 6.0], [4.0, 12.0]])
        z = np.array([3.0, 5.0, 4.0])
        pts = np.stack([(pix[:, 0] - intr.cx) * z / intr.fx,
                        (pix[:, 1] - intr.cy) * z / intr.fy, z], axis=1)
        points = PointSet(pts)
    return AlignmentProblem(
        sat_pyramid=FeaturePyramid(((fmap_s, att_s),)),
        georef=SatelliteGeoref.from_gamma((sat_size - 1) / 2.0, gamma, zoom=15),
        grd_pyramid=FeaturePyramid(((fmap_g, att_g),)),
        intrinsics=intr,
        points=points,
        ctx=PoseContext(height=-1.5),
        gt_pose=gt_pose or Pose3(0.0, 0.0, 0.0),
    )


SMALL_SCENE_CFG = SynthConfig(seed=11, sat_size=128, point_count=300,
                              grd_width=256, grd_height=96, grd_focal=120.0,
                              point_depth_range=(3.0, 14.0))


@functools.cache
def small_scene_problem() -> AlignmentProblem:
    """A small but fully representative generated scene (3 levels, 300 pts).

    Hypothesis tests call this instead of taking the fixture: a test's
    arguments are printed with each example, and the scene's repr is large.
    """
    return generate_scene(SMALL_SCENE_CFG)


@pytest.fixture(scope="session")
def small_scene():
    return small_scene_problem()


@pytest.fixture(scope="session")
def default_scene():
    """The full-size default scene used by the acceptance suite."""
    return generate_scene(SynthConfig(seed=42))
