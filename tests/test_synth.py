"""Synthetic scenes: zero-residual construction, determinism, perturbations."""

import hashlib
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage, stats

from cvloc.cvls import save_scene
from cvloc.errors import ConfigError, DomainError, GenerationError
from cvloc.geometry import Pose3
from cvloc.harness.runner import run_bounds, run_eval
from cvloc.problem import evaluate_pose
from cvloc.synth import (PerturbBounds, SynthConfig, _smooth_periodic, generate_scene,
                         sample_initial_pose)

from conftest import SMALL_SCENE_CFG


class TestGenerateScene:
    def test_zero_residual_at_truth_every_level(self, small_scene):
        for lvl in range(small_scene.level_count):
            ev = evaluate_pose(small_scene, small_scene.gt_pose, lvl)
            norms = np.linalg.norm(ev.alignment.residuals, axis=1)
            assert norms.max() < 1e-5

    def test_missed_splat_raises(self, monkeypatch):
        # a ground map that misses the targets must fail generation, not
        # hand the solver a scene whose optimum is elsewhere
        monkeypatch.setattr("cvloc.synth._splat_ground_map",
                            lambda shape, uv, targets: np.zeros(shape))
        with pytest.raises(GenerationError, match="level 0"):
            generate_scene(SMALL_SCENE_CFG)

    def test_scene_files_bit_identical_per_seed(self, tmp_path):
        cfg = SMALL_SCENE_CFG
        a, b = tmp_path / "a.cvls", tmp_path / "b.cvls"
        save_scene(a, generate_scene(cfg))
        save_scene(b, generate_scene(cfg))
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_different_scene(self, tmp_path):
        a, b = tmp_path / "a.cvls", tmp_path / "b.cvls"
        save_scene(a, generate_scene(SMALL_SCENE_CFG))
        save_scene(b, generate_scene(replace(SMALL_SCENE_CFG, seed=12)))
        assert a.read_bytes() != b.read_bytes()

    def test_satellite_maps_unit_normalized(self, small_scene):
        for lvl in range(small_scene.level_count):
            fmap = small_scene.sat_pyramid.feature(lvl)
            norms = np.linalg.norm(fmap.data.astype(np.float64), axis=-1)
            assert np.abs(norms - 1.0).max() < 1e-6

    def test_too_many_points_rejected(self):
        cfg = replace(SMALL_SCENE_CFG, point_count=100_000)
        with pytest.raises(GenerationError):
            generate_scene(cfg)

    def test_points_off_the_crop_rejected(self):
        # 20 m and more ahead is beyond the 64 px, 0.2 m/px crop's half width
        cfg = SynthConfig(sat_size=64, depth_min=20.0, depth_max=25.0)
        with pytest.raises(GenerationError, match="only 0 of 5000 points survive"):
            generate_scene(cfg)

    def test_satellite_pixels_within_float_range(self):
        # x / gamma + center of every point at the true pose must stay finite
        SynthConfig(gamma=1e-300)
        for gamma in (5e-324, 1e-307):
            with pytest.raises(DomainError, match="beyond the float range"):
                SynthConfig(gamma=gamma)

    def test_feature_smoothness_bounded_by_sat_size(self):
        # a field smoothed past a quarter of the crop is almost constant across it
        SynthConfig(feature_smoothness=128.0)
        SynthConfig(sat_size=64, feature_smoothness=16.0)
        for sigma in (128.5, 1e6, 1e9):
            with pytest.raises(DomainError, match="feature_smoothness"):
                SynthConfig(feature_smoothness=sigma)
        with pytest.raises(DomainError, match="feature_smoothness"):
            SynthConfig(sat_size=64, feature_smoothness=16.5)

    def test_levels_bounded_by_ground_image(self):
        # generate_scene keeps a 2**levels px margin on each side, so the
        # coarsest ground grid needs 4 * 2**(levels - 1) < the shorter side
        SynthConfig(levels=6)  # 128 < 256
        SynthConfig(levels=2, grd_width=9, grd_height=9)
        for bad in ({"levels": 7}, {"levels": 8}, {"levels": 20}, {"levels": 10**30},
                    {"levels": 2, "grd_width": 8}, {"levels": 1, "grd_height": 4}):
            with pytest.raises(DomainError, match="levels"):
                SynthConfig(**bad)

    def test_size_budget(self):
        # 12 bytes per texel for each channel and the attention, summed over
        # the satellite and ground levels; checked before any allocation
        SynthConfig(sat_size=2048)  # about 0.6 GiB
        for bad in ({"sat_size": 1_000_000}, {"channels": 100_000},
                    {"grd_width": 1_000_000, "grd_height": 1_000_000}, {"sat_size": 4096}):
            with pytest.raises(DomainError, match="scene size budget"):
                SynthConfig(**bad)

    def test_depth_range_within_float32(self):
        # the farthest point is depth_max times the widest ray slope,
        # (832 - 1) / (2 * 400) here, and points are float32
        f32_max = float(np.finfo(np.float32).max)
        slope = 831 / 800
        SynthConfig(depth_min=1.0, depth_max=f32_max / slope * (1 - 1e-6))
        SynthConfig(depth_min=1.0, depth_max=f32_max * 0.99, grd_focal=1e4)
        for hi in (f32_max / slope * (1 + 1e-6), f32_max, 1e300):
            with pytest.raises(DomainError, match="float32"):
                SynthConfig(depth_min=1.0, depth_max=hi)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SynthConfig(sat_size=32)
        with pytest.raises(DomainError):
            SynthConfig(point_count=5)
        with pytest.raises(DomainError):
            SynthConfig(depth_min=10.0, depth_max=3.0)
        # geometry that generate_scene could not build
        for bad in ({"gamma": 0.0}, {"gamma": -0.2}, {"grd_focal": -5.0},
                    {"grd_width": 0}, {"grd_height": 0}):
            with pytest.raises(DomainError):
                SynthConfig(**bad)
        # integer fields take integers only, not floats or booleans
        for name in ("seed", "sat_size", "levels", "channels", "point_count",
                     "grd_width", "grd_height"):
            for value in (2.5, float(getattr(SynthConfig(), name)), True):
                with pytest.raises(DomainError, match=f"{name} must be an integer"):
                    SynthConfig(**{name: value})


def _scene_sha256(cfg, path) -> str:
    save_scene(path, generate_scene(cfg))
    return hashlib.sha256(path.read_bytes()).hexdigest()


#: SHA-256 of the ``save_scene`` bytes of generated scenes, recorded when
#: the satellite fields came to be smoothed in the Fourier domain and the
#: metadata lost its level_order. The small scene has 3 channels, an odd
#: count.
_SCENE_SHA256 = {
    "default-seed-42": (SynthConfig(seed=42),
                        "874366ed1cef420f7835e737b17d2b58cf72b20e904e8afbad406b717d5ebc1c"),
    "small-c3": (replace(SMALL_SCENE_CFG, channels=3),
                 "912d40b153d97879753db40bb7028aa95d18651b9b32acbe63c861868a690b12"),
}


class TestSceneBytes:
    """A generated scene's file bytes are pinned by their SHA-256."""

    @pytest.mark.parametrize("name", sorted(_SCENE_SHA256))
    def test_scene_bytes_pinned(self, name, tmp_path):
        cfg, digest = _SCENE_SHA256[name]
        assert _scene_sha256(cfg, tmp_path / "s.cvls") == digest


class TestSpectralSmoothing:
    """The satellite fields are smoothed by a periodic Gaussian whose sigma
    is in texels: it matches the sampled kernel of a spatial filter."""

    @pytest.mark.parametrize("size, sigma", [(64, 4.0), (37, 4.0), (128, 8.0)])
    def test_matches_wrapped_gaussian_filter(self, size, sigma):
        noise = np.random.default_rng(size).standard_normal((size, size))
        reference = ndimage.gaussian_filter(noise, sigma, mode="wrap")
        smoothed = _smooth_periodic(noise[..., None], sigma)[..., 0]
        assert np.abs(smoothed - reference).max() < 2e-3 * reference.std()


class TestSampleInitialPose:
    def test_zero_bounds_returns_truth(self):
        gt = Pose3(1.0, -2.0, 0.3)
        out = sample_initial_pose(gt, PerturbBounds(0.0, 0.0), seed=5)
        assert out == gt

    def test_deterministic(self):
        gt = Pose3(0, 0, 0)
        b = PerturbBounds(10.0, 30.0)
        assert sample_initial_pose(gt, b, 9) == sample_initial_pose(gt, b, 9)

    def test_offsets_within_bounds(self):
        gt = Pose3(1.0, 2.0, 0.1)
        b = PerturbBounds(10.0, 30.0)
        for seed in range(10_000):
            p = sample_initial_pose(gt, b, seed)
            assert abs(p.lateral - gt.lateral) <= 10.0
            assert abs(p.longitudinal - gt.longitudinal) <= 10.0
            assert abs(math.degrees(p.yaw - gt.yaw)) <= 30.0 + 1e-9

    def test_largest_bound_samples_and_larger_is_rejected(self):
        # the span [-b, b] of a bound b must stay finite
        b = sys.float_info.max / 2
        p = sample_initial_pose(Pose3(0, 0, 0), PerturbBounds(b, b), seed=1)
        assert abs(p.lateral) <= b and abs(p.longitudinal) <= b
        above = float(np.nextafter(b, math.inf))
        for kwargs in ({"max_shift": above}, {"max_yaw_deg": above}):
            with pytest.raises(DomainError, match="half the largest float"):
                PerturbBounds(**kwargs)

    def test_marginals_uniform_ks(self):
        gt = Pose3(0, 0, 0)
        b = PerturbBounds(10.0, 30.0)
        draws = np.array([[sample_initial_pose(gt, b, s).lateral,
                           sample_initial_pose(gt, b, s).longitudinal,
                           math.degrees(sample_initial_pose(gt, b, s).yaw)]
                          for s in range(10_000)])
        for col, half_width in zip(range(3), (10.0, 10.0, 30.0)):
            _, p = stats.kstest(draws[:, col],
                                stats.uniform(loc=-half_width, scale=2 * half_width).cdf)
            assert p > 0.01


class TestRunBoundsGrid:
    """A sweep over widening bounds through the one trial driver."""

    def test_zero_bound_row_is_exact(self, small_scene):
        results, rows = run_bounds(small_scene, 3, [PerturbBounds(0.0, 0.0)])
        assert len(results) == 1 and len(rows) == 3
        _, s, failures = results[0]
        assert s.median_lateral < 0.01
        assert s.median_longitudinal < 0.01
        assert s.median_yaw_deg < 0.01
        assert failures == 0

    def test_row_count_matches_grid(self, small_scene):
        grid = [PerturbBounds(0.0, 0.0), PerturbBounds(1.0, 5.0),
                PerturbBounds(2.0, 10.0)]
        results, rows = run_bounds(small_scene, 2, grid, master_seed=1)
        assert [bounds for bounds, _, _ in results] == grid
        assert all(s.trial_count == 2 for _, s, _ in results)
        # row r = bound index * trials + trial, and carries its bound
        assert [r["trial"] for r in rows] == list(range(6))
        assert [(r["max_shift_m"], r["max_yaw_deg"]) for r in rows] == [
            (b.max_shift, b.max_yaw_deg) for b in grid for _ in range(2)]

    def test_deterministic(self, small_scene):
        grid = [PerturbBounds(2.0, 10.0), PerturbBounds(3.0, 10.0)]
        r1 = run_bounds(small_scene, 4, grid, master_seed=7)
        r2 = run_bounds(small_scene, 4, grid, master_seed=7)
        assert r1 == r2

    def test_first_bound_is_the_single_bound_eval(self, small_scene):
        grid = [PerturbBounds(4.0, 12.0), PerturbBounds(8.0, 24.0)]
        results, rows = run_bounds(small_scene, 3, grid, master_seed=5)
        summary, single, failures = run_eval(small_scene, 3, grid[0], master_seed=5)
        assert rows[:3] == single
        assert results[0] == (grid[0], summary, failures)
        # the second bound draws new seeds, not the first bound's again
        assert {r["seed"] for r in rows[3:]}.isdisjoint(r["seed"] for r in single)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_grid_rejected(self, small_scene, workers):
        with pytest.raises(ConfigError, match="bound grid is empty"):
            run_bounds(small_scene, 3, [], workers=workers)
