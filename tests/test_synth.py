"""Synthetic scenes: zero-residual construction, determinism, perturbations."""

import hashlib
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage, stats

from cvloc.cvls import save_scene
from cvloc.errors import DomainError, GenerationError
from cvloc.geometry import Pose3
from cvloc.harness.checks import grid_argmin_margin
from cvloc.harness.runner import perturbation_sweep
from cvloc.problem import evaluate_pose
from cvloc.solver import RobustCost
from cvloc.synth import (PerturbBounds, SynthConfig, _submit_smoothing, generate_scene,
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

    def test_gt_pose_offset_from_center(self):
        cfg = replace(SMALL_SCENE_CFG, gt_pose=Pose3(2.0, -3.0, math.radians(20.0)))
        problem = generate_scene(cfg)
        ev = evaluate_pose(problem, problem.gt_pose, 0)
        norms = np.linalg.norm(ev.alignment.residuals, axis=1)
        assert norms.max() < 1e-5

    def test_too_many_points_rejected(self):
        cfg = replace(SMALL_SCENE_CFG, point_count=100_000)
        with pytest.raises(GenerationError):
            generate_scene(cfg)

    def test_off_map_truth_rejected(self):
        cfg = replace(SMALL_SCENE_CFG, gt_pose=Pose3(10_000.0, 0.0, 0.0))
        with pytest.raises(GenerationError):
            generate_scene(cfg)

    def test_feature_smoothness_bounded_by_sat_size(self):
        # the filter's kernel reaches 4 sigma: a wider one only costs time and memory
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
        SynthConfig(point_depth_range=(1.0, f32_max / slope * (1 - 1e-6)))
        SynthConfig(point_depth_range=(1.0, f32_max * 0.99), grd_focal=1e4)
        for hi in (f32_max / slope * (1 + 1e-6), f32_max, 1e300):
            with pytest.raises(DomainError, match="float32"):
                SynthConfig(point_depth_range=(1.0, hi))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SynthConfig(sat_size=32)
        with pytest.raises(DomainError):
            SynthConfig(point_count=5)
        with pytest.raises(DomainError):
            SynthConfig(point_depth_range=(10.0, 3.0))
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


#: SHA-256 of the ``save_scene`` bytes of generated scenes. The default
#: scene's was recorded when the satellite pyramid was smoothed serially.
#: The small scene has 3 channels: uneven channel blocks on any CPU count
#: above 1.
_SCENE_SHA256 = {
    "default-seed-42": (SynthConfig(seed=42),
                        "de2aa876c0a86f7b7f3895d86d3eeb727f941a8eb10bb703b1f24bb0bd594ee3"),
    "small-c3": (replace(SMALL_SCENE_CFG, channels=3),
                 "6e00683ddf73c0581ecef0a3fb964f0d8d783cd370f799d6674f246e293cdefc"),
}


class TestParallelSmoothing:
    """Smoothing on a thread pool leaves the scene bytes as they were."""

    @pytest.mark.parametrize("name", sorted(_SCENE_SHA256))
    def test_scene_bytes_pinned(self, name, tmp_path):
        cfg, digest = _SCENE_SHA256[name]
        assert _scene_sha256(cfg, tmp_path / "s.cvls") == digest

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("name", sorted(_SCENE_SHA256))
    def test_bytes_do_not_depend_on_cpu_count(self, name, cpus, tmp_path, monkeypatch):
        cfg, _ = _SCENE_SHA256[name]
        default = _scene_sha256(cfg, tmp_path / "default.cvls")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert _scene_sha256(cfg, tmp_path / "pinned.cvls") == default

    def test_no_thread_outlives_generation(self):
        before = set(threading.enumerate())
        generate_scene(SMALL_SCENE_CFG)
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("blocks", [1, 2, 3, 5])
    @pytest.mark.parametrize("shape", [(37, 41, 1), (37, 41, 3), (37, 41, 8)])
    def test_blocks_equal_one_filter_call(self, shape, blocks):
        noise = np.random.default_rng(len(shape) + shape[-1]).standard_normal(shape)
        sigma = 4.0
        whole = ndimage.gaussian_filter(noise, (sigma, sigma, 0.0), mode="wrap")
        as_float32 = np.empty(shape, dtype=np.float32)
        with ThreadPoolExecutor(max_workers=2) as pool:
            for task in _submit_smoothing(pool, noise, sigma, blocks, out=as_float32):
                task.result()
        assert np.array_equal(noise, whole)
        assert np.array_equal(as_float32, whole.astype(np.float32))


class TestGridOracle:
    def test_weighted_distance_minimum_at_truth_cell(self, small_scene):
        # brute-force: the gt cell must beat every other cell on the grid
        shifts = np.linspace(-5.0, 5.0, 21)
        yaws = np.radians(np.linspace(-15.0, 15.0, 11))
        # thinned longitudinal axis keeps this fast; it holds no zero offset
        margin, cells = grid_argmin_margin(small_scene, RobustCost(), shifts,
                                           shifts[::4], yaws)
        assert cells == 21 * 6 * 11
        assert margin > 0


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


class TestPerturbationSweep:
    def test_zero_bound_row_is_exact(self, small_scene):
        rows = perturbation_sweep(small_scene, [PerturbBounds(0.0, 0.0)],
                                  trials_per_bound=3, seed=0)
        assert len(rows) == 1
        s = rows[0].summary
        assert s.median_lateral < 0.01
        assert s.median_longitudinal < 0.01
        assert s.median_yaw_deg < 0.01
        assert rows[0].failures == 0

    def test_row_count_matches_grid(self, small_scene):
        grid = [PerturbBounds(0.0, 0.0), PerturbBounds(1.0, 5.0),
                PerturbBounds(2.0, 10.0)]
        rows = perturbation_sweep(small_scene, grid, trials_per_bound=2, seed=1)
        assert len(rows) == len(grid)
        assert [r.bounds for r in rows] == grid

    def test_deterministic(self, small_scene):
        grid = [PerturbBounds(2.0, 10.0)]
        r1 = perturbation_sweep(small_scene, grid, 4, seed=7)
        r2 = perturbation_sweep(small_scene, grid, 4, seed=7)
        assert r1 == r2
