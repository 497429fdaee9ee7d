"""Synthetic scenes: zero-residual construction, determinism, perturbations."""

import math
import sys

import numpy as np
import pytest
from scipy import stats

from cvloc.cvls import save_scene
from cvloc.errors import DomainError, GenerationError
from cvloc.geometry import Pose3
from cvloc.harness.runner import perturbation_sweep
from cvloc.problem import evaluate_pose
from cvloc.losses import weighted_distance
from cvloc.solver import RobustCost
from cvloc.synth import PerturbBounds, SynthConfig, generate_scene, sample_initial_pose

from conftest import SMALL_SCENE_CFG


class TestGenerateScene:
    def test_zero_residual_at_truth_every_level(self, small_scene):
        for lvl in range(small_scene.level_count):
            ev = evaluate_pose(small_scene, small_scene.gt_pose, lvl)
            norms = np.linalg.norm(ev.alignment.residuals, axis=1)
            assert norms.max() < 1e-5

    def test_scene_files_bit_identical_per_seed(self, tmp_path):
        cfg = SMALL_SCENE_CFG
        a, b = tmp_path / "a.cvls", tmp_path / "b.cvls"
        save_scene(a, generate_scene(cfg))
        save_scene(b, generate_scene(cfg))
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_different_scene(self, tmp_path):
        from dataclasses import replace
        a, b = tmp_path / "a.cvls", tmp_path / "b.cvls"
        save_scene(a, generate_scene(SMALL_SCENE_CFG))
        save_scene(b, generate_scene(replace(SMALL_SCENE_CFG, seed=12)))
        assert a.read_bytes() != b.read_bytes()

    def test_satellite_maps_unit_normalized(self, small_scene):
        for lvl in range(small_scene.level_count):
            fmap = small_scene.sat_pyramid.feature(lvl)
            norms = np.linalg.norm(fmap.data.astype(np.float64), axis=-1)
            assert np.abs(norms - 1.0).max() < 1e-6

    def test_attention_in_range_random_smooth(self):
        from dataclasses import replace
        cfg = replace(SMALL_SCENE_CFG, attention_mode="random_smooth")
        problem = generate_scene(cfg)
        for lvl in range(problem.level_count):
            att = problem.sat_pyramid.attention(lvl).data
            assert att.min() >= 0.0 and att.max() <= 1.0
            assert att.std() > 0.0  # actually varies
        ev = evaluate_pose(problem, problem.gt_pose, 0)
        norms = np.linalg.norm(ev.alignment.residuals, axis=1)
        assert norms.max() < 1e-5  # construction unaffected by attention

    def test_gt_pose_offset_from_center(self):
        from dataclasses import replace
        cfg = replace(SMALL_SCENE_CFG, gt_pose=Pose3(2.0, -3.0, math.radians(20.0)))
        problem = generate_scene(cfg)
        ev = evaluate_pose(problem, problem.gt_pose, 0)
        norms = np.linalg.norm(ev.alignment.residuals, axis=1)
        assert norms.max() < 1e-5

    def test_too_many_points_rejected(self):
        from dataclasses import replace
        cfg = replace(SMALL_SCENE_CFG, point_count=100_000)
        with pytest.raises(GenerationError):
            generate_scene(cfg)

    def test_off_map_truth_rejected(self):
        from dataclasses import replace
        cfg = replace(SMALL_SCENE_CFG, gt_pose=Pose3(10_000.0, 0.0, 0.0))
        with pytest.raises(GenerationError):
            generate_scene(cfg)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SynthConfig(sat_size=32)
        with pytest.raises(DomainError):
            SynthConfig(point_count=5)
        with pytest.raises(DomainError):
            SynthConfig(point_depth_range=(10.0, 3.0))
        with pytest.raises(DomainError):
            SynthConfig(attention_mode="learned")
        # geometry that generate_scene could not build
        for bad in ({"gamma": 100000.0}, {"gamma": -0.2}, {"grd_focal": -5.0},
                    {"grd_width": 0}, {"grd_height": 0}):
            with pytest.raises(DomainError):
                SynthConfig(**bad)
        # integer fields take integers only, not floats or booleans
        for name in ("seed", "sat_size", "levels", "channels", "point_count",
                     "grd_width", "grd_height"):
            for value in (2.5, float(getattr(SynthConfig(), name)), True):
                with pytest.raises(DomainError, match=f"{name} must be an integer"):
                    SynthConfig(**{name: value})


class TestGridOracle:
    def test_weighted_distance_minimum_at_truth_cell(self, small_scene):
        # brute-force: the gt cell must beat every other cell on the grid
        cost = RobustCost()
        gt = small_scene.gt_pose
        best = None
        shifts = np.linspace(-5.0, 5.0, 21)
        yaws = np.radians(np.linspace(-15.0, 15.0, 11))
        dis_gt = weighted_distance(small_scene, gt, cost)
        for dl in shifts:
            for dn in shifts[::4]:  # thinned longitudinal axis keeps this fast
                for dy in yaws:
                    if dl == 0 and dn == 0 and dy == 0:
                        continue
                    pose = gt.with_delta((dl, dn, dy))
                    d = weighted_distance(small_scene, pose, cost)
                    best = d if best is None else min(best, d)
        assert dis_gt < best


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
