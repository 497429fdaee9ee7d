"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line; run with `pytest -s` to see them
even on success.
"""

import math
import time
from dataclasses import replace

import numpy as np

from cvloc.cvls import load_scene, save_scene
from cvloc.geometry import Pose3, SatelliteGeoref
from cvloc.harness.checks import (fd_scene, grid_argmin_margin, lm_step_error,
                                  projection_jacobian_error, residual_jacobian_error)
from cvloc.harness.runner import run_bounds
from cvloc.metrics import pose_error, summarize
from cvloc.solver import RobustCost, refine_pose
from cvloc.synth import PerturbBounds, generate_scene, sample_initial_pose

from conftest import SMALL_SCENE_CFG


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


class TestAcceptance:
    def test_jacobian_fidelity(self):
        """Residual Jacobian vs finite differences on 100 seeded scenes."""
        start = time.perf_counter()
        rng = np.random.default_rng(100)
        worst = 0.0
        checked = 0
        for i in range(100):
            pose = Pose3(float(rng.uniform(-0.4, 0.4)), float(rng.uniform(-0.4, 0.4)),
                         float(rng.uniform(-0.08, 0.08)))
            error, n = residual_jacobian_error(fd_scene(10_000 + i), pose)
            worst, checked = max(worst, error), checked + n
        elapsed = time.perf_counter() - start
        # more than half of the 100 scenes' 4800 points must be FD-safe
        ok = worst < 1e-3 and checked > 2400 and elapsed < 30.0
        _report("jacobian_fidelity", ok,
                f"max rel err {worst:.2e} over {checked} point blocks "
                f"(tol 1e-3, > 2400 blocks), {elapsed:.1f}s (< 30s)")

    def test_projection_jacobian_fidelity(self):
        """Analytic projection Jacobian vs finite differences, 100 draws."""
        rng = np.random.default_rng(7)
        georef = SatelliteGeoref(255.5, 0.2)
        worst_fd = 0.0
        worst_block = 0.0
        for _ in range(100):
            pose = Pose3(float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20)),
                         float(rng.uniform(-math.pi, math.pi)))
            pts = np.column_stack([rng.uniform(-30, 30, 5), rng.uniform(-5, 5, 5),
                                   rng.uniform(2, 40, 5)])
            column_error, block_error, _ = projection_jacobian_error(pts, pose, georef)
            worst_fd = max(worst_fd, float(column_error.max()))
            worst_block = max(worst_block, block_error)
        ok = worst_fd < 1e-4 and worst_block < 1e-12
        _report("projection_jacobian_fidelity", ok,
                f"FD rel err {worst_fd:.2e} (tol 1e-4), translation-block "
                f"norm dev {worst_block:.2e} (exact)")

    def test_lm_exactness(self):
        """lam=0 equals the dense least-squares oracle; damping shrinks steps."""
        rng = np.random.default_rng(13)
        worst = 0.0
        ladder_ok = True
        for _ in range(50):
            m = int(rng.integers(8, 100))
            deviation, monotone = lm_step_error(rng.standard_normal((m, 3)),
                                                rng.uniform(0.05, 2.0, m),
                                                rng.standard_normal(m))
            worst = max(worst, deviation)
            ladder_ok &= monotone
        ok = worst < 1e-8 and ladder_ok
        _report("lm_exactness", ok,
                f"max dev from dense solve {worst:.2e} (tol 1e-8), "
                f"10-point lambda ladder monotone: {ladder_ok}")

    def test_convergence_suite(self, default_scene):
        """100 seeded trials at the 10 m / 30 deg perturbation protocol."""
        start = time.perf_counter()
        bounds = PerturbBounds(10.0, 30.0)
        errors = []
        for trial in range(100):
            init = sample_initial_pose(default_scene.gt_pose, bounds, 20_000 + trial)
            report = refine_pose(default_scene, init)
            errors.append(pose_error(report.final_pose, default_scene.gt_pose))
        elapsed = time.perf_counter() - start
        s = summarize(errors)
        ok = (s.recall_lateral[1.0] >= 90.0 and s.recall_longitudinal[1.0] >= 90.0
              and s.recall_yaw[2.0] >= 90.0
              and s.median_lateral < 0.25 and s.median_longitudinal < 0.25
              and s.median_yaw_deg < 0.5 and elapsed < 600.0)
        _report("convergence_suite", ok,
                f"recall@1m lat {s.recall_lateral[1.0]:.0f}/lon "
                f"{s.recall_longitudinal[1.0]:.0f} (>=90), yaw@2deg "
                f"{s.recall_yaw[2.0]:.0f} (>=90), medians "
                f"{s.median_lateral:.3f}m/{s.median_longitudinal:.3f}m/"
                f"{s.median_yaw_deg:.3f}deg, {elapsed:.0f}s (< 600s)")

    def test_robustness_curve(self, default_scene):
        """recall@1m monotone non-increasing over widening bounds."""
        grid = [PerturbBounds(5, 15), PerturbBounds(10, 30),
                PerturbBounds(15, 45), PerturbBounds(20, 60)]
        results, _ = run_bounds(default_scene, 100, grid, workers=2, master_seed=77)
        recalls = [min(s.recall_lateral[1.0], s.recall_longitudinal[1.0])
                   for _, s, _ in results]
        ok = all(b <= a + 2.0 for a, b in zip(recalls, recalls[1:]))
        _report("robustness_curve", ok,
                "recall@1m per bound " + ", ".join(f"{r:.0f}" for r in recalls)
                + " (non-increasing within 2pp)")

    def test_grid_oracle_optimality(self):
        """Brute-force weighted-distance grid attains its minimum at truth."""
        start = time.perf_counter()
        shifts = np.linspace(-5.0, 5.0, 21)
        yaws = np.radians(np.linspace(-15.0, 15.0, 11))
        margins = []
        for i in range(10):
            cfg = replace(SMALL_SCENE_CFG, seed=300 + i)
            margin, cells = grid_argmin_margin(generate_scene(cfg), RobustCost(),
                                               shifts, shifts, yaws)
            assert cells == 21 * 21 * 11 - 1
            margins.append(margin)
        elapsed = time.perf_counter() - start
        ok = min(margins) > 0 and elapsed < 300.0
        _report("grid_oracle_optimality", ok,
                f"10 scenes, smallest margin of the gt cell {min(margins):.3e} (> 0), "
                f"{elapsed:.0f}s (< 300s)")

    def test_format_and_determinism(self, tmp_path):
        """CVLS round-trips bit-exactly; eval CSVs ignore worker count."""
        from cvloc.harness import runner

        problem = generate_scene(SMALL_SCENE_CFG)
        p1 = tmp_path / "scene.cvls"
        save_scene(p1, problem)
        loaded = load_scene(p1)
        arrays_ok = all(
            np.array_equal(loaded.sat_pyramid.feature(l).data,
                           problem.sat_pyramid.feature(l).data)
            and np.array_equal(loaded.grd_pyramid.feature(l).data,
                               problem.grd_pyramid.feature(l).data)
            and np.array_equal(loaded.sat_pyramid.attention(l).data,
                               problem.sat_pyramid.attention(l).data)
            for l in range(problem.level_count))
        p2 = tmp_path / "resaved.cvls"
        save_scene(p2, loaded)
        bytes_ok = p1.read_bytes() == p2.read_bytes()

        bounds = PerturbBounds(3.0, 10.0)
        _, rows1, _ = runner.run_eval(problem, 8, bounds, workers=1, master_seed=3)
        _, rows4, _ = runner.run_eval(problem, 8, bounds, workers=4, master_seed=3)
        c1, c4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
        runner.write_trials_csv(c1, rows1)
        runner.write_trials_csv(c4, rows4)
        csv_ok = c1.read_bytes() == c4.read_bytes()

        ok = arrays_ok and bytes_ok and csv_ok
        _report("format_and_determinism", ok,
                f"payload bit-exact {arrays_ok}, file stable {bytes_ok}, "
                f"CSV worker-invariant {csv_ok}")

