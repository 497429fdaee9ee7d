"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line; run with `pytest -s` to see them
even on success.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cvloc.cvls import load_scene, save_scene
from cvloc.geometry import (Pose3, d_satproj_d_pose_many, meters_per_pixel,
                            pose_to_transform, project_satellite, transform_points)
from cvloc.harness.runner import perturbation_sweep
from cvloc.losses import pab_weight, triplet_loss, weighted_distance
from cvloc.metrics import pose_error, summarize
from cvloc.problem import evaluate_pose, ground_level_data
from cvloc.solver import (RobustCost, build_jacobian, lm_step, normal_equations, refine_pose,
                          weighted_cost)
from cvloc.synth import PerturbBounds, SynthConfig, generate_scene, sample_initial_pose

from conftest import SMALL_SCENE_CFG


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _small_cfg(seed: int) -> SynthConfig:
    return SynthConfig(seed=seed, sat_size=64, levels=1, channels=4,
                       point_count=48, grd_width=128, grd_height=64,
                       grd_focal=60.0, point_depth_range=(2.5, 5.5),
                       feature_smoothness=4.0)


class TestAcceptance:
    def test_jacobian_fidelity(self):
        """Residual Jacobian vs finite differences on 100 seeded scenes."""
        start = time.perf_counter()
        h = 1e-5
        rng = np.random.default_rng(100)
        worst = 0.0
        checked = 0
        for i in range(100):
            problem = generate_scene(_small_cfg(seed=10_000 + i))
            pose = Pose3(float(rng.uniform(-0.4, 0.4)), float(rng.uniform(-0.4, 0.4)),
                         float(rng.uniform(-0.08, 0.08)))
            ground = ground_level_data(problem, 0)
            jac = build_jacobian(problem, pose, 0)
            n = problem.points.count
            c = problem.sat_pyramid.feature(0).channels

            fd = np.empty((n * c, 3))
            for axis in range(3):
                step = np.zeros(3)
                step[axis] = h
                rp = evaluate_pose(problem, pose.with_delta(step), 0,
                                   ground=ground).alignment.residuals
                rm = evaluate_pose(problem, pose.with_delta(-step), 0,
                                   ground=ground).alignment.residuals
                fd[:, axis] = ((rp - rm) / (2 * h)).reshape(-1)

            safe = _interior_cells(problem, pose, 0, h)
            if not np.any(safe):
                continue
            blocks_a = jac.reshape(n, c, 3)[safe]
            blocks_f = fd.reshape(n, c, 3)[safe]
            scale = np.maximum(np.abs(blocks_f).max(axis=(1, 2)), 1e-6)
            rel = np.abs(blocks_a - blocks_f).max(axis=(1, 2)) / scale
            worst = max(worst, float(rel.max()))
            checked += int(safe.sum())
        elapsed = time.perf_counter() - start
        ok = worst < 1e-3 and elapsed < 30.0
        _report("jacobian_fidelity", ok,
                f"max rel err {worst:.2e} over {checked} point blocks "
                f"(tol 1e-3), {elapsed:.1f}s (< 30s)")

    def test_projection_jacobian_fidelity(self):
        """Analytic projection Jacobian vs finite differences, 100 draws."""
        from cvloc.geometry import PoseContext, SatelliteGeoref

        rng = np.random.default_rng(7)
        georef = SatelliteGeoref(255.5, 0.2)
        ctx = PoseContext(height=-1.6)
        h = 1e-4
        worst_fd = 0.0
        worst_block = 0.0
        for _ in range(100):
            pose = Pose3(float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20)),
                         float(rng.uniform(-math.pi, math.pi)))
            pts = np.column_stack([rng.uniform(-30, 30, 5), rng.uniform(-5, 5, 5),
                                   rng.uniform(2, 40, 5)])
            jac = d_satproj_d_pose_many(
                transform_points(pts, pose_to_transform(pose, ctx)), pose, georef)
            fd = np.empty_like(jac)
            for axis in range(3):
                step = np.zeros(3)
                step[axis] = h
                up = project_satellite(transform_points(
                    pts, pose_to_transform(pose.with_delta(step), ctx)), georef)
                dn = project_satellite(transform_points(
                    pts, pose_to_transform(pose.with_delta(-step), ctx)), georef)
                fd[:, :, axis] = (up - dn) / (2 * h)
            scale = max(float(np.abs(fd).max()), 1e-9)
            worst_fd = max(worst_fd, float(np.abs(jac - fd).max()) / scale)
            norms = np.linalg.norm(jac[:, :, :2], axis=1)
            worst_block = max(worst_block,
                              float(np.abs(norms * georef.gamma - 1.0).max()))
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
            jac = rng.standard_normal((m, 3))
            w = rng.uniform(0.05, 2.0, m)
            res = rng.standard_normal(m)
            hess, grad = normal_equations(jac, w, res)
            delta = lm_step(hess, grad, 0.0)
            sw = np.sqrt(w)
            oracle, *_ = np.linalg.lstsq(jac * sw[:, None], -res * sw, rcond=None)
            worst = max(worst, float(np.abs(delta - oracle).max()))
            norms = [float(np.linalg.norm(lm_step(hess, grad, lam)))
                     for lam in np.logspace(-4, 4, 10)]
            ladder_ok &= all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
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
        rows = perturbation_sweep(default_scene, grid, trials_per_bound=100, seed=77)
        recalls = [min(r.summary.recall_lateral[1.0],
                       r.summary.recall_longitudinal[1.0]) for r in rows]
        ok = all(b <= a + 2.0 for a, b in zip(recalls, recalls[1:]))
        _report("robustness_curve", ok,
                "recall@1m per bound " + ", ".join(f"{r:.0f}" for r in recalls)
                + " (non-increasing within 2pp)")

    def test_loss_exactness(self):
        """Triplet loss and gating weight at their pinned probe points."""
        ln2_dev = abs(triplet_loss(3.0, 3.0, 10.0) - math.log(2.0))
        probes_ok = all(pab_weight(x) == y for x, y in
                        [(5.0, 0.0), (10.0, 10.0), (30.0, 30.0), (50.0, 50.0),
                         (100.0, 50.0)])
        big = triplet_loss(1e-8, 1.0, alpha=1e4)  # alpha*(1-ratio) ~= 1e4
        overflow_ok = math.isfinite(big) and abs(big - 1e4) < 1.0
        ok = ln2_dev <= 1e-12 and probes_ok and overflow_ok
        _report("loss_exactness", ok,
                f"triplet(d,d) dev {ln2_dev:.1e} (tol 1e-12), gate probes "
                f"{probes_ok}, softplus at 1e4 arg finite {overflow_ok}")

    def test_meter_per_pixel_reference(self):
        """Tile resolution at the dataset latitude is about 0.2 m/px."""
        val = meters_per_pixel(49.0, 18, 2)
        ok = 0.195 <= val <= 0.197
        _report("meters_per_pixel_reference", ok, f"{val:.6f} in [0.195, 0.197]")

    def test_grid_oracle_optimality(self):
        """Brute-force weighted-distance grid attains its minimum at truth."""
        start = time.perf_counter()
        cost = RobustCost()
        shifts = np.linspace(-5.0, 5.0, 21)
        yaws = np.radians(np.linspace(-15.0, 15.0, 11))
        all_ok = True
        margins = []
        for i in range(10):
            cfg = replace(SMALL_SCENE_CFG, seed=300 + i,
                          gt_pose=Pose3(0.0, 0.0, 0.0))
            problem = generate_scene(cfg)
            ground = ground_level_data(problem, 0)

            def dis(pose):
                ev = evaluate_pose(problem, pose, 0, ground=ground)
                if not np.any(ev.alignment.valid_mask):
                    return np.inf
                return weighted_cost(ev.alignment.weights, ev.sq_norms, cost)

            # the cached evaluation path must agree with the public quantity
            assert dis(problem.gt_pose) == pytest.approx(
                weighted_distance(problem, problem.gt_pose, cost), abs=1e-12)

            values = np.empty((21, 21, 11))
            for a, dl in enumerate(shifts):
                for b, dn in enumerate(shifts):
                    for g, dy in enumerate(yaws):
                        values[a, b, g] = dis(problem.gt_pose.with_delta((dl, dn, dy)))
            min_idx = np.unravel_index(np.argmin(values), values.shape)
            all_ok &= min_idx == (10, 10, 5)
            others = np.delete(values.reshape(-1), np.ravel_multi_index(min_idx,
                                                                        values.shape))
            margins.append(float(others.min() / max(values[min_idx], 1e-300)))
        elapsed = time.perf_counter() - start
        ok = all_ok and elapsed < 300.0
        _report("grid_oracle_optimality", ok,
                f"10 scenes, gt cell is argmin: {all_ok}, {elapsed:.0f}s (< 300s)")

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


def _interior_cells(problem, pose, level, h):
    """Points whose satellite lookups stay inside one cell under FD probes."""
    _, _, georef = problem.satellite_level(level)
    pts = transform_points(problem.points, pose_to_transform(pose, problem.ctx))
    from cvloc.geometry import project_satellite as proj

    uv = proj(pts, georef)
    radius = np.linalg.norm(pts[:, :2], axis=1)
    motion = h * np.maximum(1.0, radius) / georef.gamma + 1e-4
    frac = uv - np.floor(uv)
    fmap = problem.sat_pyramid.feature(level)
    ok = np.all((frac > motion[:, None]) & (frac < 1 - motion[:, None]), axis=1)
    ok &= (uv[:, 0] > 1) & (uv[:, 0] < fmap.width - 2)
    ok &= (uv[:, 1] > 1) & (uv[:, 1] < fmap.height - 2)
    ok &= evaluate_pose(problem, pose, level).alignment.valid_mask
    return ok
