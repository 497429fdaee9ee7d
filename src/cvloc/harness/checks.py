"""User-runnable numeric self-checks.

Each check compares an analytic quantity against an independent reference
(central finite differences, a dense least-squares solve, lookups that
build their own bilinear corners, or normal equations from the formed
Jacobian) and reports the worst observed error against a fixed tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import solver
from ..features import (AttentionMap, attention_lookup_many, bilinear_lookup_many,
                        bilinear_weights)
from ..geometry import (Pose3, PoseContext, SatelliteGeoref,
                        d_satproj_d_pose_many, pose_to_transform,
                        project_satellite, transform_points)
from ..problem import evaluate_pose, ground_level_data
from ..solver import (RobustCost, build_jacobian, build_weight_matrix, lm_step,
                      normal_equations)
from ..synth import SynthConfig, generate_scene

_FD_STEP = 1e-4
_POSE_AXES = ("lateral", "longitudinal", "yaw")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_error: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f"[{status}] {self.name}: max error {self.max_error:.3e} (tol {self.tolerance:.1e})"
        if self.detail:
            msg += f" ({self.detail})"
        return msg


@dataclass(frozen=True)
class NumericsReport:
    results: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def as_text(self) -> str:
        lines = [r.line() for r in self.results]
        lines.append("all checks passed" if self.passed else "NUMERIC CHECKS FAILED")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": r.name, "passed": r.passed, "max_error": r.max_error,
                 "tolerance": r.tolerance, "detail": r.detail}
                for r in self.results
            ],
        }


def _fd_sat_uv(point, pose, ctx, georef, axis, h):
    step = np.zeros(3)
    step[axis] = h
    uv_plus = project_satellite(
        transform_points(point, pose_to_transform(pose.with_delta(step), ctx)), georef)
    uv_minus = project_satellite(
        transform_points(point, pose_to_transform(pose.with_delta(-step), ctx)), georef)
    return (uv_plus - uv_minus) / (2.0 * h)


def _check_projection_jacobian(rng, draws=100):
    """Per-column FD comparison of the satellite projection Jacobian."""
    worst = np.zeros(3)
    tol = 1e-4
    for _ in range(draws):
        georef = SatelliteGeoref(255.5, float(rng.uniform(0.1, 0.5)))
        ctx = PoseContext(height=float(rng.uniform(-3, 0)))
        pose = Pose3(float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20)),
                     float(rng.uniform(-np.pi, np.pi)))
        pts = rng.uniform(-30, 30, size=(8, 3))
        pts[:, 2] = rng.uniform(2, 40, size=8)
        analytic = d_satproj_d_pose_many(
            transform_points(pts, pose_to_transform(pose, ctx)), pose, georef)
        for axis in range(3):
            fd = _fd_sat_uv(pts, pose, ctx, georef, axis, _FD_STEP)
            scale = max(float(np.max(np.abs(fd))), 1e-6)
            err = float(np.max(np.abs(analytic[:, :, axis] - fd))) / scale
            worst[axis] = max(worst[axis], err)
    results = []
    for axis, name in enumerate(_POSE_AXES):
        results.append(CheckResult(
            name=f"projection_jacobian/{name}_column",
            passed=bool(worst[axis] <= tol), max_error=float(worst[axis]),
            tolerance=tol, detail=f"{draws} random draws vs central differences"))
    return results


def _check_translation_block(rng, draws=50):
    """Translation columns of the projection Jacobian have norm 1/gamma."""
    tol = 1e-12
    worst = 0.0
    for _ in range(draws):
        gamma = float(rng.uniform(0.05, 1.0))
        georef = SatelliteGeoref(255.5, gamma)
        pose = Pose3(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)),
                     float(rng.uniform(-np.pi, np.pi)))
        pts = rng.uniform(-10, 10, size=(4, 3))
        jac = d_satproj_d_pose_many(
            transform_points(pts, pose_to_transform(pose, PoseContext())), pose, georef)
        norms = np.linalg.norm(jac[:, :, :2], axis=1)
        worst = max(worst, float(np.max(np.abs(norms * gamma - 1.0))))
    return [CheckResult(name="projection_jacobian/translation_block_norm",
                        passed=worst <= tol, max_error=worst, tolerance=tol,
                        detail="column norms times gamma vs 1")]


def _check_bilinear_gradient(rng, n_points=1000):
    """Interpolant gradient vs central differences at cell interiors."""
    tol = 1e-5
    data = rng.standard_normal((40, 50, 3))
    base_u = rng.integers(1, 48, size=n_points)
    base_v = rng.integers(1, 38, size=n_points)
    uv = np.stack([base_u + rng.uniform(0.05, 0.95, n_points),
                   base_v + rng.uniform(0.05, 0.95, n_points)], axis=1)
    _, grads, _ = bilinear_lookup_many(data, uv)
    h = _FD_STEP
    worst = 0.0
    for axis in range(2):
        step = np.zeros(2)
        step[axis] = h
        vp, _, _ = bilinear_lookup_many(data, uv + step)
        vm, _, _ = bilinear_lookup_many(data, uv - step)
        fd = (vp - vm) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(grads[:, :, axis] - fd))))
    return [CheckResult(name="bilinear_gradient", passed=worst <= tol,
                        max_error=worst, tolerance=tol,
                        detail=f"{n_points} interior sub-pixel lookups")]


def _check_lm_step(rng, systems=20):
    """lam=0 step vs dense weighted least squares; step norm shrinks with lam."""
    tol = 1e-8
    worst = 0.0
    ladder_ok = True
    for _ in range(systems):
        m = int(rng.integers(10, 60))
        jac = rng.standard_normal((m, 3))
        w = rng.uniform(0.1, 2.0, size=m)
        res = rng.standard_normal(m)
        hess, grad = normal_equations(jac, w, res)
        delta = lm_step(hess, grad, 0.0)
        sqrt_w = np.sqrt(w)
        ref, *_ = np.linalg.lstsq(jac * sqrt_w[:, None], -res * sqrt_w, rcond=None)
        worst = max(worst, float(np.max(np.abs(delta - ref))))
        norms = [float(np.linalg.norm(lm_step(hess, grad, lam)))
                 for lam in np.logspace(-4, 4, 10)]
        if any(b > a + 1e-12 for a, b in zip(norms, norms[1:])):
            ladder_ok = False
    return [
        CheckResult(name="lm_step/closed_form", passed=worst <= tol,
                    max_error=worst, tolerance=tol,
                    detail=f"{systems} random systems vs lstsq"),
        CheckResult(name="lm_step/damping_monotonic", passed=ladder_ok,
                    max_error=0.0 if ladder_ok else 1.0, tolerance=0.0,
                    detail="step norm non-increasing over a 10-point lambda ladder"),
    ]


def _safe_fd_points(problem, pose, level, h_max):
    """Points whose satellite lookups stay inside one interpolation cell."""
    _, _, georef = problem.satellite_level(level)
    pts_sat = transform_points(problem.points, pose_to_transform(pose, problem.ctx))
    uv = project_satellite(pts_sat, georef)
    fmap = problem.sat_pyramid.feature(level)
    # Worst-case pixel motion over the FD probes: shifts move pixels by
    # h/gamma, yaw by r*h/gamma with r the planar radius.
    radius = np.linalg.norm(pts_sat[:, :2], axis=1)
    move = h_max * np.maximum(1.0, radius) / georef.gamma + 1e-3
    frac = uv - np.floor(uv)
    interior = np.all((frac > move[:, None]) & (frac < 1.0 - move[:, None]), axis=1)
    inside = ((uv[:, 0] > 1) & (uv[:, 0] < fmap.width - 2)
              & (uv[:, 1] > 1) & (uv[:, 1] < fmap.height - 2))
    return interior & inside


def _small_scene(rng):
    # depth range chosen so every point sits inside the 64 px, 0.2 m/px
    # satellite crop near the true pose
    return generate_scene(SynthConfig(
        seed=int(rng.integers(0, 2**31)), sat_size=64, levels=1, channels=4,
        point_count=48, grd_width=128, grd_height=64, grd_focal=60.0,
        point_depth_range=(2.5, 5.5), feature_smoothness=4.0))


def _check_residual_jacobian(rng, scenes=8):
    """Full-chain residual Jacobian vs FD on small synthetic scenes."""
    tol = 1e-3
    worst = 0.0
    for i in range(scenes):
        problem = _small_scene(rng)
        pose = Pose3(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)),
                     float(rng.uniform(-0.1, 0.1)))
        ground = ground_level_data(problem, 0)
        jac = build_jacobian(problem, pose, level=0)
        n, c = problem.points.count, problem.sat_pyramid.feature(0).channels

        safe = _safe_fd_points(problem, pose, 0, _FD_STEP)
        base_valid = evaluate_pose(problem, pose, 0, ground=ground).alignment.valid_mask
        safe &= base_valid
        if not np.any(safe):
            continue

        fd = np.empty((n * c, 3))
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = _FD_STEP
            rp = evaluate_pose(problem, pose.with_delta(step), 0,
                               ground=ground).alignment.residuals
            rm = evaluate_pose(problem, pose.with_delta(-step), 0,
                               ground=ground).alignment.residuals
            fd[:, axis] = ((rp - rm) / (2.0 * _FD_STEP)).reshape(-1)

        blocks_a = jac.reshape(n, c, 3)[safe]
        blocks_f = fd.reshape(n, c, 3)[safe]
        scale = np.maximum(np.abs(blocks_f).max(axis=(1, 2)), 1e-6)
        err = np.abs(blocks_a - blocks_f).max(axis=(1, 2)) / scale
        worst = max(worst, float(err.max()))
    return [CheckResult(name="residual_jacobian", passed=worst <= tol,
                        max_error=worst, tolerance=tol,
                        detail=f"{scenes} small scenes, interior-cell points")]


def _check_shared_corners(rng, n_points=1000):
    """Lookups on one shared corner build vs lookups that build their own."""
    shape = (40, 50, 3)
    data = rng.standard_normal(shape).astype(np.float32)
    amap = AttentionMap(rng.uniform(0.0, 1.0, shape[:2]).astype(np.float32))
    # about a third of the coordinates fall outside the map
    uv = np.stack([rng.uniform(-5.0, 54.0, n_points),
                   rng.uniform(-4.0, 43.0, n_points)], axis=1)
    corners = bilinear_weights(shape[:2], uv)
    pairs = list(zip(bilinear_lookup_many(data, uv, corners), bilinear_lookup_many(data, uv)))
    pairs += zip(attention_lookup_many(amap, uv, corners), attention_lookup_many(amap, uv))
    worst = max(float(np.max(np.abs(np.subtract(a, b, dtype=np.float64)))) for a, b in pairs)
    tol = 0.0
    outside = int(np.sum(~corners[4]))
    return [CheckResult(name="shared_corner_lookup", passed=worst <= tol, max_error=worst,
                        tolerance=tol, detail=f"{n_points} lookups, {outside} outside the map")]


def _check_normal_equations(rng, scenes=8):
    """The solver's H and g, assembled from the gradient planes, vs the dense
    J^T W J and J^T W r of the formed Jacobian."""
    tol = 1e-10
    worst = 0.0
    masked = 0
    cost = RobustCost()
    for _ in range(scenes):
        problem = _small_scene(rng)
        # shifts of up to 5 m move some points off the 12.8 m crop
        pose = Pose3(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)),
                     float(rng.uniform(-0.3, 0.3)))
        ev = evaluate_pose(problem, pose, 0)
        masked += int(np.sum(~ev.alignment.valid_mask))
        _, _, georef = problem.satellite_level(0)
        proj_jac = d_satproj_d_pose_many(ev.pts_sat, pose, georef)
        w_points = build_weight_matrix(ev.alignment.weights, ev.sq_norms, cost)
        from_planes = solver._normal_equations(ev, proj_jac, w_points)
        dense = normal_equations(build_jacobian(problem, pose, 0), w_points,
                                 ev.alignment.residuals)
        for got, want in zip(from_planes, dense):
            scale = max(float(np.max(np.abs(want))), np.finfo(float).tiny)
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    return [CheckResult(name="normal_equations/planes_vs_dense", passed=worst <= tol,
                        max_error=worst, tolerance=tol,
                        detail=f"{scenes} small scenes, {masked} masked points")]


def check_numerics(seed: int = 0) -> NumericsReport:
    """Run the full self-check battery."""
    rng = np.random.default_rng(seed)
    results = []
    results += _check_projection_jacobian(rng)
    results += _check_translation_block(rng)
    results += _check_bilinear_gradient(rng)
    results += _check_lm_step(rng)
    results += _check_residual_jacobian(rng)
    results += _check_shared_corners(rng)
    results += _check_normal_equations(rng)
    return NumericsReport(results=tuple(results))
