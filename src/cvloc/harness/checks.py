"""User-runnable numeric self-checks, and the oracles the tests share.

Each oracle compares an analytic quantity against an independent reference
(central finite differences, a dense least-squares solve, or normal
equations from the formed Jacobian) on the inputs it is given, and returns
the worst error with the number of items compared. The grid-argmin oracle
compares the cost at the true pose with a brute-force grid around it. The
battery runs each other oracle over random draws and reports the worst
error against a fixed tolerance; a check that compared nothing fails.
It also holds the dense references that the solver never forms:
``build_jacobian``, ``normal_equations`` and ``weighted_distance``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .. import solver
from ..errors import DegenerateProblemError
from ..features import (AttentionMap, attention_lookup_many, bilinear_lookup_many,
                        bilinear_weights)
from ..geometry import (Pose3, SatelliteGeoref, d_satproj_d_pose_many,
                        pose_to_transform, project_satellite, transform_points)
from ..problem import AlignmentProblem, evaluate_pose
from ..solver import RobustCost, build_weight_matrix, lm_step, weighted_cost
from ..synth import SynthConfig, generate_scene

_FD_STEP = 1e-4
_POSE_AXES = ("lateral", "longitudinal", "yaw")


@dataclass(frozen=True)
class CheckResult:
    """The worst error of one check over ``compared`` items."""

    name: str
    max_error: float
    tolerance: float
    compared: int
    detail: str

    @property
    def passed(self) -> bool:
        return self.compared > 0 and self.max_error <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: max error {self.max_error:.3e} "
                f"(tol {self.tolerance:.1e}) over {self.compared} {self.detail}")


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


def fd_scene(seed: int) -> AlignmentProblem:
    """A one-level, 48-point scene small enough for finite differences.

    Its depth range puts every point inside the 64 px, 0.2 m/px satellite
    crop near the true pose.
    """
    return generate_scene(SynthConfig(
        seed=seed, sat_size=64, levels=1, channels=4, point_count=48,
        grd_width=128, grd_height=64, grd_focal=60.0,
        depth_min=2.5, depth_max=5.5, feature_smoothness=4.0))


def _central_differences(f, dims: int) -> np.ndarray:
    """(f(h e_k) - f(-h e_k)) / 2h for each of ``dims`` axes, stacked last."""
    columns = []
    for axis in range(dims):
        step = np.zeros(dims)
        step[axis] = _FD_STEP
        columns.append((f(step) - f(-step)) / (2.0 * _FD_STEP))
    return np.stack(columns, axis=-1)


def weighted_distance(problem: AlignmentProblem, pose: Pose3, cost: RobustCost,
                      level: int = 0) -> float:
    """Weighted robust feature distance sum_i w_i * rho(||r_i||^2) at ``pose``.

    Evaluated at the finest pyramid level by default. Raises
    DegenerateProblemError when no point is valid there.
    """
    ev = evaluate_pose(problem, pose, level=level, gradients=False)
    if not np.any(ev.alignment.valid_mask):
        raise DegenerateProblemError(f"no valid points at level {level} for pose {pose}")
    return weighted_cost(ev.alignment.weights, ev.sq_norms, cost)


def build_jacobian(problem: AlignmentProblem, pose: Pose3, level: int = 0) -> np.ndarray:
    """Stacked (N*c)x3 Jacobian of the residual vector w.r.t. the pose.

    Each point's c rows chain the satellite bilinear gradient with the
    projection Jacobian; masked points contribute zero blocks. The ground
    lookups come from the problem's per-level cache. The solver never forms
    it: it is the input of the finite-difference and dense normal-equation
    checks.
    """
    ev = evaluate_pose(problem, pose, level=level)
    _, _, georef = problem.satellite_level(level)
    proj_jac = d_satproj_d_pose_many(ev.pts_sat, pose, georef)
    return np.matmul(ev.sat_grads, proj_jac).reshape(-1, 3)


def normal_equations(jacobian: np.ndarray, weights: np.ndarray,
                     residuals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense H = J^T W J and g = J^T W r from a formed Jacobian.

    W holds one weight per point: ``weights[i]`` applies to all k residual
    rows of point i, with no row broadcast by the caller. A plain (rows, 3)
    system is the case k = 1. This is the reference that the solver's own
    assembly from the gradient planes is checked against.

    Args:
        jacobian: (n, k, 3) per-point blocks, or (n*k, 3) stacked rows.
        weights: (n,) non-negative per-point weights.
        residuals: (n, k), or (n,) when k = 1.
    """
    weights = np.asarray(weights, dtype=np.float64)
    blocks = np.asarray(jacobian, dtype=np.float64).reshape(weights.shape[0], -1, 3)
    jw = (blocks * weights[:, None, None]).reshape(-1, 3)
    hess = blocks.reshape(-1, 3).T @ jw
    grad = jw.T @ np.asarray(residuals, dtype=np.float64).reshape(-1)
    return hess, grad


def projection_jacobian_error(pts_cam, pose: Pose3, georef: SatelliteGeoref
                              ) -> tuple[np.ndarray, float, int]:
    """The satellite projection Jacobian at ``pts_cam`` against central differences.

    Returns each pose column's worst error relative to that column's
    largest difference, the worst deviation of the translation columns'
    norms times gamma from 1, and the number of points.
    """
    def project(step):
        return project_satellite(
            transform_points(pts_cam, pose_to_transform(pose.with_delta(step))), georef)

    jac = d_satproj_d_pose_many(
        transform_points(pts_cam, pose_to_transform(pose)), pose, georef)
    fd = _central_differences(project, 3)
    scale = np.maximum(np.abs(fd).max(axis=(0, 1)), 1e-6)
    column_error = np.abs(jac - fd).max(axis=(0, 1)) / scale
    norms = np.linalg.norm(jac[:, :, :2], axis=1)
    return column_error, float(np.max(np.abs(norms * georef.gamma - 1.0))), len(jac)


def bilinear_gradient_error(data: np.ndarray, uv: np.ndarray) -> tuple[float, int]:
    """Gradient planes of the bilinear lookup against central differences.

    ``uv`` should lie inside cells, away from the kinks at integer
    coordinates. Compares the in-bounds lookups; returns the worst absolute
    error and their count.
    """
    _, grads, inb = bilinear_lookup_many(data, uv)
    fd = _central_differences(lambda step: bilinear_lookup_many(data, uv + step)[0], 2)
    if not inb.any():
        return 0.0, 0
    return float(np.max(np.abs(grads[inb] - fd[inb]))), int(inb.sum())


def lm_step_error(jac: np.ndarray, w: np.ndarray, res: np.ndarray) -> tuple[float, bool]:
    """The LM step of the weighted system (jac, w, res) against dense least squares.

    Returns the worst deviation of the undamped step from the ``lstsq``
    solution (inf when unsolved), and whether the step norm is
    non-increasing over a 10-point lambda ladder from 1e-4 to 1e4 (False
    when a step is unsolved).
    """
    hess, grad = normal_equations(jac, w, res)
    sqrt_w = np.sqrt(w)
    ref, *_ = np.linalg.lstsq(jac * sqrt_w[:, None], -res * sqrt_w, rcond=None)
    step = lm_step(hess, grad, 0.0)
    deviation = math.inf if step is None else float(np.max(np.abs(step - ref)))
    # an unsolved step's norm is NaN, which fails every comparison below
    norms = [math.nan if s is None else float(np.linalg.norm(s))
             for s in (lm_step(hess, grad, lam) for lam in np.logspace(-4, 4, 10))]
    return deviation, all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def _fd_safe_points(problem: AlignmentProblem, pts_sat: np.ndarray, level: int) -> np.ndarray:
    """Points whose satellite lookups stay inside one interpolation cell,
    away from the map border, under every finite-difference probe."""
    _, _, georef = problem.satellite_level(level)
    uv = project_satellite(pts_sat, georef)
    fmap = problem.sat_pyramid.feature(level)
    # Worst-case pixel motion over the probes: shifts move pixels by
    # h/gamma, yaw by r*h/gamma with r the planar radius.
    radius = np.linalg.norm(pts_sat, axis=1)
    move = _FD_STEP * np.maximum(1.0, radius) / georef.gamma + 1e-3
    frac = uv - np.floor(uv)
    interior = np.all((frac > move[:, None]) & (frac < 1.0 - move[:, None]), axis=1)
    inside = ((uv[:, 0] > 1) & (uv[:, 0] < fmap.width - 2)
              & (uv[:, 1] > 1) & (uv[:, 1] < fmap.height - 2))
    return interior & inside


def residual_jacobian_error(problem: AlignmentProblem, pose: Pose3,
                            level: int = 0) -> tuple[float, int]:
    """The residual Jacobian's per-point blocks against central differences.

    Compares the points valid at ``pose`` whose probes are FD-safe. Returns
    the worst block error relative to the block's largest difference, and
    the number of points compared.
    """
    ev = evaluate_pose(problem, pose, level)
    safe = _fd_safe_points(problem, ev.pts_sat, level) & ev.alignment.valid_mask
    if not safe.any():
        return 0.0, 0
    n = len(ev.pts_sat)
    analytic = build_jacobian(problem, pose, level).reshape(n, -1, 3)[safe]
    fd = _central_differences(lambda step: evaluate_pose(
        problem, pose.with_delta(step), level,
        gradients=False).alignment.residuals, 3)[safe]
    scale = np.maximum(np.abs(fd).max(axis=(1, 2)), 1e-6)
    return float(np.max(np.abs(analytic - fd).max(axis=(1, 2)) / scale)), int(safe.sum())


def normal_equations_error(problem: AlignmentProblem, pose: Pose3, level: int,
                           cost: RobustCost) -> tuple[float, int]:
    """The solver's H and g, assembled from the gradient planes, against the
    dense J^T W J and J^T W r of the formed Jacobian.

    Returns the worst error relative to each dense term's largest entry,
    and the number of valid points.
    """
    ev = evaluate_pose(problem, pose, level)
    _, _, georef = problem.satellite_level(level)
    proj_jac = d_satproj_d_pose_many(ev.pts_sat, pose, georef)
    w_points = build_weight_matrix(ev.alignment.weights, ev.sq_norms, cost)
    from_planes = solver._normal_equations(ev, proj_jac, w_points)
    dense = normal_equations(build_jacobian(problem, pose, level), w_points,
                             ev.alignment.residuals)
    worst = max(float(np.max(np.abs(got - want)))
                / max(float(np.max(np.abs(want))), np.finfo(float).tiny)
                for got, want in zip(from_planes, dense))
    return worst, int(ev.alignment.valid_mask.sum())


def grid_argmin_margin(problem: AlignmentProblem, cost: RobustCost, lateral,
                       longitudinal, yaw) -> tuple[float, int]:
    """The smallest weighted distance over the poses offset from the truth by
    each (lateral m, longitudinal m, yaw rad) triple of the axes but (0, 0, 0),
    minus the distance at the truth, and the number of those cells. The
    margin is positive when the truth is the grid's strict minimum."""
    gt = problem.gt_pose
    off_truth = [weighted_distance(problem, gt.with_delta(step), cost)
                 for step in itertools.product(lateral, longitudinal, yaw) if any(step)]
    return min(off_truth) - weighted_distance(problem, gt, cost), len(off_truth)


def _random_pose(rng, shift: float, yaw: float) -> Pose3:
    return Pose3(float(rng.uniform(-shift, shift)), float(rng.uniform(-shift, shift)),
                 float(rng.uniform(-yaw, yaw)))


def _check_projection_jacobian(rng, draws=100):
    """Per-column FD comparison of the satellite projection Jacobian, and
    the norm of its translation block."""
    column_worst, block_worst, points = np.zeros(3), 0.0, 0
    for _ in range(draws):
        georef = SatelliteGeoref(255.5, float(rng.uniform(0.1, 0.5)))
        pose = _random_pose(rng, 20.0, np.pi)
        pts = rng.uniform(-30, 30, size=(8, 3))
        pts[:, 2] = rng.uniform(2, 40, size=8)
        column_error, block_error, n = projection_jacobian_error(pts, pose, georef)
        column_worst = np.maximum(column_worst, column_error)
        block_worst = max(block_worst, block_error)
        points += n
    what = f"points in {draws} random draws"
    return [CheckResult(f"projection_jacobian/{name}_column", float(column_worst[axis]),
                        1e-4, points, f"{what} vs central differences")
            for axis, name in enumerate(_POSE_AXES)] + [
        CheckResult("projection_jacobian/translation_block_norm", block_worst, 1e-12,
                    points, f"{what}, column norms times gamma vs 1")]


def _check_bilinear_gradient(rng, n_points=1000):
    """Interpolant gradient vs central differences at cell interiors."""
    data = rng.standard_normal((40, 50, 3))
    uv = np.stack([rng.integers(1, 48, size=n_points) + rng.uniform(0.05, 0.95, n_points),
                   rng.integers(1, 38, size=n_points) + rng.uniform(0.05, 0.95, n_points)],
                  axis=1)
    worst, compared = bilinear_gradient_error(data, uv)
    return [CheckResult("bilinear_gradient", worst, 1e-5, compared,
                        "interior sub-pixel lookups")]


def _check_lm_step(rng, systems=20):
    """lam=0 step vs dense weighted least squares; step norm shrinks with lam."""
    worst, bad_ladders = 0.0, 0
    for _ in range(systems):
        m = int(rng.integers(8, 100))
        deviation, monotone = lm_step_error(rng.standard_normal((m, 3)),
                                            rng.uniform(0.05, 2.0, size=m),
                                            rng.standard_normal(m))
        worst = max(worst, deviation)
        bad_ladders += not monotone
    return [CheckResult("lm_step/closed_form", worst, 1e-8, systems,
                        "random systems vs lstsq"),
            CheckResult("lm_step/damping_monotonic", float(bad_ladders), 0.0, systems,
                        "lambda ladders of 10 steps; error = ladders whose step norm grows")]


def _check_residual_jacobian(rng, scenes=8):
    """Full-chain residual Jacobian vs FD on small synthetic scenes."""
    worst, points = 0.0, 0
    for _ in range(scenes):
        problem = fd_scene(int(rng.integers(0, 2**31)))
        error, n = residual_jacobian_error(problem, _random_pose(rng, 0.5, 0.1))
        worst, points = max(worst, error), points + n
    return [CheckResult("residual_jacobian", worst, 1e-3, points,
                        f"interior-cell points on {scenes} small scenes")]


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
    outside = int(np.sum(~corners[4]))
    return [CheckResult("shared_corner_lookup", worst, 0.0, n_points,
                        f"lookups, {outside} outside the map")]


def _check_normal_equations(rng, scenes=8):
    """The solver's H and g from the gradient planes vs the dense ones."""
    worst, valid, masked = 0.0, 0, 0
    for _ in range(scenes):
        problem = fd_scene(int(rng.integers(0, 2**31)))
        # shifts of up to 5 m move some points off the 12.8 m crop
        error, n = normal_equations_error(problem, _random_pose(rng, 5.0, 0.3), 0,
                                          RobustCost())
        worst, valid, masked = max(worst, error), valid + n, masked + problem.points.count - n
    return [CheckResult("normal_equations/planes_vs_dense", worst, 1e-10, valid,
                        f"valid points on {scenes} small scenes, {masked} masked")]


def check_numerics(seed: int = 0) -> NumericsReport:
    """Run the full self-check battery.

    Each check draws from its own child of ``SeedSequence(seed)``, so a
    change to one check's draws leaves every other check's inputs as they
    were.
    """
    checks = (_check_projection_jacobian, _check_bilinear_gradient, _check_lm_step,
              _check_residual_jacobian, _check_shared_corners, _check_normal_equations)
    children = np.random.SeedSequence(seed).spawn(len(checks))
    results = []
    for check, child in zip(checks, children):
        results += check(np.random.default_rng(child))
    return NumericsReport(results=tuple(results))
