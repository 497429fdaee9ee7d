"""Damped Levenberg-Marquardt pose refinement over a feature pyramid.

The solver iterates from the coarsest pyramid level to the finest, seeding
each level with the previous level's result. Per iteration it projects the
3D points into the satellite map at the current pose, forms weighted
feature residuals, assembles the Jacobian through the bilinear-interpolant
gradients and the projection geometry, and solves the damped normal
equations by Cholesky factorization. Steps are accepted only if the
weighted cost decreases; the damping factor adapts multiplicatively.

Hot path per level: the ground-view lookups come once per problem from
``ground_level_data``'s cache, since the pose never moves ground pixels.
Each evaluated pose builds its bilinear corners once, and one feature
lookup with gradients and one attention lookup without them gather
through those corners by flat row index. The two gradient components are
written as contiguous (N, c) planes and read as an (N, c, 2) view; the
residuals and weights are formed in place, and masked rows are written
only when some point is masked. A candidate pose's cost evaluates only
rho, and the weights of an accepted pose only rho'. After an accepted
step the Jacobian is rebuilt as per-point (N, c, 3) blocks by one batched
``np.matmul`` of the satellite gradients with the (N, 2, 3) projection
Jacobians. Weights are per point, one w_i * rho'(||r_i||^2) for all c
rows of point i with no row broadcast, and ``lm_step`` solves the 3x3
system from the blocks. ``build_jacobian`` and ``lm_step`` run this same
code for the numeric self-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import (ContractError, DegenerateProblemError, DomainError,
                     SingularSystemError, require_int)
from .geometry import Pose3, d_satproj_d_pose_many
from .problem import AlignmentProblem, evaluate_pose, ground_level_data

#: Floor applied to Hessian diagonal entries before damping.
DIAG_FLOOR = 1e-12


@dataclass(frozen=True)
class RobustCost:
    """Robust cost rho(s) on squared residual norms s = ||r||^2 >= 0.

    Kinds:
        squared: rho(s) = s.
        huber: quadratic below ``delta``, 2*sqrt(delta*s) - delta above.
        geman_mcclure: sigma^2 * s / (sigma^2 + s).

    The huber default delta=0.25 makes rho' drop to 1/2 at ||r|| = 1.
    """

    kind: str
    delta: float = 0.25
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("squared", "huber", "geman_mcclure"):
            raise DomainError(f"unknown robust cost kind {self.kind!r}")
        if self.delta <= 0 or self.sigma <= 0:
            raise DomainError("robust cost parameters must be positive")

    @classmethod
    def squared(cls) -> "RobustCost":
        return cls("squared")

    @classmethod
    def huber(cls, delta: float = 0.25) -> "RobustCost":
        return cls("huber", delta=delta)

    @classmethod
    def geman_mcclure(cls, sigma: float = 1.0) -> "RobustCost":
        return cls("geman_mcclure", sigma=sigma)


def _squared_norms(s) -> np.ndarray:
    s_arr = np.asarray(s, dtype=np.float64)
    if np.any(s_arr < 0):
        raise ContractError("squared residual norm must be >= 0")
    return s_arr


def _rho(cost: RobustCost, s) -> np.ndarray:
    """rho(s) alone, for the cost."""
    s_arr = _squared_norms(s)
    if cost.kind == "squared":
        return s_arr
    if cost.kind == "huber":
        d = cost.delta
        above = s_arr > d
        safe = np.where(above, s_arr, d)
        return np.where(above, 2.0 * np.sqrt(d * safe) - d, s_arr)
    sig2 = cost.sigma**2  # geman_mcclure
    return sig2 * s_arr / (sig2 + s_arr)


def _drho(cost: RobustCost, s) -> np.ndarray:
    """rho'(s) alone, for the IRLS weights."""
    s_arr = _squared_norms(s)
    if cost.kind == "squared":
        return np.ones_like(s_arr)
    if cost.kind == "huber":
        d = cost.delta
        above = s_arr > d
        safe = np.where(above, s_arr, d)
        return np.where(above, np.sqrt(d / safe), 1.0)
    sig2 = cost.sigma**2  # geman_mcclure
    return (sig2 / (sig2 + s_arr))**2


@dataclass(frozen=True)
class LMConfig:
    """Solver schedule: iteration budget, stopping rule, damping.

    ``stop_tol`` applies per degree of freedom to the proposed update,
    in meters for the shifts and degrees for yaw.
    """

    max_iters_per_level: int = 20
    stop_tol: float = 0.01
    lambda_init: float = 0.1
    lambda_up: float = 10.0
    lambda_down: float = 0.1
    level_order: str = "coarse_to_fine"

    def __post_init__(self):
        require_int("max_iters_per_level", self.max_iters_per_level, 1)
        if self.stop_tol <= 0:
            raise DomainError("stop_tol must be > 0")
        if self.lambda_init <= 0:
            raise DomainError("lambda_init must be > 0")
        if self.lambda_up <= 1:
            raise DomainError("lambda_up must be > 1")
        if not 0 < self.lambda_down < 1:
            raise DomainError("lambda_down must lie in (0, 1)")
        if self.level_order != "coarse_to_fine":
            raise DomainError(f"unsupported level order {self.level_order!r}")


@dataclass(frozen=True)
class IterationRecord:
    pose: Pose3
    cost: float
    candidate_cost: float
    lam: float
    accepted: bool
    delta: tuple

    def to_dict(self) -> dict:
        return {
            "pose": self.pose.to_dict(),
            "cost": self.cost,
            "candidate_cost": self.candidate_cost,
            "lambda": self.lam,
            "accepted": self.accepted,
            "delta": list(self.delta),
        }


@dataclass(frozen=True)
class LevelTrace:
    level: int
    iterations: tuple
    stopped_by_tolerance: bool

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "stopped_by_tolerance": self.stopped_by_tolerance,
            "iterations": [it.to_dict() for it in self.iterations],
        }


@dataclass(frozen=True)
class OptimReport:
    """Per-level, per-iteration trace of one refinement run."""

    levels: tuple
    final_pose: Pose3
    converged: bool
    iterations_total: int

    def to_dict(self) -> dict:
        return {
            "final_pose": self.final_pose.to_dict(),
            "converged": self.converged,
            "iterations_total": self.iterations_total,
            "levels": [lv.to_dict() for lv in self.levels],
        }


def build_weight_matrix(weights: np.ndarray, residuals: np.ndarray,
                        cost: RobustCost) -> np.ndarray:
    """Per-point weights w_i * rho'(||r_i||^2), shape (N,).

    One entry weights all of that point's residual rows in ``lm_step``; it
    is not repeated per row. Masked points (weight 0) stay 0.
    """
    weights = np.asarray(weights, dtype=np.float64)
    residuals = np.asarray(residuals, dtype=np.float64)
    if weights.shape[0] != residuals.shape[0]:
        raise ContractError("weights and residuals disagree on point count")
    return weights * _drho(cost, np.sum(residuals**2, axis=1))


def weighted_cost(weights: np.ndarray, residuals: np.ndarray, cost: RobustCost) -> float:
    """Sum of w_i * rho(||r_i||^2) over all points."""
    rho = _rho(cost, np.sum(np.asarray(residuals)**2, axis=1))
    return float(np.sum(np.asarray(weights) * rho))


def _jacobian_blocks(problem: AlignmentProblem, pose: Pose3, georef,
                     sat_grads: np.ndarray) -> np.ndarray:
    # (N,c,2) satellite gradients @ (N,2,3) projection Jacobians -> (N,c,3)
    proj_jac = d_satproj_d_pose_many(problem.points, pose, problem.ctx, georef)
    return np.matmul(sat_grads, proj_jac)


def build_jacobian(problem: AlignmentProblem, pose: Pose3, level: int = 0,
                   ground=None) -> np.ndarray:
    """Stacked (N*c)x3 Jacobian of the residual vector w.r.t. the pose.

    Each point's c rows chain the satellite bilinear gradient with the
    projection Jacobian; masked points contribute zero blocks.
    """
    ev = evaluate_pose(problem, pose, level=level, ground=ground)
    _, _, georef = problem.satellite_level(level)
    return _jacobian_blocks(problem, pose, georef, ev.sat_grads).reshape(-1, 3)


def lm_step(jacobian: np.ndarray, weights: np.ndarray, residuals: np.ndarray,
            lam: float) -> np.ndarray:
    """Solve one damped normal-equation step.

    delta = -(H + lam * diag(H))^-1 J^T W r with H = J^T W J, solved by
    Cholesky factorization. Diagonal entries of H are floored at
    ``DIAG_FLOOR`` before damping so any lam > 0 yields a solvable system.

    W holds one weight per point: ``weights[i]`` applies to all k residual
    rows of point i, with no row broadcast by the caller. A plain (rows, 3)
    system is the case k = 1.

    Args:
        jacobian: (n, k, 3) per-point blocks, or (n, 3) when k = 1.
        weights: (n,) non-negative per-point weights.
        residuals: (n, k), or (n,) when k = 1.
        lam: damping factor >= 0.
    """
    weights = np.asarray(weights, dtype=np.float64)
    blocks = np.asarray(jacobian, dtype=np.float64).reshape(weights.shape[0], -1, 3)
    jw = (blocks * weights[:, None, None]).reshape(-1, 3)
    hess = blocks.reshape(-1, 3).T @ jw
    grad = jw.T @ np.asarray(residuals, dtype=np.float64).reshape(-1)
    damped = hess + lam * np.diag(np.maximum(np.diag(hess), DIAG_FLOOR))
    try:
        factor = cho_factor(damped, lower=True)
    except LinAlgError as exc:
        raise SingularSystemError(
            f"Cholesky factorization failed (lambda={lam})", hessian=damped) from exc
    return -cho_solve(factor, grad)


def refine_pose(problem: AlignmentProblem, init: Pose3, cfg: LMConfig | None = None,
                cost: RobustCost | None = None) -> OptimReport:
    """Coarse-to-fine LM refinement of an initial pose.

    Raises DegenerateProblemError (carrying the partial report) if every
    point is masked at some iterate.
    """
    cfg = cfg or LMConfig()
    cost = cost or RobustCost.huber()

    pose = init
    level_traces = []
    total_iters = 0
    finest_tol_stop = False
    finest_informative = False

    for level in range(problem.level_count - 1, -1, -1):
        ground = ground_level_data(problem, level)
        _, _, georef = problem.satellite_level(level)
        lam = cfg.lambda_init
        records = []
        stopped_by_tol = False

        ev = evaluate_pose(problem, pose, level=level, ground=ground)
        if not np.any(ev.alignment.valid_mask):
            raise _degenerate(level, pose, level_traces, records, total_iters)
        current_cost = weighted_cost(ev.alignment.weights, ev.alignment.residuals, cost)

        jac = None  # relinearize only after accepted steps
        for _ in range(cfg.max_iters_per_level):
            total_iters += 1
            if jac is None:
                jac = _jacobian_blocks(problem, pose, georef, ev.sat_grads)
                w_points = build_weight_matrix(ev.alignment.weights,
                                               ev.alignment.residuals, cost)
            delta = lm_step(jac, w_points, ev.alignment.residuals, lam)

            candidate = pose.with_delta(delta)
            ev_cand = evaluate_pose(problem, candidate, level=level, ground=ground)
            if not np.any(ev_cand.alignment.valid_mask):
                raise _degenerate(level, pose, level_traces, records, total_iters)
            cand_cost = weighted_cost(ev_cand.alignment.weights,
                                      ev_cand.alignment.residuals, cost)

            accepted = cand_cost < current_cost
            used_lam = lam
            last_jac_nonzero = bool(np.any(jac))
            if accepted:
                pose = candidate
                ev = ev_cand
                current_cost = cand_cost
                lam *= cfg.lambda_down
                jac = None
            else:
                lam *= cfg.lambda_up

            records.append(IterationRecord(
                pose=pose, cost=current_cost, candidate_cost=cand_cost,
                lam=used_lam, accepted=accepted,
                delta=(float(delta[0]), float(delta[1]), float(delta[2]))))

            if (abs(delta[0]) < cfg.stop_tol and abs(delta[1]) < cfg.stop_tol
                    and abs(math.degrees(delta[2])) < cfg.stop_tol):
                stopped_by_tol = True
                break

        if level == 0:
            finest_tol_stop = stopped_by_tol
            finest_informative = last_jac_nonzero
        level_traces.append(LevelTrace(level=level, iterations=tuple(records),
                                       stopped_by_tolerance=stopped_by_tol))

    return OptimReport(levels=tuple(level_traces), final_pose=pose,
                       converged=finest_tol_stop and finest_informative,
                       iterations_total=total_iters)


def _degenerate(level: int, pose: Pose3, traces: list, records: list,
                total_iters: int) -> DegenerateProblemError:
    traces = list(traces)
    traces.append(LevelTrace(level=level, iterations=tuple(records),
                             stopped_by_tolerance=False))
    report = OptimReport(levels=tuple(traces), final_pose=pose, converged=False,
                         iterations_total=total_iters)
    return DegenerateProblemError(
        f"all points masked at pyramid level {level}", pose=pose, report=report)
