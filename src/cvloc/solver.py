"""Damped Levenberg-Marquardt pose refinement over a feature pyramid.

``refine_pose`` runs ``_solve_level`` from the coarsest pyramid level to
the finest, seeding each level with the pose the previous one ended at.
Every level above the finest solves on every 4th point
(``problem.COARSE_STRIDE``), enough to bring the start into the finest
level's basin; the finest level solves on all of them, so it ends at the
full-data optimum.
Each iteration projects the 3D points into the satellite map, forms
weighted feature residuals and their normal equations, and solves them
damped by Cholesky. A step is accepted only if the weighted cost
decreases, and the damping adapts multiplicatively. Each level's
``LevelTrace`` holds its records, its end pose and ``informative`` (its
last H was nonzero); ``OptimReport`` reads ``final_pose`` and
``converged`` off the last level. A level whose start leaves no valid
point ends the solve, and the report reads ``degenerate``; only the
coarsest level can.

Hot path per level: the ground-view lookups come once per problem from
``ground_level_data``'s cache. Each evaluated pose gathers feature values,
gradient planes and attention through one set of bilinear corners, and
keeps each point's sum_c r^2, so a candidate's cost evaluates only rho.
A candidate that ends its level, by the tolerance or the budget, is never
linearized, so it is evaluated without gradient planes.
After an accepted step ``_normal_equations`` assembles H and g straight
from the planes, with no (N, c, 3) Jacobian; a rejected step reuses them.
``lm_step`` is the damped 3x3 solve alone, by the closed-form Cholesky of
``cho_factor`` and ``cho_solve``. It returns None (a rejected step with
no ``delta``) on a pivot that is not > 0 or a non-finite H or g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, require_int
from .geometry import Pose3, d_satproj_d_pose_many
from .problem import AlignmentProblem, PoseEvaluation, evaluate_pose, ground_level_data

#: Floor applied to Hessian diagonal entries before damping.
DIAG_FLOOR = 1e-12

#: Marquardt damping: the first lambda of each level, and its factor after a
#: rejected and after an accepted step.
LAMBDA_INIT = 0.1
LAMBDA_UP = 10.0
LAMBDA_DOWN = 0.1


@dataclass(frozen=True)
class RobustCost:
    """Robust cost rho(s) on squared residual norms s = ||r||^2 >= 0.

    Kinds (``delta`` is read by huber only, ``sigma`` by geman_mcclure only):
        squared: rho(s) = s.
        huber: quadratic below ``delta``, 2*sqrt(delta*s) - delta above.
        geman_mcclure: sigma^2 * s / (sigma^2 + s).

    ``RobustCost()`` is huber with delta=0.25, which makes rho' drop to 1/2
    at ||r|| = 1. ``sigma`` squared must also be finite and > 0.
    """

    kind: str = "huber"
    delta: float = 0.25
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("squared", "huber", "geman_mcclure"):
            raise DomainError(f"unknown robust cost kind {self.kind!r}")
        if not (0 < self.delta < math.inf and 0 < self.sigma < math.inf):
            raise DomainError("robust cost parameters must be finite and positive")
        if not 0 < self.sigma * self.sigma < math.inf:
            raise DomainError(f"sigma squared must be finite and > 0, got sigma {self.sigma}")


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
        # 0 where the branch is discarded, so d * safe cannot overflow there
        safe = np.where(above, s_arr, 0.0)
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
    """Solver schedule: iteration budget and stopping rule.

    ``stop_tol`` applies per degree of freedom to the proposed update,
    in meters for the shifts and degrees for yaw.
    """

    max_iters_per_level: int = 20
    stop_tol: float = 0.01

    def __post_init__(self):
        require_int("max_iters_per_level", self.max_iters_per_level, 1)
        if not 0 < self.stop_tol < math.inf:
            raise DomainError("stop_tol must be finite and > 0")


@dataclass(frozen=True)
class IterationRecord:
    """One LM iteration. ``candidate_cost`` is inf when the candidate pose
    left no valid point or no step was solved; ``delta`` is None when the
    damped system could not be factored. Both are written as null."""

    pose: Pose3
    cost: float
    candidate_cost: float
    lam: float
    accepted: bool
    delta: tuple | None

    def to_dict(self) -> dict:
        return {
            "pose": self.pose.to_dict(),
            "cost": self.cost,
            "candidate_cost": (self.candidate_cost if math.isfinite(self.candidate_cost)
                               else None),
            "lambda": self.lam,
            "accepted": self.accepted,
            "delta": None if self.delta is None else list(self.delta),
        }


@dataclass(frozen=True)
class LevelTrace:
    """One pyramid level's LM run. ``pose`` is where it ended: its start
    when no point was valid there. ``informative`` says its last
    linearization had a nonzero H; it is False for such a degenerate level.
    ``to_dict`` writes neither field."""

    level: int
    iterations: tuple
    stopped_by_tolerance: bool
    pose: Pose3
    informative: bool

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "stopped_by_tolerance": self.stopped_by_tolerance,
            "iterations": [it.to_dict() for it in self.iterations],
        }


@dataclass(frozen=True)
class OptimReport:
    """Per-level, per-iteration trace of one refinement run.

    ``iterations_total`` counts every level's records; the other facts are
    the last level's. ``final_pose`` is where it ended. ``converged`` means
    it stopped by tolerance after an informative linearization.
    ``degenerate`` means no point of its level was valid at its start, so
    it has no iteration. The levels above the finest share one point set, a
    subset of the finest level's, and a point valid at one level is valid at
    every finer one: only the coarsest can be so.
    """

    levels: tuple

    @property
    def final_pose(self) -> Pose3:
        return self.levels[-1].pose

    @property
    def converged(self) -> bool:
        return self.levels[-1].stopped_by_tolerance and self.levels[-1].informative

    @property
    def iterations_total(self) -> int:
        return sum(len(lv.iterations) for lv in self.levels)

    @property
    def degenerate(self) -> bool:
        return not self.levels[-1].iterations


def build_weight_matrix(weights: np.ndarray, sq_norms: np.ndarray,
                        cost: RobustCost) -> np.ndarray:
    """Per-point weights w_i * rho'(s_i), shape (N,).

    ``sq_norms`` holds each point's squared residual norm s_i = ||r_i||^2
    (``PoseEvaluation.sq_norms``). One entry weights all of that point's
    residual rows in the normal equations; it is not repeated per row.
    Masked points (weight 0) stay 0.
    """
    weights = np.asarray(weights, dtype=np.float64)
    sq_norms = np.asarray(sq_norms, dtype=np.float64)
    if weights.shape != sq_norms.shape:
        raise ContractError("weights and squared norms disagree on point count")
    return weights * _drho(cost, sq_norms)


def weighted_cost(weights: np.ndarray, sq_norms: np.ndarray, cost: RobustCost) -> float:
    """Sum of w_i * rho(s_i) over all points, with s_i = ||r_i||^2."""
    return float(np.sum(np.asarray(weights) * _rho(cost, sq_norms)))


def _normal_equations(ev: PoseEvaluation, proj_jac: np.ndarray,
                      w_points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H = J^T W J and g = J^T W r of one evaluation, without forming J.

    Row (i, k) of J is gu_ik * P_i[0] + gv_ik * P_i[1], with (gu, gv) the
    satellite gradient planes and P_i the point's 2x3 projection Jacobian.
    Its 2x2 translation block is shared by every point, so J's two
    translation columns are the planes scaled by its four entries; the yaw
    column combines the planes with the point's two yaw entries repeated
    over its c rows, and W repeats the point weights the same way.
    Every product is an ``einsum``, not BLAS, whose kernel (and so its
    rounding) depends on the CPU.
    """
    n, c, _ = ev.sat_grads.shape
    planes = ev.sat_grads.transpose(2, 0, 1).reshape(2, n * c)
    jac_t = np.empty((3, n * c))
    np.einsum("kj,kn->jn", proj_jac[0, :, :2], planes, out=jac_t[:2])
    yaw_rows = np.repeat(proj_jac[:, :, 2].T, c, axis=1)
    np.einsum("kn,kn->n", yaw_rows, planes, out=jac_t[2])
    weighted = jac_t * np.repeat(w_points, c)
    return (np.einsum("in,jn->ij", weighted, jac_t),
            np.einsum("in,n->i", weighted, ev.alignment.residuals.reshape(-1)))


def cho_factor(a) -> tuple[float, ...] | None:
    """Lower Cholesky factor L of a 3x3 matrix A = L L^T, in closed form.

    Reads only the lower triangle of ``a``, so the strict upper triangle
    never changes the result. Returns L's six lower entries row by row,
    (l00, l10, l11, l20, l21, l22), or None when a pivot is not > 0 (NaN
    included).
    """
    (a00, _, _), (a10, a11, _), (a20, a21, a22) = np.asarray(a, dtype=np.float64).tolist()
    if not a00 > 0:
        return None
    l00 = math.sqrt(a00)
    l10, l20 = a10 / l00, a20 / l00
    pivot1 = a11 - l10 * l10
    if not pivot1 > 0:
        return None
    l11 = math.sqrt(pivot1)
    l21 = (a21 - l20 * l10) / l11
    pivot2 = a22 - l20 * l20 - l21 * l21
    if not pivot2 > 0:
        return None
    return l00, l10, l11, l20, l21, math.sqrt(pivot2)


def cho_solve(factor: tuple[float, ...], b) -> np.ndarray:
    """Solve A x = b for the 3-vector x, given ``cho_factor(A)``."""
    l00, l10, l11, l20, l21, l22 = factor
    b0, b1, b2 = np.asarray(b, dtype=np.float64).tolist()
    y0 = b0 / l00
    y1 = (b1 - l10 * y0) / l11
    y2 = (b2 - l20 * y0 - l21 * y1) / l22
    x2 = y2 / l22
    x1 = (y1 - l21 * x2) / l11
    x0 = (y0 - l10 * x1 - l20 * x2) / l00
    return np.array([x0, x1, x2])


def lm_step(hess: np.ndarray, grad: np.ndarray, lam: float) -> np.ndarray | None:
    """Solve one damped normal-equation step.

    delta = -(H + lam * diag(H))^-1 g for H = J^T W J and g = J^T W r,
    solved by Cholesky factorization. Diagonal entries of H are floored at
    ``DIAG_FLOOR`` before damping so any lam > 0 yields a solvable system.
    Returns None when H or g has a NaN or infinite entry, or when the
    damped matrix has a pivot that is not > 0.

    Args:
        hess: (3, 3) H.
        grad: (3,) g.
        lam: damping factor >= 0.
    """
    if not (np.isfinite(hess).all() and np.isfinite(grad).all()):
        return None
    damped = hess + lam * np.diag(np.maximum(np.diag(hess), DIAG_FLOOR))
    factor = cho_factor(damped)
    return None if factor is None else -cho_solve(factor, grad)


def _solve_level(problem: AlignmentProblem, pose: Pose3, level: int, cfg: LMConfig,
                 cost: RobustCost) -> LevelTrace:
    """LM iterations at one pyramid level from ``pose``; returns its trace.

    An unsolved step (``delta`` None) or a candidate with no valid point
    (cost inf) is rejected like one that raises the cost, and only a solved
    step can meet the tolerance. A start with no valid point gets no record.
    """
    ground = ground_level_data(problem, level)
    _, _, georef = problem.satellite_level(level)
    ev = evaluate_pose(problem, pose, level=level, ground=ground)
    if not np.any(ev.alignment.valid_mask):
        return LevelTrace(level=level, iterations=(), stopped_by_tolerance=False,
                          pose=pose, informative=False)
    current_cost = weighted_cost(ev.alignment.weights, ev.sq_norms, cost)

    lam = LAMBDA_INIT
    records = []
    hess = None  # relinearize only after accepted steps
    for it in range(cfg.max_iters_per_level):
        if hess is None:
            proj_jac = d_satproj_d_pose_many(ev.pts_sat, pose, georef)
            w_points = build_weight_matrix(ev.alignment.weights, ev.sq_norms, cost)
            hess, grad = _normal_equations(ev, proj_jac, w_points)
            # H is zero exactly when no point has both a nonzero
            # gradient and a nonzero weight: the step then says nothing.
            informative = bool(np.any(hess))
        cand_cost = math.inf
        delta = lm_step(hess, grad, lam)
        stopped_by_tol = delta is not None and bool(
            abs(delta[0]) < cfg.stop_tol and abs(delta[1]) < cfg.stop_tol
            and abs(math.degrees(delta[2])) < cfg.stop_tol)
        if delta is not None:
            candidate = pose.with_delta(delta)
            # A candidate that ends the level is never linearized: no planes.
            ends_level = stopped_by_tol or it == cfg.max_iters_per_level - 1
            ev_cand = evaluate_pose(problem, candidate, level=level, ground=ground,
                                    gradients=not ends_level)
            if np.any(ev_cand.alignment.valid_mask):
                cand_cost = weighted_cost(ev_cand.alignment.weights, ev_cand.sq_norms, cost)

        accepted = cand_cost < current_cost
        if accepted:
            pose, ev, current_cost = candidate, ev_cand, cand_cost
            hess = None
        records.append(IterationRecord(
            pose=pose, cost=current_cost, candidate_cost=cand_cost, lam=lam,
            accepted=accepted,
            delta=None if delta is None else tuple(float(d) for d in delta)))
        lam *= LAMBDA_DOWN if accepted else LAMBDA_UP
        if stopped_by_tol:
            break

    return LevelTrace(level=level, iterations=tuple(records),
                      stopped_by_tolerance=stopped_by_tol, pose=pose, informative=informative)


def refine_pose(problem: AlignmentProblem, init: Pose3, cfg: LMConfig | None = None,
                cost: RobustCost | None = None) -> OptimReport:
    """Coarse-to-fine LM refinement of an initial pose; returns the report.

    A level whose start has no valid point ends the solve: the report
    reads ``degenerate``, not ``converged``, and its final pose is that start.
    """
    cfg = cfg or LMConfig()
    cost = cost or RobustCost()
    pose, levels = init, []
    for level in range(problem.level_count - 1, -1, -1):
        levels.append(_solve_level(problem, pose, level, cfg, cost))
        if not levels[-1].iterations:
            break
        pose = levels[-1].pose
    return OptimReport(levels=tuple(levels))
