"""Solver: robust costs, LM step, Jacobian assembly, multi-level refinement."""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cvloc.problem
from cvloc import solver
from cvloc.errors import ContractError, DegenerateProblemError, DomainError
from cvloc.features import FeatureMap, FeaturePyramid
from cvloc.geometry import PointSet, Pose3, translate_pose_east_south
from cvloc.harness.checks import (build_jacobian, lm_step_error, normal_equations,
                                  normal_equations_error, residual_jacobian_error,
                                  weighted_distance)
from cvloc.harness.runner import _trial_seed, run_eval
from cvloc.problem import AlignmentProblem, evaluate_pose, ground_level_data
from cvloc.solver import (LMConfig, RobustCost, build_weight_matrix, lm_step, refine_pose,
                          weighted_cost)
from cvloc.synth import SynthConfig, generate_scene, sample_initial_pose, PerturbBounds
from cvloc.metrics import pose_error

from conftest import small_scene_problem, tiny_problem


def _rho_pair(cost, s):
    """(rho(s), rho'(s)) from their two homes, ``solver._rho`` and ``_drho``."""
    return solver._rho(cost, s), solver._drho(cost, s)


class TestRobustEval:
    def test_squared_identity(self):
        assert _rho_pair(RobustCost("squared"), 4.0) == (4.0, 1.0)

    @pytest.mark.parametrize("cost", [RobustCost("squared"), RobustCost("huber", 1.0),
                                      RobustCost("geman_mcclure", sigma=0.5)])
    def test_zero_at_zero(self, cost):
        rho, _ = _rho_pair(cost, 0.0)
        assert rho == 0.0

    def test_huber_hand_values(self):
        rho, drho = _rho_pair(RobustCost("huber", 1.0), 4.0)
        assert rho == pytest.approx(3.0)
        assert drho == pytest.approx(0.5)

    def test_huber_default_halves_at_unit_residual(self):
        assert RobustCost() == RobustCost("huber", delta=0.25)
        _, drho = _rho_pair(RobustCost(), 1.0)
        assert drho == pytest.approx(0.5)

    def test_negative_rejected(self):
        with pytest.raises(ContractError):
            _rho_pair(RobustCost("squared"), -0.1)

    def test_vectorized(self):
        rho, drho = _rho_pair(RobustCost("huber", 1.0), np.array([0.25, 4.0]))
        assert np.allclose(rho, [0.25, 3.0])
        assert np.allclose(drho, [1.0, 0.5])

    @pytest.mark.parametrize("cost", [RobustCost("squared"), RobustCost("huber", 0.7),
                                      RobustCost("geman_mcclure", sigma=1.3)])
    @given(s=st.floats(0.0, 1e6), ds=st.floats(0.0, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_monotone_nonnegative(self, cost, s, ds):
        rho1, drho1 = _rho_pair(cost, s)
        rho2, _ = _rho_pair(cost, s + ds)
        assert rho2 >= rho1 - 1e-12
        assert drho1 >= 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            RobustCost("cauchy")

    # sigma is finite and > 0, but sigma^2 overflows or underflows
    @pytest.mark.parametrize("sigma", [1.4e154, 1e-170])
    def test_sigma_squared_must_be_finite_and_positive(self, sigma):
        with pytest.raises(DomainError, match="sigma squared"):
            RobustCost("geman_mcclure", sigma=sigma)


_COSTS = [RobustCost("squared"), RobustCost(), RobustCost("geman_mcclure", sigma=1.3)]


def _robust_pair_reference(cost, s):
    """rho and rho' computed together, as one formula per kind."""
    if cost.kind == "squared":
        return s, np.ones_like(s)
    if cost.kind == "huber":
        d = cost.delta
        above = s > d
        safe = np.where(above, s, d)
        return (np.where(above, 2.0 * np.sqrt(d * safe) - d, s),
                np.where(above, np.sqrt(d / safe), 1.0))
    sig2 = cost.sigma**2
    return sig2 * s / (sig2 + s), (sig2 / (sig2 + s))**2


class TestSingleSidedCost:
    """weighted_cost computes only rho and build_weight_matrix only rho'."""

    @pytest.mark.parametrize("cost", _COSTS, ids=lambda c: c.kind)
    def test_each_side_equals_the_pair(self, cost):
        # ||r||^2 = 0, exactly delta (0.25 = 0.5**2), and above delta
        residuals = np.array([[0.0, 0.0], [0.5, 0.0], [0.9, -1.7]])
        s = np.sum(residuals**2, axis=1)
        assert s[0] == 0.0 and s[1] == cost.delta and s[2] > cost.delta
        weights = np.array([0.3, 0.7, 1.0])
        rho, drho = _rho_pair(cost, s)
        for got, want in zip((rho, drho), _robust_pair_reference(cost, s)):
            assert np.array_equal(got, want)
        assert weighted_cost(weights, s, cost) == float(np.sum(weights * rho))
        assert np.array_equal(build_weight_matrix(weights, s, cost), weights * drho)

    @pytest.mark.parametrize("cost", _COSTS, ids=lambda c: c.kind)
    def test_negative_rejected_by_both_sides(self, cost):
        for side in (solver._rho, solver._drho):
            with pytest.raises(ContractError):
                side(cost, np.array([0.1, -1e-300]))
            with pytest.raises(ContractError):
                side(cost, -0.5)


class TestBuildWeightMatrix:
    def test_squared_passthrough(self):
        w = build_weight_matrix(np.ones(4), np.full(4, 2.0), RobustCost("squared"))
        assert np.allclose(w, 1.0)

    def test_attention_scaling(self):
        w = build_weight_matrix(np.array([0.4]), np.zeros(1), RobustCost("squared"))
        assert w[0] == pytest.approx(0.4)

    def test_huber_downweights(self):
        w = build_weight_matrix(np.array([1.0]), np.array([4.0]), RobustCost("huber", 1.0))
        assert w[0] == pytest.approx(0.5)

    def test_masked_points_stay_zero(self):
        w = build_weight_matrix(np.array([0.0, 1.0]), np.array([4.0, 0.0]),
                                RobustCost("huber", 1.0))
        assert w[0] == 0.0

    def test_point_count_mismatch_rejected(self):
        with pytest.raises(ContractError):
            build_weight_matrix(np.ones(3), np.ones(2), RobustCost("squared"))


def _solve(jac, w, res, lam):
    return lm_step(*normal_equations(jac, w, res), lam)


class TestLMStep:
    def test_zero_residual_zero_step(self):
        rng = np.random.default_rng(0)
        jac = rng.standard_normal((12, 3))
        delta = _solve(jac, np.ones(12), np.zeros(12), 0.5)
        assert np.allclose(delta, 0.0)

    def test_matches_dense_least_squares(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            m = int(rng.integers(6, 80))
            deviation, _ = lm_step_error(rng.standard_normal((m, 3)),
                                         rng.uniform(0.05, 3.0, m), rng.standard_normal(m))
            assert deviation <= 1e-8

    def test_damping_shrinks_step(self):
        rng = np.random.default_rng(2)
        jac = rng.standard_normal((30, 3))
        w = rng.uniform(0.1, 1.0, 30)
        res = rng.standard_normal(30)
        hess, grad = normal_equations(jac, w, res)
        norms = [np.linalg.norm(lm_step(hess, grad, lam)) for lam in np.logspace(-6, 6, 13)]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-4 * norms[0]

    def test_singular_undamped_system_returns_none(self):
        # an unsolvable system is no step (None), not an exception
        jac = np.zeros((6, 3))
        jac[:, 0] = 1.0  # rank one
        hess, grad = normal_equations(jac, np.ones(6), np.ones(6))
        assert solver.cho_factor(hess) is None
        assert lm_step(hess, grad, 0.0) is None

    @pytest.mark.parametrize("name, index, value", [
        ("hess", (2, 0), math.nan), ("hess", (0, 2), math.nan),
        ("grad", 1, math.nan), ("hess", (1, 1), math.inf),
    ], ids=["lower_nan", "upper_nan", "grad_nan", "diag_inf"])
    def test_non_finite_system_returns_none(self, name, index, value):
        # a non-finite entry anywhere, the upper triangle included, is no step
        system = {"hess": np.eye(3), "grad": np.ones(3)}
        system[name][index] = value
        assert lm_step(system["hess"], system["grad"], 0.0) is None
        assert lm_step(system["hess"], system["grad"], 1.0) is None

    def test_per_point_blocks_equal_repeated_row_weights(self):
        # (n, k, 3) blocks with one weight per point are the stacked
        # (n*k, 3) system with each weight repeated over its k rows.
        rng = np.random.default_rng(4)
        n, k = 40, 8
        jac = rng.standard_normal((n, k, 3))
        w = rng.uniform(0.0, 2.0, n)
        w[::7] = 0.0
        res = rng.standard_normal((n, k))
        for lam in (0.0, 1e-3, 10.0):
            blocks = _solve(jac, w, res, lam)
            rows = _solve(jac.reshape(-1, 3), np.repeat(w, k), res.reshape(-1), lam)
            assert np.array_equal(blocks, rows)

    def test_floor_rescues_damped_zero_columns(self):
        jac = np.zeros((6, 3))
        jac[:, 0] = 1.0
        delta = _solve(jac, np.ones(6), np.ones(6), 1e-3)
        assert np.all(np.isfinite(delta))
        assert np.allclose(delta[1:], 0.0)

    def test_damping_scales_floored_diagonal(self):
        hess = np.diag([4.0, 0.0, 1.0])
        hess[0, 2] = hess[2, 0] = 0.5
        grad = np.array([1.0, 0.0, -2.0])
        lam = 0.3
        damped = hess + lam * np.diag([4.0, solver.DIAG_FLOOR, 1.0])
        assert np.allclose(lm_step(hess, grad, lam), -np.linalg.solve(damped, grad),
                           rtol=1e-12, atol=0.0)


_unit = st.floats(-1.0, 1.0)


class TestWeightedDistance:
    def test_vanishes_at_ground_truth(self, small_scene):
        dis = weighted_distance(small_scene, small_scene.gt_pose, RobustCost())
        assert dis < 1e-8

    def test_single_contributing_point(self):
        # constant maps give every point the same residual; ground attention
        # selects exactly one point (its lookup texel is (8, 8)).
        sat = np.zeros((16, 16, 2))
        sat[:, :] = [0.5, 0.5]
        grd = np.zeros((17, 17, 2))
        delta = math.sqrt(0.15)
        grd[:, :] = [0.5 - delta, 0.5 - delta]  # ||r||^2 = 2*0.15 = 0.3
        att_g = np.zeros((17, 17))
        att_g[8, 8] = 1.0
        problem = tiny_problem(sat_data=sat, grd_data=grd, grd_att=att_g,
                               normalize=False)
        dis = weighted_distance(problem, problem.gt_pose, RobustCost("squared"))
        assert dis == pytest.approx(0.3, rel=1e-12)

    def test_permutation_invariant(self):
        problem = tiny_problem()
        shuffled = tiny_problem(points=PointSet(problem.points.points[::-1]))
        cost = RobustCost()
        assert weighted_distance(problem, Pose3(0.3, -0.2, 0.05), cost) == \
            pytest.approx(weighted_distance(shuffled, Pose3(0.3, -0.2, 0.05), cost),
                          rel=1e-12)

    def test_degenerate_when_no_valid_points(self, small_scene):
        with pytest.raises(DegenerateProblemError):
            weighted_distance(small_scene, Pose3(500.0, 0.0, 0.0), RobustCost())

    @pytest.mark.parametrize("level", [-1, 3], ids=["negative", "level_count"])
    def test_level_outside_pyramid_rejected(self, small_scene, level):
        # -1 used to pair the coarsest features with a mis-scaled georef
        assert small_scene.level_count == 3
        with pytest.raises(ContractError, match="level"):
            weighted_distance(small_scene, small_scene.gt_pose, RobustCost(),
                              level=level)


class TestClosedFormCholesky:
    @given(m=st.lists(_unit, min_size=9, max_size=9), b=st.lists(_unit, min_size=3, max_size=3),
           shift=st.floats(0.5, 2.0), lam=st.just(0.0) | st.floats(1e-6, 1e3),
           upper=st.lists(st.floats(), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    @example(m=[0.0] * 9, b=[0.0, 0.0, 5e-324], shift=0.5, lam=0.0, upper=[0.0] * 3)
    def test_matches_dense_solve(self, m, b, shift, lam, upper):
        # well-conditioned SPD: M M^T + shift * I, then damped as lm_step does
        m = np.array(m).reshape(3, 3)
        a = m @ m.T + shift * np.eye(3)
        a += lam * np.diag(np.diag(a))
        x = solver.cho_solve(solver.cho_factor(a), np.array(b))
        expect = np.linalg.solve(a, b)
        # floored at the smallest normal float: a subnormal solution differs
        # from the dense one by a subnormal step, where 1e-12 * norm is 0
        np.testing.assert_allclose(x, expect, rtol=1e-12,
                                   atol=max(1e-12 * np.linalg.norm(expect),
                                            np.finfo(float).tiny))
        # only the lower triangle is read
        junk = a.copy()
        junk[np.triu_indices(3, 1)] = upper
        assert solver.cho_factor(junk) == solver.cho_factor(a)

    @given(lower=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
           diag=st.lists(st.integers(1, 4), min_size=2, max_size=2),
           k=st.integers(0, 2), pivot=st.integers(-5, 0))
    @settings(max_examples=100, deadline=None)
    def test_non_positive_pivot_leaves_no_factor(self, lower, diag, k, pivot):
        # H = L L^T with pivot k replaced; integer entries keep every pivot
        # exact. A pivot that is not > 0 leaves no factor and no step.
        low = np.zeros((3, 3))
        low[np.tril_indices(3, -1)] = lower
        np.fill_diagonal(low, diag[:k] + [0] + diag[k:])
        hess = low @ low.T
        hess[k, k] += pivot
        assert solver.cho_factor(hess) is None
        assert lm_step(hess, np.ones(3), 0.0) is None
        # the same matrix with that pivot raised to 1 factors
        hess[k, k] += 1 - pivot
        assert solver.cho_factor(hess) is not None


class TestNormalEquations:
    @pytest.mark.parametrize("pose", [Pose3(0.4, -0.3, 0.05), Pose3(10.0, 0.0, 0.2)])
    def test_planes_equal_dense_assembly(self, small_scene, pose):
        # the solver's assembly from the gradient planes is H and g of the
        # formed Jacobian, on every level, masked points included
        for level in range(small_scene.level_count):
            error, valid = normal_equations_error(small_scene, pose, level, RobustCost())
            assert 0 < valid < small_scene.points.count
            assert error <= 1e-12

    def test_refine_pose_forms_no_jacobian(self, small_scene, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a batched matmul on the hot path")

        monkeypatch.setattr(solver.np, "matmul", forbidden)
        report = refine_pose(small_scene, Pose3(2.0, -1.0, 0.05))
        assert report.converged


class TestBuildJacobian:
    def test_constant_satellite_map_zero_jacobian(self):
        problem = tiny_problem(sat_data=np.full((16, 16, 2), 0.5, dtype=np.float32),
                               normalize=False)
        jac = build_jacobian(problem, problem.gt_pose)
        assert np.allclose(jac, 0.0)

    def test_feature_scaling_scales_jacobian(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((16, 16, 2)).astype(np.float32)
        p1 = tiny_problem(sat_data=data, normalize=False)
        p2 = tiny_problem(sat_data=2.0 * data, normalize=False)
        j1 = build_jacobian(p1, p1.gt_pose)
        j2 = build_jacobian(p2, p2.gt_pose)
        assert np.allclose(j2, 2.0 * j1, atol=1e-6)

    def test_matches_finite_differences_on_scenes(self, small_scene):
        error, checked = residual_jacobian_error(small_scene, Pose3(0.11, -0.23, 0.015))
        assert checked > small_scene.points.count // 2
        assert error < 1e-3

    def test_masked_points_zero_blocks(self, small_scene):
        # push the pose so some points leave the crop; their blocks are zero
        pose = Pose3(10.0, 0.0, 0.0)
        ev = evaluate_pose(small_scene, pose, 0)
        if ev.alignment.valid_mask.all():
            pytest.skip("no masked point at this offset")
        jac = build_jacobian(small_scene, pose, 0)
        c = small_scene.sat_pyramid.feature(0).channels
        blocks = jac.reshape(-1, c, 3)
        assert np.allclose(blocks[~ev.alignment.valid_mask], 0.0)


class TestLMConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_iters_per_level": 0},
        {"stop_tol": 0.0},
        {"stop_tol": -1.0},
        {"stop_tol": math.inf},
        {"stop_tol": math.nan},
        {"max_iters_per_level": 2.5},
        {"max_iters_per_level": 3.0},
        {"max_iters_per_level": True},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            LMConfig(**kwargs)


class TestRefinePose:
    def test_start_at_truth_converges_immediately(self, small_scene):
        report = refine_pose(small_scene, small_scene.gt_pose)
        assert report.converged
        for trace in report.levels:
            assert len(trace.iterations) <= 2
        err = pose_error(report.final_pose, small_scene.gt_pose)
        assert err.lateral_err < 0.01
        assert err.longitudinal_err < 0.01
        assert err.yaw_err_deg < 0.01

    def test_converges_from_offset(self, small_scene):
        init = Pose3(3.0, -3.0, math.radians(10.0))
        report = refine_pose(small_scene, init)
        err = pose_error(report.final_pose, small_scene.gt_pose)
        assert err.lateral_err < 0.25
        assert err.longitudinal_err < 0.25
        assert err.yaw_err_deg < 0.5

    def test_convergence_rate_from_moderate_offsets(self, small_scene):
        _, rows, _ = run_eval(small_scene, 100, PerturbBounds(3.0, 10.0))
        hits = sum(row["status"] == "ok" and row["err_lateral_m"] < 0.25
                   and row["err_longitudinal_m"] < 0.25 and row["err_yaw_deg"] < 0.5
                   for row in rows)
        assert hits >= 95

    def test_constant_satellite_reports_non_convergence(self):
        problem = tiny_problem(sat_data=np.full((16, 16, 2), 0.5, dtype=np.float32),
                               normalize=False)
        report = refine_pose(problem, Pose3(0.5, 0.5, 0.1))
        assert not report.converged
        # zero Jacobian means zero update: the pose cannot move
        assert report.final_pose.lateral == pytest.approx(0.5)
        assert report.final_pose.longitudinal == pytest.approx(0.5)

    # Zero weights leave H zero though the satellite gradients are not: the
    # step is zero, the pose cannot move, and the solve has not converged.
    def test_zero_attention_reports_non_convergence(self):
        init = Pose3(0.3, -0.2, 0.02)
        report = refine_pose(tiny_problem(sat_att=np.zeros((16, 16))), init)
        assert not report.converged
        assert report.final_pose == init

    def test_underflowing_robust_weights_report_non_convergence(self, small_scene):
        # sigma^2 = 1e-320 is subnormal, so every w * rho' underflows to 0
        init = Pose3(1.0, -1.0, 0.05)
        report = refine_pose(small_scene, init,
                             cost=RobustCost("geman_mcclure", sigma=1e-160))
        assert not report.converged
        assert report.final_pose == init

    def test_all_masked_returns_degenerate_report(self, small_scene):
        # the coarsest level's start leaves no valid point: the solve stops
        # there and returns its report
        init = Pose3(500.0, 500.0, 0.0)
        report = refine_pose(small_scene, init)
        assert [t.level for t in report.levels] == [2]
        assert report.iterations_total == 0
        assert report.final_pose == init
        assert report.degenerate
        assert not report.converged

    @given(d_lat=st.floats(-10.0, 10.0), d_lon=st.floats(-10.0, 10.0),
           d_yaw_deg=st.floats(-30.0, 30.0))
    @settings(max_examples=100, deadline=None)
    def test_accepted_cost_non_increasing_within_levels(self, d_lat, d_lon, d_yaw_deg):
        problem = small_scene_problem()
        gt = problem.gt_pose
        init = Pose3(gt.lateral + d_lat, gt.longitudinal + d_lon,
                     gt.yaw + math.radians(d_yaw_deg))
        cfg = LMConfig()
        report = refine_pose(problem, init, cfg)
        if report.degenerate:
            # Near 10 m every point can leave this small crop at the start.
            # Validity nests across levels, so only the coarsest level can
            # be degenerate, and the solve stops there, at the start.
            assert not report.converged
            assert [t.level for t in report.levels] == [2]
            assert report.final_pose == init
        else:
            assert [t.level for t in report.levels] == [2, 1, 0]
        for trace in report.levels:
            costs = [rec.cost for rec in trace.iterations]
            assert all(b <= a for a, b in zip(costs, costs[1:]))
            assert len(trace.iterations) <= cfg.max_iters_per_level
            for rec in trace.iterations:
                assert math.isfinite(rec.cost)
                # an unscored candidate (inf) or an unsolved step (no delta)
                # is always a rejected step
                if rec.delta is None or not math.isfinite(rec.candidate_cost):
                    assert not rec.accepted
                if rec.delta is not None:
                    assert all(math.isfinite(d) for d in rec.delta)
                pose = rec.pose
                assert all(math.isfinite(x) for x in (pose.lateral, pose.longitudinal,
                                                      pose.yaw))
        assert report.iterations_total == sum(len(t.iterations) for t in report.levels)
        if report.converged:
            assert report.levels[-1].level == 0
            assert report.levels[-1].stopped_by_tolerance

    # Two unscored level-1 steps: a candidate that masks every point, and a
    # damped system with no Cholesky factor. The second is made by
    # construction: the first level-1 factorization reports no factor, so
    # lm_step's own None path runs whatever the rounding.
    @pytest.mark.parametrize("d_lat, d_lon, d_yaw_deg, unsolved", [
        (0.0, 9.0, 0.0, False),
        (3.0, -4.0, 5.0, True),
    ], ids=["all_masked_candidate", "singular_step"])
    def test_unscorable_step_is_rejected(self, small_scene, monkeypatch, d_lat, d_lon,
                                         d_yaw_deg, unsolved):
        if unsolved:
            _fail_first_factorization(monkeypatch, level=1)
        gt = small_scene.gt_pose
        init = Pose3(gt.lateral + d_lat, gt.longitudinal + d_lon,
                     gt.yaw + math.radians(d_yaw_deg))
        report = refine_pose(small_scene, init)
        assert [t.level for t in report.levels] == [2, 1, 0]
        assert report.iterations_total == sum(len(t.iterations) for t in report.levels)
        level1 = report.levels[1].iterations
        unscored = [i for i, rec in enumerate(level1) if rec.candidate_cost == math.inf]
        assert unscored
        assert unscored[-1] + 1 < len(level1)
        for i in unscored:
            assert not level1[i].accepted
            assert level1[i + 1].lam == level1[i].lam * solver.LAMBDA_UP
        assert any(level1[i].delta is None for i in unscored) == unsolved
        # written as null, never as the non-standard Infinity
        trace = report.levels[1].to_dict()["iterations"]
        assert all(trace[i]["candidate_cost"] is None for i in unscored)
        assert all((trace[i]["delta"] is None) == (level1[i].delta is None) for i in unscored)
        json.dumps([lv.to_dict() for lv in report.levels], allow_nan=False)

    def test_deterministic_reports(self, small_scene):
        init = Pose3(2.0, 1.0, 0.05)
        r1 = refine_pose(small_scene, init)
        r2 = refine_pose(small_scene, init)
        assert r1 == r2

    def test_respects_iteration_budget(self, small_scene):
        cfg = LMConfig(max_iters_per_level=3)
        init = Pose3(4.0, -4.0, 0.3)
        report = refine_pose(small_scene, init, cfg)
        assert all(len(t.iterations) <= 3 for t in report.levels)
        assert report.iterations_total <= 3 * small_scene.level_count

    def test_trace_is_json_serializable(self, small_scene):
        report = refine_pose(small_scene, small_scene.gt_pose)
        json.dumps([lv.to_dict() for lv in report.levels], allow_nan=False)


def _fail_first_factorization(monkeypatch, level: int) -> None:
    """Make the first Cholesky factorization of ``level`` report no factor."""
    state = {"level": None, "failed": False}
    solve_level, cho_factor = solver._solve_level, solver.cho_factor

    def tracked_solve_level(problem, pose, lvl, cfg, cost):
        state["level"] = lvl
        return solve_level(problem, pose, lvl, cfg, cost)

    def failing_cho_factor(a):
        if state["level"] == level and not state["failed"]:
            state["failed"] = True
            return None
        return cho_factor(a)

    monkeypatch.setattr(solver, "_solve_level", tracked_solve_level)
    monkeypatch.setattr(solver, "cho_factor", failing_cho_factor)


@functools.cache
def _odd_scene_problem() -> AlignmentProblem:
    """Odd sizes: a 129 px crop (65 and 33 px coarser), a 257x97 ground image."""
    return generate_scene(SynthConfig(seed=11, sat_size=129, point_count=300,
                                      grd_width=257, grd_height=97, grd_focal=120.0,
                                      depth_min=3.0, depth_max=14.0))


_NESTING_SCENES = {"small": small_scene_problem, "odd": _odd_scene_problem}


class TestValidityNests:
    """At any pose, a point valid at a pyramid level is valid one level
    finer: pyramids halve by ceiling, ``SatelliteGeoref.coarsened`` scales
    pixel coordinates by an exact power of 2, and the bilinear bounds shrink
    with the level. The coarsest level's rows are a subset of the finer
    levels' rows, so only the coarsest level can leave no valid point."""

    @pytest.mark.parametrize("scene", sorted(_NESTING_SCENES))
    @given(lat=st.floats(-15.0, 15.0), lon=st.floats(-15.0, 15.0),
           yaw_deg=st.floats(-86.0, 86.0))
    @settings(max_examples=200, deadline=None)
    def test_valid_at_a_level_is_valid_one_level_finer(self, scene, lat, lon, yaw_deg):
        problem = _NESTING_SCENES[scene]()
        pose = Pose3(lat, lon, math.radians(yaw_deg))
        valid = [evaluate_pose(problem, pose, level=lvl).alignment.valid_mask
                 for lvl in range(problem.level_count)]
        for lvl, (finer, coarser) in enumerate(zip(valid, valid[1:]), start=1):
            # the finer mask on the coarser level's own rows
            finer = finer[ground_level_data(problem, lvl).rows]
            assert not np.any(coarser & ~finer)

    @pytest.mark.parametrize("scene", sorted(_NESTING_SCENES))
    @given(lat=st.floats(-30.0, 30.0), lon=st.floats(-30.0, 30.0),
           yaw_deg=st.floats(-180.0, 180.0))
    @example(lat=500.0, lon=500.0, yaw_deg=0.0)
    @settings(max_examples=100, deadline=None)
    def test_degenerate_report_has_only_the_coarsest_level(self, scene, lat, lon,
                                                           yaw_deg):
        problem = _NESTING_SCENES[scene]()
        init = Pose3(lat, lon, math.radians(yaw_deg))
        report = refine_pose(problem, init, LMConfig(max_iters_per_level=2))
        coarsest = problem.level_count - 1
        if report.degenerate:
            assert [t.level for t in report.levels] == [coarsest]
            assert report.final_pose == init
        else:
            assert [t.level for t in report.levels] == list(range(coarsest, -1, -1))

    def test_coarsest_rows_all_masked_is_degenerate(self, small_scene):
        # every 4th point moved behind the camera: the coarsest level's rows
        # are all masked, while the finer levels keep the other points
        pts = small_scene.points.points.copy()
        pts[::4] = [0.0, 0.0, -2.0]
        problem = dataclasses.replace(small_scene, points=PointSet(pts))
        init = problem.gt_pose
        assert not evaluate_pose(problem, init, level=2).alignment.valid_mask.any()
        assert evaluate_pose(problem, init, level=1).alignment.valid_mask.any()
        report = refine_pose(problem, init)
        assert report.degenerate and not report.converged
        assert [t.level for t in report.levels] == [2]
        assert report.final_pose == init


# (iteration budget per level, perturbation seed, final lateral m,
# longitudinal m, yaw rad, total iterations) of refine_pose on small_scene
# from PerturbBounds(5, 15). Recorded again when the coarsest level came to
# solve on every 4th point: the values moved by at most 2.0e-4 at budget 2
# and 3.7e-8 at budget 20, and no iteration count or stop changed. The
# budget-2 runs stop mid-trajectory, so they pin the iterates, not only the
# optimum.
_GOLDEN_SOLVES = [
    (20, 900, 1.596395382508779e-09, 5.492231890925968e-10, 4.3671419721682296e-11, 7),
    (20, 901, 6.415670477607964e-09, 3.0087697788743147e-10, -4.756623704627845e-10, 6),
    (20, 902, 4.045577910915864e-08, 1.7501658507057305e-10, -4.031505431830137e-09, 6),
    (2, 900, -0.000392236933159814, 3.548063227501268e-05, 4.1933000741228334e-05, 6),
    (2, 901, 0.00017381685154280196, -7.762245027573235e-06, -1.8735903734624228e-05, 5),
    (2, 903, -0.00010404336872708387, 8.758760286488937e-06, 1.1329317256419773e-05, 5),
]

# (budget, seed) of the same runs -> (stopped_by_tolerance per level, coarsest
# first; converged). A budget-2 run stops on the budget at some levels and
# still converges when the finest level meets the tolerance.
_GOLDEN_STOPS = {
    (20, 900): ((True, True, True), True),
    (20, 901): ((True, True, True), True),
    (20, 902): ((True, True, True), True),
    (2, 900): ((False, False, False), False),
    (2, 901): ((False, False, True), True),
    (2, 903): ((False, False, True), True),
}


class TestGoldenSolves:
    # ids name the run, not the recorded values, so recording again keeps them
    @pytest.mark.parametrize("budget,seed,lat,lon,yaw,iters", _GOLDEN_SOLVES,
                             ids=[f"budget{g[0]}-seed{g[1]}" for g in _GOLDEN_SOLVES])
    def test_matches_recorded_solve(self, small_scene, budget, seed, lat, lon, yaw,
                                    iters):
        init = sample_initial_pose(small_scene.gt_pose, PerturbBounds(5.0, 15.0), seed)
        report = refine_pose(small_scene, init, LMConfig(max_iters_per_level=budget))
        assert report.iterations_total == iters
        pose = report.final_pose
        assert abs(pose.lateral - lat) <= 1e-9
        assert abs(pose.longitudinal - lon) <= 1e-9
        assert abs(pose.yaw - yaw) <= 1e-9
        stops, converged = _GOLDEN_STOPS[budget, seed]
        assert [t.level for t in report.levels] == [2, 1, 0]
        # `is`: a JSON record writes Python bools, never numpy ones
        assert all(t.stopped_by_tolerance is stop
                   for t, stop in zip(report.levels, stops, strict=True))
        assert report.converged is converged


class TestGaugeConsistency:
    """Shifting the periodic satellite field and all poses east by the same
    amount is an exact symmetry of the cost landscape. LM iterates are only
    approximately equivariant (the yaw column of the Jacobian sees absolute
    map positions), so the trajectory check is on the final pose."""

    def _shifted_pair(self):
        # gamma = 0.25 so an integer-pixel shift is an exact float shift
        cfg = SynthConfig(seed=23, sat_size=128, gamma=0.25, point_count=200,
                          grd_width=192, grd_height=96, grd_focal=90.0,
                          depth_min=3.0, depth_max=12.0)
        problem = generate_scene(cfg)
        shift_px = 4  # divisible by 2**(levels-1) so every level rolls evenly
        de = shift_px * cfg.gamma
        rolled = []
        for lvl, (fmap, att) in enumerate(problem.sat_pyramid.levels):
            k = shift_px // 2**lvl
            data = np.roll(fmap.data, k, axis=1)
            rolled.append((FeatureMap(data), att))
        shifted = AlignmentProblem(
            sat_pyramid=FeaturePyramid(tuple(rolled)), georef=problem.georef,
            grd_pyramid=problem.grd_pyramid, intrinsics=problem.intrinsics,
            points=problem.points,
            gt_pose=translate_pose_east_south(problem.gt_pose, de, 0.0))
        return problem, shifted, de

    def test_cost_landscape_shifts_exactly(self):
        problem, shifted, de = self._shifted_pair()
        cost = RobustCost()
        rng = np.random.default_rng(4)
        for _ in range(20):
            pose = Pose3(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)),
                         float(rng.uniform(-0.2, 0.2)))
            moved = translate_pose_east_south(pose, de, 0.0)
            for lvl in range(problem.level_count):
                e1 = evaluate_pose(problem, pose, lvl)
                e2 = evaluate_pose(shifted, moved, lvl)
                assert np.array_equal(e1.alignment.valid_mask, e2.alignment.valid_mask)
                c1 = weighted_cost(e1.alignment.weights, e1.sq_norms, cost)
                c2 = weighted_cost(e2.alignment.weights, e2.sq_norms, cost)
                assert c2 == pytest.approx(c1, abs=1e-12)

    def test_solves_land_on_corresponding_optima(self):
        problem, shifted, de = self._shifted_pair()
        init = Pose3(1.0, -0.8, 0.04)
        r1 = refine_pose(problem, init)
        r2 = refine_pose(shifted, translate_pose_east_south(init, de, 0.0))
        expect = translate_pose_east_south(r1.final_pose, de, 0.0)
        assert r2.final_pose.lateral == pytest.approx(expect.lateral, abs=1e-4)
        assert r2.final_pose.longitudinal == pytest.approx(expect.longitudinal, abs=1e-4)
        assert r2.final_pose.yaw == pytest.approx(expect.yaw, abs=1e-6)


# (total iterations, accept flags per level from the coarsest, "1" for an
# accepted step) of the first 20 north-star trials: the default scene,
# 10 m / 30 deg, eval master seed 42. Recorded before the solver assembled
# its normal equations from the gradient planes; a change of rounding that
# flips a step's acceptance shows here.
_NORTH_STAR_STEPS = [
    (7, ("11111", "1", "1")),
    (6, ("1111", "1", "1")),
    (7, ("11111", "1", "1")),
    (7, ("11111", "1", "1")),
    (7, ("11111", "1", "1")),
    (8, ("111111", "1", "1")),
    (6, ("1111", "1", "1")),
    (7, ("11111", "1", "1")),
    (8, ("111111", "1", "1")),
    (7, ("11111", "1", "1")),
    (7, ("11111", "1", "1")),
    (7, ("11111", "1", "1")),
    (9, ("1111111", "1", "1")),
    (7, ("11111", "1", "1")),
    (7, ("11111", "1", "1")),
    (7, ("11111", "1", "1")),
    (7, ("11111", "1", "1")),
    (8, ("111111", "1", "1")),
    (8, ("111111", "1", "1")),
    (6, ("1111", "1", "1")),
]


def test_north_star_trials_keep_their_steps(default_scene):
    bounds = PerturbBounds(10.0, 30.0)
    got = []
    for trial in range(len(_NORTH_STAR_STEPS)):
        init = sample_initial_pose(default_scene.gt_pose, bounds, _trial_seed(42, trial))
        report = refine_pose(default_scene, init)
        got.append((report.iterations_total,
                    tuple("".join("1" if it.accepted else "0" for it in lv.iterations)
                          for lv in report.levels)))
    assert got == _NORTH_STAR_STEPS


def test_subset_solve_matches_full_solve(default_scene, monkeypatch):
    """The coarsest level on every 4th point ends the first 20 north-star
    trials where the same solve on every point does: the finer levels take
    both to the full-data optimum. On a clean scene every subset's optimum
    is the truth, so the finest level's row count is checked as well."""
    n = default_scene.points.count
    assert [len(ground_level_data(default_scene, lvl).points) for lvl in range(3)] == [
        n, n, -(-n // 4)]
    bounds = PerturbBounds(10.0, 30.0)
    inits = [sample_initial_pose(default_scene.gt_pose, bounds, _trial_seed(42, trial))
             for trial in range(20)]
    subset = [refine_pose(default_scene, init).final_pose for init in inits]
    monkeypatch.setattr(cvloc.problem, "COARSEST_STRIDE", 1)
    full_problem = dataclasses.replace(default_scene)  # its own ground cache
    assert len(ground_level_data(full_problem, 2).points) == n
    for init, got in zip(inits, subset):
        want = refine_pose(full_problem, init).final_pose
        assert abs(got.lateral - want.lateral) <= 1e-6
        assert abs(got.longitudinal - want.longitudinal) <= 1e-6
        assert abs(math.degrees(got.yaw - want.yaw)) <= 1e-5
