"""Acceptance suite: every criterion at its stated tolerance.

The numeric criteria run ``check-numerics``' own sweeps at acceptance
sizes, and the convergence and robustness criteria read one ``run_bounds``
call, so no criterion keeps a loop or seed scheme of its own. Each test
prints its [PASS]/[FAIL] lines; run with `pytest -s` to see them even on
success.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from cvloc.cvls import load_scene, save_scene
from cvloc.harness import checks
from cvloc.harness.runner import run_bounds
from cvloc.solver import RobustCost
from cvloc.synth import PerturbBounds, generate_scene

from conftest import SMALL_SCENE_CFG

#: The robustness curve's bounds; the convergence criteria read the 10:30 row.
_CURVE = [PerturbBounds(5, 15), PerturbBounds(10, 30), PerturbBounds(15, 45),
          PerturbBounds(20, 60)]


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _assert_results(results) -> None:
    for result in results:
        print(result.line())
    assert all(result.passed for result in results), [r.line() for r in results]


@pytest.fixture(scope="module")
def curve(default_scene):
    """100 seeded trials at each bound of ``_CURVE`` on the default scene,
    and the call's wall time."""
    start = time.perf_counter()
    results, _ = run_bounds(default_scene, 100, _CURVE, workers=2, master_seed=77)
    return results, time.perf_counter() - start


class TestAcceptance:
    def test_jacobian_fidelity(self):
        """Residual Jacobian vs finite differences on 100 seeded scenes."""
        start = time.perf_counter()
        [result] = checks._check_residual_jacobian(np.random.default_rng(100), scenes=100)
        elapsed = time.perf_counter() - start
        _assert_results([result])
        # more than half of the 100 scenes' 4800 points must be FD-safe
        assert result.compared > 2400, result.line()
        assert elapsed < 30.0, f"{elapsed:.1f}s (< 30s)"

    def test_projection_jacobian_fidelity(self):
        """Analytic projection Jacobian vs finite differences, 100 draws."""
        results = checks._check_projection_jacobian(np.random.default_rng(7), draws=100)
        assert len(results) == 4
        _assert_results(results)

    def test_lm_exactness(self):
        """lam=0 equals the dense least-squares oracle; damping shrinks steps."""
        _assert_results(checks._check_lm_step(np.random.default_rng(13), systems=50))

    def test_convergence_suite(self, curve):
        """100 seeded trials at the 10 m / 30 deg perturbation protocol."""
        results, elapsed = curve
        _, s, _ = results[_CURVE.index(PerturbBounds(10.0, 30.0))]
        ok = (s.recall_lateral[1.0] >= 90.0 and s.recall_longitudinal[1.0] >= 90.0
              and s.recall_yaw[2.0] >= 90.0
              and s.median_lateral < 0.25 and s.median_longitudinal < 0.25
              and s.median_yaw_deg < 0.5 and elapsed < 600.0)
        _report("convergence_suite", ok,
                f"recall@1m lat {s.recall_lateral[1.0]:.0f}/lon "
                f"{s.recall_longitudinal[1.0]:.0f} (>=90), yaw@2deg "
                f"{s.recall_yaw[2.0]:.0f} (>=90), medians "
                f"{s.median_lateral:.3f}m/{s.median_longitudinal:.3f}m/"
                f"{s.median_yaw_deg:.3f}deg, {elapsed:.0f}s for all "
                f"{len(_CURVE)} bounds (< 600s)")

    def test_robustness_curve(self, curve):
        """recall@1m monotone non-increasing over widening bounds."""
        results, _ = curve
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
        grids = [checks.grid_argmin_margin(
                     generate_scene(replace(SMALL_SCENE_CFG, seed=300 + i)), RobustCost(),
                     shifts, shifts, yaws) for i in range(10)]
        elapsed = time.perf_counter() - start
        assert {cells for _, cells in grids} == {21 * 21 * 11 - 1}
        margin = min(margin for margin, _ in grids)
        ok = margin > 0 and elapsed < 300.0
        _report("grid_oracle_optimality", ok,
                f"10 scenes, smallest margin of the gt cell {margin:.3e} (> 0), "
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
