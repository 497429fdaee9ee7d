"""Quick-mode runs of every workload, the result contract and failure paths.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def quick(workload, trace, seed=3):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_spec_workloads_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_prints_every_metric(workload, trace):
    detail, result = quick(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert detail["samples"][m["name"]] >= 1
    assert all(c["ok"] for c in detail["checks"])
    assert detail["provenance"]["seed"] == 3


#: Per-layer metrics that are exact functions of the seed: counts, quality.
EXACT = [
    "cvls.scene_mb",
    "features.lookup_calls_per_solve", "features.points_gathered_per_solve",
    "features.gather_mb_per_solve",
    "solver.iterations_per_solve", "solver.accepted_step_ratio", "solver.converged_pct",
    "solver.budget_stops_per_solve",
    "solver.iterations_per_solve_20m60", "solver.accepted_step_ratio_20m60",
    "solver.converged_pct_20m60", "solver.budget_stops_per_solve_20m60",
    "problem.evaluate_calls_per_solve",
    "metrics.median_lat_m", "metrics.median_lon_m", "metrics.median_yaw_deg",
    "metrics.recall_lat_1m_pct_20m60", "metrics.recall_yaw_2deg_pct_20m60",
]


def test_counts_and_quality_repeat_exactly():
    detail_a, first = quick("eval-2w", 1)
    detail_b, second = quick("eval-2w", 1)
    assert {n: first["metrics"][n] for n in EXACT} == {n: second["metrics"][n] for n in EXACT}
    assert detail_a["counts"] == detail_b["counts"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = bench("--workload", "eval-2w", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def cv():
    return run.load_cvloc()


def run_main(capsys, *args):
    code = run.main(["--workload", "default-10m30", "--seed", "5", "--seconds", "0",
                     "--quick", *args])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def test_cvloc_error_from_run_eval_fails_the_run(cv, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise cv.errors.SingularSystemError("injected")

    monkeypatch.setattr(cv.harness.runner, "run_eval", broken)
    code, result = run_main(capsys)
    assert code != 0
    assert result["correct"] is False
    # the first scene round trip succeeded; the whole first eval round failed
    assert result["attempted"] == run.QUICK.eval_trials + 1
    assert result["failed"] == run.QUICK.eval_trials


def test_wrong_scene_fails_the_output_checks(cv, monkeypatch, capsys):
    load = cv.cvls.load_scene

    def shifted(path):
        scene = load(path)
        gt = scene.gt_pose
        return dataclasses.replace(scene, gt_pose=type(gt)(gt.lateral + 1.0,
                                                           gt.longitudinal, gt.yaw))

    monkeypatch.setattr(cv.cvls, "load_scene", shifted)
    code, result = run_main(capsys, "--trace", "1")
    assert code != 0 and result["correct"] is False


def test_traced_run_restores_every_wrapper(cv, capsys):
    hooks = run.trace_hooks(cv)
    before = [getattr(h.module, h.attr) for h in hooks]
    code, _ = run_main(capsys, "--trace", "1")
    assert code == 0
    assert [getattr(h.module, h.attr) for h in hooks] == before
