#!/usr/bin/env python3
"""cvloc benchmark: run one workload in this process and report its metrics.

Usage, from the root of a checkout of the repository:

    python3 bench/run.py --workload default-10m30 --seed 42 --seconds 45 --trace 0

The workload seed S sets the scene seeds (S, S+1, ...) and the eval
master seed. Each scene is generated, saved as a CVLS file and loaded
back; the localization code only sees loaded scenes. Output checks run on
everything measured. With ``--trace 0`` the last line of standard output
is the end-to-end result; with ``--trace 1`` it holds the per-layer split,
timed by wrappers on the module attributes that ``cvloc.harness.runner``,
``cvloc.solver`` and ``cvloc.problem`` call through. The line before it
carries provenance, sample counts and the checks. The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import Hook, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Largest |residual| accepted at the true pose of a loaded scene. The
#: generator reaches ~3e-8; CVLS stores float32.
ZERO_RESIDUAL_TOL = 1e-6

#: Save/load round trips per generated scene; they are cheap and noisy.
SAVE_LOAD_REPEATS = 3

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Perturbation bounds (m, deg) of the eval workloads and of the traced
#: 20 m / 60 deg pass, whose misses spend the whole iteration budget.
NORTH_STAR = (10.0, 30.0)
WIDE = (20.0, 60.0)

#: Workload name -> eval worker threads. Both use the north-star protocol.
WORKLOADS = {
    "default-10m30": 1,
    "eval-2w": 2,
}


@dataclass(frozen=True)
class Sizes:
    eval_trials: int    # trials of one eval round; every round repeats them
    min_rounds: int     # rounds run even past --seconds
    trace_trials: int   # trials of one pass of the traced run
    wide_trials: int    # trials of the traced run's 20 m / 60 deg pass
    worker_check_trials: int  # trials re-run on one worker when workers > 1
    synth: dict = field(default_factory=dict)


FULL = Sizes(eval_trials=100, min_rounds=3, trace_trials=20, wide_trials=40,
             worker_check_trials=10)
QUICK = Sizes(eval_trials=4, min_rounds=2, trace_trials=2, wide_trials=2,
              worker_check_trials=2,
              synth=dict(sat_size=256, levels=2, channels=4, point_count=200))

#: Fresh-process set-up: import the package and load the workload's scene.
_SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cvloc.harness.runner
from cvloc.cvls import load_scene
load_scene(sys.argv[2])
print(time.perf_counter() - start)
"""


def load_cvloc():
    """Import cvloc from this checkout's ``src``; exit if it is missing."""
    if not (SRC / "cvloc" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'cvloc'} not found; run from a checkout "
                         "of the cvloc repository")
    sys.path.insert(0, str(SRC))
    import cvloc
    import cvloc.cvls
    import cvloc.errors
    import cvloc.harness.runner
    import cvloc.problem
    import cvloc.solver
    import cvloc.synth
    if Path(cvloc.__file__).resolve().parent != SRC / "cvloc":
        raise SystemExit(f"error: imported cvloc from {cvloc.__file__}, not {SRC}")
    return cvloc


class Result:
    """Metrics, sample counts and output checks of one run."""

    def __init__(self):
        self.metrics: dict[str, dict] = {}
        self.samples: dict[str, int] = {}
        self.checks: list[dict] = []
        self.counts: dict[str, int] = {}
        self.series: dict[str, list] = {}  # per-cycle samples behind the medians
        self.attempted = 0
        self.failed = 0

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        self.samples[name] = int(samples)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return ok

    @property
    def correct(self) -> bool:
        return all(c["ok"] for c in self.checks)


class SolveTimer:
    """Thin wall-clock timer on ``runner.refine_pose``.

    Keeps (initial pose, seconds, report) per call; the initial pose
    identifies the trial whichever worker ran it.
    """

    def __init__(self, runner):
        self.runner = runner
        self.samples: list[tuple[tuple, float, object]] = []

    def __enter__(self):
        self.original = original = self.runner.refine_pose

        def timed(problem, init, *args, **kwargs):
            start = time.perf_counter()
            report = None
            try:
                report = original(problem, init, *args, **kwargs)
                return report
            finally:
                key = (init.lateral, init.longitudinal, init.yaw)
                self.samples.append((key, time.perf_counter() - start, report))

        self.runner.refine_pose = timed
        return self

    def __exit__(self, *exc):
        self.runner.refine_pose = self.original
        return False

    def take(self) -> list[tuple[tuple, float, object]]:
        out, self.samples = self.samples, []
        return out


@dataclass
class Round:
    trials: int
    wall_s: float
    cpu_s: float
    summary: object
    rows: list
    failures: int
    solves: list


def eval_round(cv, res: Result, timer: SolveTimer, problem, bounds: tuple,
               workers: int, trials: int, master_seed: int) -> Round:
    """One ``run_eval`` call; a CvlocError escaping it fails the run."""
    res.attempted += trials
    start, cpu = time.perf_counter(), time.process_time()
    try:
        summary, rows, failures = cv.harness.runner.run_eval(
            problem, trials, cv.synth.PerturbBounds(*bounds), workers=workers,
            master_seed=master_seed)
    except cv.errors.CvlocError:
        res.failed += trials
        raise
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    res.failed += failures
    return Round(trials, wall, cpu, summary, rows, failures, timer.take())


@dataclass
class SceneIO:
    generate_ms: list = field(default_factory=list)
    save_ms: list = field(default_factory=list)
    load_ms: list = field(default_factory=list)
    scene_bytes: int = 0


def scene_sample(cv, res: Result, io: SceneIO, sizes: Sizes, seed: int, path: Path):
    """Generate scene ``seed``, then save it to ``path`` and load it back
    ``SAVE_LOAD_REPEATS`` times, all timed. Counts as one operation."""
    res.attempted += 1
    try:
        start = time.perf_counter()
        scene = cv.synth.generate_scene(cv.synth.SynthConfig(seed=seed, **sizes.synth))
        io.generate_ms.append(1e3 * (time.perf_counter() - start))
        for _ in range(SAVE_LOAD_REPEATS):
            start = time.perf_counter()
            cv.cvls.save_scene(path, scene)
            io.save_ms.append(1e3 * (time.perf_counter() - start))
            start = time.perf_counter()
            loaded = cv.cvls.load_scene(path)
            io.load_ms.append(1e3 * (time.perf_counter() - start))
    except cv.errors.CvlocError:
        res.failed += 1
        raise
    io.scene_bytes = path.stat().st_size
    if not check_round_trip(cv, res, scene, loaded, path, seed):
        res.failed += 1
    return loaded


def check_round_trip(cv, res: Result, scene, loaded, path: Path, seed: int) -> bool:
    arrays = [(scene.points.points, loaded.points.points)]
    for pyr_a, pyr_b in ((scene.sat_pyramid, loaded.sat_pyramid),
                         (scene.grd_pyramid, loaded.grd_pyramid)):
        for (fa, aa), (fb, ab) in zip(pyr_a.levels, pyr_b.levels):
            arrays += [(fa.data, fb.data), (aa.data, ab.data)]
    equal = all(np.array_equal(a.astype(np.float32), b) for a, b in arrays)
    resaved = path.with_suffix(".resaved")
    cv.cvls.save_scene(resaved, loaded)
    same_bytes = path.read_bytes() == resaved.read_bytes()
    return res.check(f"scene {seed}: CVLS round trip is array-equal and re-saves "
                     "byte-identical", equal and same_bytes,
                     f"arrays equal={equal}, bytes equal={same_bytes}")


def check_zero_residual(cv, res: Result, problem) -> None:
    worst, valid = 0.0, True
    for level in range(problem.level_count):
        ev = cv.problem.evaluate_pose(problem, problem.gt_pose, level=level)
        mask = ev.alignment.valid_mask
        valid &= bool(np.any(mask))
        if np.any(mask):
            worst = max(worst, float(np.max(np.abs(ev.alignment.residuals[mask]))))
    res.check("loaded scene has zero residual at gt_pose on every level",
              valid and worst <= ZERO_RESIDUAL_TOL, f"max |r| = {worst:.3g}")


def check_reports(res: Result, solves) -> None:
    """Accepted costs never rise within a level; final poses are finite."""
    bad = 0
    for _, _, report in solves:
        if report is None:
            continue
        pose = report.final_pose
        ok = all(math.isfinite(v) for v in (pose.lateral, pose.longitudinal, pose.yaw))
        for level in report.levels:
            costs = [it.cost for it in level.iterations]
            ok &= all(math.isfinite(c) for c in costs)
            ok &= all(b <= a for a, b in zip(costs, costs[1:]))
        bad += not ok
    res.check("every solve: accepted cost non-increasing, finite final pose",
              bad == 0, f"{bad} of {len(solves)} solves violate it")


def check_rounds_agree(res: Result, rounds: list[Round], what: str) -> None:
    res.check(f"{what} return identical rows", all(r.rows == rounds[0].rows for r in rounds))


def setup_sample(res: Result, scene_path: Path) -> float | None:
    """Import + load time in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), str(scene_path)],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if not res.check("set-up process ran", proc.returncode == 0,
                     proc.stderr.strip()[-500:]):
        return None
    return float(proc.stdout.strip().splitlines()[-1])


def solve_counts(solves, max_iters: int) -> dict[str, int]:
    """Exact counts read from the solver's reports."""
    reports = [r for _, _, r in solves if r is not None]
    levels = [lv for r in reports for lv in r.levels]
    return {
        "solves": len(solves),
        "iterations": sum(r.iterations_total for r in reports),
        "accepted_steps": sum(it.accepted for lv in levels for it in lv.iterations),
        "converged": sum(r.converged for r in reports),
        "budget_stops": sum(len(lv.iterations) == max_iters
                            and not lv.stopped_by_tolerance for lv in levels),
    }


def per_trial_median_ms(solves) -> list[float]:
    """Each trial's solve time as the median over the rounds that ran it."""
    by_trial = defaultdict(list)
    for key, seconds, _ in solves:
        by_trial[key].append(seconds)
    return [1e3 * statistics.median(v) for v in by_trial.values()]


def run_untraced(cv, res: Result, sizes: Sizes, workers: int, seed: int, seconds: float,
                 problem, scene_path: Path, io: SceneIO, work: Path) -> None:
    """Cycles of: one eval round (the same trials each time), one scene
    generate/save/load, one fresh-process set-up. Each metric is a median
    over cycles, so a slow stretch of the machine moves it less."""
    runner = cv.harness.runner
    rounds, setup = [], []
    start = time.perf_counter()
    with SolveTimer(runner) as timer:
        while True:
            rounds.append(eval_round(cv, res, timer, problem, NORTH_STAR, workers,
                                     sizes.eval_trials, seed))
            scene_sample(cv, res, io, sizes, seed + len(rounds), work / "cycle.cvls")
            setup.append(setup_sample(res, scene_path))
            elapsed = time.perf_counter() - start
            if (len(rounds) >= sizes.min_rounds
                    and elapsed * (len(rounds) + 1) / len(rounds) > seconds):
                break
    check_rounds_agree(res, rounds, "repeated eval rounds")
    quality = rounds[0]
    res.check("eval returned one row per trial",
              len(quality.rows) == quality.trials
              and quality.summary.trial_count == quality.trials)
    if workers > 1:
        k = sizes.worker_check_trials
        _, rows, _ = runner.run_eval(problem, k, cv.synth.PerturbBounds(*NORTH_STAR),
                                     workers=1, master_seed=seed)
        res.check(f"first {k} trials identical on 1 and {workers} workers",
                  rows == quality.rows[:k])
    solves = [s for r in rounds for s in r.solves]
    check_reports(res, solves)

    setup = [s for s in setup if s is not None]
    if setup:
        res.put("setup_s", statistics.median(setup), "s", len(setup))
    rates = [r.trials / r.wall_s for r in rounds]
    solve_ms = per_trial_median_ms(solves)
    res.put("trials_per_s", statistics.median(rates), "1/s", len(rates))
    res.put("solve_ms_p50", np.percentile(solve_ms, 50), "ms", len(solve_ms))
    res.put("solve_ms_p90", np.percentile(solve_ms, 90), "ms", len(solve_ms))
    s, n = quality.summary, quality.trials
    res.put("recall_lat_1m_pct", s.recall_lateral[1.0], "%", n)
    res.put("recall_lon_1m_pct", s.recall_longitudinal[1.0], "%", n)
    res.put("recall_yaw_2deg_pct", s.recall_yaw[2.0], "%", n)
    res.put("ok_trials_pct", 100.0 * (n - quality.failures) / n, "%", n)
    res.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB", 1)
    res.put("generate_ms_p50", statistics.median(io.generate_ms), "ms", len(io.generate_ms))
    res.put("save_ms_p50", statistics.median(io.save_ms), "ms", len(io.save_ms))
    res.put("load_ms_p50", statistics.median(io.load_ms), "ms", len(io.load_ms))
    res.counts = {"eval_trials": n, "rounds": len(rounds), "scenes": len(io.generate_ms)}
    res.series = {"round_trials_per_s": rates, "setup_s": setup,
                  "generate_ms": io.generate_ms, "load_ms": io.load_ms}


def trace_hooks(cv) -> list[Hook]:
    """Span name per layer for each attribute the program calls through."""
    solver, problem, runner = cv.solver, cv.problem, cv.harness.runner

    def gather(data_of):
        # Values gathered at the 4 bilinear corners, computed from shapes.
        def count(args, kwargs):
            data, uv = data_of(args[0]), args[1]
            n, c = len(uv), (data.shape[2] if data.ndim == 3 else 1)
            return {"points": n, "bytes": n * c * 4 * data.itemsize}
        return count

    return [
        Hook(runner, "refine_pose", "solver.refine_pose"),
        Hook(solver, "ground_level_data", "problem.ground_level_data"),
        Hook(solver, "evaluate_pose", "problem.evaluate_pose"),
        Hook(solver, "d_satproj_d_pose_many", "geometry.proj_jacobian"),
        Hook(solver, "lm_step", "solver.lm_step"),
        Hook(solver, "cho_factor", "solver.cholesky"),
        Hook(solver, "cho_solve", "solver.cholesky"),
        Hook(solver, "weighted_cost", "solver.robust_cost"),
        Hook(solver, "build_weight_matrix", "solver.robust_cost"),
        Hook(problem, "bilinear_lookup_many", "features.lookup", gather(lambda d: d)),
        Hook(problem, "attention_lookup_many", "features.lookup",
             gather(lambda amap: amap.data)),
        Hook(problem, "pose_to_transform", "geometry.transform_project"),
        Hook(problem, "transform_points", "geometry.transform_project"),
        Hook(problem, "project_satellite", "geometry.transform_project"),
        Hook(problem, "project_ground", "geometry.project_ground"),
    ]


def run_traced(cv, res: Result, sizes: Sizes, workers: int, seed: int, seconds: float,
               problem, io: SceneIO) -> None:
    """One untraced 20 m / 60 deg pass for its iteration and recall counts,
    then untraced and traced passes over the same trials, alternating."""
    tracer = Tracer(trace_hooks(cv))
    plain, traced = [], []
    start = time.perf_counter()
    with SolveTimer(cv.harness.runner) as timer:
        wide = eval_round(cv, res, timer, problem, WIDE, 1, sizes.wide_trials, seed)
        while not traced or time.perf_counter() - start < seconds:
            plain.append(eval_round(cv, res, timer, problem, NORTH_STAR, workers,
                                    sizes.trace_trials, seed))
            with tracer:
                traced.append(eval_round(cv, res, timer, problem, NORTH_STAR, workers,
                                         sizes.trace_trials, seed))
    check_rounds_agree(res, plain + traced, "untraced and traced passes")
    check_reports(res, [s for r in plain + traced + [wide] for s in r.solves])

    max_iters = cv.solver.LMConfig().max_iters_per_level
    counts = solve_counts(plain[0].solves, max_iters)
    wide_counts = solve_counts(wide.solves, max_iters)
    n, nw = counts["solves"], wide_counts["solves"]
    totals = tracer.totals()
    roots = [s for s in tracer.spans if s.name == "solver.refine_pose"]
    solves = len(roots)
    lookups = tracer.counts["features.lookup"]

    def ms(name: str, kind: str) -> float:
        return 1e3 * totals.get(name, {}).get(kind, 0.0) / solves

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0) / solves

    def ms_per_iteration(rounds) -> tuple[float, int]:
        timed = [s for r in rounds for s in r.solves]
        iters = solve_counts(timed, max_iters)["iterations"]
        return 1e3 * sum(t for _, t, _ in timed) / iters, iters

    mb = io.scene_bytes / 1e6
    res.put("cvls.scene_mb", mb, "MB", 1)
    res.put("cvls.load_mb_per_s", 1e3 * mb / statistics.median(io.load_ms), "MB/s",
            len(io.load_ms))
    res.put("synth.generate_ms", statistics.median(io.generate_ms), "ms",
            len(io.generate_ms))
    res.put("features.lookup_ms_per_solve", ms("features.lookup", "total_s"), "ms", solves)
    res.put("features.lookup_calls_per_solve", calls("features.lookup"), "count", solves)
    res.put("features.points_gathered_per_solve", lookups["points"] / solves, "count",
            solves)
    res.put("features.gather_mb_per_solve", lookups["bytes"] / 1e6 / solves, "MB", solves)
    res.put("solver.assembly_self_ms_per_solve", ms("solver.refine_pose", "self_s"), "ms",
            solves)
    res.put("solver.lm_step_self_ms_per_solve", ms("solver.lm_step", "self_s"), "ms",
            solves)
    res.put("solver.cholesky_ms_per_solve", ms("solver.cholesky", "total_s"), "ms", solves)
    res.put("solver.robust_cost_ms_per_solve", ms("solver.robust_cost", "total_s"), "ms",
            solves)
    plain_ms, plain_iters = ms_per_iteration(plain)
    res.put("solver.ms_per_iteration", plain_ms, "ms", plain_iters)
    res.put("solver.iterations_per_solve", counts["iterations"] / n, "count", n)
    res.put("solver.accepted_step_ratio", counts["accepted_steps"] / counts["iterations"],
            "ratio", counts["iterations"])
    res.put("solver.converged_pct", 100.0 * counts["converged"] / n, "%", n)
    res.put("solver.budget_stops_per_solve", counts["budget_stops"] / n, "count", n)
    res.put("solver.ms_per_iteration_20m60", ms_per_iteration([wide])[0], "ms",
            wide_counts["iterations"])
    res.put("solver.iterations_per_solve_20m60", wide_counts["iterations"] / nw, "count", nw)
    res.put("solver.accepted_step_ratio_20m60",
            wide_counts["accepted_steps"] / wide_counts["iterations"], "ratio",
            wide_counts["iterations"])
    res.put("solver.converged_pct_20m60", 100.0 * wide_counts["converged"] / nw, "%", nw)
    res.put("solver.budget_stops_per_solve_20m60", wide_counts["budget_stops"] / nw,
            "count", nw)
    res.put("problem.ground_level_ms_per_solve", ms("problem.ground_level_data", "total_s"),
            "ms", solves)
    res.put("problem.evaluate_self_ms_per_solve", ms("problem.evaluate_pose", "self_s"),
            "ms", solves)
    res.put("problem.evaluate_calls_per_solve", calls("problem.evaluate_pose"), "count",
            solves)
    res.put("geometry.transform_project_ms_per_solve",
            ms("geometry.transform_project", "total_s"), "ms", solves)
    res.put("geometry.proj_jacobian_ms_per_solve", ms("geometry.proj_jacobian", "total_s"),
            "ms", solves)
    s, sw = plain[0].summary, wide.summary
    res.put("metrics.median_lat_m", s.median_lateral, "m", n)
    res.put("metrics.median_lon_m", s.median_longitudinal, "m", n)
    res.put("metrics.median_yaw_deg", s.median_yaw_deg, "deg", n)
    res.put("metrics.recall_lat_1m_pct_20m60", sw.recall_lateral[1.0], "%", nw)
    res.put("metrics.recall_yaw_2deg_pct_20m60", sw.recall_yaw[2.0], "%", nw)
    res.put("runner.worker_utilization",
            sum(t for r in plain for _, t, _ in r.solves)
            / (workers * sum(r.wall_s for r in plain)), "ratio", len(plain))
    res.put("process.cpu_per_wall",
            sum(r.cpu_s for r in plain) / sum(r.wall_s for r in plain), "ratio", len(plain))
    res.put("trace.overhead_pct",
            100.0 * (statistics.median(r.wall_s for r in traced)
                     / statistics.median(r.wall_s for r in plain) - 1.0),
            "%", len(traced))
    gap = sum(abs(sum(tracer.self_time(s) for s in tracer.subtree(root)) - root.duration)
              for root in roots)
    res.put("trace.self_sum_gap_pct", 100.0 * gap / sum(r.duration for r in roots), "%",
            solves)
    res.counts = {
        **counts,
        **{f"{k}_20m60": v for k, v in wide_counts.items()},
        "lookup_calls": totals["features.lookup"]["calls"] // len(traced),
        "points_gathered": int(lookups["points"]) // len(traced),
        "passes": len(traced),
    }


def provenance(cv, seed: int, sizes: Sizes) -> dict:
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                  capture_output=True, timeout=30)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # build info layout differs across numpy versions
        blas = f"unknown ({type(exc).__name__})"
    return {
        "commit": commit,
        "seed": seed,
        "sizes": dict(sizes.__dict__),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cvloc": cv.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def run_workload(cv, args, res: Result) -> None:
    sizes = QUICK if args.quick else FULL
    workers = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        io = SceneIO()
        scene_path = work / "scene.cvls"
        problem = scene_sample(cv, res, io, sizes, args.seed, scene_path)
        check_zero_residual(cv, res, problem)
        if args.trace:
            for i in (1, 2):
                scene_sample(cv, res, io, sizes, args.seed + i, work / "extra.cvls")
            run_traced(cv, res, sizes, workers, args.seed, args.seconds, problem, io)
        else:
            run_untraced(cv, res, sizes, workers, args.seed, args.seconds, problem,
                         scene_path, io, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny scene and few trials, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cv = load_cvloc()
    res = Result()
    try:
        run_workload(cv, args, res)
    except cv.errors.CvlocError as exc:
        res.check("no CvlocError escapes the workload", False,
                  f"{type(exc).__name__}: {exc}")
    for name, m in res.metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']:6s} n={res.samples[name]}")
    for c in res.checks:
        if not c["ok"]:
            print(f"CHECK FAILED: {c['name']} ({c['detail']})", file=sys.stderr)
    detail = {"workload": args.workload, "trace": args.trace,
              "provenance": provenance(cv, args.seed, QUICK if args.quick else FULL),
              "samples": res.samples, "counts": res.counts, "series": res.series,
              "checks": res.checks}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": res.metrics}))
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
