"""Config parsing, single-run localization and batch evaluation.

One trial driver, ``run_bounds``, serves every batch run: the trials of all
perturbation bounds go through one serial loop or one thread pool, and
result row ``r = bound index * trials + trial`` draws its initial pose from
``SeedSequence((master seed, r))``. ``run_eval`` is its one-bound case.
So two runs from the same master seed and bound grid start row ``r`` at
the same pose, and ``paired_hits`` compares them row by row.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from ..errors import ConfigError, DegenerateProblemError, require_number
from ..geometry import Pose3
from ..metrics import MetricsSummary, PoseError, pose_error, summarize
from ..problem import AlignmentProblem
from ..solver import LMConfig, OptimReport, RobustCost, refine_pose
from ..synth import PerturbBounds, SynthConfig, sample_initial_pose

_TRIAL_CSV_COLUMNS = [
    "trial", "seed", "max_shift_m", "max_yaw_deg",
    "init_lateral_m", "init_longitudinal_m", "init_yaw_deg",
    "final_lateral_m", "final_longitudinal_m", "final_yaw_deg",
    "err_lateral_m", "err_longitudinal_m", "err_yaw_deg",
    "converged", "iterations", "status",
]


@dataclass(frozen=True)
class RunConfig:
    solver: LMConfig
    cost: RobustCost
    synth: SynthConfig


#: Each config section's dataclass and the types of its fields.
_SECTIONS = {name: (cls, get_type_hints(cls))
             for name, cls in get_type_hints(RunConfig).items()}


def _section(name: str, data: dict):
    """The section's dataclass from its keys, each one of the class's fields.
    Keys typed ``float`` must hold JSON numbers; the dataclass supplies every
    default and checks every value."""
    cls, hints = _SECTIONS[name]
    extra = set(data) - set(hints)
    if extra:
        raise ConfigError(f"unknown {name} keys {sorted(extra)}")
    return cls(**{key: require_number(key, value) if hints[key] is float else value
                  for key, value in data.items()})


def _reject_constant(name: str):
    """``json.load`` hook for the non-standard ``NaN`` and ``[-]Infinity``."""
    raise ConfigError(f"{name} is not a number; config values must be finite")


def load_config(path=None) -> RunConfig:
    """Parse a JSON config file; missing sections and keys take the defaults.

    Schema (all sections optional): ``solver`` (LM schedule), ``cost``
    (robust cost), ``synth`` (scene defaults).
    Angles are degrees. Numbers must be finite JSON numbers.
    """
    data = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh, parse_constant=_reject_constant)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        # bad UTF-8, bad JSON, an overlong integer, or nesting too deep to parse
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
    extra = set(data) - set(_SECTIONS)
    if extra:
        raise ConfigError(f"unknown config sections {sorted(extra)}")

    built = {}
    for name in _SECTIONS:
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section {name!r} must be an object")
        try:
            built[name] = _section(name, section)
        # DomainError is a ValueError; an integer too large for a float overflows
        except (OverflowError, ValueError) as exc:
            raise ConfigError(f"section {name!r}: {exc}") from exc
    return RunConfig(**built)


def parse_init_pose(text: str) -> Pose3:
    """Parse "lateral_m,longitudinal_m,yaw_deg"."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--init expects 'lat_m,lon_m,yaw_deg', got {text!r}")
    try:
        lat, lon, yaw_deg = (float(p) for p in parts)
        return Pose3(lat, lon, math.radians(yaw_deg))
    except ValueError as exc:  # a non-numeric field, or Pose3's finiteness rule
        raise ConfigError(f"--init fields must be finite numbers, got {text!r}: "
                          f"{exc}") from exc


def run_localize(problem: AlignmentProblem, init_pose: Pose3,
                 config: RunConfig | None = None) -> dict:
    """Localize ``problem`` from ``init_pose`` and return the run record's
    solve fields: poses, error, convergence, per-level trace and wall time.
    Raises DegenerateProblemError when the solve's report reads
    ``degenerate``.
    """
    config = config or load_config(None)
    start = time.perf_counter()
    report = refine_pose(problem, init_pose, config.solver, config.cost)
    wall = time.perf_counter() - start
    if report.degenerate:
        raise DegenerateProblemError(_masked_level(report))

    err = pose_error(report.final_pose, problem.gt_pose)
    return {
        "init_pose": init_pose.to_dict(),
        "gt_pose": problem.gt_pose.to_dict(),
        "final_pose": report.final_pose.to_dict(),
        "error": {"lateral_m": err.lateral_err, "longitudinal_m": err.longitudinal_err,
                  "yaw_deg": err.yaw_err_deg},
        "converged": report.converged,
        "iterations_total": report.iterations_total,
        "trace": [lv.to_dict() for lv in report.levels],
        "wall_time_s": wall,
    }


def _masked_level(report: OptimReport) -> str:
    return f"all points masked at pyramid level {report.levels[-1].level}"


def _trial_seed(master: int, trial: int) -> int:
    """Seed of trial id ``trial``: bound index * trials per bound + the
    trial's index at its bound."""
    return int(np.random.SeedSequence((master, trial)).generate_state(1)[0])


def _eval_trial(problem: AlignmentProblem, trial: int, master: int,
                bounds: PerturbBounds, solver: LMConfig | None,
                cost: RobustCost | None) -> dict:
    seed = _trial_seed(master, trial)
    init = sample_initial_pose(problem.gt_pose, bounds, seed)
    row = {
        "trial": trial,
        "seed": seed,
        "max_shift_m": bounds.max_shift,
        "max_yaw_deg": bounds.max_yaw_deg,
        "init_lateral_m": init.lateral,
        "init_longitudinal_m": init.longitudinal,
        "init_yaw_deg": math.degrees(init.yaw),
    }
    report = refine_pose(problem, init, solver, cost)
    if report.degenerate:  # the solve's columns stay empty
        return {**dict.fromkeys(_TRIAL_CSV_COLUMNS, ""), **row,
                "status": f"degenerate: {_masked_level(report)}"}
    err = pose_error(report.final_pose, problem.gt_pose)
    row.update({
        "final_lateral_m": report.final_pose.lateral,
        "final_longitudinal_m": report.final_pose.longitudinal,
        "final_yaw_deg": math.degrees(report.final_pose.yaw),
        "err_lateral_m": err.lateral_err,
        "err_longitudinal_m": err.longitudinal_err,
        "err_yaw_deg": err.yaw_err_deg,
        "converged": report.converged,
        "iterations": report.iterations_total,
        "status": "ok",
    })
    return row


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_bounds(problem: AlignmentProblem, trials: int, bound_grid, workers: int = 1,
               master_seed: int = 0, config: RunConfig | None = None
               ) -> tuple[list[tuple[PerturbBounds, MetricsSummary, int]], list]:
    """Seeded trials at each bound of ``bound_grid``, ``trials`` per bound.

    Returns ((bounds, summary, failure count) per bound, all rows in row
    order). Row ``r = bound index * trials + trial`` is seeded by
    (master_seed, r) alone, so the output is identical for any worker
    count. ``workers`` is an upper bound: at most one thread runs per row
    and per available CPU. Failed trials (degenerate problems) count as
    misses in the recalls. Raises DegenerateProblemError, naming the bound, if every
    trial at some bound fails, and ConfigError if the grid is empty.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ConfigError(f"worker count must be >= 1, got {workers}")
    config = config or load_config(None)
    grid = list(bound_grid)
    if not grid:
        raise ConfigError("the bound grid is empty; give at least one bound")
    jobs = [(b * trials + t, bounds) for b, bounds in enumerate(grid)
            for t in range(trials)]

    def one(job: tuple) -> dict:
        trial, bounds = job
        return _eval_trial(problem, trial, master_seed, bounds, config.solver, config.cost)

    threads = min(workers, len(jobs), available_cpus())
    if threads == 1:
        rows = [one(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(one, jobs))

    results = []
    for b, bounds in enumerate(grid):
        errors = [PoseError(row["err_lateral_m"], row["err_longitudinal_m"],
                            row["err_yaw_deg"])
                  for row in rows[b * trials:(b + 1) * trials] if row["status"] == "ok"]
        if not errors:
            raise DegenerateProblemError(
                f"all {trials} trials failed at max shift {bounds.max_shift} m, "
                f"max yaw {bounds.max_yaw_deg} deg")
        results.append((bounds, summarize(errors, trial_count=trials),
                        trials - len(errors)))
    return results, rows


def run_eval(problem: AlignmentProblem, trials: int, bounds: PerturbBounds,
             workers: int = 1, master_seed: int = 0,
             config: RunConfig | None = None) -> tuple[MetricsSummary, list, int]:
    """``run_bounds`` at one bound: returns (summary, per-trial rows, failure
    count). Trial t is seeded by (master_seed, t)."""
    [(_, summary, failures)], rows = run_bounds(problem, trials, [bounds], workers,
                                                master_seed, config)
    return summary, rows, failures


def write_trials_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=_TRIAL_CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def eval_summary(results, trials: int, master_seed: int) -> dict:
    """The ``summary.json`` payload of a ``run_bounds`` result."""
    return {
        "master_seed": master_seed,
        "trials_per_bound": trials,
        "results": [{"bounds": {"max_shift_m": bounds.max_shift,
                                "max_yaw_deg": bounds.max_yaw_deg},
                     "failures": failures, "summary": summary.to_dict()}
                    for bounds, summary, failures in results],
    }


#: A paired hit: |lateral| and |longitudinal| error both below this, in meters.
PAIRED_HIT_M = 1.0


def _cell(row: dict, column: str, kind=float):
    """``row[column]``, a number or a trials.csv string, as ``kind``; a
    ConfigError names a column that is missing or does not parse."""
    try:
        if row[column] is None:  # a csv row short of fields
            raise KeyError(column)
        return kind(row[column])
    except (KeyError, ValueError):
        raise ConfigError(f"column {column}: {row.get(column)!r} is not {kind.__name__}") from None


def _row_key(row: dict) -> tuple:
    return (_cell(row, "trial", int), _cell(row, "seed", int), _cell(row, "max_shift_m"),
            _cell(row, "max_yaw_deg"))


def _is_hit(row: dict) -> bool:
    return (_cell(row, "status", str) == "ok"
            and abs(_cell(row, "err_lateral_m")) < PAIRED_HIT_M
            and abs(_cell(row, "err_longitudinal_m")) < PAIRED_HIT_M)


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` against ``losses``
    discordant pairs, each side equally likely under the null; 1 for none."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2**n)


def paired_hits(rows: list, baseline: list, trials: int) -> list[dict]:
    """Hits of two ``run_bounds`` row lists paired row by row, per bound.

    Both lists must come from the same master seed, trial count and bound
    grid, so row ``r`` starts at the same pose in both; ConfigError
    otherwise. A hit is |lateral| and |longitudinal| < ``PAIRED_HIT_M``; a
    failed trial is a miss. Per bound (``trials`` rows each, in row order)
    returns the bound, both hit counts, the rows hit only here and only in
    the baseline, and the exact two-sided sign-test p of those two counts.
    """
    if trials < 1 or len(rows) != len(baseline) or len(rows) % trials:
        raise ConfigError(f"the baseline has {len(baseline)} rows and this run "
                          f"{len(rows)}, at {trials} trials per bound")
    for row, base in zip(rows, baseline):
        if _row_key(row) != _row_key(base):
            raise ConfigError(f"baseline row {base['trial']} has another seed or bound: "
                              "give it the same --seed, --trials and --bounds")
    out = []
    for b in range(0, len(rows), trials):
        pairs = [(_is_hit(row), _is_hit(base))
                 for row, base in zip(rows[b:b + trials], baseline[b:b + trials])]
        only_here = sum(here and not base for here, base in pairs)
        only_baseline = sum(base and not here for here, base in pairs)
        out.append({"bounds": {"max_shift_m": float(rows[b]["max_shift_m"]),
                               "max_yaw_deg": float(rows[b]["max_yaw_deg"])},
                    "hits": sum(here for here, _ in pairs),
                    "baseline_hits": sum(base for _, base in pairs),
                    "hits_only_here": only_here, "hits_only_baseline": only_baseline,
                    "sign_test_p": sign_test_p(only_here, only_baseline)})
    return out
