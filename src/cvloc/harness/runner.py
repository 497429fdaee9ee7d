"""Config parsing, single-run localization, batch evaluation and sweeps."""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from ..cvls import MAGIC, load_scene
from ..errors import ConfigError, DegenerateProblemError, require_number
from ..geometry import Pose3
from ..losses import LossConfig, total_loss
from ..metrics import (SHIFT_THRESHOLDS_M, YAW_THRESHOLDS_DEG, MetricsSummary, PoseError,
                       pose_error, summarize)
from ..problem import AlignmentProblem
from ..solver import LMConfig, RobustCost, refine_pose
from ..synth import PerturbBounds, SynthConfig, generate_scene, sample_initial_pose

_TRIAL_CSV_COLUMNS = [
    "trial", "seed",
    "init_lateral_m", "init_longitudinal_m", "init_yaw_deg",
    "final_lateral_m", "final_longitudinal_m", "final_yaw_deg",
    "err_lateral_m", "err_longitudinal_m", "err_yaw_deg",
    "converged", "iterations", "status",
]

_SWEEP_CSV_COLUMNS = [
    "max_shift_m", "max_yaw_deg",
    "median_lateral_m", "median_longitudinal_m", "median_yaw_deg",
    *[f"recall_lateral_{t:g}m" for t in SHIFT_THRESHOLDS_M],
    *[f"recall_longitudinal_{t:g}m" for t in SHIFT_THRESHOLDS_M],
    *[f"recall_yaw_{t:g}deg" for t in YAW_THRESHOLDS_DEG],
    "trials", "failures",
]


@dataclass(frozen=True)
class RunConfig:
    solver: LMConfig
    cost: RobustCost
    loss: LossConfig
    synth: SynthConfig


#: Each config section's dataclass and the types of its fields.
_SECTIONS = {name: (cls, get_type_hints(cls))
             for name, cls in get_type_hints(RunConfig).items()}


def _section(name: str, data: dict, **translated):
    """The section's dataclass from its keys, each one of the class's fields.
    Keys typed ``float`` must hold JSON numbers; the dataclass supplies every
    default and checks every value. ``translated`` holds the fields the file
    spells another way, which it cannot set directly."""
    cls, hints = _SECTIONS[name]
    extra = set(data) - (set(hints) - set(translated))
    if extra:
        raise ConfigError(f"unknown {name} keys {sorted(extra)}")
    kwargs = {key: require_number(key, value) if hints[key] is float else value
              for key, value in data.items()}
    return cls(**kwargs, **translated)


def _synth_from(data: dict) -> SynthConfig:
    """The file's ``depth_min``/``depth_max`` give ``point_depth_range``, and
    its ``gt_pose`` object takes the keys of ``Pose3.to_dict``."""
    data = dict(data)
    default = SynthConfig()
    lo, hi = default.point_depth_range
    depth = (require_number("depth_min", data.pop("depth_min", lo)),
             require_number("depth_max", data.pop("depth_max", hi)))
    gt = data.pop("gt_pose", {})
    if not isinstance(gt, dict):
        raise ConfigError("synth.gt_pose must be an object")
    pose = default.gt_pose.to_dict()
    extra = set(gt) - set(pose)
    if extra:
        raise ConfigError(f"unknown synth.gt_pose keys {sorted(extra)}")
    pose.update((key, require_number(f"gt_pose.{key}", value))
                for key, value in gt.items())
    gt_pose = Pose3(pose["lateral_m"], pose["longitudinal_m"],
                    math.radians(pose["yaw_deg"]))
    return _section("synth", data, point_depth_range=depth, gt_pose=gt_pose)


def _reject_constant(name: str):
    """``json.load`` hook for the non-standard ``NaN`` and ``[-]Infinity``."""
    raise ConfigError(f"{name} is not a number; config values must be finite")


def load_config(path=None) -> RunConfig:
    """Parse a JSON config file; missing sections and keys take the defaults.

    Schema (all sections optional): ``solver`` (LM schedule), ``cost``
    (robust cost), ``loss`` (triplet/gating), ``synth`` (scene defaults).
    Angles are degrees. Numbers must be finite JSON numbers.
    """
    data = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh, parse_constant=_reject_constant)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:  # bad UTF-8, bad JSON or an overlong integer
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
            built[name] = (_synth_from(section) if name == "synth"
                           else _section(name, section))
        # DomainError is a ValueError; an integer too large for a float overflows
        except (OverflowError, ValueError) as exc:
            raise ConfigError(f"section {name!r}: {exc}") from exc
    return RunConfig(**built)


def load_problem(source) -> AlignmentProblem:
    """Load a CVLS scene file, or generate one from a synth config file."""
    path = Path(source)
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return load_scene(path)
    cfg = load_config(path)
    return generate_scene(cfg.synth)


def resolve_workers(cli_value=None) -> int:
    """Worker count: CVL_WORKERS env var wins over the CLI flag.

    Only parses; ``run_eval`` checks that the count is >= 1.
    """
    env = os.environ.get("CVL_WORKERS")
    if env is None:
        return cli_value if cli_value is not None else 1
    try:
        return int(env)
    except ValueError as exc:
        raise ConfigError(f"CVL_WORKERS must be an integer, got {env!r}") from exc


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


def run_localize(scene_path, init_pose: Pose3 | None = None,
                 perturb_seed: int | None = None,
                 bounds: PerturbBounds | None = None,
                 config: RunConfig | None = None) -> dict:
    """Localize one scene and return the full machine-readable run record.

    The initial pose is either given explicitly or sampled from the scene's
    true pose under ``bounds`` with ``perturb_seed``.
    """
    config = config or load_config(None)
    problem = load_scene(scene_path)
    if config.loss.dis_level >= problem.level_count:
        raise ConfigError(f"loss.dis_level {config.loss.dis_level} is out of range: "
                          f"the scene has {problem.level_count} pyramid levels")
    if init_pose is None:
        if perturb_seed is None:
            raise ConfigError("need either an explicit init pose or a perturb seed")
        init_pose = sample_initial_pose(problem.gt_pose, bounds or PerturbBounds(),
                                        perturb_seed)

    start = time.perf_counter()
    report = refine_pose(problem, init_pose, config.solver, config.cost)
    wall = time.perf_counter() - start

    err = pose_error(report.final_pose, problem.gt_pose)
    _, loss_parts = total_loss(problem, report.final_pose, init_pose,
                               problem.gt_pose, config.cost, config.loss)
    return {
        "scene": str(scene_path),
        "init_pose": init_pose.to_dict(),
        "gt_pose": problem.gt_pose.to_dict(),
        "final_pose": report.final_pose.to_dict(),
        "error": {"lateral_m": err.lateral_err, "longitudinal_m": err.longitudinal_err,
                  "yaw_deg": err.yaw_err_deg},
        "converged": report.converged,
        "iterations_total": report.iterations_total,
        "loss": loss_parts,
        "trace": report.to_dict()["levels"],
        "wall_time_s": wall,
    }


def _trial_seed(key: tuple, trial: int) -> int:
    """Seed of one trial: eval keys are (master,), sweep keys (master, bound index)."""
    return int(np.random.SeedSequence((*key, trial)).generate_state(1)[0])


def _eval_trial(problem: AlignmentProblem, trial: int, key: tuple,
                bounds: PerturbBounds, solver: LMConfig | None,
                cost: RobustCost | None) -> dict:
    seed = _trial_seed(key, trial)
    init = sample_initial_pose(problem.gt_pose, bounds, seed)
    row = {
        "trial": trial,
        "seed": seed,
        "init_lateral_m": init.lateral,
        "init_longitudinal_m": init.longitudinal,
        "init_yaw_deg": math.degrees(init.yaw),
    }
    try:
        report = refine_pose(problem, init, solver, cost)
    except DegenerateProblemError as exc:
        row.update({
            "final_lateral_m": "", "final_longitudinal_m": "", "final_yaw_deg": "",
            "err_lateral_m": "", "err_longitudinal_m": "", "err_yaw_deg": "",
            "converged": "", "iterations": "", "status": f"degenerate: {exc}",
        })
        return row
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


def _run_trials(problem: AlignmentProblem, trials: int, bounds: PerturbBounds,
                key: tuple, solver: LMConfig | None, cost: RobustCost | None,
                workers: int = 1) -> tuple[MetricsSummary, list, int]:
    """Seeded trials at one bound; returns (summary, rows, failure count).

    Raises DegenerateProblemError when every trial fails, since no error
    is left to summarize.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ConfigError(f"worker count must be >= 1, got {workers}")

    def one(trial: int) -> dict:
        return _eval_trial(problem, trial, key, bounds, solver, cost)

    if workers == 1:
        rows = [one(t) for t in range(trials)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(one, range(trials)))

    errors = [PoseError(row["err_lateral_m"], row["err_longitudinal_m"],
                        row["err_yaw_deg"])
              for row in rows if row["status"] == "ok"]
    if not errors:
        raise DegenerateProblemError(
            f"all {trials} trials failed at max shift {bounds.max_shift} m, "
            f"max yaw {bounds.max_yaw_deg} deg")
    summary = summarize(errors, trial_count=trials)
    return summary, rows, trials - len(errors)


def run_eval(problem: AlignmentProblem, trials: int, bounds: PerturbBounds,
             workers: int = 1, master_seed: int = 0,
             config: RunConfig | None = None) -> tuple[MetricsSummary, list, int]:
    """Seeded trial fan-out over one scene.

    Returns (summary, per-trial rows, failure count). Trial seeds depend
    only on (master_seed, trial index), so the aggregate is identical for
    any worker count. Raises DegenerateProblemError if every trial fails.
    """
    config = config or load_config(None)
    return _run_trials(problem, trials, bounds, (master_seed,), config.solver,
                       config.cost, workers)


@dataclass(frozen=True)
class SweepRow:
    bounds: PerturbBounds
    summary: MetricsSummary
    trials: int
    failures: int


def perturbation_sweep(problem: AlignmentProblem, bound_grid, trials_per_bound: int,
                       seed: int, cfg: LMConfig | None = None,
                       cost: RobustCost | None = None) -> list[SweepRow]:
    """Refine from seeded perturbations at each bound and aggregate metrics.

    Runs serially; trial seeds depend on (seed, bound index, trial index).
    Failed trials (degenerate problems) count as misses in the recalls and
    are reported in the row's failure count; a bound at which every trial
    fails raises DegenerateProblemError.
    """
    rows = []
    for bi, bounds in enumerate(bound_grid):
        summary, _, failures = _run_trials(problem, trials_per_bound, bounds,
                                           (seed, bi), cfg, cost)
        rows.append(SweepRow(bounds=bounds, summary=summary,
                             trials=trials_per_bound, failures=failures))
    return rows


def write_trials_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=_TRIAL_CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_eval_summary(path, summary: MetricsSummary, failures: int,
                       bounds: PerturbBounds, master_seed: int) -> None:
    payload = summary.to_dict()
    payload["failures"] = failures
    payload["bounds"] = {"max_shift_m": bounds.max_shift,
                         "max_yaw_deg": bounds.max_yaw_deg}
    payload["master_seed"] = master_seed
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_sweep_csv(path, sweep_rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SWEEP_CSV_COLUMNS)
        for row in sweep_rows:
            s = row.summary
            writer.writerow([
                row.bounds.max_shift, row.bounds.max_yaw_deg,
                s.median_lateral, s.median_longitudinal, s.median_yaw_deg,
                *[s.recall_lateral[t] for t in SHIFT_THRESHOLDS_M],
                *[s.recall_longitudinal[t] for t in SHIFT_THRESHOLDS_M],
                *[s.recall_yaw[t] for t in YAW_THRESHOLDS_DEG],
                row.trials, row.failures,
            ])
