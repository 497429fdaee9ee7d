"""Command-line interface: ``localize`` one pose, ``synth`` a scene,
``eval`` seeded trials at one or more perturbation bounds (``--bounds``,
every bound through ``runner.run_bounds``), and ``check-numerics``.
``localize --bounds`` takes the same ``shift:yaw`` syntax, one bound.

Exit codes: 0 success, 2 configuration error (and any other invalid value
or input a library check rejects, or a run out of memory), 3 I/O or
file-format error, 4 degenerate problem (a solve whose report reads
``degenerate``, or an eval bound where every trial fails), 5 numeric
self-check failure (an LM step the self-check cannot solve included);
each ``CvlocError`` class carries its own.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from ..cvls import load_scene, save_scene
from ..errors import ConfigError, CvlocError
from ..synth import PerturbBounds, generate_scene, sample_initial_pose
from . import runner
from .checks import check_numerics

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CHECK_FAILED = 5


def _cmd_localize(args) -> int:
    config = runner.load_config(args.config)
    bounds = PerturbBounds()
    if args.bounds is not None:
        if args.init is not None:
            raise ConfigError("--bounds samples the start of --perturb-seed; "
                              "--init gives the start itself")
        grid = _parse_bounds(args.bounds)
        if len(grid) != 1:
            raise ConfigError(f"localize takes one --bounds item, got {args.bounds!r}")
        [bounds] = grid
    init_pose = None if args.init is None else runner.parse_init_pose(args.init)
    problem = load_scene(args.scene)
    if init_pose is None:
        init_pose = sample_initial_pose(problem.gt_pose, bounds, args.perturb_seed)
    record = {"scene": args.scene, **runner.run_localize(problem, init_pose, config)}
    text = json.dumps(record, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return EXIT_OK


def _cmd_synth(args) -> int:
    config = runner.load_config(args.config)
    cfg = config.synth
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    problem = generate_scene(cfg)
    save_scene(args.out, problem)
    print(f"wrote scene with {problem.points.count} points to {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    config = runner.load_config(args.config)
    grid = _parse_bounds(args.bounds)
    problem = load_scene(args.scene)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # an unwritable path fails before any trial
    results, rows = runner.run_bounds(problem, args.trials, grid, workers=args.workers,
                                      master_seed=args.seed, config=config)
    runner.write_trials_csv(out_dir / "trials.csv", rows)
    text = json.dumps(runner.eval_summary(results, args.trials, args.seed),
                      indent=2, sort_keys=True)
    (out_dir / "summary.json").write_text(text + "\n", encoding="utf-8")
    failures = sum(failed for _, _, failed in results)
    print(f"{len(grid)} bounds x {args.trials} trials ({failures} failures) -> {out_dir}")
    print(text)
    return EXIT_OK


def _parse_bounds(text: str) -> list[PerturbBounds]:
    """The bounds of a ``--bounds`` list, 'shift_m:yaw_deg,...'."""
    out = []
    for piece in text.split(","):
        parts = piece.split(":")
        if len(parts) != 2:
            raise ConfigError(f"--bounds expects 'shift:yaw,...', got {piece!r}")
        try:
            out.append(PerturbBounds(*(float(part) for part in parts)))
        except ValueError as exc:
            raise ConfigError(f"bad bound {piece}: {exc}") from exc
    return out


def _cmd_check_numerics(args) -> int:
    report = check_numerics(seed=args.seed)
    print(report.as_text())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _seed(text: str) -> int:
    """argparse type of every seed flag: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvloc",
        description="Cross-view vehicle localization against satellite feature maps.")
    sub = parser.add_subparsers(dest="command", required=True)
    north_star = PerturbBounds()  # the 10 m / 30 deg protocol
    default_bounds = f"{north_star.max_shift:g}:{north_star.max_yaw_deg:g}"

    p = sub.add_parser("localize", help="refine one scene's pose and emit a JSON record")
    p.add_argument("--scene", required=True, help="CVLS scene file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--init", help="initial pose 'lat_m,lon_m,yaw_deg'")
    group.add_argument("--perturb-seed", type=_seed, dest="perturb_seed",
                       help="sample the initial pose from the true pose")
    p.add_argument("--bounds",
                   help="perturbation bound shift_m:yaw_deg (with --perturb-seed "
                        f"only; default {default_bounds})")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="output JSON path (stdout if omitted)")
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("synth", help="generate a synthetic scene file")
    p.add_argument("--config", help="JSON config file (synth section)")
    p.add_argument("--seed", type=_seed, help="override the config seed")
    p.add_argument("--out", required=True, help="output CVLS path")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("eval",
                       help="batch evaluation over seeded perturbations at each bound")
    p.add_argument("--scene", required=True, help="CVLS scene file")
    p.add_argument("--bounds", default=default_bounds,
                   help="comma list of perturbation bounds shift_m:yaw_deg, e.g. "
                        f"'5:15,10:30,20:60' (default {default_bounds})")
    p.add_argument("--trials", type=int, required=True, help="trials per bound")
    p.add_argument("--seed", type=_seed, default=0, help="master seed for trial fan-out")
    p.add_argument("--workers", type=int, default=1,
                   help="most trials run in parallel; capped at the trial count "
                        "and the available CPUs")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check-numerics", help="run the numeric self-check battery")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_check_numerics)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CvlocError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # sizes under the scene budget, over the process limit
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
