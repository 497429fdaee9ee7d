"""Runner and CLI: commands, exit codes, report formats, determinism."""

import csv
import inspect
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cvloc import errors, solver
from cvloc.cvls import load_scene, save_scene
from cvloc.errors import ConfigError, ContractError, CvlocError
from cvloc.geometry import Pose3
from cvloc.harness import cli, runner
from cvloc.harness.cli import main
from cvloc.synth import PerturbBounds, generate_scene

from conftest import (SMALL_SCENE_CFG, cvls_meta, cvls_payload_offset, cvls_rewrite_meta,
                      cvls_with_meta)


# The CLI's exit code and message label for each error class.
_EXIT_CODES = {
    "CvlocError": (2, "invalid input"),
    "DomainError": (2, "invalid input"),
    "ContractError": (2, "invalid input"),
    "ConfigError": (2, "config error"),
    "FormatError": (3, "format error"),
    "GenerationError": (4, "scene generation error"),
    "DegenerateProblemError": (4, "degenerate problem"),
    "SingularSystemError": (4, "singular system"),
}

#: Every exception class that ``cvloc.errors`` defines.
_ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                  if issubclass(cls, CvlocError)]


@pytest.fixture(scope="module")
def scene_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenes") / "scene.cvls"
    save_scene(path, generate_scene(SMALL_SCENE_CFG))
    return path


@pytest.fixture()
def synth_cfg_file(tmp_path):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps({"synth": {
        "seed": 3, "sat_size": 128, "point_count": 120, "grd_width": 256,
        "grd_height": 96, "grd_focal": 120.0, "depth_min": 3.0, "depth_max": 12.0,
    }}))
    return path


class TestConfig:
    def test_defaults_without_file(self):
        cfg = runner.load_config(None)
        assert cfg.solver.max_iters_per_level == 20
        assert cfg.solver.stop_tol == 0.01
        assert cfg.cost.kind == "huber"

    def test_round_trip_sections(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "solver": {"max_iters_per_level": 5, "stop_tol": 0.5},
            "cost": {"kind": "geman_mcclure", "sigma": 2.0},
            "synth": {"seed": 9, "depth_min": 4.0},
        }))
        cfg = runner.load_config(path)
        assert cfg.solver.max_iters_per_level == 5
        assert cfg.solver.stop_tol == 0.5
        assert cfg.cost.sigma == 2.0
        assert (cfg.synth.seed, cfg.synth.depth_min, cfg.synth.depth_max) == (9, 4.0, 25.0)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        for data in ({"sovler": {}}, {"loss": {}}):
            path.write_text(json.dumps(data))
            with pytest.raises(ConfigError, match="unknown config sections"):
                runner.load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        # the depth range is the two keys depth_min and depth_max
        for data in ({"solver": {"max_iter": 3}},
                     {"synth": {"point_depth_range": [3.0, 9.0]}}):
            path.write_text(json.dumps(data))
            with pytest.raises(ConfigError, match="unknown"):
                runner.load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            runner.load_config(path)

    def test_deeply_nested_json_rejected(self, tmp_path):
        # deeper than the JSON parser's recursion limit
        path = tmp_path / "cfg.json"
        path.write_text("[" * 200000 + "]" * 200000)
        with pytest.raises(ConfigError, match="not valid JSON"):
            runner.load_config(path)

    def test_invalid_value_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        for data in ({"solver": {"stop_tol": -1.0}},
                     {"solver": {"max_iters_per_level": 2.5}},
                     {"synth": {"seed": 1.5}},
                     {"synth": {"levels": True}},
                     # numeric keys take JSON numbers: no booleans, no strings
                     {"synth": {"gamma": True}},
                     {"cost": {"delta": "0.5"}},
                     {"solver": {"stop_tol": "0.5"}},
                     {"synth": {"grd_focal": "x"}},
                     {"synth": {"depth_min": "3"}},
                     {"synth": {"depth_max": False}},
                     # every key reaches its dataclass, whatever the cost kind
                     {"cost": {"kind": "squared", "delta": -1.0}}):
            path.write_text(json.dumps(data))
            with pytest.raises(ConfigError):
                runner.load_config(path)

    @pytest.mark.parametrize("text", [
        '{"solver": {"stop_tol": NaN}}',
        '{"cost": {"delta": NaN}}',
        '{"synth": {"feature_smoothness": NaN}}',
        '{"synth": {"gamma": Infinity}}',
    ], ids=["stop_tol", "delta", "smoothness", "gamma"])
    def test_non_finite_constant_rejected(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="is not a number"):
            runner.load_config(path)

    @pytest.mark.parametrize("text", [
        '{"solver": {"stop_tol": 1e400}}',
        '{"cost": {"sigma": 1e400}}',
        '{"synth": {"gamma": 1e400}}',
        '{"cost": {"delta": 1e400}}',
        '{"synth": {"feature_smoothness": 1e400}}',
        '{"synth": {"depth_max": 1e400}}',
        '{"synth": {"grd_focal": 1e400}}',
        '{"synth": {"depth_min": -1e400}}',
        '{"cost": {"sigma": 1%s}}' % ("0" * 400),
        '{"synth": {"sat_size": 1%s}}' % ("0" * 400),
        '{"solver": {"max_iters_per_level": 1%s}}' % ("0" * 5000),
    ], ids=["stop_tol", "sigma", "gamma", "delta",
            "smoothness", "depth_max", "focal", "depth_min", "sigma_int",
            "sat_size_int", "iters_digits"])
    def test_out_of_range_number_rejected(self, tmp_path, text):
        """Numbers that overflow to inf, or integers beyond what a float or
        the JSON parser holds."""
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError):
            runner.load_config(path)

    def test_readme_block_is_the_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## Config file\n.*?```json\n(.*?)```", readme, re.S)
        path = tmp_path / "cfg.json"
        path.write_text(block.group(1))
        assert runner.load_config(path) == runner.load_config(None)

    def test_parse_init_pose(self):
        p = runner.parse_init_pose("1.5,-2.0,90")
        assert p.lateral == 1.5
        assert p.yaw == pytest.approx(math.pi / 2)
        with pytest.raises(ConfigError):
            runner.parse_init_pose("1,2")
        with pytest.raises(ConfigError):
            runner.parse_init_pose("a,b,c")
        for text in ("nan,0,0", "0,inf,0", "0,0,-inf"):
            with pytest.raises(ConfigError, match="finite"):
                runner.parse_init_pose(text)


class TestRunLocalize:
    def test_init_at_truth(self, small_scene):
        record = runner.run_localize(small_scene, Pose3(0, 0, 0))
        assert record["error"]["lateral_m"] < 0.01
        assert record["error"]["longitudinal_m"] < 0.01
        assert record["error"]["yaw_deg"] < 0.01
        assert record["converged"]
        assert "loss" not in record
        assert record["trace"]

    def test_perturb_seed_deterministic(self, scene_path, capsys):
        records = []
        for _ in range(2):
            assert main(["localize", "--scene", str(scene_path), "--perturb-seed", "4",
                         "--bounds", "5:15"]) == 0
            records.append(json.loads(capsys.readouterr().out))
            records[-1].pop("wall_time_s")
        assert records[0] == records[1]

    def test_record_is_json_serializable(self, small_scene):
        record = runner.run_localize(small_scene, Pose3(1, 1, 0.1))
        json.dumps(record)


# (final lateral m, final longitudinal m, final yaw deg, iterations) of
# run_eval on small_scene, 6 trials at 10 m / 30 deg, master seed 5.
# Recorded again when every level above the finest came to solve on every
# 4th point: each value moved by at most 2.1e-8 (trial 3's yaw, in degrees),
# and no iteration count changed. The solve path makes no BLAS call, so the
# rows are the same under the OpenBLAS kernels SkylakeX, Haswell, Zen,
# SandyBridge and Prescott.
_RECORDED_EVAL = [
    (-7.855442510538e-09, 1.0459447071041357e-09, 6.074481918966858e-08, 6),
    (-6.855020060377109e-08, 6.812273906922504e-09, 4.384004053970152e-07, 6),
    (7.667232155190264e-10, 4.899397896428023e-10, 7.890111089557876e-09, 8),
    (-1.4303320182636687e-08, 7.922031100888079e-09, 1.2084173340751682e-07, 6),
    (7.705665201805268e-10, 4.899796456736412e-10, 7.866715111821864e-09, 9),
    (7.749450712720771e-10, 4.901004300276031e-10, 7.840446708864438e-09, 7),
]


class TestRunEval:
    def test_rows_equal_recorded_values(self, small_scene):
        """Final poses are compared with ==, so any change of rounding in the
        LM path shows here. A change that alters rounding on purpose must
        record these values again and say so in CHANGES.md."""
        _, rows, failures = runner.run_eval(small_scene, 6, PerturbBounds(10.0, 30.0),
                                            workers=1, master_seed=5)
        assert failures == 0
        got = [(r["final_lateral_m"], r["final_longitudinal_m"], r["final_yaw_deg"],
                r["iterations"]) for r in rows]
        assert got == _RECORDED_EVAL
        assert all(r["converged"] and r["status"] == "ok" for r in rows)

    def test_loaded_scene_rows_equal_in_memory_rows(self, small_scene, tmp_path):
        """A scene read back from its file solves as the scene in memory does,
        so the rows above hold for the loaded arrays too."""
        path = tmp_path / "small.cvls"
        save_scene(path, small_scene)
        bounds = PerturbBounds(10.0, 30.0)
        _, loaded, _ = runner.run_eval(load_scene(path), 6, bounds, workers=1,
                                       master_seed=5)
        _, in_memory, _ = runner.run_eval(small_scene, 6, bounds, workers=1,
                                          master_seed=5)
        assert loaded == in_memory

    def test_single_trial_at_zero_bounds(self, scene_path):
        problem = generate_scene(SMALL_SCENE_CFG)
        summary, rows, failures = runner.run_eval(
            problem, trials=1, bounds=PerturbBounds(0.0, 0.0))
        assert len(rows) == 1
        assert failures == 0
        assert summary.median_lateral == rows[0]["err_lateral_m"]

    def test_worker_count_does_not_change_results(self, scene_path, tmp_path):
        problem = generate_scene(SMALL_SCENE_CFG)
        bounds = PerturbBounds(3.0, 10.0)
        _, rows1, _ = runner.run_eval(problem, 6, bounds, workers=1, master_seed=5)
        _, rows4, _ = runner.run_eval(problem, 6, bounds, workers=4, master_seed=5)
        p1, p4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
        runner.write_trials_csv(p1, rows1)
        runner.write_trials_csv(p4, rows4)
        assert p1.read_bytes() == p4.read_bytes()

    @pytest.mark.parametrize("workers, trials, cpus, parallel", [
        (64, 3, 8, 3), (64, 3, 2, 2), (2, 3, 8, 2), (10**9, 2, 10**9, 2),
        (1, 3, 8, None), (64, 1, 8, None), (64, 3, 1, None),
    ])
    def test_pool_capped_at_rows_and_cpus(self, small_scene, monkeypatch, workers, trials,
                                          cpus, parallel):
        # ``parallel`` workers, the caller included, or None for the serial loop
        n = parallel or 1
        bounds = PerturbBounds(1.0, 3.0)
        _, serial, _ = runner.run_eval(small_scene, trials, bounds, master_seed=5)
        forks, caller_rows, caller = [], [], os.getpid()
        fork, trial = os.fork, runner._eval_trial

        def counted_fork():
            forks.append(1)
            return fork()

        def recorded_trial(problem, r, *args):
            if os.getpid() == caller:
                caller_rows.append(r)
            return trial(problem, r, *args)

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(runner, "_eval_trial", recorded_trial)
        # a range has a length but allocates no set
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(cpus),
                            raising=False)
        _, rows, _ = runner.run_eval(small_scene, trials, bounds, workers=workers,
                                     master_seed=5)
        assert len(forks) == n - 1
        assert caller_rows == list(range(0, trials, n))  # the caller is worker 0
        assert rows == serial

    def test_zero_workers_rejected(self, small_scene):
        with pytest.raises(ConfigError, match="worker count must be >= 1, got 0"):
            runner.run_eval(small_scene, 2, PerturbBounds(1.0, 3.0), workers=0)

    def test_two_workers_on_cold_problem_match_one(self, scene_path):
        # each run starts from a freshly loaded scene: the caller fills the
        # per-problem ground-level cache before it forks, and the children
        # share it
        bounds = PerturbBounds(5.0, 15.0)
        cold = load_scene(scene_path)
        assert "_ground_levels" not in vars(cold)
        _, rows2, _ = runner.run_eval(cold, 6, bounds, workers=2, master_seed=9)
        _, rows1, _ = runner.run_eval(load_scene(scene_path), 6, bounds, workers=1,
                                      master_seed=9)
        assert rows2 == rows1

    def test_unsolved_step_recorded_not_raised(self, scene_path, monkeypatch):
        # The first LM step of the first trial cannot be factored (no step):
        # the solve raises lambda and goes on from the same pose.
        problem = load_scene(scene_path)
        _, plain, _ = runner.run_eval(problem, 3, PerturbBounds(1.0, 3.0))
        calls = []
        step = solver.lm_step

        def first_call_singular(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                return None
            return step(*args, **kwargs)

        monkeypatch.setattr(solver, "lm_step", first_call_singular)
        summary, rows, failures = runner.run_eval(problem, 3, PerturbBounds(1.0, 3.0))
        assert failures == 0
        assert [r["status"] for r in rows] == ["ok", "ok", "ok"]
        assert rows[0]["converged"] is True
        assert abs(rows[0]["err_lateral_m"]) < 1e-3
        assert rows[1:] == plain[1:]
        assert summary.trial_count == 3

    def test_csv_row_count(self, tmp_path):
        problem = generate_scene(SMALL_SCENE_CFG)
        _, rows, _ = runner.run_eval(problem, 4, PerturbBounds(1.0, 3.0))
        path = tmp_path / "trials.csv"
        runner.write_trials_csv(path, rows)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 5  # header + 4 trials


def _failing_trial(monkeypatch, fail_row: int, fail):
    """Make ``runner._eval_trial`` call ``fail(row)`` at row ``fail_row``;
    every other row returns a stub that the summaries accept."""
    def trial(problem, r, *args):
        if r == fail_row:
            fail(r)
        return {"trial": r, "status": "ok", "err_lateral_m": 0.0,
                "err_longitudinal_m": 0.0, "err_yaw_deg": 0.0}

    monkeypatch.setattr(runner, "_eval_trial", trial)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="worker processes need os.fork")
class TestWorkerProcesses:
    """``run_bounds`` at 2 workers: the caller runs rows 0, 2, 4, ... and its
    one forked child rows 1, 3, 5, .... No child outlives the call."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(2), raising=False)

    @pytest.fixture(autouse=True)
    def time_limit(self):
        # a caller stuck on a child fails its test instead of hanging the suite;
        # a forked child does not inherit the alarm. Not an Exception, which
        # run_bounds would take for the failure of a trial.
        class TimeLimit(BaseException):
            pass

        def expire(signum, frame):
            raise TimeLimit("run_bounds did not return within 60 s")

        handler = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)

    def test_normal_return_reaps_the_child(self, small_scene):
        _, rows, _ = runner.run_eval(small_scene, 5, PerturbBounds(1.0, 3.0), workers=2,
                                     master_seed=5)
        assert [r["trial"] for r in rows] == [0, 1, 2, 3, 4]
        _assert_no_child_left()

    @pytest.mark.parametrize("row", [3, 2], ids=["child_row", "caller_row"])
    def test_trial_error_keeps_its_type_and_message(self, monkeypatch, small_scene, row):
        def fail(r):
            raise ContractError(f"row {r} rejected")

        _failing_trial(monkeypatch, row, fail)
        with pytest.raises(ContractError, match=f"^row {row} rejected$") as info:
            runner.run_eval(small_scene, 6, PerturbBounds(1.0, 3.0), workers=2)
        assert info.type is ContractError
        _assert_no_child_left()

    @pytest.mark.parametrize("error", _ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_every_error_class_crosses_the_pipe(self, monkeypatch, small_scene, error):
        # FormatError's extra ``field`` argument comes back too
        raised = error("bad", field="levels") if error is errors.FormatError else error("bad")

        def fail(r):
            raise raised

        _failing_trial(monkeypatch, 1, fail)  # the child's row
        with pytest.raises(error) as info:
            runner.run_eval(small_scene, 2, PerturbBounds(1.0, 3.0), workers=2)
        assert info.type is error
        assert str(info.value) == str(raised)
        assert vars(info.value) == vars(raised)
        _assert_no_child_left()

    def test_unpicklable_error_comes_back_named(self, monkeypatch, small_scene):
        class LocalError(Exception):  # pickle cannot find a local class by name
            pass

        def fail(r):
            raise LocalError("bad")

        _failing_trial(monkeypatch, 1, fail)
        with pytest.raises(RuntimeError, match="^LocalError: bad$"):
            runner.run_eval(small_scene, 2, PerturbBounds(1.0, 3.0), workers=2)
        _assert_no_child_left()

    def test_lowest_failing_row_is_raised(self, monkeypatch, small_scene):
        # as in the serial loop, whichever worker ends first
        trial = runner._eval_trial

        def failing(problem, r, *args):
            if r == 3:
                raise errors.DomainError("row 3")
            if r == 4:
                raise ContractError("row 4")
            return trial(problem, r, *args)

        monkeypatch.setattr(runner, "_eval_trial", failing)
        with pytest.raises(errors.DomainError, match="^row 3$"):
            runner.run_eval(small_scene, 6, PerturbBounds(1.0, 3.0), workers=2)
        _assert_no_child_left()

    @pytest.mark.parametrize("end, ended", [
        (lambda: os._exit(3), "exit status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9"),
    ], ids=["exit", "killed"])
    def test_child_ending_without_result_names_its_status(self, monkeypatch, small_scene,
                                                          end, ended):
        _failing_trial(monkeypatch, 1, lambda r: end())
        with pytest.raises(RuntimeError, match=f"ended with {ended} and sent no result"):
            runner.run_eval(small_scene, 4, PerturbBounds(1.0, 3.0), workers=2)
        _assert_no_child_left()

    def test_result_larger_than_a_pipe_buffer(self, monkeypatch, small_scene):
        # the child blocks on its write until the caller has run its share
        def big(problem, r, *args):
            return {"trial": r, "status": "ok", "err_lateral_m": 0.0,
                    "err_longitudinal_m": 0.0, "err_yaw_deg": 0.0, "pad": "x" * 2**20}

        monkeypatch.setattr(runner, "_eval_trial", big)
        _, rows, _ = runner.run_eval(small_scene, 4, PerturbBounds(1.0, 3.0), workers=2)
        assert [r["trial"] for r in rows] == [0, 1, 2, 3]
        _assert_no_child_left()

    @pytest.mark.parametrize("child_row", [
        lambda: {"pad": "x" * 2**20},  # by the interrupt, blocked on a full pipe
        lambda: time.sleep(600),  # still running; the test's time limit is 60 s
    ], ids=["blocked_on_pipe", "running"])
    def test_interrupt_kills_the_child(self, monkeypatch, small_scene, child_row):
        def interrupted(problem, r, *args):
            if r % 2:  # the child's rows
                return child_row()
            if r == 2:
                time.sleep(0.2)
                raise KeyboardInterrupt
            return {}

        monkeypatch.setattr(runner, "_eval_trial", interrupted)
        with pytest.raises(KeyboardInterrupt):
            runner.run_eval(small_scene, 4, PerturbBounds(1.0, 3.0), workers=2)
        _assert_no_child_left()


class TestSerialFallback:
    """Without ``os.fork`` every row runs in the calling process."""

    def test_rows_run_serially(self, monkeypatch, small_scene):
        bounds = PerturbBounds(1.0, 3.0)
        _, serial, _ = runner.run_eval(small_scene, 4, bounds, master_seed=5)
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(2), raising=False)
        _, rows, _ = runner.run_eval(small_scene, 4, bounds, workers=2, master_seed=5)
        assert rows == serial

    def test_eval_says_so_on_one_line(self, monkeypatch, scene_path, tmp_path, capsys):
        monkeypatch.delattr(os, "fork")
        code = main(["eval", "--scene", str(scene_path), "--trials", "2", "--workers", "2",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "os.fork is missing" in err


def _row(trial, lat, lon=0.0, status="ok", bounds=(10.0, 30.0)):
    """A hand-built trial row: only the fields ``paired_hits`` reads."""
    return {"trial": trial, "seed": 1000 + trial, "max_shift_m": bounds[0],
            "max_yaw_deg": bounds[1], "err_lateral_m": lat, "err_longitudinal_m": lon,
            "status": status}


class TestPairedHits:
    @pytest.mark.parametrize("wins, losses, p", [
        (0, 0, 1.0), (2, 1, 1.0), (0, 6, 0.03125), (6, 0, 0.03125),
        (1, 9, 22 / 1024), (5, 5, 1.0),
    ])
    def test_sign_test_p(self, wins, losses, p):
        assert runner.sign_test_p(wins, losses) == pytest.approx(p, rel=1e-12)

    def test_hand_built_rows(self):
        # bound 10:30: the baseline misses rows 0-5 (1 m itself is a miss)
        here = [_row(t, 0.5) for t in range(10)]
        base = [_row(t, 1.0 if t < 6 else 0.0) for t in range(10)]
        # bound 20:60: a failed trial and a 2 m error miss here, a 3 m
        # longitudinal error misses in the baseline
        wide = (20.0, 60.0)
        here += [_row(10, "", "", "degenerate: all points masked", wide),
                 _row(11, -2.0, bounds=wide), _row(12, 0.1, bounds=wide),
                 _row(13, 0.1, bounds=wide), _row(14, 0.1, bounds=wide)]
        base += [_row(10, 0.2, bounds=wide), _row(11, 0.2, bounds=wide),
                 _row(12, 0.2, -3.0, bounds=wide), _row(13, 0.2, bounds=wide),
                 _row(14, 0.2, bounds=wide)]
        got = runner.paired_hits(here[:10], base[:10], 10)
        assert got == [{"bounds": {"max_shift_m": 10.0, "max_yaw_deg": 30.0},
                        "hits": 10, "baseline_hits": 4, "hits_only_here": 6,
                        "hits_only_baseline": 0, "sign_test_p": 0.03125}]
        [got] = runner.paired_hits(here[10:], base[10:], 5)
        assert (got["hits"], got["baseline_hits"], got["hits_only_here"],
                got["hits_only_baseline"], got["sign_test_p"]) == (3, 4, 1, 2, 1.0)

    def test_two_runs_of_one_configuration_agree(self, small_scene):
        grid = [PerturbBounds(5.0, 15.0), PerturbBounds(20.0, 60.0)]
        _, rows = runner.run_bounds(small_scene, 8, grid, workers=1, master_seed=3)
        _, again = runner.run_bounds(small_scene, 8, grid, workers=2, master_seed=3)
        got = runner.paired_hits(rows, again, 8)
        assert [g["bounds"]["max_shift_m"] for g in got] == [5.0, 20.0]
        for g in got:
            assert g["hits"] == g["baseline_hits"] > 0
            assert g["hits_only_here"] == g["hits_only_baseline"] == 0
            assert g["sign_test_p"] == 1.0

    def test_unpaired_rows_rejected(self, small_scene):
        grid = [PerturbBounds(5.0, 15.0)]
        _, rows = runner.run_bounds(small_scene, 4, grid, master_seed=3)
        _, other_seed = runner.run_bounds(small_scene, 4, grid, master_seed=4)
        with pytest.raises(ConfigError, match="another seed or bound"):
            runner.paired_hits(rows, other_seed, 4)
        with pytest.raises(ConfigError, match="3 rows"):
            runner.paired_hits(rows, rows[:3], 4)
        with pytest.raises(ConfigError, match="at 0 trials per bound"):
            runner.paired_hits(rows, rows, 0)

    def test_eval_baseline_adds_paired_block(self, tmp_path, scene_path, capsys):
        argv = ["eval", "--scene", str(scene_path), "--bounds", "2:6,5:15", "--trials", "3",
                "--seed", "4"]
        assert main(argv + ["--out-dir", str(tmp_path / "base")]) == 0
        assert main(argv + ["--workers", "2", "--baseline", str(tmp_path / "base"),
                            "--out-dir", str(tmp_path / "run")]) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        paired = summary.pop("paired")
        assert summary == json.loads((tmp_path / "base" / "summary.json").read_text())
        assert paired["baseline"] == str(tmp_path / "base")
        assert [(r["hits_only_here"], r["hits_only_baseline"], r["sign_test_p"])
                for r in paired["results"]] == [(0, 0, 1.0), (0, 0, 1.0)]

    @pytest.mark.parametrize("flags, what", [
        (["--seed", "5"], "master seed 5 here, 4 in the baseline"),
        (["--seed", "4", "--trials", "2"], "trials per bound 2 here, 3"),
        (["--seed", "4", "--bounds", "2:6"], "bound grid [(2.0, 6.0)] here"),
    ], ids=["seed", "trials", "bounds"])
    def test_unpaired_baseline_exits_2(self, tmp_path, scene_path, flags, what, capsys):
        base = tmp_path / "base"
        assert main(["eval", "--scene", str(scene_path), "--bounds", "2:6,5:15",
                     "--trials", "3", "--seed", "4", "--out-dir", str(base)]) == 0
        argv = ["eval", "--scene", str(scene_path), "--bounds", "2:6,5:15", "--trials", "3",
                *flags, "--baseline", str(base), "--out-dir", str(tmp_path / "run")]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --baseline") and what in err
        assert not (tmp_path / "run").exists()  # rejected before any trial

    @staticmethod
    def _rename_seed(lines):
        lines[0] = lines[0].replace(",seed,", ",trial_seed,")

    @staticmethod
    def _non_numeric_error(lines):
        cells = lines[3].split(",")
        assert cells[-1] == "ok"
        cells[10] = "abc"  # err_lateral_m
        lines[3] = ",".join(cells)

    @staticmethod
    def _one_row(lines):
        del lines[2:]

    @staticmethod
    def _short_last_row(lines):
        lines[-1] = lines[-1].rsplit(",", 1)[0]  # the status field is cut off

    @staticmethod
    def _raised_seed(lines):
        cells = lines[2].split(",")  # row 1
        seed = int(cells[1])
        assert seed == runner._trial_seed(4, 1)
        cells[1] = str(seed + 1)
        lines[2] = ",".join(cells)

    @pytest.mark.parametrize("edit, what", [
        (_rename_seed, "trials.csv row 0: column seed: None is not int"),
        (_non_numeric_error, "trials.csv row 2: column err_lateral_m: 'abc' is not float"),
        (_one_row, "trials.csv has 1 rows, not 6"),
        (_short_last_row, "trials.csv row 5: column status: None is not str"),
        (_raised_seed, f"trials.csv row 1: (trial, seed, max_shift_m, max_yaw_deg) is "
                       f"(1, {runner._trial_seed(4, 1) + 1}, 2.0, 6.0), this run's is "
                       f"(1, {runner._trial_seed(4, 1)}, 2.0, 6.0)"),
    ], ids=["renamed_column", "non_numeric_error", "one_row", "short_row", "raised_seed"])
    def test_malformed_baseline_rows_exit_2(self, tmp_path, scene_path, edit, what, capsys):
        argv = ["eval", "--scene", str(scene_path), "--bounds", "2:6,5:15", "--trials", "3",
                "--seed", "4"]
        base = tmp_path / "base"
        assert main(argv + ["--out-dir", str(base)]) == 0
        lines = (base / "trials.csv").read_text().splitlines()
        edit(lines)
        (base / "trials.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(argv + ["--baseline", str(base), "--out-dir", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --baseline {base}") and what in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()  # rejected before any trial

    def test_summary_without_results_exits_2(self, tmp_path, scene_path, capsys):
        argv = ["eval", "--scene", str(scene_path), "--bounds", "2:6", "--trials", "2"]
        base = tmp_path / "base"
        assert main(argv + ["--out-dir", str(base)]) == 0
        summary = json.loads((base / "summary.json").read_text())
        del summary["results"]
        (base / "summary.json").write_text(json.dumps(summary))
        capsys.readouterr()
        assert main(argv + ["--baseline", str(base), "--out-dir", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: --baseline {base} holds no eval summary: KeyError('results')\n"
        assert not (tmp_path / "run").exists()


class TestCli:
    def test_synth_then_localize(self, tmp_path, synth_cfg_file, capsys):
        scene = tmp_path / "scene.cvls"
        assert main(["synth", "--config", str(synth_cfg_file), "--out", str(scene)]) == 0
        out = tmp_path / "run.json"
        code = main(["localize", "--scene", str(scene), "--init", "0,0,0",
                     "--out", str(out)])
        assert code == 0
        record = json.loads(out.read_text())
        assert record["error"]["lateral_m"] < 0.01

    def test_localize_missing_scene_exits_3(self, tmp_path, capsys):
        code = main(["localize", "--scene", str(tmp_path / "nope.cvls"),
                     "--init", "0,0,0"])
        assert code == 3
        assert "nope.cvls" in capsys.readouterr().err

    def test_localize_corrupt_scene_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.cvls"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert main(["localize", "--scene", str(bad), "--init", "0,0,0"]) == 3

    def test_localize_old_georef_file_exits_3(self, scene_path, tmp_path, capsys):
        # A file written when the georef also held the map tile's keys
        old = tmp_path / "old.cvls"
        old.write_bytes(cvls_rewrite_meta(
            scene_path.read_bytes(),
            lambda meta: meta["georef"].update(latitude_deg=47.9, zoom=18, scale=2)))
        assert main(["localize", "--scene", str(old), "--init", "0,0,0"]) == 3
        err = capsys.readouterr().err
        assert "georef.latitude_deg" in err and "cvloc synth" in err

    def test_deeply_nested_scene_metadata_exits_3(self, scene_path, tmp_path, capsys):
        bad = tmp_path / "deep.cvls"
        bad.write_bytes(cvls_with_meta(scene_path.read_bytes(),
                                       b"[" * 200000 + b"]" * 200000))
        assert main(["localize", "--scene", str(bad), "--init", "0,0,0"]) == 3
        assert "metadata" in capsys.readouterr().err

    def test_deeply_nested_config_exits_2(self, scene_path, tmp_path, capsys):
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 200000 + "]" * 200000)
        assert main(["localize", "--scene", str(scene_path), "--init", "0,0,0",
                     "--config", str(cfg)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_large_gamma_synthesizes_and_localizes(self, tmp_path, capsys):
        # 0.5 m/px lies beyond every web-map tile at zoom 18, scale 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {
            "seed": 3, "gamma": 0.5, "sat_size": 128, "point_count": 120,
            "grd_width": 256, "grd_height": 96, "grd_focal": 120.0,
            "depth_min": 3.0, "depth_max": 12.0}}))
        scene = tmp_path / "s.cvls"
        assert main(["synth", "--config", str(cfg), "--out", str(scene)]) == 0
        assert load_scene(scene).georef.gamma == 0.5
        capsys.readouterr()
        assert main(["localize", "--scene", str(scene), "--perturb-seed", "3"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["converged"] is True
        assert abs(record["error"]["lateral_m"]) < 1e-3
        assert abs(record["error"]["longitudinal_m"]) < 1e-3

    def test_localize_dropped_ground_level_exits_3(self, scene_path, tmp_path, capsys):
        # The ground level table and payload lose the coarsest level, so the
        # file parses but its two pyramids disagree on the level count.
        meta = cvls_meta(scene_path.read_bytes())
        dropped = meta["levels"]["ground"].pop()
        level_bytes = 4 * dropped["h"] * dropped["w"] * (dropped["c"] + 1)
        blob = cvls_with_meta(scene_path.read_bytes(), meta)
        points_at = len(blob) - 12 * meta["point_count"]
        bad = tmp_path / "dropped.cvls"
        bad.write_bytes(blob[:points_at - level_bytes] + blob[points_at:])
        code = main(["localize", "--scene", str(bad), "--init", "0,0,0"])
        assert code == 3
        assert "level counts differ" in capsys.readouterr().err

    def test_localize_unhalved_satellite_level_exits_3(self, scene_path, tmp_path, capsys):
        # Satellite level 1 loses its last row of features and of attention,
        # so the file parses but that level no longer halves level 0.
        meta = cvls_meta(scene_path.read_bytes())
        fine, coarse = meta["levels"]["satellite"][:2]
        coarse["h"] -= 1
        blob = cvls_with_meta(scene_path.read_bytes(), meta)
        row = 4 * coarse["w"]  # bytes of one attention row; a feature row is c times more
        feats_at = cvls_payload_offset(blob) + 4 * fine["h"] * fine["w"] * (fine["c"] + 1)
        att_at = feats_at + row * coarse["c"] * (coarse["h"] + 1)
        att_end = att_at + row * (coarse["h"] + 1)
        bad = tmp_path / "unhalved.cvls"
        bad.write_bytes(blob[:att_at - row * coarse["c"]] + blob[att_at:att_end - row]
                        + blob[att_end:])
        code = main(["localize", "--scene", str(bad), "--init", "0,0,0"])
        assert code == 3
        err = capsys.readouterr().err
        assert "satellite pyramid level 1 is 63x64, expected 64x64" in err

    @pytest.mark.parametrize("command", ["synth", "eval"])
    @pytest.mark.parametrize("synth", [{"gamma": -0.2}, {"grd_focal": -5},
                                       {"grd_width": 0}, {"feature_smoothness": 1e6},
                                       {"feature_smoothness": 1e9},
                                       {"depth_min": 1, "depth_max": 1e300},
                                       {"levels": 8}, {"sat_size": 1000000},
                                       {"channels": 100000},
                                       {"grd_width": 1000000, "grd_height": 1000000}],
                             ids=["gamma", "focal", "width", "smoothness", "huge-smoothness",
                                  "depth-overflow", "levels", "oversize-sat",
                                  "oversize-channels", "oversize-ground"])
    def test_unbuildable_synth_geometry_exits_2(self, scene_path, tmp_path, command, synth,
                                                capsys):
        # eval reads the whole config file, its synth section included
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": synth}))
        if command == "synth":
            argv = ["synth", "--config", str(cfg), "--out", str(tmp_path / "s.cvls")]
        else:
            argv = ["eval", "--scene", str(scene_path), "--config", str(cfg), "--trials", "1",
                    "--out-dir", str(tmp_path / "eval")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "Traceback" not in err

    def test_degenerate_init_exits_4(self, tmp_path, synth_cfg_file, capsys):
        scene = tmp_path / "scene.cvls"
        main(["synth", "--config", str(synth_cfg_file), "--out", str(scene)])
        code = main(["localize", "--scene", str(scene), "--init", "5000,0,0"])
        assert code == 4

    def test_overflowing_init_exits_4(self, scene_path, capsys):
        # x / gamma overflows to inf for every point: off the map, not a
        # numpy overflow warning
        code = main(["localize", "--scene", str(scene_path), "--init", "1.7e308,0,0"])
        assert code == 4
        assert capsys.readouterr().err == (
            "degenerate problem: all points masked at pyramid level 2\n")

    @pytest.mark.parametrize("error", _ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_error_class_exit_code(self, scene_path, monkeypatch, capsys, error):
        code, label = _EXIT_CODES[error.__name__]

        def fail(*args, **kwargs):
            raise error("rejected input")

        monkeypatch.setattr(runner, "refine_pose", fail)
        assert main(["localize", "--scene", str(scene_path), "--init", "0,0,0"]) == code
        err = capsys.readouterr().err
        assert err == f"{label}: rejected input\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("init", ["nan,0,0", "0,inf,0"])
    def test_non_finite_init_exits_2(self, scene_path, init, capsys):
        code = main(["localize", "--scene", str(scene_path), "--init", init])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_sigma_squared_overflow_exits_2(self, scene_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cost": {"kind": "geman_mcclure", "sigma": 1.4e154}}))
        code = main(["localize", "--scene", str(scene_path), "--init", "0,0,0",
                     "--config", str(cfg)])
        assert code == 2
        assert "sigma squared must be finite" in capsys.readouterr().err

    def test_underflowing_sigma_reports_non_convergence(self, tmp_path, capsys):
        # sigma^2 = 1e-320 is subnormal: every IRLS weight underflows to 0,
        # H is zero and the pose never moves, so the solve has not converged.
        scene = tmp_path / "s.cvls"
        assert main(["synth", "--seed", "1", "--out", str(scene)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cost": {"kind": "geman_mcclure", "sigma": 1e-160}}))
        capsys.readouterr()
        assert main(["localize", "--scene", str(scene), "--perturb-seed", "3",
                     "--config", str(cfg)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["converged"] is False
        assert record["final_pose"] == record["init_pose"]

    def test_bad_config_exits_2(self, tmp_path, synth_cfg_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"solver": {"bogus": 1}}')
        scene = tmp_path / "scene.cvls"
        main(["synth", "--config", str(synth_cfg_file), "--out", str(scene)])
        code = main(["localize", "--scene", str(scene), "--init", "0,0,0",
                     "--config", str(cfg)])
        assert code == 2

    @pytest.mark.parametrize("text", [
        '{"synth": {"gamma": "x"}}',
        '{"synth": {"feature_smoothness": NaN}}',
        '{"solver": {"stop_tol": NaN}}',
        '{"cost": {"delta": NaN}}',
    ], ids=["gamma_str", "smoothness_nan", "stop_tol_nan", "delta_nan"])
    def test_bad_config_number_exits_2(self, scene_path, tmp_path, text, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = main(["eval", "--scene", str(scene_path), "--config", str(cfg), "--trials", "1",
                     "--out-dir", str(tmp_path / "eval")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_level_order_config_exits_2(self, scene_path, tmp_path, capsys):
        # levels always run coarse to fine; the key is no longer a setting
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"solver": {"level_order": "coarse_to_fine"}}')
        code = main(["localize", "--scene", str(scene_path), "--init", "0,0,0",
                     "--config", str(cfg)])
        assert code == 2
        assert "unknown solver keys ['level_order']" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["0", "-2"], ids=["flag", "negative_flag"])
    def test_zero_workers_exit_2(self, scene_path, tmp_path, flag, capsys):
        code = main(["eval", "--scene", str(scene_path), "--trials", "1",
                     "--workers", flag, "--out-dir", str(tmp_path / "eval")])
        assert code == 2
        assert f"worker count must be >= 1, got {flag}" in capsys.readouterr().err

    def test_eval_from_synth_config(self, tmp_path, synth_cfg_file, capsys):
        scene = tmp_path / "scene.cvls"
        assert main(["synth", "--config", str(synth_cfg_file), "--out", str(scene)]) == 0
        out_dir = tmp_path / "eval"
        code = main(["eval", "--scene", str(scene), "--trials", "2", "--bounds", "1:3",
                     "--out-dir", str(out_dir)])
        assert code == 0
        assert (out_dir / "trials.csv").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["master_seed"] == 0 and summary["trials_per_bound"] == 2
        [entry] = summary["results"]
        assert entry["bounds"] == {"max_shift_m": 1.0, "max_yaw_deg": 3.0}
        assert entry["failures"] == 0
        assert entry["summary"]["trial_count"] == 2
        recalls = entry["summary"]["recall_pct"]["lateral"]
        assert set(recalls) == {"0.25", "0.5", "1.0", "2.0"}

    def test_eval_default_bound_is_the_north_star(self, tmp_path, scene_path,
                                                  monkeypatch, capsys):
        grids = []

        def record(problem, trials, grid, **kwargs):
            grids.append(grid)
            raise ConfigError("stop")

        monkeypatch.setattr(runner, "run_bounds", record)
        assert main(["eval", "--scene", str(scene_path), "--trials", "1",
                     "--out-dir", str(tmp_path / "eval")]) == 2
        assert grids == [[PerturbBounds(10.0, 30.0)]]

    def test_unwritable_out_dir_exits_3_before_any_trial(self, tmp_path, scene_path,
                                                         monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("trials ran before the out-dir was made")

        monkeypatch.setattr(runner, "run_bounds", forbidden)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["eval", "--scene", str(scene_path), "--trials", "1",
                     "--out-dir", str(blocker / "eval")]) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")

    def test_multi_bound_csv_shape(self, tmp_path, scene_path, capsys):
        """A sweep over two bounds: one row per trial, trial ids unique
        across bounds, and one summary entry per bound."""
        out_dir = tmp_path / "eval"
        code = main(["eval", "--scene", str(scene_path), "--bounds", "0:0,1:3",
                     "--trials", "2", "--out-dir", str(out_dir)])
        assert code == 0
        with open(out_dir / "trials.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["trial"] for r in rows] == ["0", "1", "2", "3"]
        assert [(r["max_shift_m"], r["max_yaw_deg"]) for r in rows] == [
            ("0.0", "0.0"), ("0.0", "0.0"), ("1.0", "3.0"), ("1.0", "3.0")]
        summary = json.loads((out_dir / "summary.json").read_text())
        assert [e["bounds"]["max_shift_m"] for e in summary["results"]] == [0.0, 1.0]
        assert all(e["summary"]["trial_count"] == 2 and e["failures"] == 0
                   for e in summary["results"])

    def test_eval_bounds_outputs_ignore_worker_count(self, tmp_path, scene_path, capsys):
        outs = []
        for workers in ("1", "2"):
            out_dir = tmp_path / f"w{workers}"
            assert main(["eval", "--scene", str(scene_path), "--bounds", "2:6,5:15",
                         "--trials", "3", "--seed", "4", "--workers", workers,
                         "--out-dir", str(out_dir)]) == 0
            outs.append([(out_dir / name).read_bytes()
                         for name in ("trials.csv", "summary.json")])
        assert outs[0] == outs[1]

    def test_eval_all_trials_failed_exits_4(self, tmp_path, scene_path, capsys):
        code = main(["eval", "--scene", str(scene_path), "--trials", "2",
                     "--bounds", "500:0", "--out-dir", str(tmp_path / "eval")])
        assert code == 4
        assert "max shift 500.0 m" in capsys.readouterr().err

    def test_later_bound_all_trials_failed_exits_4(self, tmp_path, scene_path, capsys):
        """A later bound at which every trial fails exits 4 and names it."""
        code = main(["eval", "--scene", str(scene_path), "--bounds", "0:0,500:0",
                     "--trials", "2", "--out-dir", str(tmp_path / "eval")])
        assert code == 4
        assert "all 2 trials failed at max shift 500.0 m, max yaw 0.0 deg" in \
            capsys.readouterr().err

    def test_multi_bound_zero_trials_exits_2(self, tmp_path, scene_path, capsys):
        code = main(["eval", "--scene", str(scene_path), "--bounds", "1:3,2:6",
                     "--trials", "0", "--out-dir", str(tmp_path / "eval")])
        assert code == 2
        assert "trials must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["eval", "--trials", "1", "--max-shift", "1", "--out-dir", "unused"],
        ["eval", "--trials", "1", "--max-yaw", "3", "--out-dir", "unused"],
        ["sweep", "--bounds", "1:3", "--trials", "1", "--out", "unused.csv"],
        ["localize", "--perturb-seed", "1", "--max-shift", "1", "--out", "unused.json"],
        ["localize", "--perturb-seed", "1", "--max-yaw", "3", "--out", "unused.json"],
    ], ids=["eval-max-shift", "eval-max-yaw", "sweep", "localize-max-shift",
            "localize-max-yaw"])
    def test_removed_options_exit_2(self, scene_path, argv, tmp_path, monkeypatch, capsys):
        # eval and localize take their bounds from --bounds alone, and sweep is gone
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--scene", str(scene_path), *argv[1:]])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("bounds", ["1:3:4", "10", "x:3", "1:3,", ""])
    def test_malformed_bounds_exit_2(self, scene_path, bounds, tmp_path, capsys):
        code = main(["eval", "--scene", str(scene_path), "--bounds", bounds,
                     "--trials", "1", "--out-dir", str(tmp_path / "eval")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("bounds", ["garbage", "-5:30", "10:30"])
    def test_localize_init_with_bounds_exits_2(self, scene_path, bounds, capsys):
        # --bounds samples the start of --perturb-seed; with --init it is an error
        code = main(["localize", "--scene", str(scene_path), "--init", "0,0,0",
                     f"--bounds={bounds}"])
        assert code == 2
        assert "--bounds" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", ["5:15,10:30", "x:3"])
    def test_localize_takes_one_bound(self, scene_path, bounds, capsys):
        code = main(["localize", "--scene", str(scene_path), "--perturb-seed", "1",
                     "--bounds", bounds])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["localize", "--perturb-seed", "1", "--bounds=-1:30"],
        ["eval", "--trials", "1", "--bounds=-1:30", "--out-dir", "unused"],
        ["eval", "--trials", "1", "--bounds", "10:-1", "--out-dir", "unused"],
        ["eval", "--trials", "1", "--bounds", "nan:30", "--out-dir", "unused"],
        ["eval", "--bounds", "1:3,-1:3", "--trials", "1", "--out-dir", "unused"],
    ], ids=["localize", "eval-shift", "eval-yaw", "eval-nan", "eval-list"])
    def test_bad_bounds_exit_2(self, scene_path, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main([argv[0], "--scene", str(scene_path), *argv[1:]])
        assert code == 2
        assert "bounds must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["localize", "--perturb-seed", "1", "--bounds", "1e308:30"],
        ["eval", "--trials", "1", "--bounds", "10:1e308", "--out-dir", "unused"],
        ["eval", "--bounds", "5:15,1e308:30", "--trials", "1", "--out-dir", "unused"],
        ["eval", "--trials", "1", "--bounds", "9e307:30", "--out-dir", "unused"],
    ], ids=["localize", "eval", "eval-list", "eval-9e307"])
    def test_overflowing_bound_span_exits_2(self, scene_path, argv, tmp_path, monkeypatch,
                                            capsys):
        # rng.uniform(-b, b) overflows once 2 * b is infinite
        monkeypatch.chdir(tmp_path)
        code = main([argv[0], "--scene", str(scene_path), *argv[1:]])
        assert code == 2
        assert "at most half the largest float" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["localize", "--scene", "SCENE", "--perturb-seed", "-1"],
        ["synth", "--seed", "-1", "--out", "s.cvls"],
        ["eval", "--scene", "SCENE", "--trials", "1", "--seed", "-1", "--out-dir", "e"],
        ["eval", "--scene", "SCENE", "--bounds", "1:3,2:6", "--trials", "1", "--seed", "-3",
         "--out-dir", "e"],
        ["check-numerics", "--seed", "-1"],
    ], ids=["localize", "synth", "eval", "eval-list", "check-numerics"])
    def test_negative_seed_flag_exits_2(self, scene_path, argv, tmp_path, monkeypatch,
                                        capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([str(scene_path) if a == "SCENE" else a for a in argv])
        assert exc.value.code == 2
        assert "expected a non-negative integer, got '-" in capsys.readouterr().err

    def test_negative_config_seed_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"seed": -4}}))
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s.cvls")])
        assert code == 2
        assert "seed must be >= 0, got -4" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["eval", "--trials", "1", "--out-dir", "eval"],
        ["eval", "--bounds", "1:3,2:6", "--trials", "1", "--out-dir", "eval"],
    ], ids=["eval", "eval-list"])
    def test_config_as_scene_exits_3(self, synth_cfg_file, argv, tmp_path, monkeypatch,
                                     capsys):
        # only synth generates scenes: --scene reads CVLS files alone
        monkeypatch.chdir(tmp_path)
        assert main([argv[0], "--scene", str(synth_cfg_file), *argv[1:]]) == 3
        err = capsys.readouterr().err
        assert "format error" in err and "magic" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("section, key, value", [
        ("solver", "lambda_init", 0.1),
        ("solver", "lambda_up", 10.0),
        ("solver", "lambda_down", 0.1),
        ("synth", "cam_height_m", -1.65),
        ("synth", "attention_mode", "uniform"),
        pytest.param("synth", "gt_pose", {"lateral_m": 0.0}, id="synth-gt_pose-object"),
    ])
    def test_deleted_key_exits_2(self, tmp_path, capsys, section, key, value):
        # the damping schedule is fixed, the satellite projection discards
        # the camera height, generated attention is uniform and a generated
        # scene's truth is the map origin; even the old defaults are unknown keys
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s.cvls")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"unknown {section} keys ['{key}']" in err
        assert "Traceback" not in err

    def test_out_of_memory_exits_2(self, tmp_path, monkeypatch, capsys):
        # a size under the scene budget can still exceed the process's memory
        def out_of_memory(cfg):
            raise MemoryError("Unable to allocate 479. MiB for an array")

        monkeypatch.setattr(cli, "generate_scene", out_of_memory)
        code = main(["synth", "--out", str(tmp_path / "s.cvls")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "out of memory: Unable to allocate 479. MiB for an array\n"
        assert "Traceback" not in err

    def test_check_numerics_command(self, capsys):
        assert main(["check-numerics"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_localize_requires_exactly_one_init_mode(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["localize", "--scene", "x.cvls"])
        assert exc.value.code == 2


# Loads a saved scene, solves and evaluates on 2 workers, generates a scene,
# and prints the scipy modules loaded by then: none, on any of these paths.
_STARTUP_SCRIPT = """
import json, sys
import cvloc, cvloc.harness.cli
from cvloc.cvls import load_scene
from cvloc.geometry import Pose3
from cvloc.harness.runner import run_eval
from cvloc.solver import refine_pose
from cvloc.synth import PerturbBounds, SynthConfig, generate_scene

problem = load_scene(sys.argv[1])
report = refine_pose(problem, Pose3(0.5, -0.3, 0.02))
_, rows, failures = run_eval(problem, 2, PerturbBounds(3.0, 10.0), workers=2)
generated = generate_scene(SynthConfig(seed=5, sat_size=128, levels=2, channels=2,
                                       point_count=50, grd_width=256, grd_height=96,
                                       grd_focal=120.0, depth_min=3.0, depth_max=14.0))
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"scipy": scipy, "iterations": report.iterations_total,
                  "failures": failures, "points": len(generated.points.points)}))
"""


class TestStartup:
    def test_saved_scene_paths_import_no_scipy(self, scene_path):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT, str(scene_path)],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["scipy"] == []
        assert out["iterations"] > 0 and out["failures"] == 0
        assert out["points"] > 0
