"""The benchmark's tracer still finds every attribute it wraps.

``bench/run.py`` times the layers of a solve by wrapping module attributes
by name. A refactor that renames or deletes one of them, or stops calling
through it, breaks the traced benchmark; this test fails first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import cvloc
import cvloc.harness.runner
import cvloc.problem
import cvloc.solver
from cvloc.geometry import Pose3

from conftest import tiny_problem

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture()
def bench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its sibling tracer
    spec = importlib.util.spec_from_file_location("cvloc_bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_hook(bench_run):
    hooks = bench_run.trace_hooks(cvloc)
    originals = [getattr(h.module, h.attr) for h in hooks]
    tracer = bench_run.Tracer(hooks)
    tracer.install()
    try:
        for hook, original in zip(hooks, originals):
            assert getattr(hook.module, hook.attr) is not original, hook.attr
        # a solve on a fresh problem calls through every hooked attribute
        problem = tiny_problem()
        cvloc.harness.runner.refine_pose(problem, Pose3(0.3, -0.2, 0.02))
    finally:
        tracer.restore()
    for hook, original in zip(hooks, originals):
        assert getattr(hook.module, hook.attr) is original, hook.attr
    assert {span.name for span in tracer.spans} == {hook.name for hook in hooks}
