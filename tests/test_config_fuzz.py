"""Config fuzzing: hostile values for every key, in process and through the CLI.

Every config key, as a file spells it, takes values from a fixed set of edge
cases: zeros, the smallest subnormal, numbers at and beyond the float and
int64 ranges, booleans, a string, null and containers. ``load_config`` must
return a ``RunConfig`` or raise ``ConfigError``. A CLI child must end in a
documented exit code with no traceback, within a memory limit and a timeout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvloc.cvls import save_scene
from cvloc.errors import ConfigError
from cvloc.harness import runner

from conftest import small_scene_problem

_VALUES = [0, -0.0, 5e-324, 1e308, -1e308, 2**70, -2**70, True, False, "x", None,
           {}, [], {"a": {"b": [1, {"c": None}]}}]


def _config_keys() -> list[tuple]:
    """(section, key) for every key of every section: each is a field of
    the section's dataclass."""
    return [(section, name) for section, (_, hints) in runner._SECTIONS.items()
            for name in hints]


_KEYS = _config_keys()


def _config(base: dict, path: tuple, value) -> dict:
    """``base`` with the key at ``path`` set to ``value``; a non-object on
    the way becomes an object."""
    config = json.loads(json.dumps(base))
    node = config
    for key in path[:-1]:
        if not isinstance(node.get(key), dict):
            node[key] = {}
        node = node[key]
    node[path[-1]] = value
    return config


def test_keys_cover_every_section():
    assert {key[0] for key in _KEYS} == set(runner._SECTIONS)
    assert ("synth", "depth_min") in _KEYS and ("synth", "depth_max") in _KEYS


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    folder = tmp_path_factory.mktemp("config_fuzz")
    save_scene(folder / "scene.cvls", small_scene_problem())
    return folder


@given(edits=st.lists(st.tuples(st.sampled_from(_KEYS), st.sampled_from(_VALUES)),
                      min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_load_config_returns_config_or_raises_config_error(fuzz_dir, edits):
    config = {}
    for path, value in edits:
        config = _config(config, path, value)
    cfg = fuzz_dir / "cfg.json"
    cfg.write_text(json.dumps(config))
    try:
        assert isinstance(runner.load_config(cfg), runner.RunConfig)
    except ConfigError:
        pass


# Small enough that a valid scene generates in well under a second.
_BASE_SYNTH = {"seed": 3, "sat_size": 128, "levels": 2, "channels": 2, "point_count": 120,
               "grd_width": 256, "grd_height": 96, "grd_focal": 120.0,
               "depth_min": 3.0, "depth_max": 12.0}

# The child caps its own address space, as CI does with `ulimit -v 1500000`.
# It runs with `-W error`, so a numpy overflow or invalid-value warning on
# the way ends in exit 1 and fails the case.
_CHILD = """
import resource, sys
limit = 1_500_000 * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from cvloc.harness.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _run_child(fuzz_dir, path: tuple, value) -> subprocess.CompletedProcess:
    """A synth key runs `synth --config` over a small base scene; a solver or
    cost key runs `localize --config` on a small scene file."""
    cfg = fuzz_dir / "child.json"
    if path[0] == "synth":
        cfg.write_text(json.dumps(_config({"synth": _BASE_SYNTH}, path, value)))
        argv = ["synth", "--config", str(cfg), "--out", str(fuzz_dir / "out.cvls")]
    else:
        cfg.write_text(json.dumps(_config({}, path, value)))
        argv = ["localize", "--scene", str(fuzz_dir / "scene.cvls"), "--perturb-seed", "3",
                "--config", str(cfg), "--out", str(fuzz_dir / "out.json")]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _CHILD, *argv],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode in {0, 2, 3, 4, 5}, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc


@given(path=st.sampled_from(_KEYS), value=st.sampled_from(_VALUES))
@settings(max_examples=10, deadline=None)
def test_cli_child_exits_with_a_documented_code(fuzz_dir, path, value):
    _run_child(fuzz_dir, path, value)


@pytest.mark.parametrize("path, value, code", [
    (("cost", "delta"), 1e308, 0),  # Huber once squared delta in a discarded branch
    (("synth", "gamma"), 5e-324, 2),  # x / gamma overflowed in project_satellite
], ids=["huber-delta", "synth-gamma"])
def test_cli_child_once_overflowed(fuzz_dir, path, value, code):
    """Cases that once ended in a numpy overflow warning; the sampled test
    above draws each of them rarely."""
    assert _run_child(fuzz_dir, path, value).returncode == code
