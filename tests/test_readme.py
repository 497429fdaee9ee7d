"""README's library example runs as written, and ``cvloc`` exports exactly
the names it imports."""

import ast
import contextlib
import io
import re
from pathlib import Path

import cvloc

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    """The first python block under README's ``## Library`` heading."""
    text = README.read_text(encoding="utf-8")
    return re.search(r"^## Library\n.*?```python\n(.*?)```", text, re.S | re.M).group(1)


def test_library_example_runs():
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_block(), str(README), "exec"), namespace)
    pose = namespace["report"].final_pose
    assert [type(v) for v in (pose.lateral, pose.longitudinal, pose.yaw)] == [float] * 3
    assert out.getvalue().startswith("Pose3(lateral=")
    assert "np.float64" not in out.getvalue()


def test_top_level_exports_are_the_example_imports():
    imported = [alias.name for node in ast.walk(ast.parse(_library_block()))
                if isinstance(node, ast.ImportFrom) and node.module == "cvloc"
                for alias in node.names]
    assert len(set(cvloc.__all__)) == len(cvloc.__all__)
    assert sorted(cvloc.__all__) == sorted(imported)
