"""Every entry point the benchmark tracer wraps exists in src/probnorm.

bench/tracer.py names its entry points as "<module>.<qualname>" strings and
looks each up in the owner's __dict__ when it installs, so a renamed or
removed function fails the benchmark, not the library's tests.  This reads
ENTRY_POINTS from the tracer's syntax tree, without importing the bench.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def entry_points() -> tuple:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no ENTRY_POINTS")


def resolves(name: str) -> bool:
    # the tracer's own lookup: getattr along the qualname, then the owner's __dict__
    module_name, qualname = name.split(".", 1)
    owner = importlib.import_module(f"probnorm.{module_name}")
    *path, attr = qualname.split(".")
    try:
        for part in path:
            owner = getattr(owner, part)
        return callable(owner.__dict__[attr])
    except (AttributeError, KeyError):
        return False


def test_every_entry_point_resolves():
    names = entry_points()
    assert "pnspace.SeminormFamily.__post_init__" in names
    assert [name for name in names if not resolves(name)] == []
    assert not resolves("pnspace.SeminormFamily._stack") and not resolves("pnspace.nothing")
