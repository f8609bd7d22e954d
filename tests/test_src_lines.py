"""tools/src_lines.py splits source lines into code, docstrings, comments and blank."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SYNTHETIC = '''"""Module docstring,

over three lines."""

import math  # a trailing comment leaves a code line

# a comment
    # an indented comment
TEXT = """not a docstring:

# nor a comment
it is assigned"""


class K:
    """Class docstring."""

    def f(self):
        """Method docstring
        on two lines."""
        return """a string
        the body returns"""

    async def g(self):
        x = 1
        "not a docstring either: not the first statement"
        return x


def h():
    pass
'''


def test_synthetic_module():
    counts = src_lines.split(SYNTHETIC)
    assert counts == {"code": 15, "docstring": 6, "comment": 2, "blank": 8}
    assert sum(counts.values()) == len(SYNTHETIC.splitlines())


def test_every_src_module_adds_up():
    sources = src_lines.tree_sources()
    assert "pnspace.py" in sources
    for name, text in sources.items():
        assert sum(src_lines.split(text).values()) == len(text.splitlines()), name


def test_table_and_difference():
    old = {"a.py": src_lines.split("x = 1\n"), "b.py": src_lines.split('"""doc"""\n')}
    new = {"a.py": src_lines.split("# note\nx = 1\n\n"), "c.py": src_lines.split("y = 2\n")}
    change = src_lines.difference(old, new)
    assert change == {
        "a.py": {"code": 0, "docstring": 0, "comment": 1, "blank": 1},
        "b.py": {"code": 0, "docstring": -1, "comment": 0, "blank": 0},
        "c.py": {"code": 1, "docstring": 0, "comment": 0, "blank": 0},
    }
    lines = src_lines.table("change", change).splitlines()
    assert lines[0].split() == ["change", "code", "docstring", "comment", "blank", "lines"]
    assert lines[-1].split() == ["total", "1", "-1", "1", "1", "2"]
