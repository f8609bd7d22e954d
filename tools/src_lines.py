"""Lines of src/probnorm per module, split into code, docstrings, comments and blank.

    python tools/src_lines.py        # the working tree
    python tools/src_lines.py REV    # REV's split (read through git show), the
                                     # working tree's, and the difference

A docstring is the string that opens a module, class or function body, all
of its lines, blank ones included.  A comment line is one whose first
character other than whitespace is #, and a blank line holds only
whitespace.  Every other line is code, every line of a multi-line string
that is not a docstring included.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/probnorm"
KINDS = ("code", "docstring", "comment", "blank")


def split(source: str) -> dict[str, int]:
    """Line counts of source by kind; they add up to its number of lines."""
    doc, inside = set(), set()  # docstring lines; lines after the first of any string
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Constant, ast.JoinedStr)):
            inside.update(range(node.lineno + 1, node.end_lineno + 1))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                doc.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        if number in doc:
            counts["docstring"] += 1
        elif number in inside:
            counts["code"] += 1
        elif not text:
            counts["blank"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def tree_sources(root: Path = ROOT) -> dict[str, str]:
    """Module file name -> text, for the package in the working tree."""
    return {path.name: path.read_text() for path in sorted((root / PACKAGE).glob("*.py"))}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def rev_sources(rev: str) -> dict[str, str]:
    """Module file name -> text, for the package at a git revision."""
    names = _git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {name: _git("show", f"{rev}:{PACKAGE}/{name}") for name in names if name.endswith(".py")}


def table(title: str, counts: dict[str, dict[str, int]]) -> str:
    """One row per module and a total row, a column per kind and their sum."""
    rows = dict(counts)
    rows["total"] = {k: sum(c[k] for c in counts.values()) for k in KINDS}
    width = max(len(title), *map(len, rows))
    lines = [f"{title:<{width}}" + "".join(f"{k:>11}" for k in (*KINDS, "lines"))]
    for name, c in rows.items():
        cells = [c[k] for k in KINDS] + [sum(c.values())]
        lines.append(f"{name:<{width}}" + "".join(f"{v:>11}" for v in cells))
    return "\n".join(lines) + "\n"


def difference(old: dict[str, dict[str, int]], new: dict[str, dict[str, int]]) -> dict[str, dict[str, int]]:
    """new - old per module and kind; a module missing on one side counts 0 there."""
    zero = dict.fromkeys(KINDS, 0)
    return {
        name: {k: new.get(name, zero)[k] - old.get(name, zero)[k] for k in KINDS}
        for name in sorted(old.keys() | new.keys())
    }


def main(argv: list[str]) -> int:
    now = {name: split(text) for name, text in tree_sources().items()}
    if not argv:
        sys.stdout.write(table("working tree", now))
        return 0
    (rev,) = argv
    then = {name: split(text) for name, text in rev_sources(rev).items()}
    for title, counts in ((rev, then), ("working tree", now), ("change", difference(then, now))):
        sys.stdout.write(table(title, counts) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
