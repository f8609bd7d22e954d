"""No module in src/, tests/ or tools/ imports a name it never uses.

There is no linter in the toolchain, so this scans the syntax trees itself.
Package __init__.py files re-export what they import, and `from __future__`
imports are directives, so both are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scanner_flags_only_unused_names():
    source = "from __future__ import annotations\nimport os.path\nimport sys as system\n"
    source += "from a import b, c as d\nprint(os.path.sep, d)\n"
    assert unused_imports(source) == ["system (line 3)", "b (line 4)"]


def test_no_unused_imports():
    files = [path for part in ("src", "tests", "tools") for path in sorted((ROOT / part).rglob("*.py"))]
    assert any(path.parent.name == "tools" for path in files)
    found = {
        str(path.relative_to(ROOT)): unused
        for path in files
        if path.name != "__init__.py" and (unused := unused_imports(path.read_text()))
    }
    assert found == {}
