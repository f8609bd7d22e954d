"""Every top-level name and method in src/probnorm is used outside its own definition.

A name counts as used when some other top-level statement in src/ reads it,
when the package __init__ exports it, or when the benchmark in bench/ reads
it (the tracer names functions as "module.name" strings).  A method defined
in a class body counts as used when another statement of its class, or a
top-level statement outside its class, reads its name (as an attribute);
dunder methods are called by Python itself.  A name that only the tests read
belongs in tests/.  Like test_unused_imports.py, this scans the syntax trees
itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "probnorm"


def defined_names(node) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def read_names(node, strings: bool = False) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.update(sub.value.split("."))
    return names


def unread_names(sources: dict[str, str], init: str, outside: set[str]) -> list[str]:
    """module.name for each top-level name, and module.Class.name for each
    method, of sources (module -> text) that no other statement reads (for a
    method: no top-level statement outside its class and no other statement
    of its class body), init does not export, and outside lacks."""
    statements = [(mod, node) for mod, text in sources.items() for node in ast.parse(text).body]
    reads = [read_names(node) for _, node in statements]
    used = read_names(ast.parse(init)) | outside
    found = []

    def report(name, elsewhere, qualified):
        if not (elsewhere or name in used or name.startswith("__")):
            found.append(qualified)

    for k, (mod, node) in enumerate(statements):
        for name in defined_names(node):
            report(name, any(name in r for i, r in enumerate(reads) if i != k), f"{mod}.{name}")
        if isinstance(node, ast.ClassDef):
            # the class statement holds every method, so it reads them all
            outside_class = [r for i, r in enumerate(reads) if i != k]
            body = [read_names(sub) for sub in node.body]
            for j, sub in enumerate(node.body):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    others = outside_class + body[:j] + body[j + 1 :]
                    elsewhere = any(sub.name in r for r in others)
                    report(sub.name, elsewhere, f"{mod}.{node.name}.{sub.name}")
    return found


def test_scanner_flags_only_unread_names():
    sources = {
        "a": "import b\nX = 1\ndef f():\n    return f()\ndef g():\n    return b.h()\n",
        "b": "def h():\n    return X\nclass K:\n    pass\n",
    }
    assert unread_names(sources, "from .a import g\n", {"K"}) == ["a.f"]


def test_scanner_flags_methods_only_the_tests_call():
    # K.alias is read by no statement of src (the tests would call it);
    # K.helper by its sibling, K.value by a top-level function, K.rec only
    # by itself, and __init__ by Python
    sources = {
        "a": (
            "class K:\n"
            "    def __init__(self):\n        self.x = 1\n"
            "    def alias(self):\n        return self.value()\n"
            "    def value(self):\n        return self.helper()\n"
            "    def helper(self):\n        return 1\n"
            "    def rec(self):\n        return self.rec()\n"
            "def f(k):\n    return k.value()\n"
        ),
    }
    assert unread_names(sources, "from .a import K, f\n", set()) == ["a.K.alias", "a.K.rec"]


def test_no_test_only_names_in_src():
    sources = {
        path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
    }
    bench = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        bench |= read_names(ast.parse(path.read_text()), strings=True)
    assert unread_names(sources, (PACKAGE / "__init__.py").read_text(), bench) == []
