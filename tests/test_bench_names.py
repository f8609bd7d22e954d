"""Every probnorm name the benchmark in bench/ reads exists in src/probnorm.

bench/ imports the library by name, so a renamed or removed function fails
the benchmark, not the library's tests.  This parses every bench/*.py,
without importing the bench, and resolves each name imported from probnorm
and each attribute read on an imported probnorm module.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def probnorm_reads(source: str) -> set[tuple[str, str]]:
    """(owner, name) for each `from probnorm... import name`, and for each
    read of name through a chain of attributes on a local that an import
    binds to something of probnorm; owner is the dotted path of the module,
    or of the chain."""
    tree, bound, reads = ast.parse(source), {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "probnorm":
                    bound[alias.asname or "probnorm"] = alias.name if alias.asname else "probnorm"
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "probnorm":
                for alias in node.names:
                    reads.add((node.module, alias.name))
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (base := dotted(node.value)):
            root, _, rest = base.partition(".")
            if root in bound:
                reads.add((".".join(filter(None, (bound[root], rest))), node.attr))
    return reads


def dotted(node) -> str | None:
    # "a.b.c" for a name read through a chain of attributes, else None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and (base := dotted(node.value)):
        return f"{base}.{node.attr}"
    return None


def resolves(path: str) -> bool:
    # import the longest importable module prefix, then getattr along the rest
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True
    return False


def unresolved(reads: set[tuple[str, str]]) -> list[str]:
    return [f"{owner}.{name}" for owner, name in sorted(reads) if not resolves(f"{owner}.{name}")]


def test_scanner_reads_imports_and_module_attributes():
    source = (
        "import probnorm\nimport probnorm.cli as c\nfrom probnorm import distfn as d, nothing\n"
        "from probnorm.pnspace import PNSpace\nimport numpy as np\n"
        "def f(x):\n    from probnorm.triangle import TNormKind\n"
        "    return probnorm.__file__, probnorm.cli.main, c.main, d.gone, PNSpace.prob_norm, np.zeros, x.y\n"
    )
    reads = probnorm_reads(source)
    assert reads == {
        ("probnorm", "distfn"),
        ("probnorm", "nothing"),
        ("probnorm.pnspace", "PNSpace"),
        ("probnorm.triangle", "TNormKind"),
        ("probnorm", "__file__"),
        ("probnorm", "cli"),
        ("probnorm.cli", "main"),
        ("probnorm.distfn", "gone"),
        ("probnorm.pnspace.PNSpace", "prob_norm"),
    }
    assert unresolved(reads) == ["probnorm.nothing", "probnorm.distfn.gone"]


def test_every_name_the_benchmark_reads_resolves():
    reads = set()
    for path in sorted(BENCH.glob("*.py")):
        reads |= probnorm_reads(path.read_text())
    assert ("probnorm.distfn", "levy_metric") in reads
    assert unresolved(reads) == []
