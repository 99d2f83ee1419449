"""Every imported name is used: a stdlib-``ast`` stand-in for a linter's
unused-import rule, over the package, the jobs, the tests and the
benchmarks.  ``__init__.py`` files (re-exports) and ``from __future__``
imports are exempt."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for d in ("src", "jobs", "tests", "benchmarks")
    for p in (ROOT / d).rglob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """``(line, name)`` of each imported name that never appears as a name."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported.append((node.lineno, a.asname or a.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported.append((node.lineno, a.asname or a.name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_unused_imports_are_caught():
    src = "import time\nimport os.path\nfrom typing import Dict, List\nx: Dict = os.path\n"
    assert unused_imports(src) == [(1, "time"), (3, "List")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
