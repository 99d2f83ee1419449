"""Every imported name is used: a stdlib-``ast`` stand-in for a linter's
unused-import rule, over the package, the jobs, the tests and the
benchmarks.  ``__init__.py`` files (re-exports) and ``from __future__``
imports are exempt.  Only an allowlist of package modules imports
pandas, and only ``graph.sort_keys`` calls ``argsort``."""
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

#: The package modules that may import pandas: ``graphs/graph.py`` for
#: ``edges_pdf`` (the DuckDB input), the oracle, and ``core/local_push.py``
#: for the stats frame the benchmark's tracer reads (ROADMAP item 1).
PANDAS_ALLOWED = {"graphs/graph.py", "oracle.py", "core/local_push.py"}


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


def imported_modules(source: str) -> set:
    """Top-level names of the modules ``source`` imports."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imported_modules_are_found():
    src = "import pandas.api\nfrom numpy import array\nfrom . import x\n"
    assert imported_modules(src) == {"pandas", "numpy"}


def test_only_allowlisted_package_modules_import_pandas():
    pkg = ROOT / "src" / "repro"
    users = {
        p.relative_to(pkg).as_posix()
        for p in pkg.rglob("*.py")
        if "pandas" in imported_modules(p.read_text())
    }
    assert users <= PANDAS_ALLOWED, sorted(users - PANDAS_ALLOWED)


def argsort_callers(source: str) -> set:
    """Names of the functions that call ``argsort`` (``"<module>"`` at the
    top level); a call inside a nested function counts for the nested one."""
    callers = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "attr", getattr(func, "id", None)) == "argsort":
                    callers.add(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return callers


def test_argsort_callers_are_found():
    src = (
        "order = np.argsort(x)\n"
        "def f(a):\n    def g():\n        return a.argsort()\n    return sorted(a)\n"
        "def h(a):\n    return argsort(a)\n"
    )
    assert argsort_callers(src) == {"<module>", "g", "h"}


def test_only_sort_keys_calls_argsort():
    """One stable key sort in the package: every other module sorts through
    ``graph.sort_keys``."""
    pkg = ROOT / "src" / "repro"
    callers = {
        (p.relative_to(pkg).as_posix(), name)
        for p in pkg.rglob("*.py")
        for name in argsort_callers(p.read_text())
    }
    assert callers == {("graphs/graph.py", "sort_keys")}, sorted(callers)
