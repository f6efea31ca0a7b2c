"""The top-level modules the package imports, pinned.

Each module the package loads adds to its startup time, which the
benchmark gates as setup_s.  A change that adds or drops a module
updates EXPECTED and says why.
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "smdrr"
EXPECTED = {
    "__future__", "argparse", "collections", "csv", "enum", "fractions",
    "heapq", "io", "itertools", "json", "math", "operator", "pathlib", "re", "sys",
    "typing",
}


def imported_modules() -> set[str]:
    """Top-level names of every absolute import in src/smdrr/*.py, at any depth."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.partition(".")[0])
    return found


def test_package_imports_only_the_pinned_modules():
    assert imported_modules() == EXPECTED


# What the benchmark's setup_s probe runs, in a fresh interpreter that
# ignores PYTHON* variables and user site-packages.
STARTUP = ("import sys; sys.path.insert(0, sys.argv[1]); import smdrr.cli; "
           "smdrr.cli.build_parser(); print(*sorted(sys.modules))")


def test_startup_loads_neither_dataclasses_nor_inspect():
    # The AST check above sees only direct imports; a standard module can
    # pull these in transitively.
    done = subprocess.run([sys.executable, "-E", "-s", "-c", STARTUP, str(SRC.parent)],
                          capture_output=True, text=True, check=True, timeout=60)
    loaded = set(done.stdout.split())
    assert "smdrr.cli" in loaded
    assert {"dataclasses", "inspect"} & loaded == set()
