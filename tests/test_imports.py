"""The package is NumPy-only: every module of `kegcn` imports only the
standard library, NumPy and `kegcn` itself, never the test helpers,
the benchmark or SciPy."""

import ast
import sys
from pathlib import Path

import kegcn

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "kegcn"}


def imported_roots(source: str) -> set:
    """Top-level names of the modules a source text imports; a relative
    import counts as `kegcn` within the package and as `..` above it."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            roots.add("kegcn" if node.level == 1 else "..")
    return roots


def test_checker_flags_foreign_imports():
    source = ("import scipy.spatial\nfrom perfbench import tracing\nfrom helpers import x\n"
              "from .. import y\nimport os, numpy as np\nfrom . import io\n")
    assert imported_roots(source) - ALLOWED == {"scipy", "perfbench", "helpers", ".."}


def test_package_imports_only_stdlib_numpy_and_itself():
    modules = sorted(Path(kegcn.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    foreign = {(path.name, root) for path in modules
               for root in imported_roots(path.read_text(encoding="utf-8")) - ALLOWED}
    assert not foreign
