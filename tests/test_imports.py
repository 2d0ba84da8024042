"""The package is NumPy-only: every module of `kegcn` imports only the
standard library, NumPy and `kegcn` itself, never the test helpers,
the benchmark or SciPy.  Only `numerics` reaches NumPy's random module:
every other module draws from a `numerics.seeded` Generator."""

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


def names_random_module(source: str) -> bool:
    """Whether a source text's code names NumPy's random module: `np.random`
    or `numpy.random`, or an import of or from it."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            return True
        modules = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                   else [a.name for a in node.names] if isinstance(node, ast.Import) else [])
        if any(m == "numpy.random" or m.startswith("numpy.random.") for m in modules):
            return True
    return False


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


def test_random_checker_flags_each_way_of_naming_the_module():
    for source in ("g = np.random.Generator(np.random.PCG64(1))\n",
                   "import numpy\nx = numpy.random.default_rng(0)\n",
                   "from numpy.random import PCG64\n", "import numpy.random\n"):
        assert names_random_module(source), source
    assert not names_random_module("x = rng.random()\nimport numpy as np\n# np.random\n")


def test_only_numerics_names_numpys_random_module():
    modules = sorted(Path(kegcn.__file__).parent.glob("*.py"))
    naming = {path.name for path in modules
              if names_random_module(path.read_text(encoding="utf-8"))}
    assert naming == {"numerics.py"}
