"""Every import in the package sits at module level, and the argument rules have one home.

An import inside a function body usually hides an import cycle: a core
module reaching back into one of its callers.  Result types and solves
live in ``denoise`` so that it never needs to; this test keeps it so.

The generic argument rules live in ``errors``, the leaf every module imports
for the error types they raise.  A second definition elsewhere could drift
from the first, and an import of the package from ``errors`` would make the
leaf a node of a cycle.

A run of the package stays in the calling process: no module imports
``concurrent.futures`` or ``multiprocessing``.  Simlab replicates run one after
another, on the BLAS threads the process has, in replicate order.
"""

import ast
from pathlib import Path

import spectral_denoise

PACKAGE = Path(spectral_denoise.__file__).resolve().parent


def _local_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield f"{path.relative_to(PACKAGE)}:{node.lineno}"


def test_no_import_inside_a_function():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    found = sorted({hit for path in files for hit in _local_imports(path)})
    assert found == []


#: The generic argument rules; each is defined once, in ``errors.py``.
RULES = {"_check_real", "_check_int", "_expect", "_index_set", "_real_array", "_as_matrix",
         "_as_mask", "_MAX_INTP"}


def _definitions(tree):
    """Names bound by a ``def``, ``class`` or assignment anywhere in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _rule_homes(files):
    return sorted({(str(path.relative_to(PACKAGE)), name) for path in files
                   for name in set(_definitions(ast.parse(path.read_text()))) & RULES})


def _package_imports(tree):
    """The imports in ``tree`` that reach into the package: relative ones, or by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == PACKAGE.name):
            yield node.lineno
        elif isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == PACKAGE.name for alias in node.names):
            yield node.lineno


def test_argument_rules_are_defined_only_in_errors():
    files = sorted(PACKAGE.rglob("*.py"))
    assert _rule_homes(files) == sorted(("errors.py", name) for name in RULES)


def test_errors_imports_no_module_of_the_package():
    assert list(_package_imports(ast.parse((PACKAGE / "errors.py").read_text()))) == []


def test_guards_see_a_second_home_and_a_package_import():
    # Each form the guards claim to catch.
    src = ("from . import spiked\n"
           "from .geometry import Partition\n"
           "import spectral_denoise.io\n"
           "from spectral_denoise import cli\n"
           "import numpy as np\n"
           "_MAX_INTP = 5\n"
           "def _expect(value): return value\n"
           "class _as_mask: pass\n"
           "def outer():\n"
           "    _real_array: int = 1\n")
    tree = ast.parse(src)
    assert list(_package_imports(tree)) == [1, 2, 3, 4]
    assert set(_definitions(tree)) & RULES == {"_MAX_INTP", "_expect", "_as_mask",
                                                "_real_array"}


#: The standard modules that start worker processes or pools.
PROCESS_MODULES = ("concurrent.futures", "multiprocessing")


def _process_imports(tree):
    """The lines of ``tree`` that import one of ``PROCESS_MODULES`` or a module inside it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == mod or name.startswith(mod + ".")
               for name in names for mod in PROCESS_MODULES):
            yield node.lineno


def test_no_module_imports_a_process_pool():
    files = sorted(PACKAGE.rglob("*.py"))
    found = sorted(f"{path.relative_to(PACKAGE)}:{line}" for path in files
                   for line in _process_imports(ast.parse(path.read_text())))
    assert found == []


def test_process_guard_sees_each_import_form():
    src = ("from concurrent.futures import ProcessPoolExecutor\n"
           "import multiprocessing\n"
           "import concurrent.futures as cf\n"
           "from concurrent import futures\n"
           "from multiprocessing.pool import Pool\n"
           "import os, multiprocessing.shared_memory\n"
           "def run():\n"
           "    from multiprocessing import get_context\n"
           "import concurrent\n"
           "import multiprocessing_helpers\n"
           "from .multiprocessing import Pool\n"
           "from threading import Thread\n")
    assert sorted(_process_imports(ast.parse(src))) == [1, 2, 3, 4, 5, 6, 8]
