"""Every import in the package sits at module level.

An import inside a function body usually hides an import cycle: a core
module reaching back into one of its callers.  Result types and solves
live in ``denoise`` so that it never needs to; this test keeps it so.
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
