"""Every numpy product and ``np.linalg`` call in the package is ``r x r`` work.

numpy and scipy each bundle an OpenBLAS with its own thread pool, and a
numpy product or norm between two head SVDs leaves numpy's threads
spinning against scipy's.  Larger products go through ``_blas.abt``,
factorizations through ``scipy.linalg`` and norms through ``_blas.norm``.
This test lists every ``@``, ``np.linalg.*`` call and ``np.dot``-like
call by ``(file, function)`` and allows only the ``r x r`` solves.
"""

import ast
from pathlib import Path

import spectral_denoise

PACKAGE = Path(spectral_denoise.__file__).resolve().parent

#: The ``r x r`` (or stacked ``(b, r, r)``) solves that stay in numpy.
ALLOWED = {
    ("denoise.py", "_sym_pinv"),
    ("denoise.py", "_solve_side"),
    ("denoise.py", "_solve"),
}

#: numpy functions that call BLAS for a product.
PRODUCTS = {"dot", "vdot", "matmul", "inner", "tensordot"}


def _attribute_path(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return tuple(reversed(parts))


def _is_numpy_blas(node) -> bool:
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    if isinstance(node, ast.Call):
        path = _attribute_path(node.func)
        if path[-1:] == ("dot",):  # the ndarray method too
            return True
        return path[:1] in (("np",), ("numpy",)) and (
            path[1:2] == ("linalg",) or (len(path) == 2 and path[1] in PRODUCTS))
    if isinstance(node, ast.ImportFrom):
        names = {alias.name for alias in node.names}
        return node.module == "numpy.linalg" or (
            node.module == "numpy" and bool(names & (PRODUCTS | {"linalg"})))
    return False


def _sites(tree, name: str):
    """``(name, function)`` of each numpy BLAS site; ``<module>`` outside functions."""

    def walk(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if _is_numpy_blas(node):
            yield name, func
        for child in ast.iter_child_nodes(node):
            yield from walk(child, func)

    return set(walk(tree, "<module>"))


def test_numpy_blas_only_in_r_by_r_solves():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    found = set()
    for path in files:
        found |= _sites(ast.parse(path.read_text(), filename=str(path)),
                        str(path.relative_to(PACKAGE)))
    assert found == ALLOWED


def test_guard_sees_each_kind_of_site():
    # Each form the guard claims to catch, and one it must let through.
    src = ("import numpy as np\n"
           "from numpy.linalg import svd\n"
           "def a(x): return x @ x\n"
           "def b(x): x @= x\n"
           "def c(x): return np.linalg.norm(x)\n"
           "def d(x): return np.dot(x, x)\n"
           "def e(x): return numpy.matmul(x, x)\n"
           "def f(x): return x.dot(x)\n"
           "def g(x): return np.sqrt(np.sum(x * x))\n")
    found = {func for _, func in _sites(ast.parse(src), "probe.py")}
    assert found == {"<module>", "a", "b", "c", "d", "e", "f"}
