"""Every float array enters the package through ``errors._real_array``.

A coercion written by hand, ``np.asarray(x, dtype=float)`` or
``x.astype(float)``, drops an imaginary part with only a warning and
checks neither the dimension nor finiteness.  This test lists every such
call by ``(file, function)`` and allows only the checked helper, the
``_blas`` products (of arrays that are already checked) and the dense CSV
reader's sentinel cells, which it parses as text.
"""

import ast
from pathlib import Path

import spectral_denoise
from test_blas_sites import _attribute_path

PACKAGE = Path(spectral_denoise.__file__).resolve().parent

ALLOWED = {
    ("errors.py", "_real_array"),
    ("_blas.py", "abt"),
    ("_blas.py", "norm"),
    ("io.py", "read_dense_csv"),
}

#: numpy functions that coerce to an array of a given dtype.
ARRAYS = {"asarray", "array", "asanyarray", "ascontiguousarray", "asfortranarray"}

FLOAT_NAMES = {"float", "float64", "double", "float_"}


def _is_float(node) -> bool:
    if isinstance(node, ast.Constant):
        return node.value in FLOAT_NAMES | {"f8", "d"}
    return _attribute_path(node)[-1:] in {(name,) for name in FLOAT_NAMES}


def _is_float_coercion(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    path = _attribute_path(node.func)
    dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"]
    if path[-1:] == ("astype",):
        return any(map(_is_float, node.args[:1] + dtypes))
    if path[:1] in (("np",), ("numpy",)) and len(path) == 2:
        return path[1] == "asfarray" or (path[1] in ARRAYS
                                         and any(map(_is_float, node.args[1:2] + dtypes)))
    return False


def _sites(tree, name: str):
    """``(name, function)`` of each float coercion; ``<module>`` outside functions."""

    def walk(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if _is_float_coercion(node):
            yield name, func
        for child in ast.iter_child_nodes(node):
            yield from walk(child, func)

    return set(walk(tree, "<module>"))


def test_float_coercion_only_in_the_checked_helper():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    found = set()
    for path in files:
        found |= _sites(ast.parse(path.read_text(), filename=str(path)),
                        str(path.relative_to(PACKAGE)))
    assert found == ALLOWED


def test_guard_sees_each_kind_of_site():
    # Each form the guard claims to catch, and those it must let through.
    src = ("import numpy as np\n"
           "x = np.asarray(0, dtype=float)\n"
           "def a(x): return np.asarray(x, float)\n"
           "def b(x): return np.array(x, dtype=np.float64)\n"
           "def c(x): return x.astype(float, copy=False)\n"
           "def d(x): return x[0].astype('float64')\n"
           "def e(x): return numpy.ascontiguousarray(x, dtype=float)\n"
           "def f(x): return np.asfarray(x)\n"
           "def g(x): return np.zeros(3, dtype=float)\n"
           "def h(x): return np.asarray(x, dtype=np.intp).astype(bool)\n")
    found = {func for _, func in _sites(ast.parse(src), "probe.py")}
    assert found == {"<module>", "a", "b", "c", "d", "e", "f"}
