"""Every simlab param has one rule, applied once by ``runner._check_param``.

A scenario that checks a param itself gives the param a second home whose
rule can drift from the first, and its check runs only after ``scale`` has
resized the value, inside each replicate.  This test lists each use of
``spiked._check_int`` or ``_check_real`` in ``simlab/scenarios.py`` by
function and allows only ``offset_partition``, a public helper that checks
its own argument.
"""

import ast
from pathlib import Path

from spectral_denoise.simlab import scenarios
from test_blas_sites import _attribute_path

CHECKERS = {"_check_int", "_check_real"}

ALLOWED = {"offset_partition"}


def _sites(tree):
    """The function holding each use of a checker; ``<module>`` outside functions."""

    def walk(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.alias) and node.name in CHECKERS and node.asname:
            yield f"{func}: import as {node.asname}"
        if (isinstance(node, (ast.Name, ast.Attribute))
                and _attribute_path(node)[-1:] in {(c,) for c in CHECKERS}):
            yield func
        for child in ast.iter_child_nodes(node):
            yield from walk(child, func)

    return set(walk(tree, "<module>"))


def test_scenarios_leave_param_rules_to_the_runner():
    path = Path(scenarios.__file__)
    assert _sites(ast.parse(path.read_text(), filename=str(path))) == ALLOWED


def test_guard_sees_each_kind_of_site():
    src = ("from ..spiked import _check_int, _check_real as real\n"
           "from .. import spiked\n"
           "_check_int(1, 'x')\n"
           "def a(p): return _check_int(p['n'], 'n', low=1)\n"
           "def b(p): return spiked._check_real(p['f'], 'f', positive=True)\n"
           "def c(p): return list(map(_check_int, p['n_grid'], 'n'))\n"
           "def d(p): return [int(v) for v in p['n_grid']]\n")
    assert _sites(ast.parse(src)) == {"<module>", "<module>: import as real", "a", "b", "c"}
