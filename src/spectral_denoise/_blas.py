"""One BLAS thread pool per process: every large product and norm runs in scipy.

The numpy and scipy wheels each bundle their own OpenBLAS, each with its
own thread pool, and a pool's threads spin on for a while after a call.
A head SVD (scipy's BLAS and LAPACK) that starts while numpy's threads
still spin runs about twice as slow on two cores.  So products go through
:func:`abt`, norms through :func:`norm` and factorizations through
``scipy.linalg``; only ``r x r`` work, or a stack of it, stays in numpy.
No thread count is set.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import ddot, dgemm

__all__ = ["abt", "norm"]


def _op(m: np.ndarray):
    """``(x, trans)`` with ``op(x) == m``, ``x`` Fortran-ordered when ``m`` is contiguous."""
    return (m.T, True) if m.flags.c_contiguous and not m.flags.f_contiguous else (m, False)


def abt(a, b) -> np.ndarray:
    """``a @ b.T`` for ``a`` (``p x k``) and ``b`` (``n x k``), C-contiguous.

    BLAS ``dgemm`` forms the Fortran-ordered ``b @ a.T``, whose transpose
    is the C-ordered product.  Contiguous operands are read in place.
    """
    x, tx = _op(np.asarray(b, dtype=float))
    y, ty = _op(np.asarray(a, dtype=float).T)
    return dgemm(1.0, x, y, trans_a=tx, trans_b=ty).T


def norm(m) -> float:
    """Frobenius norm ``sqrt(sum(m**2))`` by BLAS ``ddot``, with no temporary ``m**2``."""
    x = np.ravel(np.asarray(m, dtype=float), order="K")
    return float(np.sqrt(ddot(x, x))) if x.size else 0.0
