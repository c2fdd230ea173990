"""One BLAS thread pool per process: every large product and norm runs in scipy.

The numpy and scipy wheels each bundle their own OpenBLAS, each with its
own thread pool, and a pool's threads spin on for a while after a call.
A head SVD (scipy's BLAS and LAPACK) that starts while numpy's threads
still spin runs about twice as slow on two cores.  So products go through
:func:`abt`, norms through :func:`norm` and factorizations through
``scipy.linalg``; only ``r x r`` work, or a stack of it, stays in numpy.

One thread count is set: a head SVD below ``_svd._ONE_THREAD_BELOW`` runs
inside :data:`one_thread`; every other call runs with the count as found.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading

import numpy as np
import scipy
from scipy.linalg.blas import ddot, dgemm

__all__ = ["abt", "norm", "one_thread"]


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


@functools.cache
def _thread_setter():
    """``openblas_set_num_threads_local`` of scipy's bundled OpenBLAS (>= 0.3.27), or None."""
    base = os.path.dirname(scipy.__file__)
    for libs in (base + ".libs", os.path.join(base, ".dylibs")):  # the wheel's; macOS
        for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
            with contextlib.suppress(OSError, AttributeError):
                return ctypes.CDLL(path).openblas_set_num_threads_local
    return None  # MKL, Accelerate or an older OpenBLAS: the context is a no-op


class _OneThread:
    """Restore-on-exit context that runs scipy's OpenBLAS on one thread.

    Despite its name the setter acts on the whole process (a second Python
    thread reads the new count), so nested and concurrent entries share one
    saved count: the first entry sets it to one, the last exit restores it.
    """

    def __init__(self):
        self._lock, self._inside, self._saved = threading.Lock(), 0, 0

    def __enter__(self):
        with self._lock:
            if self._inside == 0 and (setter := _thread_setter()) is not None:
                self._saved = setter(1)
            self._inside += 1

    def __exit__(self, *exc):
        with self._lock:
            self._inside -= 1
            if self._inside == 0 and (setter := _thread_setter()) is not None:
                setter(self._saved)


one_thread = _OneThread()
