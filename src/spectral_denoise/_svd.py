"""Exact head SVD from the short-side Gram matrix.

With ``A`` the shorter of ``Y`` and ``Y.T``, the squared singular values
are the eigenvalues of ``A A^T``.  LAPACK ``dsyevr`` computes just those
in a value or index range; it counts the eigenvalues above ``tau**2`` by
bisection, so the head count is exact.  The other side is ``A^T Q / s``.

Squaring puts an absolute error of about ``eps * min(p, n) * s_1**2`` on
each eigenvalue.  When that is not far below the smallest square relied
on (``tau**2``, or ``s_k**2`` for a forced rank), or ``s_k == 0``, the
full LAPACK SVD runs instead and ``spectrum`` is the whole spectrum.

``Y`` is made C-contiguous, so its layout does not change the result's
bytes, and BLAS ``dsyrk`` (the Gram's upper triangle) and ``dgemm``
(``A^T Q``) read its transpose in place; f2py would copy ``Y`` itself.
They, ``dsyevr`` and the dense fallback's ``gesdd`` all run in scipy's
OpenBLAS, as every large product and factorization of the program does
(see ``_blas``): one BLAS thread pool per process.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh, svd
from scipy.linalg.blas import dgemm, dsyrk

#: Largest ``eps * min(p, n) * s_1**2`` the Gram path accepts, relative
#: to the smallest square it must resolve.
_GRAM_RTOL = 1e-8


def _dense(Y: np.ndarray, k: int):
    U, s, Vt = svd(Y, full_matrices=False)
    return U[:, :k], s[:k], Vt[:k].T, s


def _gram_head(Y: np.ndarray, floor: float | None, **subset):
    """Descending ``(U, s, V, s)`` for the Gram eigenvalues in ``subset``.

    None when they are unresolved: the Gram overflows, the smallest is 0,
    or the squaring error is not far below ``floor**2`` (``floor``
    defaults to the smallest value found).
    """
    p, n = Y.shape
    wide = p <= n
    F = np.ascontiguousarray(Y).T
    G = dsyrk(1.0, F, trans=wide)
    if not np.isfinite(G.diagonal()).all():  # eigh would drop the overflowed values
        return None
    w, Q = eigh(G, lower=False, driver="evr", overwrite_a=True, check_finite=False, **subset)
    s = np.sqrt(np.maximum(w[::-1], 0.0))
    if s.size:
        floor = s[-1] if floor is None else floor
        if s[-1] == 0 or np.finfo(float).eps * G.shape[0] * s[0]**2 > _GRAM_RTOL * floor**2:
            return None
    Q = np.ascontiguousarray(Q[:, ::-1])
    P = np.ascontiguousarray(dgemm(1.0, F, Q, trans_a=not wide) / s)
    return (Q, s, P, s) if wide else (P, s, Q, s)


def top_svd(Y: np.ndarray, k: int):
    """Exact top-``k`` singular triplets of ``Y``, descending.

    Returns ``(U, s, V, spectrum)`` where ``spectrum`` is either just the
    computed head (Gram path) or the full singular value vector (dense
    fallback); in both cases ``spectrum[:k] == s``.
    """
    p, n = Y.shape
    mn = min(p, n)
    k = int(min(k, mn))
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return np.zeros((p, 0)), np.zeros(0), np.zeros((n, 0)), np.zeros(0)
    head = _gram_head(Y, None, subset_by_index=[mn - k, mn - 1])
    return _dense(Y, k) if head is None else head


def svd_head_above(Y: np.ndarray, threshold: float):
    """All singular triplets with value strictly above ``threshold``.

    Returns ``(U, s, V, spectrum)``; ``spectrum`` is ``s`` (Gram path) or
    the whole spectrum (dense fallback).  A threshold whose square
    overflows (above about ``1.3e154``) takes the dense fallback.
    """
    threshold = float(threshold)
    if not 0 <= threshold < np.inf:
        raise ValueError("threshold must be finite and nonnegative")
    if min(Y.shape) == 0:
        return top_svd(Y, 0)
    square = threshold * threshold  # inf past the float range; ** would raise
    head = None if square == np.inf else _gram_head(Y, threshold,
                                                     subset_by_value=(square, np.inf))
    U, s, V, spectrum = _dense(Y, min(Y.shape)) if head is None else head
    # dsyevr may also return an eigenvalue that rounds onto the boundary.
    count = int(np.sum(s > threshold))
    return U[:, :count], s[:count], V[:, :count], spectrum if head is None else s[:count]
