"""Exact head SVD from the short-side Gram matrix.

With ``A`` the shorter of ``Y`` and ``Y.T``, the squared singular values
are the eigenvalues of ``A A^T``.  LAPACK ``dsyevr`` computes just those
in a value or index range; it counts the eigenvalues above ``tau**2`` by
bisection, so the head count is exact.  The other side is ``A^T Q / s``.

Squaring puts an absolute error of about ``eps * min(p, n) * s_1**2`` on
each eigenvalue.  When that is not far below the smallest square relied
on (``tau**2``, or ``s_k**2`` for a forced rank), or ``s_k == 0``, the
full LAPACK SVD runs instead and ``spectrum`` is the whole spectrum.
``Y`` is made C-contiguous first, so its memory layout does not change
the result's bytes.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh

#: Largest ``eps * min(p, n) * s_1**2`` the Gram path accepts, relative
#: to the smallest square it must resolve.
_GRAM_RTOL = 1e-8


def _dense(Y: np.ndarray, k: int):
    U, s, Vt = np.linalg.svd(Y, full_matrices=False)
    return U[:, :k], s[:k], Vt[:k].T, s


def _gram_head(Y: np.ndarray, floor: float | None, **subset):
    """Descending ``(U, s, V, s)`` for the Gram eigenvalues in ``subset``.

    None when they are unresolved: the smallest is 0, or the squaring
    error is not far below ``floor**2`` (``floor`` defaults to the
    smallest value found).
    """
    p, n = Y.shape
    wide = p <= n
    Y = np.ascontiguousarray(Y)
    A = Y if wide else Y.T
    # The Gram is symmetric, so its transpose is the same matrix in the
    # Fortran order LAPACK works on in place.
    w, Q = eigh((A @ A.T).T, driver="evr", overwrite_a=True, check_finite=False, **subset)
    s = np.sqrt(np.maximum(w[::-1], 0.0))
    if s.size:
        floor = s[-1] if floor is None else floor
        if s[-1] == 0 or np.finfo(float).eps * A.shape[0] * s[0]**2 > _GRAM_RTOL * floor**2:
            return None
    Q = np.ascontiguousarray(Q[:, ::-1])
    P = (A.T @ Q) / s
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
    the whole spectrum (dense fallback).
    """
    threshold = float(threshold)
    if not threshold >= 0:
        raise ValueError("threshold must be nonnegative")
    head = _gram_head(Y, threshold, subset_by_value=(threshold**2, np.inf))
    U, s, V, spectrum = _dense(Y, min(Y.shape)) if head is None else head
    # dsyevr may also return an eigenvalue that rounds onto the boundary.
    count = int(np.sum(s > threshold))
    return U[:, :count], s[:count], V[:, :count], spectrum if head is None else s[:count]
