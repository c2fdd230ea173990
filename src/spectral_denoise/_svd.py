"""Deterministic top-k SVD with a partial-solver fast path.

Only the leading singular triplets are ever needed.  Small matrices go
through LAPACK directly; larger ones use an iterative partial SVD with a
fixed starting vector so results are deterministic for a fixed input.
Partial results are verified with a residual check and recomputed with
the dense path if the check fails.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import svds

#: Below this min-dimension a full LAPACK SVD is cheap enough to always use.
_DENSE_CUTOFF = 600

#: Residual tolerance for accepting an iterative triplet, relative to the
#: largest computed singular value.
_RESIDUAL_RTOL = 1e-8

#: First number of triplets ``svd_head_above`` computes; it quadruples from there.
_HEAD_K = 16


def _dense(Y: np.ndarray, k: int):
    U, s, Vt = np.linalg.svd(Y, full_matrices=False)
    return U[:, :k], s[:k], Vt[:k].T, s


def _start_vector(m: int) -> np.ndarray:
    # Fixed, structure-free starting vector keeps ARPACK runs reproducible.
    v = np.linspace(1.0, 2.0, m)
    return v / np.linalg.norm(v)


def top_svd(Y: np.ndarray, k: int):
    """Exact top-``k`` singular triplets of ``Y``, descending.

    Returns ``(U, s, V, spectrum)`` where ``spectrum`` is either the full
    singular value vector (dense path) or just the computed head (partial
    path); in both cases ``spectrum[:k] == s``.
    """
    p, n = Y.shape
    mn = min(p, n)
    k = int(min(k, mn))
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return np.zeros((p, 0)), np.zeros(0), np.zeros((n, 0)), np.zeros(0)

    if mn <= _DENSE_CUTOFF or k >= mn // 4 or k >= mn - 1:
        return _dense(Y, k)

    v0 = _start_vector(mn)
    try:
        U, s, Vt = svds(Y, k=k, v0=v0)
    except Exception:
        return _dense(Y, k)
    order = np.argsort(s)[::-1]
    U, s, Vt = U[:, order], s[order], Vt[order]
    # svds residuals: || Y v - s u || per triplet.
    resid = np.linalg.norm(Y @ Vt.T - U * s, axis=0)
    if s.size and np.any(resid > _RESIDUAL_RTOL * max(s[0], 1.0)):
        return _dense(Y, k)
    return U, s, Vt.T, s


def svd_head_above(Y: np.ndarray, threshold: float):
    """All singular triplets with value strictly above ``threshold``.

    Returns ``(U, s, V, spectrum)`` where the triplets cover exactly the
    values above ``threshold`` and ``spectrum`` extends far enough past
    them to certify that everything omitted is at or below it (the whole
    spectrum on the dense path).
    """
    p, n = Y.shape
    mn = min(p, n)
    if mn <= _DENSE_CUTOFF:
        U, s, V, spectrum = _dense(Y, mn)
        count = int(np.sum(spectrum > threshold))
        return U[:, :count], s[:count], V[:, :count], spectrum

    k = min(_HEAD_K, mn)
    while True:
        U, s, V, spectrum = top_svd(Y, k)
        count = int(np.sum(spectrum > threshold))
        if count < spectrum.size or spectrum.size >= mn:
            if count > U.shape[1]:
                U, s, V, spectrum = top_svd(Y, count)
            return U[:, :count], s[:count], V[:, :count], spectrum
        k = min(mn, k * 4)
