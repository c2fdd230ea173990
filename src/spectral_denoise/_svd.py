"""Exact head SVD from the short-side Gram matrix.

With ``A`` the shorter of ``Y`` and ``Y.T``, the squared singular values
are the eigenvalues of the Gram ``G = A A^T`` (BLAS ``dsyrk``, upper
triangle).  The other side is ``A^T Q / s``.  The head of ``G`` comes
from one of two eigensolvers, chosen by its order ``m``:

* Below ``_KRYLOV_MIN_DIM``, LAPACK ``dsyevr`` computes the eigenvalues
  in a value or index range.  It counts the eigenvalues above ``tau**2``
  by bisection, so the head count is exact.
* From ``_KRYLOV_MIN_DIM`` up, block Krylov with Rayleigh-Ritz (Musco and
  Musco 2015) finds the head in BLAS-3 products, without reducing ``G`` to
  tridiagonal form.  It stops when every Ritz pair above the floor ``f``
  has a residual of at most ``eps * m * theta_1`` and the count has held.
  Then one Cholesky factorization of ``f' I - G + Q Theta Q^T``, in place
  on ``G``, proves that no eigenvalue above ``f`` was missed: when it
  succeeds, ``G`` minus a rank-``k`` positive term lies below ``f'``, so
  by Weyl's inequality ``lambda_{k+1} < f``.  ``f`` is ``tau**2`` in the
  value form and ``theta_k`` for a forced rank; ``f' = f (1 - _GRAM_RTOL)``
  absorbs the rounding of ``G``.  ``dsyevr`` runs instead, with the same
  bytes as below the gate, when a Ritz value lies within that margin of
  ``tau**2``, when the certificate fails (``G`` is then formed again),
  when the Krylov space breaks down, when a forced rank exceeds the block,
  or when the Ritz values predict that the step budget will not suffice.

Squaring puts an absolute error of about ``eps * min(p, n) * s_1**2`` on
each eigenvalue.  When that is not far below the smallest square relied
on (``tau**2``, or ``s_k**2`` for a forced rank), or ``s_k == 0``, the
full LAPACK SVD runs instead and ``spectrum`` is the whole spectrum.

``Y`` is made C-contiguous, so its layout does not change the result's
bytes, and BLAS ``dsyrk`` (the Gram's upper triangle) and ``dgemm``
(``A^T Q``) read its transpose in place; f2py would copy ``Y`` itself.
They, the Krylov products (``dsymm``, ``dgemm``), ``qr``, ``eigh``,
``dpotrf``, ``dsyevr`` and the dense fallback's ``gesdd`` all run in
scipy's OpenBLAS, as every large product and factorization of the program
does (see ``_blas``): one BLAS thread pool per process.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh, qr, svd
from scipy.linalg.blas import dgemm, dsymm, dsyrk
from scipy.linalg.lapack import dpotrf

from .spiked import _check_int

#: Largest ``eps * min(p, n) * s_1**2`` the Gram path accepts, relative
#: to the smallest square it must resolve.  Also the relative margin
#: around ``tau**2`` inside which the Krylov count is not trusted.
_GRAM_RTOL = 1e-8

#: Smallest Gram order whose head is found by block Krylov, set from the
#: crossover measured in ``BENCH_15.json``: below it Krylov gains little
#: on a strong head and loses more on a near-threshold one.
_KRYLOV_MIN_DIM = 1250

#: Krylov block size and step budget.  The budget keeps the basis
#: (``8 * 24`` columns) well under the ``m x m`` Gram, and its cost under
#: that of ``dsyevr``.
_BLOCK = 8
_MAX_STEPS = 24


def _dense(Y: np.ndarray, k: int):
    U, s, Vt = svd(Y, full_matrices=False)
    return U[:, :k], s[:k], Vt[:k].T, s


def _steps_needed(weakest: float, rest: float, excess: float) -> float:
    """Krylov steps that shrink a residual by ``excess``, by the Chebyshev bound.

    ``weakest`` is the eigenvalue sought and ``[0, rest]`` holds the rest
    of the spectrum (none when ``rest <= 0``).  Each step shrinks the
    residual by ``1 / (x + sqrt(x**2 - 1))`` with ``x = 2 weakest / rest - 1``.
    """
    if excess <= 1.0 or rest <= 0:
        return 0.0
    if weakest <= rest:
        return np.inf
    x = 2.0 * weakest / rest - 1.0
    return np.log(excess) / np.log(x + np.sqrt(x * x - 1.0))


def _krylov(G: np.ndarray, square: float | None, k: int | None):
    """Head eigenpairs of ``G`` (upper triangle) by block Krylov, descending.

    ``square`` is the value floor, or None for the top ``k``.  Returns
    ``(w, Q)``, or None when ``dsyevr`` must run instead; ``G`` is left
    intact.  A value-form head whose squaring error is too large for the
    Gram path returns as soon as that shows.
    """
    if square is None and k > _BLOCK:
        return None
    m = G.shape[0]
    eps_m = np.finfo(float).eps * m
    cap = _BLOCK * _MAX_STEPS
    Q = np.empty((m, cap), order="F")
    T = np.empty((cap, cap), order="F")
    start = np.random.default_rng(0).standard_normal((m, _BLOCK))
    Q[:, :_BLOCK] = qr(start, mode="economic", check_finite=False)[0]
    held, last_nxt = -1, 0.0
    for step in range(_MAX_STEPS):
        j0, j = step * _BLOCK, (step + 1) * _BLOCK
        W = dsymm(1.0, G, Q[:, j0:j])
        T[:j, j0:j] = dgemm(1.0, Q[:, :j], W, trans_a=True)
        theta, Z = eigh(T[:j, :j], lower=False, check_finite=False)
        theta, Z = theta[::-1], Z[:, ::-1]
        if not theta[0] > 0:
            return None  # G vanishes on the basis
        count = k if square is None else int(np.sum(theta > square))
        floor = theta[k - 1] if square is None else square
        if square is not None and eps_m * theta[0] > _GRAM_RTOL * square:
            break
        # The next block, and with it the residuals: G Q = Q T + W_next R e_last^T.
        for _ in range(2):  # full reorthogonalization
            W = dgemm(-1.0, Q[:, :j], dgemm(1.0, Q[:, :j], W, trans_a=True),
                      beta=1.0, c=W, overwrite_c=True)
        W, R = qr(W, mode="economic", overwrite_a=True, check_finite=False)
        res = np.sqrt(np.sum(dgemm(1.0, R, Z[j0:j, :count])**2, axis=0))
        tol = eps_m * theta[0]
        nxt = theta[count] if count < j else np.inf
        # Ritz values only rise: certify once the first one below the floor
        # has settled well below it, not while it may still cross it.
        if count == held and nxt - last_nxt <= (floor - nxt) / 4 and np.all(res <= tol):
            if square is not None and np.any(np.abs(theta - square) <= _GRAM_RTOL * square):
                return None  # too close to call: dsyevr counts by bisection
            break
        # The weakest pair's eigenvalue lies near theta + residual at most.
        if 0 < count < j and _steps_needed(theta[count - 1] + res[count - 1],
                                           nxt if square is None else square,
                                           res.max() / tol) > _MAX_STEPS - step - 1:
            return None
        if j == cap or np.abs(np.diag(R)).min() <= tol:
            return None  # out of steps, or the Krylov space is exhausted
        held, last_nxt = count, nxt
        Q[:, j:j + _BLOCK] = W
    return theta[:count], dgemm(1.0, Q[:, :j], np.asfortranarray(Z[:, :count]))


def _certify(G: np.ndarray, w: np.ndarray, Q: np.ndarray, floor: float) -> bool:
    """Whether ``G`` has no eigenvalue above ``floor`` beyond the pairs ``(w, Q)``.

    Factors ``floor (1 - _GRAM_RTOL) I - G + Q diag(w) Q^T`` by Cholesky,
    in place on the upper triangle of ``G``, which is overwritten.
    """
    G = dsyrk(1.0, Q * np.sqrt(w), beta=-1.0, c=G, overwrite_c=True)
    G[np.diag_indices_from(G)] += floor * (1.0 - _GRAM_RTOL)
    return dpotrf(G, overwrite_a=True, clean=False)[1] == 0


def _gram_head(Y: np.ndarray, threshold: float | None, k: int | None = None):
    """Descending ``(U, s, V, s)``: the values above ``threshold``, or the top ``k``.

    None when they are unresolved: the Gram overflows, the smallest is 0,
    or the squaring error is not far below ``floor**2`` (``floor`` is
    ``threshold``, or the smallest value found for the top ``k``).
    """
    p, n = Y.shape
    wide = p <= n
    F = np.ascontiguousarray(Y).T

    def gram():
        return dsyrk(1.0, F, trans=wide)

    G = gram()
    m = G.shape[0]
    if not np.isfinite(G.diagonal()).all():  # eigh would drop the overflowed values
        return None
    square = None if threshold is None else threshold * threshold
    head = _krylov(G, square, k) if m >= _KRYLOV_MIN_DIM else None
    if head is not None:
        w, Q = head
        floor = w[-1] if square is None else square
        # An unresolved head goes to the dense SVD below, uncertified.
        resolved = not w.size or np.finfo(float).eps * m * w[0] <= _GRAM_RTOL * floor
        if resolved and not _certify(G, w, Q, floor):
            head, G = None, gram()
    if head is None:
        subset = ({"subset_by_index": [m - k, m - 1]} if square is None
                  else {"subset_by_value": (square, np.inf)})
        w, Q = eigh(G, lower=False, driver="evr", overwrite_a=True, check_finite=False,
                    **subset)
        w, Q = w[::-1], Q[:, ::-1]
    s = np.sqrt(np.maximum(w, 0.0))
    if s.size:
        floor = s[-1] if threshold is None else threshold
        if s[-1] == 0 or np.finfo(float).eps * m * s[0]**2 > _GRAM_RTOL * floor**2:
            return None
    Q = np.ascontiguousarray(Q)
    P = np.ascontiguousarray(dgemm(1.0, F, Q, trans_a=not wide) / s)
    return (Q, s, P, s) if wide else (P, s, Q, s)


def top_svd(Y: np.ndarray, k: int):
    """Exact top-``k`` singular triplets of ``Y``, descending.

    Returns ``(U, s, V, spectrum)`` where ``spectrum`` is either just the
    computed head (Gram path) or the full singular value vector (dense
    fallback); in both cases ``spectrum[:k] == s``.
    """
    p, n = Y.shape
    k = _check_int(k, "k")
    if k < 0:
        raise ValueError("k must be nonnegative")
    k = min(k, p, n)
    if k == 0:
        return np.zeros((p, 0)), np.zeros(0), np.zeros((n, 0)), np.zeros(0)
    head = _gram_head(Y, None, k)
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
    head = None if square == np.inf else _gram_head(Y, threshold)
    U, s, V, spectrum = _dense(Y, min(Y.shape)) if head is None else head
    # dsyevr may also return an eigenvalue that rounds onto the boundary.
    count = int(np.sum(s > threshold))
    return U[:, :count], s[:count], V[:, :count], spectrum if head is None else s[:count]
