"""Loss metrics used across experiments."""

from __future__ import annotations

import numpy as np

from .._blas import norm
from ..errors import DimensionMismatchError, UndefinedMetricError
from ..geometry import as_weight_operator

__all__ = ["relative_error", "weighted_loss"]


def _two_sided(M, omega, pi) -> np.ndarray:
    """``W_r M W_c^T`` for weights as :func:`as_weight_operator` accepts them."""
    p, n = M.shape
    return as_weight_operator(pi, n).apply(as_weight_operator(omega, p).apply(M).T).T


def weighted_loss(A, B, omega=None, pi=None) -> float:
    """Squared weighted Frobenius distance ``||W_r (A - B) W_c^T||_F**2``."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise DimensionMismatchError(f"shape mismatch: {A.shape} vs {B.shape}")
    return float(np.sum(_two_sided(A - B, omega, pi)**2))


def relative_error(X_hat, X, omega=None, pi=None) -> float:
    """Weighted relative error ``||W_r (X_hat - X) W_c^T|| / ||W_r X W_c^T||``.

    Uniform weights when ``omega``/``pi`` are omitted.  Raises
    :class:`UndefinedMetricError` when the weighted norm of ``X`` is zero.
    """
    X_hat = np.asarray(X_hat, dtype=float)
    X = np.asarray(X, dtype=float)
    if X_hat.shape != X.shape:
        raise DimensionMismatchError(f"shape mismatch: {X_hat.shape} vs {X.shape}")
    denom = norm(_two_sided(X, omega, pi))
    if denom == 0:
        raise UndefinedMetricError("reference matrix has zero weighted norm")
    return norm(_two_sided(X_hat - X, omega, pi)) / denom
