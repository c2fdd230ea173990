"""Loss metrics used across experiments; an operand is a matrix or a factor pair ``(A, B)``."""

from __future__ import annotations

import numpy as np
from scipy.linalg import qr

from .._blas import abt, norm
from ..errors import DimensionMismatchError, UndefinedMetricError
from ..geometry import as_weight_operator
from ..spiked import _real_array

__all__ = ["relative_error", "weighted_loss"]


def _two_sided(M, omega, pi) -> np.ndarray:
    """``W_r M W_c^T`` for weights as :func:`as_weight_operator` accepts them."""
    p, n = M.shape
    return as_weight_operator(pi, n).apply(as_weight_operator(omega, p).apply(M).T).T


def _operands(**ops):
    """Both as factor pairs (``A @ B.T``) if both are pairs, else both dense, checked."""
    ops = [tuple(_real_array(m, name, finite=False) for m in M) if isinstance(M, tuple)
           else _real_array(M, name, ndim=2, finite=False) for name, M in ops.items()]
    for A, B in (M for M in ops if isinstance(M, tuple)):
        if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
            raise DimensionMismatchError(f"factors {A.shape}, {B.shape} are not A @ B.T")
    if not all(isinstance(M, tuple) for M in ops):
        ops = [abt(*M) if isinstance(M, tuple) else M for M in ops]
    shapes = [(M[0].shape[0], M[1].shape[0]) if isinstance(M, tuple) else M.shape for M in ops]
    if shapes[0] != shapes[1]:
        raise DimensionMismatchError(f"shape mismatch: {shapes[0]} vs {shapes[1]}")
    return ops


def _pair_norms(X_hat, X, omega, pi):
    """``||W_r (X_hat - X) W_c^T||`` and ``||W_r X W_c^T||`` for pairs, with no ``p x n`` matrix:
    the difference is ``P Q^T`` for ``P = [W_r A, -W_r A']`` and ``Q = [W_c B, W_c B']``, whose
    thin QRs give it as ``R_P R_Q^T``, and ``X`` from their trailing columns."""
    (A, B), (A0, B0) = X_hat, X
    P = as_weight_operator(omega, A.shape[0]).apply(np.hstack([A, -A0]))
    Q = as_weight_operator(pi, B.shape[0]).apply(np.hstack([B, B0]))
    RP, RQ = (qr(M, mode="r", check_finite=False)[0][:M.shape[1]] for M in (P, Q))
    return norm(abt(RP, RQ)), norm(abt(RP[:, A.shape[1]:], RQ[:, A.shape[1]:]))


def weighted_loss(A, B, omega=None, pi=None) -> float:
    """Squared weighted Frobenius distance ``||W_r (A - B) W_c^T||_F**2``."""
    A, B = _operands(A=A, B=B)
    if isinstance(A, tuple):
        return _pair_norms(A, B, omega, pi)[0]**2
    return float(np.sum(_two_sided(A - B, omega, pi)**2))


def relative_error(X_hat, X, omega=None, pi=None) -> float:
    """Weighted relative error ``||W_r (X_hat - X) W_c^T|| / ||W_r X W_c^T||``.

    Uniform weights when ``omega``/``pi`` are omitted.  Raises
    :class:`UndefinedMetricError` when the weighted norm of ``X`` is zero.
    """
    X_hat, X = _operands(X_hat=X_hat, X=X)
    num, denom = (_pair_norms(X_hat, X, omega, pi) if isinstance(X, tuple) else
                  (norm(_two_sided(X_hat - X, omega, pi)), norm(_two_sided(X, omega, pi))))
    if denom == 0:
        raise UndefinedMetricError("reference matrix has zero weighted norm")
    return num / denom
