"""Application pipelines built on the weighted spectral denoiser.

Three problems reduce to weighted-loss denoising even though their end
goal is unweighted estimation: recovering a submatrix of a larger noisy
matrix, denoising under doubly-heteroscedastic noise by whitening, and
completing a partially observed matrix through backprojection.  Each
pipeline wraps :func:`spectral_denoise` with the appropriate weights and
coordinate changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoise import DenoiseResult, _as_matrix, spectral_denoise, svs_shrink
from .errors import DegenerateEstimateError, DimensionMismatchError
from .geometry import WeightOperator

__all__ = [
    "SubmatrixResult",
    "submatrix_denoise",
    "shrink_submatrix_baseline",
    "NoiseCovariances",
    "WhitenResult",
    "whiten_denoise",
    "estimate_noise_covariances",
    "snr_gain_tau",
    "SamplingPattern",
    "backproject",
    "estimate_sampling_probabilities",
    "MissingDataResult",
    "missing_data_denoise",
]

#: Floor applied to estimated noise variances so the whitening transforms exist.
VARIANCE_FLOOR = 1e-12


def _index_set(indices, dim: int, what: str) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError(f"{what} must be a nonempty 1-D index set")
    if np.any(idx < 0) or np.any(idx >= dim):
        raise ValueError(f"{what} indices must lie in [0, {dim})")
    return np.unique(idx)


@dataclass(frozen=True)
class SubmatrixResult:
    """Denoised submatrix plus the denoiser behind it.

    ``amse_estimate`` estimates the squared error of ``estimate``, in its
    coordinates.
    """

    estimate: np.ndarray
    denoise: DenoiseResult
    amse_estimate: float


def submatrix_denoise(Y, row_idx, col_idx, rank: int | None = None,
                      margin: float = 0.0) -> SubmatrixResult:
    """Estimate a submatrix of the signal using the whole observed matrix.

    Runs the optimal spectral denoiser with coordinate-selection weights
    for the requested rows and columns and forms only that block of its
    estimate, ``U[rows] C V[cols]^T``.  Rows and columns outside the
    submatrix still contribute to the SVD, which is what makes this beat
    shrinkage on the submatrix alone when its share of the signal energy
    is not too large.
    """
    Y = _as_matrix(Y)
    p, n = Y.shape
    rows = _index_set(row_idx, p, "row_idx")
    cols = _index_set(col_idx, n, "col_idx")
    omega = WeightOperator.from_indices(rows, p)
    pi = WeightOperator.from_indices(cols, n)
    res = spectral_denoise(Y, omega, pi, rank=rank, margin=margin)
    return SubmatrixResult(omega.apply(res.left) @ pi.apply(res.right).T, res,
                           res.amse_estimate)


def shrink_submatrix_baseline(Y, row_idx, col_idx, rank: int | None = None,
                              margin: float = 0.0) -> SubmatrixResult:
    """Singular value shrinkage applied to the submatrix alone.

    The submatrix has ``n0`` of the ``n`` columns, so its noise variance
    per entry is ``1/n`` rather than ``1/n0``; it is rescaled by
    ``sqrt(n / n0)`` before shrinking and back after, using the exact
    finite-sample ratio; the shrinkage error estimate is divided by
    ``n / n0`` to match.
    """
    Y = _as_matrix(Y)
    p, n = Y.shape
    rows = _index_set(row_idx, p, "row_idx")
    cols = _index_set(col_idx, n, "col_idx")
    scale = np.sqrt(n / cols.size)
    sub = Y[np.ix_(rows, cols)] * scale
    res = svs_shrink(sub, rank=rank, margin=margin)
    return SubmatrixResult(res.estimate / scale, res,
                           res.amse_estimate / (n / cols.size))


class NoiseCovariances:
    """Row and column noise covariances of a doubly-heteroscedastic model.

    The noise is ``S**0.5 @ G @ T**0.5`` with iid unit-model noise ``G``.
    Diagonal covariances are stored as vectors and handled without any
    dense factorization; dense ones must be symmetric positive definite.
    """

    def __init__(self, row_cov, col_cov):
        self.row_cov = np.asarray(row_cov, dtype=float)
        self.col_cov = np.asarray(col_cov, dtype=float)
        self._row = self._prepare(self.row_cov, "row")
        self._col = self._prepare(self.col_cov, "col")

    @staticmethod
    def _prepare(cov, side):
        """One side as ``(vals, vecs)`` with ``cov = vecs diag(vals) vecs^T``.

        A diagonal is stored as itself with ``vecs = None``.
        """
        if cov.ndim == 1:
            if np.any(cov <= 0) or not np.all(np.isfinite(cov)):
                raise ValueError(f"{side} covariance diagonal must be positive and finite")
            return cov, None
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError(f"{side} covariance must be a vector or a square matrix")
        if not np.all(np.isfinite(cov)):
            raise ValueError(f"{side} covariance must have finite entries")
        if not np.allclose(cov, cov.T, atol=1e-10 * max(1.0, float(np.abs(cov).max()))):
            raise ValueError(f"{side} covariance must be symmetric")
        vals, vecs = np.linalg.eigh((cov + cov.T) / 2.0)
        if np.any(vals <= 0):
            raise ValueError(f"{side} covariance must be positive definite")
        return vals, vecs

    @property
    def p(self) -> int:
        return self.row_cov.shape[0]

    @property
    def n(self) -> int:
        return self.col_cov.shape[0]

    @property
    def normalized(self) -> bool:
        """Whether the column covariance satisfies ``tr(T)/n == 1``."""
        return abs(self.trace_stats()[2] - 1.0) <= 1e-12

    def normalize(self) -> "NoiseCovariances":
        """Rescale so ``tr(T)/n = 1``, moving the scale onto the row side."""
        theta = self.trace_stats()[2]
        return NoiseCovariances(self.row_cov * theta, self.col_cov / theta)

    @staticmethod
    def _power(side, exponent: float):
        vals, vecs = side
        if vecs is None:
            return vals ** exponent
        return (vecs * vals ** exponent) @ vecs.T

    def whiten(self, Y: np.ndarray) -> np.ndarray:
        """``S**-0.5 @ Y @ T**-0.5``."""
        if Y.shape != (self.p, self.n):
            raise DimensionMismatchError(
                f"Y has shape {Y.shape}, covariances expect ({self.p}, {self.n})")
        row, col = self._power(self._row, -0.5), self._power(self._col, -0.5)
        M = row[:, None] * Y if row.ndim == 1 else row @ Y
        return M * col if col.ndim == 1 else M @ col

    def sqrt_weights(self):
        """Weight operators ``S**0.5`` and ``T**0.5`` for the whitened loss."""
        row = self._power(self._row, 0.5)
        col = self._power(self._col, 0.5)
        make = lambda w: (WeightOperator.from_diagonal(w) if w.ndim == 1
                          else WeightOperator.from_matrix(w))
        return make(row), make(col)

    def trace_stats(self):
        """Normalized traces ``(tr S/p, tr S^-1/p, tr T/n, tr T^-1/n)``."""
        return tuple(float(np.mean(v)) for vals, _ in (self._row, self._col)
                     for v in (vals, 1.0 / vals))


@dataclass(frozen=True)
class WhitenResult:
    """Denoised matrix in original coordinates plus the whitened-domain result.

    ``estimate`` is ``(S**0.5 left)(T**0.5 right)^T`` of the inner
    factors.  The inner weighted error estimate equals the estimate of the
    final unweighted error, since mapping back to the original coordinates
    turns the weighted loss into the plain Frobenius loss.
    """

    estimate: np.ndarray
    denoise: DenoiseResult

    @property
    def amse_estimate(self) -> float:
        return self.denoise.amse_estimate


def whiten_denoise(Y, cov: NoiseCovariances, rank: int | None = None,
                   margin: float = 0.0) -> WhitenResult:
    """Whiten, denoise under the matching weighted loss, map back.

    The whitened matrix ``S**-0.5 Y T**-0.5`` has iid variance-``1/n``
    noise; estimating the original signal in unweighted loss is the same
    as estimating the whitened signal under weights ``S**0.5``/``T**0.5``,
    which is the weighted problem solved here.  With identity covariances
    the pipeline reduces to plain singular value shrinkage.
    """
    Y = np.asarray(Y, dtype=float)
    whitened = cov.whiten(Y)
    omega, pi = cov.sqrt_weights()
    res = spectral_denoise(whitened, omega, pi, rank=rank, margin=margin)
    return WhitenResult(omega.apply(res.left) @ pi.apply(res.right).T, res)


def estimate_noise_covariances(Y) -> NoiseCovariances:
    """Diagonal covariance estimates from row and column sums of squares.

    Valid when the signal singular vectors are delocalized, in which case
    the signal's contribution to the sums of squares vanishes in the
    limit.  Row estimates are ``sum_j Y_ij**2``; column estimates are the
    column sums of squares divided by ``(1/n) sum_i a_i``, which makes
    ``tr(T_hat)/n = 1`` hold exactly.
    """
    Y = _as_matrix(Y)
    if not np.all(np.isfinite(Y)):
        raise ValueError("Y must have finite entries")
    sq = Y**2
    a = sq.sum(axis=1)
    col_ss = sq.sum(axis=0)
    if np.any(a == 0):
        raise DegenerateEstimateError(
            f"row {int(np.argmax(a == 0))} of Y is identically zero")
    if np.any(col_ss == 0):
        raise DegenerateEstimateError(
            f"column {int(np.argmax(col_ss == 0))} of Y is identically zero")
    n = Y.shape[1]
    b = col_ss / (a.sum() / n)
    return NoiseCovariances(np.maximum(a, VARIANCE_FLOOR),
                            np.maximum(b, VARIANCE_FLOOR))


def snr_gain_tau(cov: NoiseCovariances) -> float:
    """Lower bound on the operator-norm SNR gain from whitening.

    Computes ``(tr S/p)(tr S^-1/p)(tr T/n)(tr T^-1/n)``.  By the AM-HM
    inequality this is at least 1, with equality exactly when both
    covariances are multiples of the identity.
    """
    ts, tsi, tt, tti = cov.trace_stats()
    return ts * tsi * tt * tti


class SamplingPattern:
    """Entry-sampling design and the observed values of a noisy matrix.

    Rows are sampled with probabilities ``q_row`` and columns with
    ``q_col`` (entry ``(i, j)`` observed with probability
    ``q_row[i] * q_col[j]``); all probabilities must be strictly positive
    so the inverse square-root scalings exist.  ``values`` holds the
    observed entries in row-major mask order.
    """

    def __init__(self, q_row, q_col, mask, values):
        self.q_row = np.asarray(q_row, dtype=float)
        self.q_col = np.asarray(q_col, dtype=float)
        self.mask = np.asarray(mask, dtype=bool)
        self.values = np.asarray(values, dtype=float)
        if self.q_row.ndim != 1 or self.q_col.ndim != 1:
            raise ValueError("q_row and q_col must be 1-D probability vectors")
        for name, q in (("q_row", self.q_row), ("q_col", self.q_col)):
            if not np.all((q > 0) & (q <= 1)):  # NaN fails both comparisons
                raise ValueError(f"{name}: sampling probabilities must lie in (0, 1]")
        if self.mask.shape != (self.q_row.size, self.q_col.size):
            raise DimensionMismatchError(
                f"mask shape {self.mask.shape} does not match probability "
                f"vectors ({self.q_row.size}, {self.q_col.size})")
        count = int(self.mask.sum())
        if self.values.shape != (count,):
            raise ValueError(
                f"got {self.values.size} observed values for {count} sampled entries")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values: observed entries must be finite")

    @property
    def shape(self):
        return self.mask.shape

    @classmethod
    def from_dense(cls, full, mask, q_row, q_col) -> "SamplingPattern":
        full = np.asarray(full, dtype=float)
        mask = np.asarray(mask, dtype=bool)
        if full.shape != mask.shape:
            raise DimensionMismatchError("matrix and mask shapes differ")
        return cls(q_row, q_col, mask, full[mask])

    @classmethod
    def from_coordinates(cls, rows, cols, values, q_row, q_col) -> "SamplingPattern":
        q_row = np.asarray(q_row, dtype=float)
        q_col = np.asarray(q_col, dtype=float)
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        values = np.asarray(values, dtype=float)
        if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
            raise ValueError("rows, cols, values must be 1-D and the same length")
        p, n = q_row.size, q_col.size
        if rows.size and (rows.min() < 0 or rows.max() >= p
                          or cols.min() < 0 or cols.max() >= n):
            raise ValueError("coordinate indices out of range")
        mask = np.zeros((p, n), dtype=bool)
        dense = np.zeros((p, n))
        mask[rows, cols] = True
        dense[rows, cols] = values
        if mask.sum() != rows.size:
            raise ValueError("duplicate coordinates in sampling pattern")
        return cls(q_row, q_col, mask, dense[mask])


def backproject(pattern: SamplingPattern) -> np.ndarray:
    """Adjoint of the sampling operator: observed values in place, zeros elsewhere."""
    out = np.zeros(pattern.shape)
    out[pattern.mask] = pattern.values
    return out


def estimate_sampling_probabilities(mask):
    """Rank-one fit of row/column sampling probabilities to a mask.

    Convenience for when the design probabilities were not recorded: with
    observation frequencies ``f_i`` (rows), ``g_j`` (columns) and overall
    rate ``m``, the estimates ``f_i/sqrt(m)`` and ``g_j/sqrt(m)`` satisfy
    ``q_r q_c^T ~ f g^T / m``.  The split of scale between the two sides is
    not identifiable, which is harmless since the completion pipeline is
    invariant to it.  The downstream guarantees assume known design
    probabilities; estimates from the mask carry no such guarantee.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError("mask must be a 2-D boolean matrix")
    m = mask.mean()
    if m == 0:
        raise DegenerateEstimateError("mask has no observed entries")
    row = mask.mean(axis=1) / np.sqrt(m)
    col = mask.mean(axis=0) / np.sqrt(m)
    floor = 1.0 / (4.0 * max(mask.shape))
    return (np.clip(row, floor, 1.0), np.clip(col, floor, 1.0))


@dataclass(frozen=True)
class MissingDataResult:
    """Completed-and-denoised matrix plus the inner weighted denoiser.

    ``estimate`` is ``sqrt(n) (P**-0.5 left)(Q**-0.5 right)^T`` of the
    inner factors; ``amse_estimate`` is in its coordinates, the inner
    figure (on a ``1/sqrt(n)``-rescaled matrix) scaled up by ``n``.
    """

    estimate: np.ndarray
    denoise: DenoiseResult
    amse_estimate: float


def missing_data_denoise(pattern: SamplingPattern, rank: int | None = None,
                         margin: float = 0.0) -> MissingDataResult:
    """Denoise a partially observed matrix via scaled backprojection.

    Observed entries are assumed to follow signal plus unit-variance
    noise.  The backprojected matrix is scaled by ``1/sqrt(q_i q_j)``
    entrywise, giving unit noise variance everywhere, then by
    ``1/sqrt(n)`` to match the variance-``1/n`` convention of the
    spectral denoiser.  The weighted loss with weights ``P**-0.5`` /
    ``Q**-0.5`` in that domain equals the unweighted loss on the original
    signal, and the final estimate is mapped back exactly.
    """
    inv_r = 1.0 / np.sqrt(pattern.q_row)
    inv_c = 1.0 / np.sqrt(pattern.q_col)
    n = pattern.q_col.size
    scaled = backproject(pattern)
    scaled *= inv_r[:, None]
    scaled *= inv_c[None, :]
    scaled /= np.sqrt(n)
    omega, pi = WeightOperator.from_diagonal(inv_r), WeightOperator.from_diagonal(inv_c)
    res = spectral_denoise(scaled, omega, pi, rank=rank, margin=margin)
    estimate = (np.sqrt(n) * omega.apply(res.left)) @ pi.apply(res.right).T
    return MissingDataResult(estimate, res, n * res.amse_estimate)
