"""Application pipelines built on the weighted spectral denoiser.

Three problems reduce to weighted-loss denoising even though their end
goal is unweighted estimation: recovering a submatrix of a larger noisy
matrix, denoising under doubly-heteroscedastic noise by whitening, and
completing a partially observed matrix through backprojection.  Each
pipeline runs one weighted spectral denoiser, on ``Y`` itself or on a
rescaled copy, and maps the resulting factors back through its weights
into a :class:`PipelineResult`, defined in ``denoise`` with the other
result types; the dense estimate is formed only when it is read.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh

from ._blas import abt
from .denoise import PipelineResult, spectral_denoise, spectral_fit, svs_shrink
from .errors import (DegenerateEstimateError, DimensionMismatchError, _as_mask, _as_matrix,
                     _expect, _index_set, _real_array)
from .geometry import WeightOperator, as_weight_operator

__all__ = [
    "PipelineResult",
    "submatrix_denoise",
    "shrink_submatrix_baseline",
    "NoiseCovariances",
    "whiten_denoise",
    "estimate_noise_covariances",
    "snr_gain_tau",
    "SamplingPattern",
    "backproject",
    "estimate_sampling_probabilities",
    "missing_data_denoise",
]

#: Floor applied to estimated noise variances so the whitening transforms exist.
VARIANCE_FLOOR = 1e-12


def submatrix_denoise(Y, row_idx, col_idx, rank: int | None = None,
                      margin: float = 0.0) -> PipelineResult:
    """Estimate a submatrix of the signal using the whole observed matrix.

    Runs the optimal spectral denoiser with coordinate-selection weights
    for the requested rows and columns and forms only that block of its
    estimate, ``U[rows] C V[cols]^T``.  Rows and columns outside the
    submatrix still contribute to the SVD, which is what makes this beat
    shrinkage on the submatrix alone when its share of the signal energy
    is not too large.
    """
    return spectral_fit(Y, rank, margin).submatrix(row_idx, col_idx)


def shrink_submatrix_baseline(Y, row_idx, col_idx, rank: int | None = None,
                              margin: float = 0.0) -> PipelineResult:
    """Singular value shrinkage applied to the submatrix alone.

    The submatrix has ``n0`` of the ``n`` columns, so its noise variance
    per entry is ``1/n`` rather than ``1/n0``; it is rescaled by
    ``sqrt(n / n0)`` before shrinking and back after, using the exact
    finite-sample ratio; the shrinkage error estimate is divided by
    ``n / n0`` to match.
    """
    Y = _as_matrix(Y)
    p, n = Y.shape
    rows = WeightOperator.from_indices(row_idx, p).data
    cols = WeightOperator.from_indices(col_idx, n).data
    scale = np.sqrt(n / cols.size)
    sub = Y[np.ix_(rows, cols)]
    sub *= scale
    res = svs_shrink(sub, rank=rank, margin=margin)
    return PipelineResult(res.left / scale, res.right, res,
                          res.amse_estimate / (n / cols.size))


class NoiseCovariances:
    """Row and column noise covariances of a doubly-heteroscedastic model.

    The noise is ``S**0.5 @ G @ T**0.5`` with iid unit-model noise ``G``.
    Diagonal covariances are stored as vectors and handled without any
    dense factorization; dense ones must be symmetric positive definite.
    """

    def __init__(self, row_cov, col_cov):
        self.row_cov = _real_array(row_cov, "row covariance")
        self.col_cov = _real_array(col_cov, "col covariance")
        self._row = self._prepare(self.row_cov, "row")
        self._col = self._prepare(self.col_cov, "col")

    @staticmethod
    def _prepare(cov, side):
        """One side as ``(vals, vecs)`` with ``cov = vecs diag(vals) vecs^T``.

        A diagonal is stored as itself with ``vecs = None``.
        """
        if cov.size == 0:
            raise ValueError(f"{side} covariance is empty")
        if cov.ndim == 1:
            if np.any(cov <= 0):
                raise ValueError(f"{side} covariance diagonal must be positive")
            return cov, None
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError(f"{side} covariance must be a vector or a square matrix")
        if not np.allclose(cov, cov.T, atol=1e-10 * max(1.0, float(np.abs(cov).max()))):
            raise ValueError(f"{side} covariance must be symmetric")
        vals, vecs = eigh((cov + cov.T) / 2.0)
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
        return abt(vecs * vals ** exponent, vecs)

    def whiten(self, Y) -> np.ndarray:
        """``S**-0.5 @ Y @ T**-0.5``."""
        Y = _real_array(Y, "Y", ndim=2, finite=False)
        if Y.shape != (self.p, self.n):
            raise DimensionMismatchError(
                f"Y has shape {Y.shape}, covariances expect ({self.p}, {self.n})")
        row, col = self._power(self._row, -0.5), self._power(self._col, -0.5)
        M = row[:, None] * Y if row.ndim == 1 else abt(row, Y.T)
        return abt(M, col.T) if col.ndim == 2 else np.multiply(M, col, out=M)

    def sqrt_weights(self):
        """Weight operators ``S**0.5`` and ``T**0.5`` for the whitened loss."""
        return (as_weight_operator(self._power(self._row, 0.5), self.p),
                as_weight_operator(self._power(self._col, 0.5), self.n))

    def trace_stats(self):
        """Normalized traces ``(tr S/p, tr S^-1/p, tr T/n, tr T^-1/n)``."""
        return tuple(float(np.mean(v)) for vals, _ in (self._row, self._col)
                     for v in (vals, 1.0 / vals))


def whiten_denoise(Y, cov: NoiseCovariances, rank: int | None = None,
                   margin: float = 0.0) -> PipelineResult:
    """Whiten, denoise under the matching weighted loss, map back.

    The whitened matrix ``S**-0.5 Y T**-0.5`` has iid variance-``1/n``
    noise; estimating the original signal in unweighted loss is the same
    as estimating the whitened signal under weights ``S**0.5``/``T**0.5``,
    which is the weighted problem solved here.  With identity covariances
    the pipeline reduces to plain singular value shrinkage.  The factors
    are ``S**0.5 left``, ``T**0.5 right``; the inner weighted error
    estimate is that of the output, as mapping back unweights the loss.
    """
    whitened = _expect(cov, NoiseCovariances, "cov").whiten(Y)
    omega, pi = cov.sqrt_weights()
    res = spectral_denoise(whitened, omega, pi, rank=rank, margin=margin)
    return PipelineResult(omega.apply(res.left), pi.apply(res.right), res,
                          res.amse_estimate)


def estimate_noise_covariances(Y) -> NoiseCovariances:
    """Diagonal covariance estimates from row and column sums of squares.

    Valid when the signal singular vectors are delocalized, in which case
    the signal's contribution to the sums of squares vanishes in the
    limit.  Row estimates are ``sum_j Y_ij**2``; column estimates are the
    column sums of squares divided by ``(1/n) sum_i a_i``, which makes
    ``tr(T_hat)/n = 1`` hold exactly.
    """
    Y = _as_matrix(Y)
    for axis, side in ((1, "row"), (0, "column")):
        zero = ~np.any(Y, axis=axis)  # a nonzero row whose squares underflow gets the floor
        if np.any(zero):
            raise DegenerateEstimateError(f"{side} {int(np.argmax(zero))} of Y is identically zero")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sq = Y**2
        a = sq.sum(axis=1)
        b = sq.sum(axis=0) / (a.sum() / Y.shape[1])
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DegenerateEstimateError("the squares of Y overflow, or all underflow to zero")
    return NoiseCovariances(np.maximum(a, VARIANCE_FLOOR),
                            np.maximum(b, VARIANCE_FLOOR))


def snr_gain_tau(cov: NoiseCovariances) -> float:
    """Lower bound on the operator-norm SNR gain from whitening.

    Computes ``(tr S/p)(tr S^-1/p)(tr T/n)(tr T^-1/n)``.  By the AM-HM
    inequality this is at least 1, with equality exactly when both
    covariances are multiples of the identity.
    """
    ts, tsi, tt, tti = _expect(cov, NoiseCovariances, "cov").trace_stats()
    return ts * tsi * tt * tti


class SamplingPattern:
    """Entry-sampling design and the observed entries of a noisy matrix.

    Rows are sampled with probabilities ``q_row`` and columns with
    ``q_col`` (entry ``(i, j)`` observed with probability
    ``q_row[i] * q_col[j]``); all probabilities must be strictly positive
    so the inverse square-root scalings exist.  The observed entries are
    ``values[k]`` at ``(rows[k], cols[k])``, distinct coordinates in any
    order; nothing of size ``p x n`` is stored.
    """

    def __init__(self, q_row, q_col, rows, cols, values):
        self.q_row = _real_array(q_row, "q_row", ndim=1, finite=False)
        self.q_col = _real_array(q_col, "q_col", ndim=1, finite=False)
        for name, q in (("q_row", self.q_row), ("q_col", self.q_col)):
            if not np.all((q > 0) & (q <= 1)):  # NaN fails both comparisons
                raise ValueError(f"{name}: sampling probabilities must lie in (0, 1]")
        p, n = self.shape
        self.rows = _index_set(rows, p, "rows")
        self.cols = _index_set(cols, n, "cols")
        self.values = _real_array(values, "values", ndim=1)
        if not self.rows.shape == self.cols.shape == self.values.shape:
            raise ValueError("rows, cols, values must have the same length")
        if np.any(np.diff(np.sort(self.rows * n + self.cols)) == 0):
            raise ValueError("duplicate coordinates in sampling pattern")

    @property
    def shape(self):
        return (self.q_row.size, self.q_col.size)

    @classmethod
    def from_dense(cls, full, mask, q_row, q_col) -> "SamplingPattern":
        full, mask = _real_array(full, "full", finite=False), _as_mask(mask)
        shape = cls(q_row, q_col, [], [], []).shape  # an empty pattern checks q_row, q_col
        if not full.shape == mask.shape == shape:
            raise DimensionMismatchError(f"matrix {full.shape} and mask {mask.shape} must "
                                         f"match the probability vectors {shape}")
        return cls(q_row, q_col, *np.nonzero(mask), full[mask])

    @classmethod
    def from_coordinates(cls, rows, cols, values, q_row, q_col) -> "SamplingPattern":
        return cls(q_row, q_col, rows, cols, values)


def backproject(pattern: SamplingPattern) -> np.ndarray:
    """Adjoint of the sampling operator: observed values in place, zeros elsewhere."""
    pattern = _expect(pattern, SamplingPattern, "pattern")
    out = np.zeros(pattern.shape)
    out[pattern.rows, pattern.cols] = pattern.values
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
    mask = _as_mask(mask)
    if mask.ndim != 2:
        raise ValueError("mask must be a 2-D boolean matrix")
    if not mask.any():  # an empty mask too, whose mean is nan
        raise DegenerateEstimateError("mask has no observed entries")
    m = mask.mean()
    row = mask.mean(axis=1) / np.sqrt(m)
    col = mask.mean(axis=0) / np.sqrt(m)
    floor = 1.0 / (4.0 * max(mask.shape))
    return (np.clip(row, floor, 1.0), np.clip(col, floor, 1.0))


def missing_data_denoise(pattern: SamplingPattern, rank: int | None = None,
                         margin: float = 0.0) -> PipelineResult:
    """Denoise a partially observed matrix via scaled backprojection.

    Observed entries are assumed to follow signal plus unit-variance
    noise.  The backprojected matrix is scaled by ``1/sqrt(q_i q_j)``
    entrywise, giving unit noise variance everywhere, then by
    ``1/sqrt(n)`` to match the variance-``1/n`` convention of the
    spectral denoiser.  The weighted loss with weights ``P**-0.5`` /
    ``Q**-0.5`` in that domain equals the unweighted loss on the original
    signal.  The factors are ``sqrt(n) P**-0.5 left``, ``Q**-0.5 right``,
    and the inner error estimate is scaled up by ``n`` to match.
    """
    pattern = _expect(pattern, SamplingPattern, "pattern")
    inv_r = 1.0 / np.sqrt(pattern.q_row)
    inv_c = 1.0 / np.sqrt(pattern.q_col)
    n = pattern.q_col.size
    rows, cols = pattern.rows, pattern.cols
    scaled = np.zeros(pattern.shape)
    scaled[rows, cols] = pattern.values * inv_r[rows] * inv_c[cols] / np.sqrt(n)
    omega, pi = WeightOperator.from_diagonal(inv_r), WeightOperator.from_diagonal(inv_c)
    res = spectral_denoise(scaled, omega, pi, rank=rank, margin=margin)
    return PipelineResult(np.sqrt(n) * omega.apply(res.left), pi.apply(res.right), res,
                          n * res.amse_estimate)
