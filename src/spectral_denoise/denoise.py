"""Spectral denoisers for weighted and unweighted Frobenius loss.

A spectral denoiser keeps the top left/right singular subspaces of the
observed matrix and replaces the singular values by an ``r x r``
coefficient matrix.  For a weighted loss the optimal coefficients solve
a small least-squares problem parameterized by the weighted geometry of
the singular vectors; with uniform weights this collapses to classical
singular value shrinkage.  Only that solve depends on the loss; the SVD,
rank and spikes form one :class:`SpectralFit` shared by every denoiser.

Every loss's solve (the localized per-block one too) and every result
type live here: :class:`DenoiseResult`, :class:`LocalizedResult` and
:class:`PipelineResult`.  This module imports none of its callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._blas import abt
from ._svd import svd_head_above, top_svd
from .errors import DegenerateEstimateError
from .geometry import (WeightedGeometry, WeightOperator, as_partition, as_weight_operator,
                       recover_population_geometry, trace_weight, weighted_gram,
                       _check_cosines, _recover_side)
from .spiked import (SpikeParams, bulk_edge, cosines, detection_point, estimate_spike_params,
                     forward_singular_value, _check_margin, _check_int)

__all__ = [
    "SpectralFit",
    "spectral_fit",
    "DenoiseResult",
    "optimal_coefficients",
    "amse_estimate",
    "spectral_denoise",
    "diagonal_denoise",
    "svs_shrink",
    "ShrinkageReport",
    "check_shrinkage_properties",
]

#: Relative eigenvalue cutoff for the symmetric pseudoinverses of the
#: weighted Grams; a weight can annihilate an empirical direction, making
#: the Gram exactly singular.
PINV_RCOND = 1e-8


def _sym_pinv(m: np.ndarray) -> np.ndarray:
    """Pseudoinverse of a symmetric PSD matrix, or of each in a ``(..., r, r)`` stack."""
    vals, vecs = np.linalg.eigh((m + np.swapaxes(m, -1, -2)) / 2.0)
    cutoff = PINV_RCOND * np.maximum(np.max(np.abs(vals), axis=-1, keepdims=True, initial=0.0),
                                     np.finfo(float).tiny)
    inv = np.where(np.abs(vals) > cutoff, 1.0 / np.where(vals == 0, 1.0, vals), 0.0)
    return (vecs * inv[..., None, :]) @ np.swapaxes(vecs, -1, -2)


class _FactoredResult:
    """A result kept as factors ``left`` (``p x r``) and ``right`` (``n x r``)."""

    @property
    def estimate(self) -> np.ndarray:
        """The dense ``p x n`` estimate ``left @ right.T`` (``_blas.abt``), formed on access."""
        return abt(self.left, self.right)

    @property
    def rank(self) -> int:
        return self.left.shape[1]


@dataclass(frozen=True)
class DenoiseResult(_FactoredResult):
    """Output of a spectral denoiser, kept as rank-``r`` factors.

    ``left = U @ coefficients`` and ``right = V`` for the top singular
    vectors of the input, so the estimate's rank is at most the detected
    rank.  ``amse_estimate`` is the plug-in asymptotic weighted MSE
    (clamped at 0; ``amse_clamped`` records whether clamping fired).
    """

    coefficients: np.ndarray
    left: np.ndarray
    right: np.ndarray
    amse_estimate: float
    spikes: SpikeParams
    geometry: WeightedGeometry
    clipped_components: tuple = field(default=())
    amse_clamped: bool = False


@dataclass(frozen=True)
class LocalizedResult(_FactoredResult):
    """Reassembled localized denoiser output, kept as rank-``r`` factors.

    ``left @ right.T`` is the estimate, with ``left = A diag(t)`` and
    ``right = B``.  ``tile_amse[i, j]`` is the estimated weighted error of
    the block pair ``(i, j)``, clamped at 0 as in :class:`DenoiseResult`
    (``amse_clamped`` records whether any tile was); ``amse_estimate`` is
    their sum, which estimates the total unweighted squared error.
    """

    left: np.ndarray
    right: np.ndarray
    amse_estimate: float
    spikes: SpikeParams
    tile_amse: np.ndarray
    clipped_components: tuple = field(default=())
    amse_clamped: bool = False


@dataclass(frozen=True)
class PipelineResult(_FactoredResult):
    """Pipeline output, kept as factors mapped into the output coordinates.

    ``denoise`` is the inner result; ``amse_estimate`` estimates the error
    of ``estimate = left @ right.T``, formed on each access.
    """

    left: np.ndarray
    right: np.ndarray
    denoise: DenoiseResult
    amse_estimate: float


def _solve_side(gram: np.ndarray, cross: np.ndarray):
    """One side of the weighted solve: ``L = pinv(D) C`` and ``K = C^T L``.

    The coefficients are ``L diag(t) R^T`` and the raw AMSE
    ``t^T (E o E~ - K o K~) t``, with ``R``, ``K~`` the column side's.
    ``gram`` and ``cross`` may be ``(..., r, r)`` stacks, solved in one call.
    """
    L = _sym_pinv(gram) @ cross
    return L, np.swapaxes(cross, -1, -2) @ L


def _solve(geom: WeightedGeometry):
    """Optimal coefficients and raw AMSE, one pseudoinverse per side."""
    L, K = _solve_side(geom.gram_left, geom.cross_left)
    R, Kt = _solve_side(geom.gram_right, geom.cross_right)
    t = geom.t
    raw = t @ (geom.pop_gram_left * geom.pop_gram_right - K * Kt) @ t
    return (L * t) @ R.T, float(raw)


def _block_sides(vectors: np.ndarray, part, cos, sin):
    """One side's weighted solve for every block of the partition ``part``.

    The block Grams ``vectors[b]^T vectors[b]`` come from one sum of the
    rows' outer products grouped by block, and one stacked
    :func:`_solve_side` solves them all.  Returns ``F`` (``F[b] =
    vectors[b] @ L_b``), the rows ``vec(E_b)`` and ``vec(K_b)``, and the
    clipped components.
    """
    dim, r = vectors.shape
    sizes = np.fromiter(map(len, part.blocks), np.intp, len(part))
    order = np.concatenate(part.blocks)
    W = vectors[order]
    starts = np.cumsum(sizes) - sizes
    gram = np.add.reduceat(W[:, :, None] * W[:, None, :], starts, axis=0)
    _, pop, cross, clip = _recover_side(gram, cos, sin, sizes[:, None] / dim)
    L, K = _solve_side(gram, cross)
    F = np.empty_like(vectors)
    F[order] = np.einsum("ij,ijk->ik", W, np.repeat(L, sizes, axis=0))
    return F, pop.reshape(sizes.size, r * r), K.reshape(sizes.size, r * r), set(clip.tolist())


def optimal_coefficients(geom: WeightedGeometry) -> np.ndarray:
    """Coefficient matrix minimizing the asymptotic weighted loss.

    Solves the least-squares problem over all ``r x r`` coefficient
    matrices; the minimizer is
    ``pinv(D) @ C @ diag(t) @ C~.T @ pinv(D~)`` in terms of the
    empirical weighted Grams ``D``/``D~`` and the recovered population
    cross matrices ``C``/``C~``.
    """
    return _solve(geom)[0]


def _amse_raw(geom: WeightedGeometry) -> float:
    return _solve(geom)[1]


def _clamp_amse(raw):
    """Plug-in AMSE values clamped at 0, and whether any was negative.

    The limit quantity is a squared norm, so a negative value is round-off.
    """
    return np.maximum(raw, 0.0), bool(np.any(raw < 0))


def amse_estimate(geom: WeightedGeometry) -> float:
    """Plug-in asymptotic weighted MSE of the optimal spectral denoiser, clamped at 0."""
    return float(_clamp_amse(_amse_raw(geom))[0])


def _as_matrix(Y) -> np.ndarray:
    """``Y`` as a float array, checked to be a non-empty matrix of finite entries."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError("Y must be a 2-D matrix")
    if Y.size == 0:
        raise DegenerateEstimateError(f"Y is empty (shape {Y.shape[0]}x{Y.shape[1]})")
    if not np.all(np.isfinite(Y)):
        raise ValueError("Y must have finite entries")
    return Y


def _detect_and_estimate(Y: np.ndarray, rank: int | None, margin: float):
    """Shared head: top SVD, rank detection, spike parameter recovery."""
    margin = _check_margin(margin)
    Y = _as_matrix(Y)
    p, n = Y.shape
    gamma = p / n
    if rank is None:
        U, s, V, _ = svd_head_above(Y, bulk_edge(gamma) + margin)
    else:
        r = _check_int(rank, "rank")
        if r < 0 or r > min(p, n):
            raise ValueError(f"rank must be between 0 and {min(p, n)}")
        U, s, V, _ = top_svd(Y, r)
    return Y, U, V, estimate_spike_params(s, gamma, rank=s.size)


def _identity_geometry(spikes: SpikeParams) -> WeightedGeometry:
    """Weighted geometry induced by uniform weights.

    ``U^T U = I`` for singular vectors, so these exact values are what the
    plug-in formulas of :func:`recover_population_geometry` tend to.
    """
    r = spikes.rank
    eye = np.eye(r)
    ones = np.ones(r)
    return WeightedGeometry(r, spikes.t.copy(), eye, eye.copy(), eye.copy(),
                            eye.copy(), np.diag(spikes.c), np.diag(spikes.c_tilde),
                            1.0, 1.0, ones, ones.copy())


def _diagonal_map(t, cos, alpha, beta, mu, nu):
    """Values ``t c c~ eta_left eta_right`` and both etas, for ``cos = (c, c~, s, s~)``."""
    c, ct, s, st = cos
    eta_left = alpha / (c**2 * alpha + s**2 * mu)
    eta_right = beta / (ct**2 * beta + st**2 * nu)
    return t * c * ct * eta_left * eta_right, eta_left, eta_right


def _diagonal_solve(geom: WeightedGeometry, spikes: SpikeParams):
    c, ct = spikes.c, spikes.c_tilde
    values, eta_left, eta_right = _diagonal_map(
        geom.t, (c, ct, spikes.s, spikes.s_tilde), geom.alpha, geom.beta, geom.mu, geom.nu)
    amse = np.sum(geom.t**2 * geom.alpha * geom.beta
                  * (1.0 - c**2 * ct**2 * eta_left * eta_right))
    return np.diag(values), float(amse)


@dataclass(frozen=True)
class SpectralFit:
    """Top singular vectors ``U`` (``p x r``), ``V`` (``n x r``) and spikes of one matrix.

    Each method applies one loss to the fit, so one observation serves
    many weights, partitions or submatrices for the price of one SVD.
    """

    shape: tuple
    U: np.ndarray
    V: np.ndarray
    spikes: SpikeParams

    def _weighted(self, omega, pi, solve) -> DenoiseResult:
        """Weighted solve; ``solve`` gives (coefficients, raw AMSE)."""
        (p, n), U, V, spikes = self.shape, self.U, self.V, self.spikes
        omega = as_weight_operator(omega, p)
        pi = as_weight_operator(pi, n)
        if omega.kind == pi.kind == "identity":
            geom = _identity_geometry(spikes)
        else:
            geom = recover_population_geometry(weighted_gram(U, omega), weighted_gram(V, pi),
                                               spikes, trace_weight(omega, p),
                                               trace_weight(pi, n))
        coeff, raw = solve(geom, spikes)
        amse, clamped = _clamp_amse(raw)
        return DenoiseResult(coeff, abt(U, coeff.T), V, float(amse), spikes, geom,
                             geom.clipped, clamped)

    def denoise(self, omega=None, pi=None) -> DenoiseResult:
        """Optimal spectral denoiser for these weights; see :func:`spectral_denoise`."""
        return self._weighted(omega, pi, lambda geom, spikes: _solve(geom))

    def diagonal(self, omega=None, pi=None) -> DenoiseResult:
        """Best diagonal spectral denoiser; see :func:`diagonal_denoise`."""
        return self._weighted(omega, pi, _diagonal_solve)

    def localized(self, rows, cols) -> LocalizedResult:
        """Localized denoiser on this fit; see ``localized.localized_denoise``."""
        p, n = self.shape
        rows, cols = as_partition(rows, p, "row"), as_partition(cols, n, "column")
        spikes = self.spikes
        _check_cosines(spikes)
        A, Phi, P, clip_rows = _block_sides(self.U, rows, spikes.c, spikes.s)
        B, Psi, Q, clip_cols = _block_sides(self.V, cols, spikes.c_tilde, spikes.s_tilde)
        t = spikes.t
        tt = np.outer(t, t).ravel()
        tile_amse, clamped = _clamp_amse(abt(Phi * tt, Psi) - abt(P * tt, Q))
        return LocalizedResult(A * t, B, float(tile_amse.sum()), spikes, tile_amse,
                               tuple(sorted(clip_rows | clip_cols)), clamped)

    def submatrix(self, row_idx, col_idx) -> PipelineResult:
        """Submatrix denoiser on this fit; see ``applications.submatrix_denoise``."""
        omega = WeightOperator.from_indices(row_idx, self.shape[0])
        pi = WeightOperator.from_indices(col_idx, self.shape[1])
        res = self.denoise(omega, pi)
        return PipelineResult(omega.apply(res.left), pi.apply(res.right), res,
                              res.amse_estimate)


def spectral_fit(Y, rank: int | None = None, margin: float = 0.0) -> SpectralFit:
    """The loss-independent head of every denoiser: SVD, rank and spikes of ``Y``.

    ``rank`` and ``margin`` are as in :func:`spectral_denoise`.
    """
    Y, U, V, spikes = _detect_and_estimate(Y, rank, margin)
    return SpectralFit(Y.shape, U, V, spikes)


def spectral_denoise(Y, omega=None, pi=None, rank: int | None = None,
                     margin: float = 0.0) -> DenoiseResult:
    """Optimal spectral denoiser for the weighted Frobenius loss.

    Parameters
    ----------
    Y : (p, n) array
        Observed matrix, assumed to follow the spiked model with noise
        variance ``1/n`` per entry.
    omega, pi : weight specifications, optional
        Row- and column-side weights (anything accepted by
        :func:`as_weight_operator`); ``None`` means uniform weights.
    rank : int, optional
        Number of components to keep.  Detected from the singular values
        when omitted; forcing a rank whose singular values do not clear
        the bulk edge raises :class:`BelowDetectionThresholdError`.
    margin : float
        Additive safety margin on the detection threshold.

    With uniform weights the result coincides with singular value
    shrinkage.  A detected rank of 0 is the ``r = 0`` case of the same
    solve: the zero matrix with a zero error estimate.
    """
    return spectral_fit(Y, rank, margin).denoise(omega, pi)


def diagonal_denoise(Y, omega=None, pi=None, rank: int | None = None,
                     margin: float = 0.0) -> DenoiseResult:
    """Best spectral denoiser with a diagonal coefficient matrix.

    Each kept singular value becomes ``t c c~ * eta`` where the
    correction factor

        eta = alpha / (c**2 alpha + s**2 mu) * beta / (c~**2 beta + s~**2 nu)

    measures how the component's weighted energy compares with the bulk
    weight mass.  Under weighted orthogonality this matches the full
    optimal spectral denoiser.
    """
    return spectral_fit(Y, rank, margin).diagonal(omega, pi)


def svs_shrink(Y, rank: int | None = None, margin: float = 0.0) -> DenoiseResult:
    """Optimal singular value shrinkage for unweighted Frobenius loss.

    Keeps the detected components with singular values ``t c c~`` and an
    error estimate ``sum(t**2 (1 - c**2 c~**2))``.  This is
    :func:`spectral_denoise` with uniform weights, whose geometry has the
    exact uniform-weight values (``alpha = beta = 1``).
    """
    return spectral_fit(Y, rank, margin).denoise()


@dataclass(frozen=True)
class ShrinkageReport:
    """Behaviour of the diagonal-denoiser singular value map over a grid."""

    t_grid: np.ndarray
    observed: np.ndarray
    denoised: np.ndarray
    shrinks: np.ndarray          # denoised(t) <= observed(t), pointwise
    nondecreasing: np.ndarray    # denoised nondecreasing between consecutive ts
    hypothesis_holds: bool       # alpha <= mu or beta <= nu
    shrinkage_violations: tuple
    monotonicity_violations: tuple

    @property
    def all_shrink(self) -> bool:
        return len(self.shrinkage_violations) == 0

    @property
    def all_nondecreasing(self) -> bool:
        return len(self.monotonicity_violations) == 0


def check_shrinkage_properties(gamma: float, alpha: float, beta: float,
                               mu: float, nu: float, t_grid) -> ShrinkageReport:
    """Check shrinkage and monotonicity of the diagonal denoiser map.

    Whenever ``alpha <= mu`` or ``beta <= nu`` the denoised singular
    value never exceeds the observed one and is nondecreasing in it; for
    large enough energies both properties can fail, which the report
    flags rather than raises.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("t_grid must be a nonempty 1-D vector")
    if np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    if np.any(t <= detection_point(gamma)):
        raise ValueError("t_grid must lie above the detection point gamma**0.25")

    lam = np.asarray(forward_singular_value(t, gamma))
    denoised = _diagonal_map(t, cosines(t, gamma), alpha, beta, mu, nu)[0]

    tol = 1e-12
    shrinks = denoised <= lam + tol
    steps = np.diff(denoised)
    nondec = steps >= -tol
    return ShrinkageReport(
        t_grid=t,
        observed=lam,
        denoised=denoised,
        shrinks=shrinks,
        nondecreasing=nondec,
        hypothesis_holds=(alpha <= mu or beta <= nu),
        shrinkage_violations=tuple(np.nonzero(~shrinks)[0].tolist()),
        monotonicity_violations=tuple(np.nonzero(~nondec)[0].tolist()),
    )
