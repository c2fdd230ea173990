"""Spectral denoisers for weighted and unweighted Frobenius loss.

A spectral denoiser keeps the top left/right singular subspaces of the
observed matrix and replaces the singular values by an ``r x r``
coefficient matrix.  For a weighted loss the optimal coefficients solve
a small least-squares problem parameterized by the weighted geometry of
the singular vectors; with uniform weights this collapses to classical
singular value shrinkage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._svd import svd_head_above, top_svd
from .errors import DegenerateEstimateError
from .geometry import (WeightedGeometry, as_weight_operator,
                       recover_population_geometry, trace_weight, weighted_gram,
                       _empty_geometry)
from .spiked import (SpikeParams, bulk_edge, cosines, detection_point,
                     estimate_spike_params, forward_singular_value, naive_rank)

__all__ = [
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
    """Pseudoinverse of a symmetric PSD matrix via eigendecomposition."""
    if m.size == 0:
        return m.copy()
    vals, vecs = np.linalg.eigh((m + m.T) / 2.0)
    cutoff = PINV_RCOND * max(np.max(np.abs(vals)), np.finfo(float).tiny)
    inv = np.where(np.abs(vals) > cutoff, 1.0 / np.where(vals == 0, 1.0, vals), 0.0)
    return (vecs * inv) @ vecs.T


class _FactoredResult:
    """A result kept as factors ``left`` (``p x r``) and ``right`` (``n x r``)."""

    @property
    def estimate(self) -> np.ndarray:
        """The dense ``p x n`` estimate ``left @ right.T``, formed on each access."""
        return self.left @ self.right.T

    @property
    def rank(self) -> int:
        return self.spikes.rank


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


def _solve_side(gram: np.ndarray, cross: np.ndarray):
    """One side of the weighted solve: ``L = pinv(D) C`` and ``K = C^T L``.

    The coefficients are ``L diag(t) R^T`` and the raw AMSE
    ``t^T (E o E~ - K o K~) t``, with ``R``, ``K~`` the column side's.
    """
    L = _sym_pinv(gram) @ cross
    return L, cross.T @ L


def _solve(geom: WeightedGeometry):
    """Optimal coefficients and raw AMSE, one pseudoinverse per side."""
    L, K = _solve_side(geom.gram_left, geom.cross_left)
    R, Kt = _solve_side(geom.gram_right, geom.cross_right)
    t = geom.t
    raw = t @ (geom.pop_gram_left * geom.pop_gram_right - K * Kt) @ t
    return (L * t) @ R.T, float(raw)


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


def amse_estimate(geom: WeightedGeometry) -> float:
    """Plug-in asymptotic weighted MSE of the optimal spectral denoiser.

    The limit quantity is a squared norm; negative values produced by
    round-off are clamped to 0.
    """
    return max(_amse_raw(geom), 0.0)


def _as_matrix(Y) -> np.ndarray:
    """``Y`` as a float array, checked to be a non-empty matrix."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError("Y must be a 2-D matrix")
    if Y.size == 0:
        raise DegenerateEstimateError(f"Y is empty (shape {Y.shape[0]}x{Y.shape[1]})")
    return Y


def _detect_and_estimate(Y: np.ndarray, rank: int | None, margin: float):
    """Shared head: top SVD, rank detection, spike parameter recovery."""
    Y = _as_matrix(Y)
    if not np.all(np.isfinite(Y)):
        raise ValueError("Y must have finite entries")
    p, n = Y.shape
    gamma = p / n
    if rank is None:
        threshold = bulk_edge(gamma) + float(margin)
        U, s, V, spectrum = svd_head_above(Y, threshold)
        r = naive_rank(spectrum, gamma, margin=margin)
        spikes = estimate_spike_params(spectrum, gamma, rank=r)
    else:
        r = int(rank)
        if r < 0 or r > min(p, n):
            raise ValueError(f"rank must be between 0 and {min(p, n)}")
        U, s, V, spectrum = top_svd(Y, r)
        spikes = estimate_spike_params(s, gamma, rank=r)
    return Y, U[:, :spikes.rank], V[:, :spikes.rank], spikes


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


def _weighted_denoise(Y, omega, pi, rank, margin, solve) -> DenoiseResult:
    """Shared body of the weighted denoisers; ``solve`` gives (coefficients, raw AMSE)."""
    Y, U, V, spikes = _detect_and_estimate(Y, rank, margin)
    p, n = Y.shape
    omega = as_weight_operator(omega, p)
    pi = as_weight_operator(pi, n)
    mu = trace_weight(omega, p)
    nu = trace_weight(pi, n)
    if spikes.rank == 0:
        return DenoiseResult(np.zeros((0, 0)), U, V, 0.0, spikes, _empty_geometry(mu, nu))

    if omega.kind == pi.kind == "identity":
        geom = _identity_geometry(spikes)
    else:
        geom = recover_population_geometry(weighted_gram(U, omega), weighted_gram(V, pi),
                                           spikes, mu, nu)
    coeff, raw = solve(geom, spikes)
    return DenoiseResult(coeff, U @ coeff, V, max(raw, 0.0), spikes, geom,
                         geom.clipped, raw < 0)


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
    shrinkage.  A detected rank of 0 returns the zero matrix with a zero
    error estimate.
    """
    return _weighted_denoise(Y, omega, pi, rank, margin,
                             lambda geom, spikes: _solve(geom))


def _diagonal_solve(geom: WeightedGeometry, spikes: SpikeParams):
    c, ct, s, st = spikes.c, spikes.c_tilde, spikes.s, spikes.s_tilde
    eta_left = geom.alpha / (c**2 * geom.alpha + s**2 * geom.mu)
    eta_right = geom.beta / (ct**2 * geom.beta + st**2 * geom.nu)
    values = geom.t * c * ct * eta_left * eta_right
    amse = np.sum(geom.t**2 * geom.alpha * geom.beta
                  * (1.0 - c**2 * ct**2 * eta_left * eta_right))
    return np.diag(values), float(amse)


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
    return _weighted_denoise(Y, omega, pi, rank, margin, _diagonal_solve)


def svs_shrink(Y, rank: int | None = None, margin: float = 0.0) -> DenoiseResult:
    """Optimal singular value shrinkage for unweighted Frobenius loss.

    Keeps the detected components with singular values ``t c c~`` and an
    error estimate ``sum(t**2 (1 - c**2 c~**2))``.  This is
    :func:`spectral_denoise` with uniform weights, whose geometry has the
    exact uniform-weight values (``alpha = beta = 1``).
    """
    return spectral_denoise(Y, rank=rank, margin=margin)


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
    c, ct, s, st = cosines(t, gamma)
    eta = (alpha / (c**2 * alpha + s**2 * mu)) * (beta / (ct**2 * beta + st**2 * nu))
    denoised = t * c * ct * eta

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
