"""Weight operators and recovery of the population weighted geometry.

A weight operator is any matrix with a fixed number of columns that is
applied to row or column vectors of the data matrix when measuring loss.
Three representations are supported and normalized behind one interface:
a dense matrix, a diagonal (stored as a vector), and a coordinate
projection (stored as an index set).  The diagonal and index forms avoid
ever materializing a dense ``p x p`` matrix, which is what the localized
and application pipelines use almost exclusively.

The recovery formulas are stated for the limits of the weighted inner
products; this code necessarily works with their finite-size values and
cannot detect sequences for which those limits fail to exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._blas import abt
from .errors import DegenerateEstimateError, DimensionMismatchError, IllConditionedRecoveryError
from .spiked import SpikeParams

__all__ = [
    "WeightOperator",
    "as_weight_operator",
    "trace_weight",
    "weighted_gram",
    "WeightedGeometry",
    "recover_population_geometry",
]

#: Lower clip for recovered per-component weighted energies.  Finite-sample
#: diagonal estimates can dip below zero even though the model requires
#: positivity; clipped components are reported, not silently accepted.
ALPHA_FLOOR = 1e-8

#: Cosines below this are too small to divide by when solving for the
#: population cross inner products.
MIN_COSINE = 1e-6


def _index_array(values, name: str) -> np.ndarray:
    """``values`` as an ``intp`` array; floats or booleans raise ``ValueError``."""
    arr = np.asarray(values)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{name} must hold integers, got dtype {arr.dtype}")
    return arr.astype(np.intp, copy=False)


class WeightOperator:
    """A linear weight map acting on vectors of length ``dim``."""

    def __init__(self, kind: str, data, dim: int):
        if kind not in ("dense", "diag", "indices", "identity"):
            raise ValueError(f"unknown weight kind {kind!r}")
        self.kind = kind
        self.data = data
        self.dim = int(dim)

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_matrix(cls, matrix) -> "WeightOperator":
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("dense weight must be a 2-D matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("weight matrix must have finite entries")
        return cls("dense", m, m.shape[1])

    @classmethod
    def from_diagonal(cls, diag) -> "WeightOperator":
        d = np.asarray(diag, dtype=float)
        if d.ndim != 1:
            raise ValueError("diagonal weight must be a 1-D vector")
        if not np.all(np.isfinite(d)):
            raise ValueError("diagonal weight must have finite entries")
        return cls("diag", d, d.size)

    @classmethod
    def from_indices(cls, indices, dim: int) -> "WeightOperator":
        idx = _index_array(indices, "indices")
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("index weight must be a nonempty 1-D index set")
        if np.any(idx < 0) or np.any(idx >= dim):
            raise ValueError(f"indices must lie in [0, {dim})")
        idx = np.unique(idx)
        return cls("indices", idx, dim)

    @classmethod
    def identity(cls, dim: int) -> "WeightOperator":
        return cls("identity", None, dim)

    # -- behaviour ------------------------------------------------------
    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """Apply the weight to the rows of ``vectors`` (shape ``(dim, k)``)."""
        v = np.asarray(vectors, dtype=float)
        rows = v.shape[0]
        if rows != self.dim:
            raise DimensionMismatchError(
                f"weight operator acts on length-{self.dim} vectors, got {rows}")
        if self.kind == "identity":
            return v
        if self.kind == "diag":
            return self.data[:, None] * v if v.ndim == 2 else self.data * v
        if self.kind == "indices":
            return v[self.data]
        return abt(self.data, v.T) if v.ndim == 2 else abt(self.data, v[None, :])[:, 0]

    def trace_gram(self) -> float:
        """``tr(W^T W)``, the squared Frobenius norm of the weight."""
        if self.kind == "identity":
            return float(self.dim)
        if self.kind == "indices":
            return float(self.data.size)
        with np.errstate(over="ignore"):  # an overflow is reported by the geometry check
            return float(np.sum(self.data**2))

    def __repr__(self):
        return f"WeightOperator(kind={self.kind!r}, dim={self.dim})"


def as_weight_operator(weight, dim: int) -> WeightOperator:
    """Coerce ``weight`` to a :class:`WeightOperator` acting on length ``dim``.

    ``None`` means the identity; 1-D arrays are diagonals; 2-D arrays are
    dense operators.  Index sets must be constructed explicitly through
    :meth:`WeightOperator.from_indices` since a 1-D integer array is
    indistinguishable from a diagonal.
    """
    if weight is None:
        return WeightOperator.identity(dim)
    if isinstance(weight, WeightOperator):
        if weight.dim != dim:
            raise DimensionMismatchError(
                f"weight operator has {weight.dim} columns, expected {dim}")
        return weight
    arr = np.asarray(weight, dtype=float)
    if arr.ndim == 1:
        op = WeightOperator.from_diagonal(arr)
    elif arr.ndim == 2:
        op = WeightOperator.from_matrix(arr)
    else:
        raise ValueError("weight must be None, a 1-D diagonal, a 2-D matrix, "
                         "or a WeightOperator")
    if op.dim != dim:
        raise DimensionMismatchError(f"weight has {op.dim} columns, expected {dim}")
    return op


def trace_weight(omega: WeightOperator, dim: int) -> float:
    """Normalized weight trace ``tr(W^T W) / dim``."""
    if omega.dim != int(dim):
        raise DimensionMismatchError(
            f"weight operator has {omega.dim} columns, expected {dim}")
    return omega.trace_gram() / float(dim)


def weighted_gram(vectors, omega: WeightOperator) -> np.ndarray:
    """Gram matrix of weighted vectors: entry ``(j, k) = <W v_j, W v_k>``.

    Columns of ``vectors`` must be unit norm (checked to 1e-8).  The
    result is symmetrized to kill round-off asymmetry.
    """
    v = np.asarray(vectors, dtype=float)
    if v.ndim != 2:
        raise ValueError("vectors must be a 2-D matrix with unit columns")
    norms = np.sqrt(np.sum(v * v, axis=0))
    if v.shape[1] and np.max(np.abs(norms - 1.0)) > 1e-8:
        raise ValueError("columns must be unit vectors (within 1e-8)")
    w = omega.apply(v)
    gram = abt(w.T, w.T)
    with np.errstate(over="ignore"):  # an overflow is reported by the geometry check
        return (gram + gram.T) / 2.0


@dataclass(frozen=True)
class WeightedGeometry:
    """Weighted inner-product structure of one side pair of weights.

    ``gram_left``/``gram_right`` are the empirical weighted Grams of the
    top left/right singular vectors of the data.  ``pop_gram_left`` /
    ``pop_gram_right`` hold the recovered population weighted Grams with
    the diagonal replaced by the per-component energies ``alpha`` /
    ``beta``; ``cross_left``/``cross_right`` are the recovered weighted
    population-empirical inner products.  ``mu`` and ``nu`` are the
    normalized weight traces.
    """

    rank: int
    t: np.ndarray
    gram_left: np.ndarray
    gram_right: np.ndarray
    pop_gram_left: np.ndarray
    pop_gram_right: np.ndarray
    cross_left: np.ndarray
    cross_right: np.ndarray
    mu: float
    nu: float
    alpha: np.ndarray
    beta: np.ndarray
    clipped: tuple = field(default=())

    def __post_init__(self):
        r = self.rank
        for name in ("gram_left", "gram_right", "pop_gram_left", "pop_gram_right",
                     "cross_left", "cross_right"):
            m = getattr(self, name)
            if m.shape != (r, r):
                raise ValueError(f"WeightedGeometry.{name} must be {r}x{r}")
        for name in ("t", "alpha", "beta"):
            v = getattr(self, name)
            if v.shape != (r,):
                raise ValueError(f"WeightedGeometry.{name} must have length {r}")


def _recover_side(gram, cos, sin, mass):
    """One side of :func:`recover_population_geometry`: ``(alpha, E, C, clipped)``.

    ``gram`` may be a ``(..., r, r)`` stack with ``mass`` broadcasting
    against ``(..., r)``; ``clipped`` holds the clipped component indices.
    """
    energy_raw = (np.diagonal(gram, axis1=-2, axis2=-1) - sin**2 * mass) / cos**2
    clip = np.nonzero(energy_raw < ALPHA_FLOOR)[-1]
    energy = np.maximum(energy_raw, ALPHA_FLOOR)
    pop = gram / np.outer(cos, cos)
    diag = np.arange(cos.size)
    pop[..., diag, diag] = energy
    cross = cos[:, None] * pop
    return energy, pop, cross, clip


def _check_cosines(spikes: SpikeParams) -> None:
    small = np.nonzero((spikes.c < MIN_COSINE) | (spikes.c_tilde < MIN_COSINE))[0]
    if small.size:
        k = int(small[0])
        raise IllConditionedRecoveryError(
            f"component {k} has cosine below {MIN_COSINE:g}; too close to the "
            "detection threshold to recover weighted geometry")


def recover_population_geometry(gram_left, gram_right, spikes: SpikeParams,
                                mu: float, nu: float) -> WeightedGeometry:
    """Invert the weighted-Gram limit formulas for the population geometry.

    Given the empirical weighted Grams ``D``/``D~`` of the top singular
    vectors, the recovered quantities are

        alpha_k = (D_kk - s_k**2 mu) / c_k**2
        e_jk    = D_jk / (c_j c_k)              (j != k)
        C_jk    = e_jk c_j   with   e_kk = alpha_k

    and symmetrically on the right with ``beta``, ``nu``.  Energies that
    fall below ``ALPHA_FLOOR`` are clipped up to it and their component
    indices recorded in ``clipped``.  At rank ``r > 0``, a side whose trace
    or recovered Gram is not finite (a weight whose square overflows)
    raises :class:`DegenerateEstimateError`.
    """
    D = np.asarray(gram_left, dtype=float)
    Dt = np.asarray(gram_right, dtype=float)
    r = spikes.rank
    if D.shape != (r, r) or Dt.shape != (r, r):
        raise DimensionMismatchError(
            f"grams must be {r}x{r} to match spikes.rank={r}")
    mu = float(mu)
    nu = float(nu)
    if mu <= 0 or nu <= 0:
        raise ValueError("normalized weight traces mu, nu must be positive")

    _check_cosines(spikes)
    with np.errstate(over="ignore", invalid="ignore"):
        alpha, E, C, clip_l = _recover_side(D, spikes.c, spikes.s, mu)
        beta, Et, Ct, clip_r = _recover_side(Dt, spikes.c_tilde, spikes.s_tilde, nu)
    for side, trace, pop in (("row", mu, E), ("column", nu, Et)):
        if r and not (np.isfinite(trace) and np.all(np.isfinite(pop))):
            raise DegenerateEstimateError(f"the {side} weight's recovered geometry is not finite")
    clipped = tuple(sorted(set(clip_l.tolist()) | set(clip_r.tolist())))

    return WeightedGeometry(r, spikes.t.copy(), D, Dt, E, Et, C, Ct,
                            mu, nu, alpha, beta, clipped)
