"""Weight operators, partitions and recovery of the population weighted geometry.

A weight operator is any matrix with a fixed number of columns that is
applied to row or column vectors of the data matrix when measuring loss.
Three representations are supported and normalized behind one interface:
a dense matrix, a diagonal (stored as a vector), and a coordinate
projection (stored as an index set), so the localized and application
pipelines never form a dense ``p x p`` matrix.  A :class:`Partition` is a
family of index weights, the tiles of the localized denoiser.

The recovery formulas are stated for the limits of the weighted inner
products; this code necessarily works with their finite-size values and
cannot detect sequences for which those limits fail to exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import io
from ._blas import abt
from .errors import (DegenerateEstimateError, DimensionMismatchError, IllConditionedRecoveryError,
                     _check_int, _check_real, _expect, _index_set, _real_array, _shown)
from .spiked import SpikeParams

__all__ = [
    "WeightOperator",
    "as_weight_operator",
    "Partition",
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


class WeightOperator:
    """A linear weight map acting on vectors of length ``dim``.

    ``indices``: a nonempty index set, stored unique; ``diag``/``dense``: a finite
    1-D/2-D array of width ``dim`` (else :class:`DimensionMismatchError`); ``identity``: no data.
    """

    def __init__(self, kind: str, data, dim: int):
        dim = _check_int(dim, "weight dim", low=0)
        if _expect(kind, str, "weight kind") == "indices":
            data = np.unique(_index_set(data, dim, "indices"))
            if data.size == 0:
                raise ValueError("index weight must be a nonempty index set")
        elif kind in ("diag", "dense"):
            data = _real_array(data, f"{kind} weight", ndim=1 if kind == "diag" else 2)
            if data.shape[-1] != dim:
                raise DimensionMismatchError(f"weight has {data.shape[-1]} columns, expected {dim}")
        elif kind != "identity":
            raise ValueError(f"unknown weight kind {kind!r}")
        elif data is not None:
            raise ValueError("identity weight takes no data")
        self.kind = kind
        self.data = data
        self.dim = dim

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_matrix(cls, matrix) -> "WeightOperator":
        return cls("dense", matrix, np.size(matrix, -1) if _ndim(matrix) > 0 else 0)

    @classmethod
    def from_diagonal(cls, diag) -> "WeightOperator":
        return cls("diag", diag, np.size(diag) if _ndim(diag) >= 0 else 0)

    @classmethod
    def from_indices(cls, indices, dim: int) -> "WeightOperator":
        return cls("indices", indices, dim)

    @classmethod
    def identity(cls, dim: int) -> "WeightOperator":
        return cls("identity", None, dim)

    # -- behaviour ------------------------------------------------------
    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """Apply the weight to the rows of ``vectors`` (shape ``(dim, k)``)."""
        v = _real_array(vectors, "vectors", finite=False)
        if v.ndim not in (1, 2) or v.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"weight operator acts on length-{self.dim} vectors, got shape {v.shape}")
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


def _ndim(data) -> int:
    """``np.ndim(data)``, or -1 for ragged data, which the constructor rejects by its label."""
    try:
        return np.ndim(data)
    except ValueError:
        return -1


def as_weight_operator(weight, dim: int) -> WeightOperator:
    """Coerce ``weight`` to a :class:`WeightOperator` acting on length ``dim``.

    ``None`` means the identity; 1-D arrays are diagonals; 2-D arrays are
    dense operators.  Index sets must be constructed explicitly through
    :meth:`WeightOperator.from_indices` since a 1-D integer array is
    indistinguishable from a diagonal.  Every weight parameter enters here.
    """
    if weight is None:
        return WeightOperator.identity(dim)
    if isinstance(weight, WeightOperator):
        if weight.dim != _check_int(dim, "dim"):
            raise DimensionMismatchError(
                f"weight operator has {weight.dim} columns, expected {dim}")
        return weight
    return WeightOperator("diag" if _ndim(weight) == 1 else "dense", weight, dim)


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of ``range(dim)`` by nonempty, sorted index blocks."""

    dim: int
    blocks: tuple

    def __post_init__(self):
        dim = _check_int(self.dim, "partition dim", low=1)
        if not isinstance(self.blocks, (tuple, list)):
            raise ValueError(f"partition blocks must be a sequence, got {_shown(self.blocks)}")
        blocks = tuple(_index_set(b, dim, "partition block") for b in self.blocks)
        if any(b.size == 0 or np.any(b[1:] <= b[:-1]) for b in blocks):
            raise ValueError("every partition block must be nonempty and strictly increasing")
        counts = np.bincount(np.concatenate((np.empty(0, np.intp),) + blocks), minlength=dim)
        if np.any(counts > 1):
            raise ValueError("partition blocks must be disjoint")
        if not np.all(counts):
            raise ValueError("partition blocks must cover every index")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "blocks", blocks)

    def __len__(self):
        return len(self.blocks)

    def to_lists(self) -> list:
        return [b.tolist() for b in self.blocks]

    @classmethod
    def from_lists(cls, dim: int, lists) -> "Partition":
        dim = _check_int(dim, "partition dim", low=1)
        if not isinstance(lists, (tuple, list)):
            raise ValueError(f"partition blocks must be a sequence, got {_shown(lists)}")
        return cls(dim, tuple(np.sort(_index_set(b, dim, "partition block")) for b in lists))

    @classmethod
    def from_json(cls, path, dim: int) -> "Partition":
        """Read a partition file; an invalid partition raises ``MatrixFileError``."""
        lists = io.read_partition_json(path)
        try:
            return cls.from_lists(dim, lists)
        except ValueError as exc:
            raise io.MatrixFileError(f"{path}: {exc}") from exc


def as_partition(part, dim: int, side: str) -> Partition:
    """``part`` checked to be a :class:`Partition` of the ``dim`` ``side`` indices of ``Y``."""
    if _expect(part, Partition, f"{side} partition").dim != dim:
        raise DimensionMismatchError(f"{side} partition covers {part.dim} {side}s, Y has {dim}")
    return part


def trace_weight(omega, dim: int) -> float:
    """Normalized weight trace ``tr(W^T W) / dim``; ``omega`` as in :func:`as_weight_operator`."""
    dim = _check_int(dim, "trace dim", low=1)
    return as_weight_operator(omega, dim).trace_gram() / float(dim)


def weighted_gram(vectors, omega) -> np.ndarray:
    """Gram matrix of weighted vectors: entry ``(j, k) = <W v_j, W v_k>``.

    ``omega`` is any weight :func:`as_weight_operator` takes.  Columns of
    ``vectors`` must be unit norm (checked to 1e-8); the result is symmetrized.
    """
    v = _real_array(vectors, "vectors", ndim=2)
    norms = np.sqrt(np.sum(v * v, axis=0))
    if v.shape[1] and np.max(np.abs(norms - 1.0)) > 1e-8:
        raise ValueError("columns must be unit vectors (within 1e-8)")
    w = as_weight_operator(omega, v.shape[0]).apply(v)
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
    D = _real_array(gram_left, "gram_left", finite=False)
    Dt = _real_array(gram_right, "gram_right", finite=False)
    r = _expect(spikes, SpikeParams, "spikes").rank
    if D.shape != (r, r) or Dt.shape != (r, r):
        raise DimensionMismatchError(
            f"grams must be {r}x{r} to match spikes.rank={r}")
    mu, nu = _check_real(mu, "mu"), _check_real(nu, "nu")
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
