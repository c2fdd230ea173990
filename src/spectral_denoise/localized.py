"""Localized denoising: tile the matrix with projection weights.

The rows and columns are each partitioned into disjoint blocks.  Every
block pair is denoised with the optimal spectral denoiser for the
coordinate-projection weights selecting that pair, and the output tiles
are reassembled.  One SVD of the observed matrix is shared by all block
pairs, as is the globally detected rank.  For unweighted loss the result
is asymptotically never worse than singular value shrinkage.

The weighted solve splits into a row-side and a column-side factor, so
it runs once per row block and once per column block, never per pair:
the estimate is a single product ``(A diag(t)) B^T`` and the tile errors
a single ``Phi Psi^T - P Q^T``.  Fine partitions therefore cost about as
much as the shared SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import io
from .denoise import _as_matrix, _detect_and_estimate, _FactoredResult, _solve_side
from .errors import DimensionMismatchError
from .geometry import WeightOperator, _check_cosines, _recover_side, weighted_gram
from .spiked import SpikeParams

__all__ = [
    "Partition",
    "make_equispaced_partition",
    "LocalizedResult",
    "localized_denoise",
]


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of ``range(dim)`` by nonempty, sorted index blocks."""

    dim: int
    blocks: tuple

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("partition dim must be positive")
        seen = np.zeros(self.dim, dtype=bool)
        cleaned = []
        for b in self.blocks:
            idx = np.asarray(b, dtype=np.intp)
            if idx.ndim != 1 or idx.size == 0:
                raise ValueError("every partition block must be a nonempty index set")
            if np.any(np.diff(idx) <= 0):
                raise ValueError("partition blocks must be sorted and duplicate-free")
            if idx[0] < 0 or idx[-1] >= self.dim:
                raise ValueError(f"block indices must lie in [0, {self.dim})")
            if np.any(seen[idx]):
                raise ValueError("partition blocks must be disjoint")
            seen[idx] = True
            cleaned.append(idx)
        if not np.all(seen):
            raise ValueError("partition blocks must cover every index")
        object.__setattr__(self, "blocks", tuple(cleaned))

    def __len__(self):
        return len(self.blocks)

    def to_lists(self) -> list:
        return [b.tolist() for b in self.blocks]

    @classmethod
    def from_lists(cls, dim: int, lists) -> "Partition":
        return cls(dim, tuple(np.asarray(sorted(b), dtype=np.intp) for b in lists))

    @classmethod
    def from_json(cls, path, dim: int) -> "Partition":
        return cls.from_lists(dim, io.read_partition_json(path))


def make_equispaced_partition(dim: int, num_blocks: int) -> Partition:
    """Contiguous blocks whose sizes differ by at most one.

    The first ``dim % num_blocks`` blocks take the larger size.
    """
    dim = int(dim)
    num_blocks = int(num_blocks)
    if not 1 <= num_blocks <= dim:
        raise ValueError(f"num_blocks must be in [1, {dim}], got {num_blocks}")
    blocks = np.array_split(np.arange(dim, dtype=np.intp), num_blocks)
    return Partition(dim, tuple(blocks))


@dataclass(frozen=True)
class LocalizedResult(_FactoredResult):
    """Reassembled localized denoiser output, kept as rank-``r`` factors.

    ``left @ right.T`` is the estimate, with ``left = A diag(t)`` and
    ``right = B``.  ``tile_amse[i, j]`` is the estimated weighted error of
    the block pair ``(i, j)``; ``amse_estimate`` is their sum, which
    estimates the total unweighted squared error.
    """

    left: np.ndarray
    right: np.ndarray
    amse_estimate: float
    spikes: SpikeParams
    tile_amse: np.ndarray
    clipped_components: tuple = field(default=())


def _block_sides(vectors: np.ndarray, part: Partition, cos, sin):
    """One side's weighted solve for every block of ``part``.

    Returns ``F`` (``F[b] = vectors[b] @ L_b``), the rows ``vec(E_b)`` and
    ``vec(K_b)``, and the clipped components.
    """
    dim = vectors.shape[0]
    F = np.empty_like(vectors)
    E, K, clipped = [], [], set()
    for idx in part.blocks:
        gram = weighted_gram(vectors, WeightOperator.from_indices(idx, dim))
        _, pop, cross, clip = _recover_side(gram, cos, sin, idx.size / dim)
        L, K_b = _solve_side(gram, cross)
        F[idx] = vectors[idx] @ L
        E.append(pop.ravel())
        K.append(K_b.ravel())
        clipped.update(clip.tolist())
    return F, np.array(E), np.array(K), clipped


def localized_denoise(Y, rows: Partition, cols: Partition,
                      rank: int | None = None, margin: float = 0.0) -> LocalizedResult:
    """Denoise every row-block x column-block tile with its own weights.

    The SVD and detected rank are computed once from ``Y`` and shared by
    all block pairs; only the weighted Grams and the small least-squares
    solve differ per block.  Tile ``(i, j)`` of the output is exactly the
    corresponding tile of that pair's spectral denoiser, and the error
    estimates add across tiles.
    """
    Y = _as_matrix(Y)
    p, n = Y.shape
    if rows.dim != p:
        raise DimensionMismatchError(f"row partition covers {rows.dim} rows, Y has {p}")
    if cols.dim != n:
        raise DimensionMismatchError(f"column partition covers {cols.dim} columns, Y has {n}")

    Y, U, V, spikes = _detect_and_estimate(Y, rank, margin)
    _check_cosines(spikes)
    A, Phi, P, clip_rows = _block_sides(U, rows, spikes.c, spikes.s)
    B, Psi, Q, clip_cols = _block_sides(V, cols, spikes.c_tilde, spikes.s_tilde)
    t = spikes.t
    tt = np.outer(t, t).ravel()
    tile_amse = np.maximum((Phi * tt) @ Psi.T - (P * tt) @ Q.T, 0.0)
    return LocalizedResult(A * t, B, float(tile_amse.sum()), spikes, tile_amse,
                           tuple(sorted(clip_rows | clip_cols)))
