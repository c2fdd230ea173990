"""Localized denoising: tile the matrix with projection weights.

The rows and columns are each partitioned into disjoint blocks.  Every
block pair is denoised with the optimal spectral denoiser for the
coordinate-projection weights selecting that pair, and the output tiles
are reassembled.  One SVD of the observed matrix is shared by all block
pairs, as is the globally detected rank.  For unweighted loss the result
is asymptotically never worse than singular value shrinkage.

The weighted solve, in ``denoise`` with :class:`LocalizedResult`, splits
into a row-side and a column-side factor, never a per-pair one; each side
solves all its blocks' ``r x r`` Grams as one stack, in one call.  The
estimate is a single product ``(A diag(t)) B^T`` and the tile errors a
single ``Phi Psi^T - P Q^T``.  Fine partitions therefore cost about as
much as the shared SVD, and one ``SpectralFit`` serves many partitions.
"""

from __future__ import annotations

import numpy as np

from .denoise import LocalizedResult, spectral_fit
from .geometry import Partition
from .spiked import _check_int

__all__ = [
    "make_equispaced_partition",
    "LocalizedResult",
    "localized_denoise",
]


def make_equispaced_partition(dim: int, num_blocks: int) -> Partition:
    """Contiguous blocks whose sizes differ by at most one.

    The first ``dim % num_blocks`` blocks take the larger size.
    """
    dim = _check_int(dim, "dim")
    num_blocks = _check_int(num_blocks, "num_blocks")
    if not 1 <= num_blocks <= dim:
        raise ValueError(f"num_blocks must be in [1, {dim}], got {num_blocks}")
    blocks = np.array_split(np.arange(dim, dtype=np.intp), num_blocks)
    return Partition(dim, tuple(blocks))


def localized_denoise(Y, rows: Partition, cols: Partition,
                      rank: int | None = None, margin: float = 0.0) -> LocalizedResult:
    """Denoise every row-block x column-block tile with its own weights.

    The SVD and detected rank are computed once from ``Y`` and shared by
    all block pairs; only the weighted Grams and the small least-squares
    solve differ per block, each side solving all its blocks in one call.
    Tile ``(i, j)`` of the output is the corresponding tile of that pair's
    spectral denoiser, and the error estimates add across tiles.
    """
    return spectral_fit(Y, rank, margin).localized(rows, cols)
