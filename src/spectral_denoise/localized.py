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

from dataclasses import dataclass

import numpy as np

from . import io
from .denoise import LocalizedResult, spectral_fit
from .geometry import _index_set
from .spiked import _check_int

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
        dim = _check_int(self.dim, "dim")
        if dim < 1:
            raise ValueError(f"partition dim must be positive, got {dim}")
        if not isinstance(self.blocks, (tuple, list)):
            raise ValueError(f"partition blocks must be a sequence, got {self.blocks!r}")
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
        return cls(dim, tuple(np.sort(_index_set(b, dim, "partition block")) for b in lists))

    @classmethod
    def from_json(cls, path, dim: int) -> "Partition":
        """Read a partition file; an invalid partition raises ``MatrixFileError``."""
        lists = io.read_partition_json(path)
        try:
            return cls.from_lists(dim, lists)
        except ValueError as exc:
            raise io.MatrixFileError(f"{path}: {exc}") from exc


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
