"""Synthetic low-rank signals with exact SVD factors.

``gen_signal(kind, p, n, **params)`` draws any of the five kinds, each
with its own keywords.  A kind's maker returns the SVD factors
``(U, t, V)``; ``gen_signal`` checks them once and keeps them, so
experiments can measure exact losses against the recovered spiked-model
parameters without forming the ``p x n`` matrix ``X``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr

from .._blas import abt
from ..spiked import _check_int

__all__ = ["Signal", "gen_signal", "two_block_vectors"]


@dataclass(frozen=True)
class Signal:
    """A signal's exact SVD factors; the matrix ``X = U diag(t) V.T`` is formed on access."""

    U: np.ndarray
    t: np.ndarray
    V: np.ndarray

    @property
    def X(self) -> np.ndarray:
        return abt(self.U * self.t, self.V)


def two_block_vectors(m: int):
    """The orthonormal pair (constant, sign flip at ``m // 2``) in ``R**m``, ``m >= 2``."""
    if m < 2:
        raise ValueError(f"two_block_vectors needs m >= 2, got m={m}")
    h = m // 2
    const = np.full(m, 1.0 / np.sqrt(m))
    flip = np.where(np.arange(m) < h, np.sqrt((m - h) / h), -np.sqrt(h / (m - h))) / np.sqrt(m)
    return const, flip


def _checkerboard(p, n, f=0.7, cells=8):
    if not 0.5 <= f <= 1.0:
        raise ValueError(f"light-square energy fraction must be in [1/2, 1], got {f}")
    if cells < 2 or cells % 2:
        raise ValueError("cells must be an even number of cells per side, >= 2")
    if p % cells or n % cells:
        raise ValueError(f"p and n must be divisible by cells={cells}")
    # Unit total energy split as f (light) / 1-f (dark) over equal cell counts
    # pins both values; the mean carries the first component, the alternation
    # the second.
    t1 = (np.sqrt(f) + np.sqrt(1.0 - f)) / np.sqrt(2.0)
    t2 = (np.sqrt(f) - np.sqrt(1.0 - f)) / np.sqrt(2.0)
    sign = np.tile([1.0, -1.0], cells // 2)
    U, V = (np.column_stack([np.full(m, 1.0), np.repeat(sign, m // cells)]) / np.sqrt(m)
            for m in (p, n))
    r = 1 if t2 <= 0 else 2
    return U[:, :r], np.array([t1, t2])[:r], V[:, :r]


def _random_orthonormal(p, n, t, rng=None):
    if rng is None:
        raise ValueError("random_orthonormal needs an rng")
    U, V = (np.ascontiguousarray(qr(rng.standard_normal((m, np.size(t))), mode="economic")[0])
            for m in (p, n))
    return U, t, V


def _piecewise_constant(p, n, t, energy_fraction=0.5):
    r = np.size(t)
    if r not in (1, 2):
        raise ValueError("piecewise_constant supports rank 1 or 2")
    rho = float(energy_fraction)
    if not 0.0 < rho < 1.0:
        raise ValueError("energy_fraction must lie strictly between 0 and 1")

    def side(m):
        if m < 2:
            raise ValueError(f"piecewise_constant needs p, n >= 2, got {m}")
        h = m // 2
        first = np.concatenate([np.full(h, np.sqrt(rho / h)),
                                np.full(m - h, np.sqrt((1.0 - rho) / (m - h)))])
        # Orthogonal complement within the two-block subspace.
        second = np.concatenate([np.full(h, np.sqrt((1.0 - rho) / h)),
                                 np.full(m - h, -np.sqrt(rho / (m - h)))])
        return np.column_stack([first, second])[:, :r]

    return side(p), t, side(n)


def _block_image(p, n, t):
    r = np.size(t)
    if p < r or n < r:
        raise ValueError("dimensions too small for the requested rank")

    def bands(m):
        edges = np.linspace(0, m, r + 1).astype(int)
        cols = np.zeros((m, r))
        for k in range(r):
            cols[edges[k]:edges[k + 1], k] = 1.0 / np.sqrt(edges[k + 1] - edges[k])
        return cols

    return bands(p), t, bands(n)[::-1]  # anti-diagonal mosaic, columns stay orthonormal


def _custom(p, n, t, U, V):
    if U is None or V is None or not np.size(t):
        raise ValueError("custom signals need U, t and V")
    return U, t, V


_MAKERS = {"checkerboard": _checkerboard, "random_orthonormal": _random_orthonormal,
           "piecewise_constant": _piecewise_constant, "block_image": _block_image,
           "custom": _custom}


def gen_signal(kind: str, p: int, n: int, **params) -> Signal:
    """A ``p x n`` signal of the named kind and its exact SVD factors.

    ``params`` are the kind's own keywords; one it does not read raises ``TypeError``.

    * ``checkerboard(f=0.7, cells=8)`` -- two-valued alternating cells of unit Frobenius
      norm; the light squares carry energy fraction ``f`` (``f = 1/2`` is a constant,
      rank-1 matrix, anything larger rank 2).  ``p`` and ``n`` divisible by ``cells``.
    * ``random_orthonormal(t, rng)`` -- Haar-random orthonormal factors drawn from the
      generator ``rng``, singular values ``t``.
    * ``piecewise_constant(t, energy_fraction=0.5)`` -- rank 1 or 2, vectors constant on
      the two coordinate halves with ``energy_fraction`` of each vector's energy in the
      first; the second component is the complement inside the two-block subspace.
    * ``block_image(t)`` -- rank-``len(t)`` mosaic of disjoint row/column bands, a
      logo-like image whose singular vectors are strongly localized.
    * ``custom(t, U, V)`` -- explicit orthonormal ``U``, ``V`` and values ``t``.

    Positive integers ``p``, ``n``; a nonempty, finite, positive, nonincreasing ``t`` (ties
    allowed); ``U`` ``p x r`` and ``V`` ``n x r`` orthonormal to ``1e-8``, else ``ValueError``.
    """
    maker = _MAKERS.get(kind)
    if maker is None:
        raise ValueError(f"unknown signal kind {kind!r}")
    for m, name in ((p, "p"), (n, "n")):
        if _check_int(m, f"{kind} signal {name}") < 1:
            raise ValueError(f"{kind} signal {name} must be positive, got {m}")
    U, t, V = (np.asarray(a, dtype=float) for a in maker(p, n, **params))
    r = t.size
    if t.ndim != 1 or not (r and np.all(np.isfinite(t) & (t > 0)) and np.all(np.diff(t) <= 0)):
        raise ValueError(f"{kind} signal t must be a nonempty, finite, positive and "
                         f"nonincreasing vector, got {t.tolist()}")
    for M, m, name in ((U, p, "U"), (V, n, "V")):
        if M.shape != (m, r):
            raise ValueError(f"{kind} signal {name} must be {m} x {r}, got shape {M.shape}")
        if not np.max(np.abs(abt(M.T, M.T) - np.eye(r))) <= 1e-8:
            raise ValueError(f"{kind} signal {name} columns must be orthonormal")
    return Signal(U, t, V)
