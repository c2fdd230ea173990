"""Synthetic low-rank signals with exact SVD factors.

``gen_signal(kind, p, n, **params)`` draws any of the five kinds, each
with its own keywords.  Every kind returns the signal matrix together
with its singular value decomposition so experiments can measure exact
losses and compare against the recovered spiked-model parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr

from .._blas import abt

__all__ = ["Signal", "gen_signal", "two_block_vectors"]


@dataclass(frozen=True)
class Signal:
    """A signal matrix and its exact SVD factors ``X = U diag(t) V.T``."""

    X: np.ndarray
    U: np.ndarray
    t: np.ndarray
    V: np.ndarray


def two_block_vectors(m: int):
    """The orthonormal pair (constant, sign flip at ``m // 2``) in ``R**m``, ``m >= 2``."""
    if m < 2:
        raise ValueError(f"two_block_vectors needs m >= 2, got m={m}")
    h = m // 2
    const = np.full(m, 1.0 / np.sqrt(m))
    flip = np.where(np.arange(m) < h, np.sqrt((m - h) / h), -np.sqrt(h / (m - h))) / np.sqrt(m)
    return const, flip


def _checkerboard(p, n, f=0.7, cells=8) -> Signal:
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
    sign_r = np.repeat(np.where(np.arange(cells) % 2 == 0, 1.0, -1.0), p // cells)
    sign_c = np.repeat(np.where(np.arange(cells) % 2 == 0, 1.0, -1.0), n // cells)
    u1 = np.full(p, 1.0 / np.sqrt(p))
    v1 = np.full(n, 1.0 / np.sqrt(n))
    if t2 <= 0:
        U = u1[:, None]
        V = v1[:, None]
        t = np.array([t1])
    else:
        U = np.column_stack([u1, sign_r / np.sqrt(p)])
        V = np.column_stack([v1, sign_c / np.sqrt(n)])
        t = np.array([t1, t2])
    return Signal(abt(U * t, V), U, t, V)


def _random_orthonormal(p, n, t, rng=None) -> Signal:
    if rng is None:
        raise ValueError("random_orthonormal needs an rng")
    t = np.asarray(t, dtype=float)
    r = t.size
    if r == 0 or np.any(t <= 0) or np.any(np.diff(t) >= 0) and r > 1:
        raise ValueError("t must be a nonempty, strictly decreasing positive vector")
    U, V = (np.ascontiguousarray(qr(rng.standard_normal((m, r)), mode="economic")[0])
            for m in (p, n))
    return Signal(abt(U * t, V), U, t, V)


def _piecewise_constant(p, n, t, energy_fraction=0.5) -> Signal:
    t = np.asarray(t, dtype=float)
    r = t.size
    if r not in (1, 2):
        raise ValueError("piecewise_constant supports rank 1 or 2")
    rho = float(energy_fraction)
    if not 0.0 < rho < 1.0:
        raise ValueError("energy_fraction must lie strictly between 0 and 1")

    def side(m):
        h = m // 2
        a = np.sqrt(rho / h)
        b = np.sqrt((1.0 - rho) / (m - h))
        first = np.concatenate([np.full(h, a), np.full(m - h, b)])
        if r == 1:
            return first[:, None]
        # Orthogonal complement within the two-block subspace.
        second = np.concatenate([np.full(h, np.sqrt((1.0 - rho) / h)),
                                 np.full(m - h, -np.sqrt(rho / (m - h)))])
        return np.column_stack([first, second])

    U = side(p)
    V = side(n)
    return Signal(abt(U * t, V), U, t, V)


def _block_image(p, n, t) -> Signal:
    t = np.asarray(t, dtype=float)
    r = t.size
    if r < 1:
        raise ValueError("block_image needs at least one singular value")
    if np.any(t <= 0) or (r > 1 and np.any(np.diff(t) >= 0)):
        raise ValueError("t must be strictly decreasing and positive")
    if p < r or n < r:
        raise ValueError("dimensions too small for the requested rank")

    def bands(m):
        edges = np.linspace(0, m, r + 1).astype(int)
        cols = np.zeros((m, r))
        for k in range(r):
            size = edges[k + 1] - edges[k]
            cols[edges[k]:edges[k + 1], k] = 1.0 / np.sqrt(size)
        return cols

    U = bands(p)
    V = bands(n)[::-1]  # anti-diagonal mosaic, keeps columns orthonormal
    return Signal(abt(U * t, V), U, t, V)


def _custom(p, n, t, U, V) -> Signal:
    if U is None or V is None or not len(t):
        raise ValueError("custom signals need U, t and V")
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    t = np.asarray(t, dtype=float)
    r = t.size
    if U.shape != (p, r) or V.shape != (n, r):
        raise ValueError("U and V shapes must match (p, r) and (n, r)")
    for M, name in ((U, "U"), (V, "V")):
        if np.max(np.abs(abt(M.T, M.T) - np.eye(r))) > 1e-8:
            raise ValueError(f"{name} columns must be orthonormal")
    return Signal(abt(U * t, V), U, t, V)


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
    """
    maker = _MAKERS.get(kind)
    if maker is None:
        raise ValueError(f"unknown signal kind {kind!r}")
    return maker(p, n, **params)
