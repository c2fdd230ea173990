"""Two-pseudoinverse coefficient and AMSE formulas: the reference for ``denoise``.

These are the expressions ``spectral_denoise.denoise`` used before the
weighted solve was split into one factor per side.  Every call inverts
both weighted Grams.  ``test_denoise.py`` requires the per-side versions
to agree with them.  ``svs_shrink`` is the closed-form shrinkage that
``denoise.svs_shrink`` computed before it became the uniform-weight
``spectral_denoise``.
"""

import numpy as np

from spectral_denoise.denoise import _detect_and_estimate

PINV_RCOND = 1e-8


def sym_pinv(m, rcond=PINV_RCOND):
    if m.size == 0:
        return m.copy()
    vals, vecs = np.linalg.eigh((m + m.T) / 2.0)
    cutoff = rcond * max(np.max(np.abs(vals)), np.finfo(float).tiny)
    inv = np.where(np.abs(vals) > cutoff, 1.0 / np.where(vals == 0, 1.0, vals), 0.0)
    return (vecs * inv) @ vecs.T


def optimal_coefficients(geom):
    if geom.rank == 0:
        return np.zeros((0, 0))
    left = sym_pinv(geom.gram_left)
    right = sym_pinv(geom.gram_right)
    return left @ geom.cross_left @ np.diag(geom.t) @ geom.cross_right.T @ right


def amse_raw(geom):
    if geom.rank == 0:
        return 0.0
    t = np.diag(geom.t)
    left = sym_pinv(geom.gram_left)
    right = sym_pinv(geom.gram_right)
    inner = (geom.pop_gram_left @ t @ geom.pop_gram_right
             - geom.cross_left.T @ left @ geom.cross_left @ t
             @ geom.cross_right.T @ right @ geom.cross_right)
    return float(np.sum(inner * t))


def svs_shrink(Y, rank=None, margin=0.0):
    """Closed-form shrinkage: ``(coefficients, left, right, amse)``."""
    _, U, V, spikes = _detect_and_estimate(Y, rank, margin)
    values = spikes.t * spikes.c * spikes.c_tilde
    amse = float(np.sum(spikes.t**2 * (1.0 - spikes.c**2 * spikes.c_tilde**2)))
    return np.diag(values), U * values, V, amse
