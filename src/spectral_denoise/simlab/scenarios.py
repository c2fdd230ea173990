"""The registered Monte Carlo scenarios.

Each scenario exposes defaults, a grouping of its grid columns, and a
``replicate(params, seed)`` function returning one metrics row per grid
point.  The defaults declare every parameter a scenario reads and are
the only place it gets its default value.  All randomness inside a
replicate flows from the single seed it is handed, so replicates are
independent jobs and reruns are bitwise reproducible.  Each grid point
draws its signal with one ``gen_signal`` call and its noise with one
``gen_noise`` call, which takes the config's ``dist`` value as it stands.
"""

from __future__ import annotations

import numpy as np

from ..applications import (NoiseCovariances, SamplingPattern,
                            estimate_noise_covariances, missing_data_denoise,
                            shrink_submatrix_baseline, whiten_denoise)
from ..denoise import spectral_denoise, spectral_fit, svs_shrink
from ..geometry import Partition, WeightOperator
from ..localized import make_equispaced_partition
from .._blas import abt, norm
from .._svd import top_svd
from ..spiked import _check_int, cosines
from .metrics import relative_error, weighted_loss
from .noise import derive_seed, gen_noise, make_rng
from .signals import gen_signal, two_block_vectors

__all__ = ["SCENARIOS", "offset_partition"]


def offset_partition(dim: int, num_blocks: int, offset: int) -> Partition:
    """Equispaced partition whose block boundaries are shifted by ``offset``.

    A nonzero offset makes one block wrap around, which is how block /
    cell misalignment is exercised.
    """
    base = make_equispaced_partition(dim, num_blocks)
    offset = _check_int(offset, "offset", high=None) % dim
    if offset == 0:
        return base
    rolled = [(np.sort((b + offset) % dim)) for b in base.blocks]
    return Partition(dim, tuple(rolled))


# ---------------------------------------------------------------------------
# localized-checkerboard
# ---------------------------------------------------------------------------

def _localized_checkerboard_replicate(params: dict, seed: int) -> list[dict]:
    n = params["n"]
    p = int(round(params["gamma"] * n))
    f = float(params["f"])
    sig = gen_signal("checkerboard", p, n, f=f, cells=params["cells"])
    sigma = float(params["noise_sd_scale"]) / np.sqrt(n)

    rows = offset_partition(p, params["row_blocks"], params["row_offset"])
    cols = offset_partition(n, params["col_blocks"], params["col_offset"])

    Y = gen_noise(params["dist"], p, n, seed, sigma)
    Y += sig.X
    model = 1.0 / (sigma * np.sqrt(n))  # rescale so noise variance is 1/n
    Y *= model

    fit = spectral_fit(Y)
    shr = fit.denoise()
    loc = fit.localized(rows, cols)
    X = (sig.U * sig.t, sig.V)
    X_shr = (shr.left / model, shr.right)
    X_loc = (loc.left / model, loc.right)
    return [{
        "f": f,
        "rel_err_shrink": relative_error(X_shr, X),
        "rel_err_localized": relative_error(X_loc, X),
        "loss_shrink": weighted_loss(X_shr, X),
        "loss_localized": weighted_loss(X_loc, X),
        "amse_shrink": shr.amse_estimate / model**2,
        "amse_localized": loc.amse_estimate / model**2,
        "signal_energy": float(np.sum(sig.t**2)),
        "rank_detected": shr.rank,
    }]


# ---------------------------------------------------------------------------
# submatrix
# ---------------------------------------------------------------------------

def _submatrix_replicate(params: dict, seed: int) -> list[dict]:
    p, n = params["p"], params["n"]
    gamma = p / n
    t = gamma**0.25 + float(params["t_offset"])
    rows_idx = np.arange(p // 2)
    cols_idx = np.arange(n // 2)
    out = []
    for k, f in enumerate(params["f_grid"]):
        sig = gen_signal("piecewise_constant", p, n, t=(t,),
                         energy_fraction=np.sqrt(f))
        X0 = (sig.U[rows_idx] * sig.t, sig.V[cols_idx])
        Y = gen_noise(params["dist"], p, n, derive_seed(seed, k))
        Y += sig.X

        fit = spectral_fit(Y)
        weighted = fit.submatrix(rows_idx, cols_idx)
        baseline = shrink_submatrix_baseline(Y, rows_idx, cols_idx)
        shr = fit.denoise()
        whole = (shr.left[rows_idx], shr.right[cols_idx])
        out.append({
            "f": float(f),
            "rel_err_weighted": relative_error((weighted.left, weighted.right), X0),
            "rel_err_sub_baseline": relative_error((baseline.left, baseline.right), X0),
            "rel_err_global_shrink": relative_error(whole, X0),
            "baseline_rank": baseline.denoise.rank,
        })
    return out


# ---------------------------------------------------------------------------
# heteroscedastic
# ---------------------------------------------------------------------------

def _heteroscedastic_replicate(params: dict, seed: int) -> list[dict]:
    p, n = params["p"], params["n"]
    gamma = p / n
    t = tuple(gamma**0.25 + 0.5 + k for k in range(params["rank"]))[::-1]
    out = []
    for k, kappa in enumerate(params["kappa_grid"]):
        rng = make_rng(derive_seed(seed, 2 * k))
        sig = gen_signal("random_orthonormal", p, n, t=t, rng=rng)
        cov = NoiseCovariances(np.linspace(1.0 / kappa, 1.0, p),
                               np.linspace(1.0 / kappa, 1.0, n))
        Y = gen_noise(params["dist"], p, n, derive_seed(seed, 2 * k + 1))
        Y *= np.sqrt(cov.row_cov)[:, None]
        Y *= np.sqrt(cov.col_cov)
        Y += sig.X

        oracle = whiten_denoise(Y, cov)
        estimated = whiten_denoise(Y, estimate_noise_covariances(Y))
        # Homoscedastic baseline: shrinkage after matching the average
        # noise variance, the best a white-noise model can do here.
        ts, _, tt, _ = cov.trace_stats()
        s = np.sqrt(ts * tt)
        Y /= s  # Y's last use
        plain = svs_shrink(Y)
        X = (sig.U * sig.t, sig.V)
        out.append({
            "kappa": float(kappa),
            "rel_err_whiten_oracle": relative_error((oracle.left, oracle.right), X),
            "rel_err_whiten_estimated": relative_error((estimated.left, estimated.right), X),
            "rel_err_shrink": relative_error((plain.left * s, plain.right), X),
        })
    return out


# ---------------------------------------------------------------------------
# missing-data
# ---------------------------------------------------------------------------

def _missing_data_replicate(params: dict, seed: int) -> list[dict]:
    p, n = params["p"], params["n"]
    gamma = p / n
    t = tuple(np.sqrt(np.sqrt(gamma) + 200.0 * k) for k in range(params["rank"], 0, -1))
    q_row = np.linspace(*params["q_row_range"], p)
    q_col = np.linspace(*params["q_col_range"], n)
    out = []
    for k, sigma in enumerate(params["sigma_grid"]):
        rng = make_rng(derive_seed(seed, 3 * k))
        sig = gen_signal("random_orthonormal", p, n, t=t, rng=rng)
        Y = gen_noise(params["dist"], p, n, derive_seed(seed, 3 * k + 1), sigma)
        Y += sig.X
        Y /= sigma  # unit-variance convention: divide by sigma, scale back
        mask_rng = make_rng(derive_seed(seed, 3 * k + 2))
        # 64-row blocks hold no p x n uniforms; the draws match one p x n call's.
        mask = np.vstack([mask_rng.random((q.size, n)) < np.outer(q, q_col)
                          for q in np.split(q_row, range(64, p, 64))])
        pattern = SamplingPattern.from_dense(Y, mask, q_row, q_col)
        res = missing_data_denoise(pattern, margin=float(params["margin"]))
        out.append({
            "sigma": float(sigma),
            "rel_err": relative_error((sigma * res.left, res.right), (sig.U * sig.t, sig.V)),
            "rank_detected": res.denoise.rank,
        })
    return out


# ---------------------------------------------------------------------------
# weighted-inner-products
# ---------------------------------------------------------------------------

def _two_block_signal(p: int, n: int, gamma: float, offsets=(3.0, 2.0)):
    """Rank-2 constant/sign-flip design; larger value on the flip pair."""
    t = np.array([gamma**0.25 + offsets[0], gamma**0.25 + offsets[1]])
    U, V = (np.column_stack(two_block_vectors(m)[::-1]) for m in (p, n))  # flip, const
    return gen_signal("custom", p, n, t=t, U=U, V=V)


def _weighted_inner_products_replicate(params: dict, seed: int) -> list[dict]:
    gamma = float(params["gamma"])
    frac = float(params["omega_fraction"])
    if not 0 < frac <= 1 or any(round(frac * round(gamma * n)) < 1
                                for n in params["n_grid"]):
        raise ValueError("weighted-inner-products param 'omega_fraction' must be in (0, 1] "
                         f"and keep at least one row, got {frac!r}")
    out = []
    k = 0
    for n in params["n_grid"]:
        p = int(round(gamma * n))
        sig = _two_block_signal(p, n, gamma)
        keep = int(round(frac * p))
        mu = keep / p
        Uk = sig.U[:keep]
        pop_gram = abt(Uk.T, Uk.T)
        c, ct, s, st = cosines(sig.t, gamma)
        gram_pred = np.outer(c, c) * pop_gram
        np.fill_diagonal(gram_pred, c**2 * np.diag(pop_gram) + s**2 * mu)
        cross_pred = c[:, None] * pop_gram
        for dist in params["dists"]:
            Y = gen_noise(dist, p, n, derive_seed(seed, k))
            k += 1
            Y += sig.X
            U_emp, _, _, _ = top_svd(Y, 2)
            W = U_emp[:keep]
            gram_emp = abt(W.T, W.T)
            cross_emp = abt(W.T, Uk.T)
            out.append({
                "n": n,
                "dist": str(dist),
                "rel_err_cross": norm(np.abs(cross_emp) - np.abs(cross_pred)) / norm(cross_pred),
                "rel_err_gram": norm(np.abs(gram_emp) - np.abs(gram_pred)) / norm(gram_pred),
            })
    return out


# ---------------------------------------------------------------------------
# rank-estimation
# ---------------------------------------------------------------------------

def _rank_estimation_replicate(params: dict, seed: int) -> list[dict]:
    p, n = params["p"], params["n"]
    gamma = p / n
    sig = _two_block_signal(p, n, gamma, offsets=(2.0, 1.0))
    oracle_rank = sig.t.size
    omega = WeightOperator.from_diagonal(np.linspace(1.0 / p, 1.0, p))
    pi = WeightOperator.from_diagonal(np.linspace(1.0 / p, 1.0 / gamma, n))
    out = []
    for k, dist in enumerate(params["dists"]):
        Y = gen_noise(dist, p, n, derive_seed(seed, k))
        Y += sig.X
        res_oracle = spectral_denoise(Y, omega, pi, rank=oracle_rank)
        res_naive = spectral_fit(Y).denoise(omega, pi)
        wrel = lambda res: relative_error((res.left, res.right), (sig.U * sig.t, sig.V),
                                          omega=omega, pi=pi)
        out.append({
            "dist": str(dist),
            "naive_rank": res_naive.rank,
            "rel_err_oracle": wrel(res_oracle),
            "rel_err_naive": wrel(res_naive),
        })
    return out


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _scale_localized(params: dict, scale: float) -> dict:
    quantum = params["cells"] * max(params["row_blocks"], params["col_blocks"])
    n = max(quantum, int(round(params["n"] * scale / quantum)) * quantum)
    return dict(params, n=n)


def _scale_pn(params: dict, scale: float) -> dict:
    n = max(8, int(round(params["n"] * scale)))
    p = max(4, int(round(params["p"] * scale)))
    return dict(params, p=p, n=n)


def _scale_n_grid(params: dict, scale: float) -> dict:
    grid = [max(8, int(round(v * scale))) for v in params["n_grid"]]
    return dict(params, n_grid=grid)


class Scenario:
    def __init__(self, name, replicate, defaults, group_keys, apply_scale=None):
        self.name = name
        self.replicate = replicate
        self.defaults = defaults
        self.group_keys = group_keys
        self.apply_scale = apply_scale or (lambda params, scale: params)


SCENARIOS = {
    # One partition block per checkerboard cell: inside a block both signal
    # components restrict to the same constant direction, and the per-tile
    # least squares pools them.  Blocks spanning two cells cancel the cross
    # inner products and the localized gain collapses to shrinkage.
    "localized-checkerboard": Scenario(
        "localized-checkerboard", _localized_checkerboard_replicate,
        {"n": 800, "gamma": 1.0, "f": 0.7, "cells": 4, "row_blocks": 4,
         "col_blocks": 4, "row_offset": 0, "col_offset": 0,
         "noise_sd_scale": 0.1, "dist": "gaussian"},
        ["f"], _scale_localized),
    "submatrix": Scenario(
        "submatrix", _submatrix_replicate,
        {"p": 500, "n": 1000, "t_offset": 0.5,
         "f_grid": [0.05, 0.25, 0.95], "dist": "gaussian"},
        ["f"], _scale_pn),
    "heteroscedastic": Scenario(
        "heteroscedastic", _heteroscedastic_replicate,
        {"p": 500, "n": 1000, "rank": 5, "kappa_grid": [1.0, 10.0],
         "dist": "gaussian"},
        ["kappa"], _scale_pn),
    "missing-data": Scenario(
        "missing-data", _missing_data_replicate,
        {"p": 200, "n": 400, "rank": 5, "sigma_grid": [0.125, 0.25, 0.5],
         "q_row_range": (0.3, 0.7), "q_col_range": (0.3, 0.7),
         "margin": 0.0, "dist": "gaussian"},
        ["sigma"], _scale_pn),
    "weighted-inner-products": Scenario(
        "weighted-inner-products", _weighted_inner_products_replicate,
        {"gamma": 2.0, "n_grid": [500], "dists": ["gaussian"],
         "omega_fraction": 0.75},
        ["n", "dist"], _scale_n_grid),
    "rank-estimation": Scenario(
        "rank-estimation", _rank_estimation_replicate,
        {"p": 300, "n": 600, "dists": ["gaussian"]},
        ["dist"], _scale_pn),
}
