"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance is pinned here, not configured elsewhere.  Criteria that
drive Monte Carlo experiments run them through the public runner so the
figures in the reports are the figures being judged.
"""

import time

import numpy as np
import pytest

from spectral_denoise import (NoiseCovariances, SamplingPattern, WeightOperator,
                              backproject, cosines, forward_singular_value,
                              invert_singular_value, missing_data_denoise,
                              optimal_coefficients, snr_gain_tau,
                              spectral_denoise, svs_shrink)
from spectral_denoise.geometry import recover_population_geometry
from spectral_denoise.simlab import run_experiment
from test_denoise import brute_force_coefficients, random_geometry
from test_geometry import spikes_from_t

pytestmark = pytest.mark.acceptance


def _verdict(cid: str, checks) -> None:
    ok = all(passed for _, passed, _ in checks)
    details = "; ".join(f"{name}: {detail}" for name, _, detail in checks)
    print(f"ACCEPTANCE {cid} {'PASS' if ok else 'FAIL'} -- {details}")
    failed = [f"{name} ({detail})" for name, passed, detail in checks if not passed]
    assert not failed, f"criterion {cid} failed: {failed}"


def test_criterion_1_closed_forms():
    start = time.perf_counter()
    checks = []

    # Roundtrip between population and observed singular values.
    worst = 0.0
    for g in (0.1, 0.5, 1.0, 2.0, 4.0):
        t = np.geomspace(g**0.25 * 1.001, 100.0, 120)
        back = invert_singular_value(forward_singular_value(t, g), g)
        worst = max(worst, float(np.max(np.abs(back - t) / t)))
    checks.append(("roundtrip<=1e-10", worst <= 1e-10, f"max={worst:.2e}"))

    # Cosine normalization.
    worst = 0.0
    for g in (0.1, 0.5, 1.0, 2.0, 4.0):
        t = np.geomspace(g**0.25 * 0.5, 50.0, 150)
        c, ct, s, st = cosines(t, g)
        worst = max(worst, float(np.max(np.abs(c**2 + s**2 - 1))),
                    float(np.max(np.abs(ct**2 + st**2 - 1))))
    checks.append(("c2+s2=1<=1e-14", worst <= 1e-14, f"max={worst:.2e}"))

    # Jensen bound for the whitening SNR factor.
    rng = np.random.default_rng(0xACCE)
    taus = []
    for _ in range(100):
        s = rng.uniform(0.2, 3.0, rng.integers(2, 15))
        t = rng.uniform(0.2, 3.0, rng.integers(2, 15))
        taus.append(snr_gain_tau(NoiseCovariances(s, t)))
    tau_min = min(taus)
    checks.append(("tau>=1", tau_min >= 1.0 - 1e-12, f"min={tau_min:.6f}"))

    # Uniform weights reduce the weighted denoiser to shrinkage.
    worst = 0.0
    for seed in (1, 2, 3):
        r2 = np.random.default_rng(seed)
        p, n = 100, 150
        U, _ = np.linalg.qr(r2.standard_normal((p, 2)))
        V, _ = np.linalg.qr(r2.standard_normal((n, 2)))
        Y = (U * [4.0, 2.5]) @ V.T + r2.standard_normal((p, n)) / np.sqrt(n)
        a = spectral_denoise(Y).estimate
        b = svs_shrink(Y).estimate
        worst = max(worst, np.linalg.norm(a - b) / np.linalg.norm(b))
    checks.append(("identity-weights==shrinkage<=1e-8", worst <= 1e-8,
                   f"max={worst:.2e}"))

    # Diagonal geometry: the full least-squares solution is the closed-form
    # diagonal denoiser.
    spikes = spikes_from_t([3.5, 2.2], 1.0)
    rng2 = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        d = rng2.uniform(0.5, 1.5, 2)
        dt = rng2.uniform(0.5, 1.5, 2)
        mu, nu = rng2.uniform(0.4, 1.2, 2)
        geom = recover_population_geometry(np.diag(d), np.diag(dt), spikes, mu, nu)
        coeff = optimal_coefficients(geom)
        c, ct, s, st = spikes.c, spikes.c_tilde, spikes.s, spikes.s_tilde
        eta = (geom.alpha / (c**2 * geom.alpha + s**2 * mu)
               * geom.beta / (ct**2 * geom.beta + st**2 * nu))
        diag_vals = spikes.t * c * ct * eta
        worst = max(worst, float(np.max(np.abs(coeff - np.diag(diag_vals)))))
    checks.append(("diagonal==full<=1e-10", worst <= 1e-10, f"max={worst:.2e}"))

    # Backprojection is the adjoint of sampling.
    rng3 = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        mask = rng3.random((15, 18)) < 0.5
        mask[0, 0] = True
        A = rng3.standard_normal((15, 18))
        y = rng3.standard_normal(int(mask.sum()))
        pat = SamplingPattern(np.full(15, 0.5), np.full(18, 0.5), *np.nonzero(mask), y)
        worst = max(worst, abs(float(A[mask] @ y) - float(np.sum(A * backproject(pat)))))
    checks.append(("adjoint<=1e-12", worst <= 1e-12, f"max={worst:.2e}"))

    elapsed = time.perf_counter() - start
    checks.append(("runtime<1s", elapsed < 1.0, f"{elapsed:.2f}s"))
    _verdict("1 closed-form suite", checks)


def test_criterion_2_least_squares_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(0xB00C)
    worst = 0.0
    for i in range(50):
        r = int(rng.integers(1, 5))
        geom = random_geometry(rng, r)
        ours = optimal_coefficients(geom)
        oracle = brute_force_coefficients(geom)
        worst = max(worst, np.linalg.norm(ours - oracle)
                    / max(np.linalg.norm(oracle), 1e-30))
    elapsed = time.perf_counter() - start
    _verdict("2 least-squares oracle", [
        ("matches-normal-equations<=1e-8", worst <= 1e-8, f"max={worst:.2e}"),
        ("runtime<5s", elapsed < 5.0, f"{elapsed:.2f}s"),
    ])


@pytest.mark.slow
def test_criterion_3_weighted_inner_product_tables():
    small = run_experiment({
        "scenario": "weighted-inner-products", "seed": 20250808,
        "replicates": 200,
        "params": {"n_grid": [500], "dists": ["gaussian", "rademacher",
                                              "t10", "t3"]},
    })
    big = run_experiment({
        "scenario": "weighted-inner-products", "seed": 20250809,
        "replicates": 200,
        "params": {"n_grid": [2000], "dists": ["gaussian"]},
    })
    gauss = small.group_metrics(n=500, dist="gaussian")
    relC = gauss["rel_err_cross"]["mean"]
    relD = gauss["rel_err_gram"]["mean"]
    checks = [
        ("gaussian cross in 2.956e-2 +-20%",
         0.8 * 2.956e-2 <= relC <= 1.2 * 2.956e-2, f"{relC:.4e}"),
        ("gaussian gram in 1.991e-2 +-20%",
         0.8 * 1.991e-2 <= relD <= 1.2 * 1.991e-2, f"{relD:.4e}"),
    ]
    for dist in ("rademacher", "t10"):
        m = small.group_metrics(n=500, dist=dist)["rel_err_cross"]["mean"]
        checks.append((f"{dist} within +-25% of gaussian",
                       0.75 * relC <= m <= 1.25 * relC, f"{m:.4e}"))
    heavy = small.group_metrics(n=500, dist="t3")["rel_err_cross"]["mean"]
    checks.append(("t3 >= 5x gaussian", heavy >= 5.0 * relC, f"{heavy:.4e}"))
    rate = big.group_metrics(n=2000, dist="gaussian")["rel_err_cross"]["mean"]
    checks.append(("n=2000 within +-25% of half the n=500 mean",
                   0.75 * relC / 2 <= rate <= 1.25 * relC / 2, f"{rate:.4e}"))
    _verdict("3 weighted inner products (desk-scale tables)", checks)


@pytest.mark.slow
def test_criterion_4_localized_checkerboard():
    report = run_experiment({
        "scenario": "localized-checkerboard", "seed": 20250810,
        "replicates": 20,
        "params": {"n": 800, "f": 0.7},
    })
    m = report.group_metrics(f=0.7)
    loc = m["rel_err_localized"]["mean"]
    shr = m["rel_err_shrink"]["mean"]
    slack_ok = all(row["loss_localized"] <= row["loss_shrink"]
                   + 0.02 * row["signal_energy"] for row in report.rows)
    # The scenario default aligns one partition block with one checkerboard
    # cell, the configuration under which the localized gain exists at all.
    _verdict("4 localized checkerboard", [
        ("localized in 1.40e-1 +-15%",
         0.85 * 1.40e-1 <= loc <= 1.15 * 1.40e-1, f"{loc:.4e}"),
        ("shrinkage in 1.92e-1 +-15%",
         0.85 * 1.92e-1 <= shr <= 1.15 * 1.92e-1, f"{shr:.4e}"),
        ("per-replicate dominance with 2% slack", slack_ok, str(slack_ok)),
    ])


@pytest.mark.slow
def test_criterion_5_submatrix_crossover():
    report = run_experiment({
        "scenario": "submatrix", "seed": 20250811, "replicates": 20,
        "params": {"f_grid": [0.05, 0.25, 0.95]},
    })
    low = report.group_metrics(f=0.05)
    mid = report.group_metrics(f=0.25)
    high = report.group_metrics(f=0.95)
    base_low = low["rel_err_sub_baseline"]["mean"]
    ours_low = low["rel_err_weighted"]["mean"]
    agree = abs(mid["rel_err_weighted"]["mean"] - mid["rel_err_global_shrink"]["mean"]) \
        / mid["rel_err_global_shrink"]["mean"]
    flip = (high["rel_err_sub_baseline"]["mean"] < high["rel_err_weighted"]["mean"])
    _verdict("5 submatrix crossover", [
        ("f=0.05 baseline >= 0.98", base_low >= 0.98, f"{base_low:.4f}"),
        ("f=0.05 weighted < 0.95", ours_low < 0.95, f"{ours_low:.4f}"),
        ("f=0.25 whole-matrix methods within 3%", agree <= 0.03, f"{agree:.4f}"),
        ("f=0.95 baseline wins", flip,
         f"base={high['rel_err_sub_baseline']['mean']:.4f} "
         f"ours={high['rel_err_weighted']['mean']:.4f}"),
    ])


@pytest.mark.slow
def test_criterion_6_whitening_gain():
    report = run_experiment({
        "scenario": "heteroscedastic", "seed": 20250812, "replicates": 20,
        "params": {"p": 500, "n": 1000, "kappa_grid": [1.0, 10.0]},
    })
    flat = report.group_metrics(kappa=1.0)
    agree = abs(flat["rel_err_whiten_oracle"]["mean"]
                - flat["rel_err_shrink"]["mean"]) / flat["rel_err_shrink"]["mean"]
    rows10 = [r for r in report.rows if r["kappa"] == 10.0]
    gaps = np.array([r["rel_err_shrink"] - r["rel_err_whiten_oracle"]
                     for r in rows10])
    se = gaps.std(ddof=1) / np.sqrt(len(gaps))
    _verdict("6 whitening gain", [
        ("kappa=1 whitened==unwhitened within 2%", agree <= 0.02, f"{agree:.4f}"),
        ("kappa=10 oracle beats unwhitened by > 2 SE",
         gaps.mean() > 2 * se, f"gap={gaps.mean():.4f} se={se:.4f}"),
    ])


@pytest.mark.slow
def test_criterion_7_missing_data_sanity():
    # Full-sampling reduction, exact to 1e-10.
    rng = np.random.default_rng(0xD1CE)
    p, n = 150, 200
    u = rng.standard_normal(p); u /= np.linalg.norm(u)
    v = rng.standard_normal(n); v /= np.linalg.norm(v)
    full = 3.0 * np.sqrt(n) * np.outer(u, v) + rng.standard_normal((p, n))
    pat = SamplingPattern.from_dense(full, np.ones((p, n), dtype=bool),
                                     np.ones(p), np.ones(n))
    ref = np.sqrt(n) * svs_shrink(full / np.sqrt(n)).estimate
    reduction = np.linalg.norm(missing_data_denoise(pat).estimate - ref) \
        / np.linalg.norm(ref)

    # Backprojection operator-norm discrepancy strictly decreases with n.
    from spectral_denoise._svd import top_svd
    means = []
    for n2 in (400, 1600):
        p2 = n2 // 2
        q_r = np.linspace(0.3, 0.7, p2)
        q_c = np.linspace(0.3, 0.7, n2)
        vals = []
        for _ in range(20):
            uu = rng.standard_normal(p2); uu /= np.linalg.norm(uu)
            vv = rng.standard_normal(n2); vv /= np.linalg.norm(vv)
            X = 3.0 * np.outer(uu, vv)
            mask = rng.random((p2, n2)) < np.outer(q_r, q_c)
            diff = np.where(mask, X, 0.0) - q_r[:, None] * X * q_c[None, :]
            vals.append(top_svd(diff, 1)[1][0])
        means.append(float(np.mean(vals)))

    # Large-noise regime of the sampling study: error beats the zero
    # estimate while components are still detected.
    report = run_experiment({
        "scenario": "missing-data", "seed": 20250813, "replicates": 20,
        "params": {"sigma_grid": [0.5]},
    })
    m = report.group_metrics(sigma=0.5)
    _verdict("7 missing-data sanity", [
        ("full-sampling reduction<=1e-10", reduction <= 1e-10, f"{reduction:.2e}"),
        ("backprojection op-norm decreases", means[1] < means[0],
         f"{means[0]:.4f}->{means[1]:.4f}"),
        ("large-sigma error < 1", m["rel_err"]["mean"] < 1.0,
         f"{m['rel_err']['mean']:.4f}"),
        ("signal detectable", m["rank_detected"]["mean"] >= 1.0,
         f"mean rank={m['rank_detected']['mean']:.2f}"),
    ])


@pytest.mark.slow
def test_criterion_8_rank_estimation_table():
    report = run_experiment({
        "scenario": "rank-estimation", "seed": 20250814, "replicates": 200,
        "params": {"p": 300, "n": 600, "dists": ["gaussian"]},
    })
    m = report.group_metrics(dist="gaussian")
    mean_rank = m["naive_rank"]["mean"]
    max_rank = m["naive_rank"]["max"]
    gap = abs(m["rel_err_naive"]["mean"] - m["rel_err_oracle"]["mean"])
    _verdict("8 rank estimation (desk-scale table)", [
        ("mean naive rank in [2.0, 2.2]", 2.0 <= mean_rank <= 2.2,
         f"{mean_rank:.3f}"),
        ("max naive rank <= 3", max_rank <= 3, f"{max_rank:.0f}"),
        ("|naive - oracle| error <= 1e-2", gap <= 1e-2, f"{gap:.2e}"),
    ])
