import warnings

import numpy as np
import pytest

from spectral_denoise import (BelowDetectionThresholdError, DegenerateEstimateError,
                              WeightOperator, check_shrinkage_properties,
                              cosines, diagonal_denoise, forward_singular_value,
                              optimal_coefficients, spectral_denoise, submatrix_denoise,
                              svs_shrink, trace_weight, weighted_gram)
from spectral_denoise.denoise import _amse_raw, amse_estimate
from spectral_denoise.geometry import WeightedGeometry, recover_population_geometry
from spectral_denoise.simlab import two_block_vectors, weighted_loss

import solve_reference
from test_geometry import spikes_from_t


def random_geometry(rng, r, m=150, gamma=1.0):
    """Consistent, well-conditioned geometry built from finite vectors."""
    Ue, _ = np.linalg.qr(rng.standard_normal((m, r)))
    Ve, _ = np.linalg.qr(rng.standard_normal((m, r)))
    om = WeightOperator.from_diagonal(rng.uniform(0.4, 1.8, m))
    pi = WeightOperator.from_diagonal(rng.uniform(0.4, 1.8, m))
    t = np.sort(rng.uniform(1.5, 5.0, r))[::-1]
    t += np.arange(r)[::-1] * 0.05  # break near-ties
    spikes = spikes_from_t(t, gamma)
    D = weighted_gram(Ue, om)
    Dt = weighted_gram(Ve, pi)
    return recover_population_geometry(D, Dt, spikes, trace_weight(om, m),
                                       trace_weight(pi, m))


def brute_force_coefficients(geom):
    """Solve the r^2 x r^2 normal equations of the quadratic objective."""
    r = geom.rank
    A = np.kron(geom.gram_right, geom.gram_left)
    rhs = (geom.cross_left @ np.diag(geom.t) @ geom.cross_right.T).flatten(order="F")
    x, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    return x.reshape((r, r), order="F")


def quadratic_objective(geom, B):
    return (np.sum((geom.gram_left @ B @ geom.gram_right) * B)
            - 2.0 * np.sum((geom.cross_left @ np.diag(geom.t)
                            @ geom.cross_right.T) * B))


class TestOptimalCoefficients:
    def test_weighted_orthogonal_reduces_to_shrinkage(self):
        spikes = spikes_from_t([3.0, 2.0], 1.0)
        r = 2
        geom = WeightedGeometry(
            r, spikes.t, np.eye(r), np.eye(r), np.eye(r), np.eye(r),
            np.diag(spikes.c), np.diag(spikes.c_tilde), 1.0, 1.0,
            np.ones(r), np.ones(r))
        coeff = optimal_coefficients(geom)
        expect = np.diag(spikes.t * spikes.c * spikes.c_tilde)
        assert np.allclose(coeff, expect, atol=1e-14)

    def test_scalar_case(self):
        spikes = spikes_from_t([2.5], 0.5)
        d, dt, cw, cwt = 0.8, 1.3, 0.5, 0.7
        geom = WeightedGeometry(
            1, spikes.t, np.array([[d]]), np.array([[dt]]), np.eye(1), np.eye(1),
            np.array([[cw]]), np.array([[cwt]]), 1.0, 1.0, np.ones(1), np.ones(1))
        coeff = optimal_coefficients(geom)
        assert coeff[0, 0] == pytest.approx(spikes.t[0] * cw * cwt / (d * dt))

    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_matches_normal_equations(self, r):
        rng = np.random.default_rng(100 + r)
        for _ in range(5):
            geom = random_geometry(rng, r)
            coeff = optimal_coefficients(geom)
            oracle = brute_force_coefficients(geom)
            assert np.linalg.norm(coeff - oracle) <= 1e-8 * np.linalg.norm(oracle)

    def test_first_order_optimality(self):
        rng = np.random.default_rng(21)
        geom = random_geometry(rng, 3)
        coeff = optimal_coefficients(geom)
        base = quadratic_objective(geom, coeff)
        for _ in range(100):
            step = rng.standard_normal(coeff.shape)
            step *= 1e-3 / np.linalg.norm(step)
            assert quadratic_objective(geom, coeff + step) >= base - 1e-9


def singular_geometry(rng, r, m=150):
    """Index weights keeping fewer rows than ``r``: singular weighted Grams."""
    Ue, _ = np.linalg.qr(rng.standard_normal((m, r)))
    Ve, _ = np.linalg.qr(rng.standard_normal((m, r)))
    keep = max(r - 1, 1)
    om = WeightOperator.from_indices(rng.choice(m, keep, replace=False), m)
    pi = WeightOperator.from_indices(rng.choice(m, keep, replace=False), m)
    spikes = spikes_from_t(np.linspace(4.0, 2.0, r), 0.5)
    return recover_population_geometry(weighted_gram(Ue, om), weighted_gram(Ve, pi),
                                       spikes, keep / m, keep / m)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_per_side_solve_matches_reference(r):
    # The per-side factors must reproduce the two-pseudoinverse formulas,
    # also when a weight annihilates a direction and pinv drops it.
    rng = np.random.default_rng(300 + r)
    geoms = [random_geometry(rng, r) for _ in range(5)]
    geoms += [singular_geometry(rng, r) for _ in range(3)]
    for geom in geoms:
        ref = solve_reference.optimal_coefficients(geom)
        coeff = optimal_coefficients(geom)
        assert np.max(np.abs(coeff - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)
        assert _amse_raw(geom) == pytest.approx(solve_reference.amse_raw(geom),
                                                rel=1e-12, abs=1e-12)


class TestAmseEstimate:
    def test_vanishes_with_signal(self):
        spikes = spikes_from_t([3.0], 1.0)
        geom = WeightedGeometry(
            1, np.array([1e-9]), np.eye(1), np.eye(1), np.eye(1), np.eye(1),
            np.diag(spikes.c), np.diag(spikes.c_tilde), 1.0, 1.0,
            np.ones(1), np.ones(1))
        assert amse_estimate(geom) <= 1e-17

    def test_generic_case_matches_shrinkage_formula(self):
        spikes = spikes_from_t([3.0, 2.0], 1.0)
        r = 2
        geom = WeightedGeometry(
            r, spikes.t, np.eye(r), np.eye(r), np.eye(r), np.eye(r),
            np.diag(spikes.c), np.diag(spikes.c_tilde), 1.0, 1.0,
            np.ones(r), np.ones(r))
        expect = np.sum(spikes.t**2 * (1 - spikes.c**2 * spikes.c_tilde**2))
        assert amse_estimate(geom) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.slow
    def test_monte_carlo_loss_matches_estimate(self):
        # gamma = 0.5, rank 2, heterogeneous signal, realized weighted loss
        # averaged over 50 draws should match the plug-in estimate to 5%.
        p, n = 1000, 2000
        u_const, u_flip = two_block_vectors(p)
        v_const, v_flip = two_block_vectors(n)
        t = np.array([4.0, 2.5])
        X = t[0] * np.outer(u_flip, v_flip) + t[1] * np.outer(u_const, v_const)
        om = WeightOperator.from_indices(np.arange(600), p)
        pi_diag = np.linspace(0.5, 1.5, n)
        rng = np.random.default_rng(2024)
        losses, estimates = [], []
        for _ in range(50):
            Y = X + rng.standard_normal((p, n)) / np.sqrt(n)
            res = spectral_denoise(Y, om, pi_diag, rank=2)
            losses.append(weighted_loss(res.estimate, X, om, pi_diag))
            estimates.append(res.amse_estimate)
        assert np.mean(losses) == pytest.approx(np.mean(estimates), rel=0.05)


class TestSpectralDenoise:
    @pytest.mark.parametrize("shape", [(5, 0), (0, 5)])
    def test_empty_input_is_rejected(self, shape):
        Y = np.zeros(shape)
        for run in (svs_shrink, spectral_denoise,
                    lambda Y: submatrix_denoise(Y, [0], [0])):
            with pytest.raises(DegenerateEstimateError, match=f"{shape[0]}x{shape[1]}"):
                run(Y)

    def test_forced_rank_without_signal_raises(self):
        rng = np.random.default_rng(9)
        rank_one = np.outer(rng.standard_normal(20), rng.standard_normal(40))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for Y, rank in ((np.zeros((20, 40)), 1), (rank_one, 3), (rank_one.T, 3)):
                with pytest.raises(BelowDetectionThresholdError):
                    spectral_denoise(Y, rank=rank)

    def test_pure_noise_returns_zero(self):
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((80, 120)) / np.sqrt(120)
        res = spectral_denoise(Y)
        assert res.rank == 0
        assert np.all(res.estimate == 0)
        assert res.amse_estimate == 0.0

    def test_identity_weights_equal_shrinkage(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            p = rng.integers(60, 140)
            n = rng.integers(60, 140)
            r = rng.integers(1, 4)
            U, _ = np.linalg.qr(rng.standard_normal((p, r)))
            V, _ = np.linalg.qr(rng.standard_normal((n, r)))
            t = np.sort(rng.uniform(2.0, 6.0, r))[::-1]
            Y = (U * t) @ V.T + rng.standard_normal((p, n)) / np.sqrt(n)
            _, left, right, _ = solve_reference.svs_shrink(Y)
            b = left @ right.T
            ref = max(np.linalg.norm(b), 1e-30)
            # ``None`` takes the exact uniform geometry, unit diagonals the
            # general plug-in recovery.
            for omega, pi in ((None, None), (np.ones(p), np.ones(n))):
                a = spectral_denoise(Y, omega, pi).estimate
                assert np.linalg.norm(a - b) <= 1e-8 * ref

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(9)
        u, _ = np.linalg.qr(rng.standard_normal((90, 1)))
        v, _ = np.linalg.qr(rng.standard_normal((130, 1)))
        Y = 4.0 * np.outer(u[:, 0], v[:, 0]) + rng.standard_normal((90, 130)) / np.sqrt(130)
        res = spectral_denoise(Y, omega=rng.uniform(0.5, 1.5, 90))
        assert np.linalg.matrix_rank(res.estimate, tol=1e-8) <= res.rank
        assert res.amse_estimate >= 0

    def test_weighted_beats_unweighted_in_weighted_metric(self):
        p, n = 400, 400
        u_const, u_flip = two_block_vectors(p)
        v_const, v_flip = two_block_vectors(n)
        t = np.array([4.0, 2.5])
        X = t[0] * np.outer(u_flip, v_flip) + t[1] * np.outer(u_const, v_const)
        om = WeightOperator.from_indices(np.arange(100), p)
        pi = WeightOperator.from_indices(np.arange(100), n)
        rng = np.random.default_rng(5)
        ref = weighted_loss(np.zeros_like(X), X, om, pi)
        for _ in range(10):
            Y = X + rng.standard_normal((p, n)) / np.sqrt(n)
            ours = spectral_denoise(Y, om, pi)
            shr = svs_shrink(Y)
            lhs = weighted_loss(ours.estimate, X, om, pi)
            rhs = weighted_loss(shr.estimate, X, om, pi)
            assert lhs <= rhs + 0.02 * ref


class TestDiagonalDenoise:
    def test_generic_energies_give_plain_shrinkage(self):
        # alpha = mu and beta = nu force the correction factor to 1.
        mu = nu = 0.5
        t, gamma = 2.0, 1.0
        c, ct, s, st = cosines(t, gamma)
        eta = (mu / (c**2 * mu + s**2 * mu)) * (nu / (ct**2 * nu + st**2 * nu))
        assert eta == pytest.approx(1.0, rel=1e-14)

    def test_matches_full_solver_under_weighted_orthogonality(self):
        # Projection weights + signal vectors supported inside/outside keep
        # the empirical grams nearly diagonal; on exactly diagonal synthetic
        # grams the two denoisers must agree to machine precision.
        rng = np.random.default_rng(33)
        spikes = spikes_from_t([3.5, 2.2], 1.0)
        r = 2
        d = rng.uniform(0.5, 1.5, r)
        dt = rng.uniform(0.5, 1.5, r)
        mu, nu = 0.7, 0.9
        geom = recover_population_geometry(np.diag(d), np.diag(dt), spikes, mu, nu)
        coeff = optimal_coefficients(geom)
        c, ct, s, st = spikes.c, spikes.c_tilde, spikes.s, spikes.s_tilde
        eta_l = geom.alpha / (c**2 * geom.alpha + s**2 * mu)
        eta_r = geom.beta / (ct**2 * geom.beta + st**2 * nu)
        diag_vals = spikes.t * c * ct * eta_l * eta_r
        assert np.allclose(coeff, np.diag(diag_vals), atol=1e-10)

    def test_diagonal_pipeline_equals_full_pipeline_on_orthogonal_design(self):
        # Signal vectors supported on disjoint index sets are weighted
        # orthogonal for any diagonal weight.
        p = n = 500
        u1 = np.zeros(p); u1[:250] = 1 / np.sqrt(250)
        u2 = np.zeros(p); u2[250:] = 1 / np.sqrt(250)
        v1 = np.zeros(n); v1[:250] = 1 / np.sqrt(250)
        v2 = np.zeros(n); v2[250:] = 1 / np.sqrt(250)
        X = 4.0 * np.outer(u1, v1) + 2.8 * np.outer(u2, v2)
        rng = np.random.default_rng(8)
        Y = X + rng.standard_normal((p, n)) / np.sqrt(n)
        w_r = np.linspace(0.5, 1.5, p)
        w_c = np.linspace(1.5, 0.5, n)
        full = spectral_denoise(Y, w_r, w_c, rank=2)
        diag = diagonal_denoise(Y, w_r, w_c, rank=2)
        # Off-diagonal leakage is finite-sample only.
        rel = (np.linalg.norm(full.estimate - diag.estimate)
               / np.linalg.norm(full.estimate))
        assert rel < 0.05

    def test_inflation_for_large_energies(self):
        # With energies far above the weight mass the optimal value must
        # exceed the observed singular value (no shrinkage).  At t=2,
        # gamma=1, mu=nu=1 the crossover sits between alpha=beta=10 (still
        # marginally below lambda) and alpha=beta=20.
        t, gamma = 2.0, 1.0
        lam = forward_singular_value(t, gamma)
        c, ct, s, st = cosines(t, gamma)

        def denoised(a, b):
            return t * c * ct * (a / (c**2 * a + s**2)) * (b / (ct**2 * b + st**2))

        assert denoised(20.0, 20.0) > lam
        assert denoised(1.0, 1.0) < lam


class TestSvsShrink:
    def test_matches_closed_form_reference(self):
        rng = np.random.default_rng(17)
        for k in range(30):
            p, n = (int(m) for m in rng.integers(30, 200, 2))
            r = int(rng.integers(0, 4))
            U, _ = np.linalg.qr(rng.standard_normal((p, 3)))
            V, _ = np.linalg.qr(rng.standard_normal((n, 3)))
            t = np.sort(rng.uniform(1.5, 6.0, r))[::-1]
            Y = (U[:, :r] * t) @ V[:, :r].T + rng.standard_normal((p, n)) / np.sqrt(n)
            rank = r if k % 3 == 0 and r and t[-1] > 2.0 else None
            res = svs_shrink(Y, rank=rank)
            coeff, left, right, amse = solve_reference.svs_shrink(Y, rank=rank)
            assert res.coefficients.tobytes() == coeff.tobytes()
            assert res.left.tobytes() == left.tobytes()
            assert res.right.tobytes() == right.tobytes()
            assert res.estimate.tobytes() == (left @ right.T).tobytes()
            assert abs(res.amse_estimate - amse) <= 1e-14 * amse
            assert np.all(res.geometry.alpha == 1.0) and np.all(res.geometry.beta == 1.0)
            assert res.geometry.mu == res.geometry.nu == 1.0
            assert res.clipped_components == () and not res.amse_clamped

    def test_no_signal(self):
        rng = np.random.default_rng(1)
        Y = rng.standard_normal((100, 100)) / 10.0
        res = svs_shrink(Y)
        assert res.rank == 0 and np.all(res.estimate == 0)

    def test_hand_value(self):
        # lambda = 2.5 at gamma = 1: t = 2, c^2 = c~^2 = 0.75, so the kept
        # singular value is 2 * 0.75 = 1.5.
        rng = np.random.default_rng(3)
        n = 600
        u = rng.standard_normal(n); u /= np.linalg.norm(u)
        v = rng.standard_normal(n); v /= np.linalg.norm(v)
        Y = 2.0 * np.outer(u, v) + rng.standard_normal((n, n)) / np.sqrt(n)
        res = svs_shrink(Y, rank=1)
        lam = res.spikes.observed[0]
        t = res.spikes.t[0]
        c2 = res.spikes.c[0] ** 2
        assert res.coefficients[0, 0] == pytest.approx(t * c2, rel=1e-10)
        # and the analytic point: exactly lambda=2.5 -> 1.5
        sp = spikes_from_t([2.0], 1.0)
        assert sp.t[0] * sp.c[0] * sp.c_tilde[0] == pytest.approx(1.5, abs=1e-12)


class TestShrinkagePropertyReport:
    def test_uniform_case_has_both_properties(self):
        grid = np.linspace(1.05, 5.0, 120)
        rep = check_shrinkage_properties(1.0, 1.0, 1.0, 1.0, 1.0, grid)
        assert rep.hypothesis_holds
        assert rep.all_shrink and rep.all_nondecreasing

    def test_large_energies_break_monotonicity(self):
        gamma = 0.1
        grid = np.linspace(gamma**0.25 * 1.02, 3.0, 400)
        rep = check_shrinkage_properties(gamma, 10.0, 10.0, 1.0, 1.0, grid)
        assert not rep.hypothesis_holds
        assert not rep.all_nondecreasing

    def test_one_small_energy_suffices_for_shrinkage(self):
        grid = np.linspace(1.05, 5.0, 120)
        rep = check_shrinkage_properties(1.0, 0.5, 2.0, 1.0, 1.0, grid)
        assert rep.hypothesis_holds
        assert rep.all_shrink

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            check_shrinkage_properties(1.0, 1.0, 1.0, 1.0, 1.0, [0.5, 1.5])


@pytest.mark.slow
def test_plugin_error_decays_with_n():
    # |realized loss - estimate| / estimate should roughly halve from
    # n = 500 to n = 2000.
    t = np.array([4.0, 2.5])
    rng = np.random.default_rng(77)
    ratios = []
    for n in (500, 2000):
        p = n // 2
        u_const, u_flip = two_block_vectors(p)
        v_const, v_flip = two_block_vectors(n)
        X = t[0] * np.outer(u_flip, v_flip) + t[1] * np.outer(u_const, v_const)
        om = WeightOperator.from_indices(np.arange(int(0.6 * p)), p)
        diffs = []
        for _ in range(40):
            Y = X + rng.standard_normal((p, n)) / np.sqrt(n)
            res = spectral_denoise(Y, om, None, rank=2)
            realized = weighted_loss(res.estimate, X, om, None)
            diffs.append(abs(realized - res.amse_estimate) / res.amse_estimate)
        ratios.append(np.mean(diffs))
    assert ratios[1] < ratios[0] / 1.4
