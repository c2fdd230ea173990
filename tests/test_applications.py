import warnings

import numpy as np
import pytest

from spectral_denoise import (DegenerateEstimateError, DimensionMismatchError, NoiseCovariances,
                              SamplingPattern, backproject,
                              estimate_noise_covariances, localized_denoise,
                              make_equispaced_partition, missing_data_denoise,
                              shrink_submatrix_baseline, snr_gain_tau,
                              spectral_denoise, submatrix_denoise, svs_shrink,
                              whiten_denoise)
from spectral_denoise.applications import VARIANCE_FLOOR
from spectral_denoise.simlab import (gen_signal, two_block_vectors,
                                     weighted_loss)


def _rank1_instance(rng, p, n, t=4.0):
    u = rng.standard_normal(p)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    X = t * np.outer(u, v)
    return X, X + rng.standard_normal((p, n)) / np.sqrt(n)


class TestSubmatrix:
    def test_full_selection_is_shrinkage(self):
        rng = np.random.default_rng(1)
        X, Y = _rank1_instance(rng, 100, 140)
        res = submatrix_denoise(Y, np.arange(100), np.arange(140))
        shr = svs_shrink(Y)
        assert np.allclose(res.estimate, shr.estimate, atol=1e-10)

    def test_baseline_full_selection_is_shrinkage(self):
        rng = np.random.default_rng(2)
        X, Y = _rank1_instance(rng, 100, 140)
        res = shrink_submatrix_baseline(Y, np.arange(100), np.arange(140))
        shr = svs_shrink(Y)
        assert np.allclose(res.estimate, shr.estimate, atol=1e-10)

    def test_baseline_pure_noise_submatrix_is_zero(self):
        # Signal lives outside the selected block, so the rescaled submatrix
        # is pure noise and shrinkage keeps nothing.
        rng = np.random.default_rng(3)
        p, n = 300, 400
        u = np.zeros(p); u[200:] = 1.0; u /= np.linalg.norm(u)
        v = np.zeros(n); v[300:] = 1.0; v /= np.linalg.norm(v)
        Y = 5.0 * np.outer(u, v) + rng.standard_normal((p, n)) / np.sqrt(n)
        res = shrink_submatrix_baseline(Y, np.arange(150), np.arange(200))
        assert np.all(res.estimate == 0)

    def test_baseline_error_estimate_is_in_output_coordinates(self):
        # n/n0 = 4: the shrinkage figure on the rescaled submatrix is 4 times
        # the error of the returned estimate, so it is divided back.
        rng = np.random.default_rng(11)
        p, n = 200, 800
        rows, cols = np.arange(p), np.arange(n // 4)
        ratios = []
        for _ in range(12):
            X, Y = _rank1_instance(rng, p, n, t=3.0)
            res = shrink_submatrix_baseline(Y, rows, cols)
            shr = svs_shrink(Y[:, cols] * 2.0)
            assert res.estimate.tobytes() == (shr.estimate / 2.0).tobytes()
            assert res.amse_estimate == shr.amse_estimate / 4.0
            ratios.append(res.amse_estimate
                          / weighted_loss(res.estimate, X[np.ix_(rows, cols)]))
        assert 0.75 <= np.median(ratios) <= 1.35

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            submatrix_denoise(np.eye(5), [], [0])

    @pytest.mark.parametrize("run", [submatrix_denoise, shrink_submatrix_baseline])
    def test_non_finite_entry_outside_submatrix_rejected(self, run):
        _, Y = _rank1_instance(np.random.default_rng(4), 40, 60)
        Y[39, 59] = np.inf
        with pytest.raises(ValueError, match="finite"):
            run(Y, np.arange(20), np.arange(30))

    @pytest.mark.slow
    def test_merging_beats_submatrix_shrinkage_in_hypothesis_regime(self):
        # Energy fractions below sqrt(weight mass): using the whole matrix to
        # estimate the submatrix beats shrinking the submatrix alone.
        p, n = 1000, 2000
        t = (p / n) ** 0.25 + 0.5
        sig = gen_signal("piecewise_constant", p, n, t=(t,), energy_fraction=0.6)
        rows, cols = np.arange(p // 2), np.arange(n // 2)
        X0 = sig.X[np.ix_(rows, cols)]
        rng = np.random.default_rng(55)
        gaps = []
        for _ in range(50):
            Y = sig.X + rng.standard_normal((p, n)) / np.sqrt(n)
            ours = submatrix_denoise(Y, rows, cols)
            base = shrink_submatrix_baseline(Y, rows, cols)
            gaps.append(weighted_loss(base.estimate, X0)
                        - weighted_loss(ours.estimate, X0))
        gaps = np.array(gaps)
        assert gaps.mean() > 3 * gaps.std(ddof=1) / np.sqrt(len(gaps))


class TestWhiten:
    def test_identity_covariances_reduce_to_shrinkage(self):
        rng = np.random.default_rng(4)
        X, Y = _rank1_instance(rng, 90, 150)
        cov = NoiseCovariances(np.ones(90), np.ones(150))
        res = whiten_denoise(Y, cov)
        shr = svs_shrink(Y)
        assert (np.linalg.norm(res.estimate - shr.estimate)
                <= 1e-10 * np.linalg.norm(shr.estimate))

    def test_dense_and_diagonal_agree(self):
        rng = np.random.default_rng(5)
        X, Y = _rank1_instance(rng, 80, 130)
        s = np.linspace(0.5, 1.5, 80)
        t = np.linspace(0.8, 1.2, 130)
        res_diag = whiten_denoise(Y, NoiseCovariances(s, t), rank=1)
        res_dense = whiten_denoise(Y, NoiseCovariances(np.diag(s), np.diag(t)), rank=1)
        assert np.allclose(res_diag.estimate, res_dense.estimate, atol=1e-8)

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError):
            NoiseCovariances(np.array([1.0, -0.5]), np.ones(3))
        m = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(ValueError):
            NoiseCovariances(m, np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_dense_covariance(self, bad):
        m = np.array([[1.0, bad], [bad, 1.0]])
        with pytest.raises(ValueError, match="row covariance must have finite entries"):
            NoiseCovariances(m, np.ones(3))
        with pytest.raises(ValueError, match="col covariance must have finite entries"):
            NoiseCovariances(np.ones(3), m)

    @pytest.mark.parametrize("bad, words", [
        (np.ones((2, 3)), "must be a vector or a square matrix"),
        (np.ones((2, 2, 2)), "must be a vector or a square matrix"),
        (np.array([[1.0, 0.5], [0.0, 1.0]]), "must be symmetric"),
    ], ids=["not-square", "3-d", "not-symmetric"])
    def test_rejects_malformed_dense_covariance(self, bad, words):
        with pytest.raises(ValueError, match=f"row covariance {words}"):
            NoiseCovariances(bad, np.ones(3))
        with pytest.raises(ValueError, match=f"col covariance {words}"):
            NoiseCovariances(np.ones(3), bad)

    @pytest.mark.parametrize("empty", [np.ones(0), np.ones((0, 0))],
                             ids=["vector", "matrix"])
    def test_rejects_empty_side(self, empty):
        with pytest.raises(ValueError, match="row covariance is empty"):
            NoiseCovariances(empty, np.ones(3))
        with pytest.raises(ValueError, match="col covariance is empty"):
            NoiseCovariances(np.ones(3), empty)

    def test_normalize_moves_scale(self):
        cov = NoiseCovariances(np.ones(10), np.full(20, 4.0))
        norm = cov.normalize()
        assert norm.normalized
        assert np.allclose(norm.row_cov, 4.0)
        assert np.allclose(norm.col_cov, 1.0)


class TestNoiseCovarianceEstimation:
    @pytest.mark.slow
    def test_recovers_row_variances(self):
        # Each row estimate is a scaled chi-square mean with sd a_i*sqrt(2/n),
        # so the max over rows stays below 0.1 at n=4000 for these variances.
        p, n = 500, 4000
        rng = np.random.default_rng(6)
        a = np.linspace(0.5, 1.2, p)
        Y = np.sqrt(a)[:, None] * rng.standard_normal((p, n)) / np.sqrt(n)
        cov = estimate_noise_covariances(Y)
        assert np.max(np.abs(cov.row_cov - a)) < 0.1
        assert cov.normalized

    def test_homoscedastic_is_flat(self):
        rng = np.random.default_rng(7)
        Y = rng.standard_normal((400, 800)) / np.sqrt(800)
        cov = estimate_noise_covariances(Y)
        assert np.std(cov.row_cov) / np.mean(cov.row_cov) < 0.15

    def test_zero_row_rejected(self):
        Y = np.ones((4, 6))
        Y[2] = 0.0
        with pytest.raises(DegenerateEstimateError):
            estimate_noise_covariances(Y)

    def test_overflowing_squares_are_a_degenerate_estimate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateEstimateError, match="squares of Y overflow"):
                estimate_noise_covariances(np.full((4, 6), 1e200))

    def test_row_whose_squares_underflow_gets_the_floor(self):
        Y = np.ones((4, 6))
        Y[2] = 1e-170
        cov = estimate_noise_covariances(Y)
        assert cov.row_cov[2] == VARIANCE_FLOOR and np.all(cov.row_cov[[0, 1, 3]] == 6.0)
        with pytest.raises(DegenerateEstimateError, match="underflow to zero"):
            estimate_noise_covariances(np.full((4, 6), 1e-170))

    @pytest.mark.slow
    def test_error_halves_when_n_quadruples(self):
        rng = np.random.default_rng(8)
        errs = []
        for n in (1000, 4000):
            p = n // 2
            a = np.linspace(0.5, 2.0, p)
            Y = np.sqrt(a)[:, None] * rng.standard_normal((p, n)) / np.sqrt(n)
            cov = estimate_noise_covariances(Y)
            errs.append(np.max(np.abs(cov.row_cov - a)))
        assert errs[1] < errs[0] / 1.3


class TestSnrGainTau:
    def test_identity_is_one(self):
        cov = NoiseCovariances(np.ones(6), np.ones(8))
        assert snr_gain_tau(cov) == pytest.approx(1.0, abs=1e-14)

    def test_hand_value(self):
        # (tr S/p)(tr S^-1/p) = 2.5 * 0.625 with S = diag(1, 4).
        cov = NoiseCovariances(np.array([1.0, 4.0]), np.ones(5))
        assert snr_gain_tau(cov) == pytest.approx(1.5625, abs=1e-12)

    def test_jensen_bound_over_random_covariances(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            s = rng.uniform(0.2, 3.0, rng.integers(2, 12))
            t = rng.uniform(0.2, 3.0, rng.integers(2, 12))
            tau = snr_gain_tau(NoiseCovariances(s, t))
            assert tau >= 1.0 - 1e-12

    def test_equality_only_for_scalar(self):
        cov = NoiseCovariances(np.full(7, 2.5), np.full(9, 0.3))
        assert snr_gain_tau(cov) == pytest.approx(1.0, abs=1e-12)
        cov2 = NoiseCovariances(np.array([1.0, 1.2]), np.ones(4))
        assert snr_gain_tau(cov2) > 1.0 + 1e-12

    @pytest.mark.slow
    def test_whitening_raises_operator_norm_snr(self):
        p, n = 1000, 2000
        rng = np.random.default_rng(10)
        s = np.linspace(0.2, 1.0, p)
        t_diag = np.linspace(0.2, 1.0, n)
        cov = NoiseCovariances(s, t_diag)
        tau = snr_gain_tau(cov)
        from spectral_denoise._svd import top_svd
        ratios = []
        for _ in range(5):
            u = rng.standard_normal(p); u /= np.linalg.norm(u)
            v = rng.standard_normal(n); v /= np.linalg.norm(v)
            G = rng.standard_normal((p, n)) / np.sqrt(n)
            N = np.sqrt(s)[:, None] * G * np.sqrt(t_diag)[None, :]
            t_sig = 3.0
            snr_before = t_sig**2 / top_svd(N, 1)[1][0] ** 2
            t_white = t_sig * np.linalg.norm(u / np.sqrt(s)) * np.linalg.norm(v / np.sqrt(t_diag))
            snr_after = t_white**2 / top_svd(G, 1)[1][0] ** 2
            ratios.append(snr_after / snr_before)
        assert np.mean(ratios) >= 0.95 * tau


class TestSamplingPattern:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            SamplingPattern(np.array([0.0, 0.5]), np.array([0.5]),
                            *np.nonzero(np.ones((2, 1), dtype=bool)), np.ones(2))

    @pytest.mark.parametrize("field, q_row, q_col, values", [
        ("q_row", [np.nan, 0.5], [0.5], [1.0, 1.0]),
        ("q_col", [0.5, 0.5], [np.nan], [1.0, 1.0]),
        ("values", [0.5, 0.5], [0.5], [1.0, np.inf]),
    ], ids=["nan-q-row", "nan-q-col", "inf-value"])
    def test_non_finite_inputs_rejected(self, field, q_row, q_col, values):
        with pytest.raises(ValueError, match=field):
            SamplingPattern(np.array(q_row), np.array(q_col),
                            *np.nonzero(np.ones((2, 1), dtype=bool)), np.array(values))

    def test_count_consistency(self):
        with pytest.raises(ValueError):
            SamplingPattern(np.array([0.5, 0.5]), np.array([0.5]),
                            *np.nonzero(np.ones((2, 1), dtype=bool)), np.ones(3))

    @pytest.mark.parametrize("full_shape, mask_shape, q_sizes", [
        ((2, 3), (2, 3), (2, 4)), ((2, 3), (3, 2), (2, 3)), ((3, 3), (2, 3), (2, 3)),
    ], ids=["q-size", "mask-shape", "matrix-shape"])
    def test_dense_shapes_must_match(self, full_shape, mask_shape, q_sizes):
        with pytest.raises(DimensionMismatchError):
            SamplingPattern.from_dense(np.ones(full_shape), np.ones(mask_shape, dtype=bool),
                                       np.full(q_sizes[0], 0.5), np.full(q_sizes[1], 0.5))

    def test_coordinate_and_dense_agree(self):
        rng = np.random.default_rng(11)
        full = rng.standard_normal((6, 7))
        mask = rng.random((6, 7)) < 0.5
        mask[0, 0] = True
        q_r, q_c = np.full(6, 0.5), np.full(7, 0.5)
        a = SamplingPattern.from_dense(full, mask, q_r, q_c)
        rr, cc = np.nonzero(mask)
        b = SamplingPattern.from_coordinates(rr, cc, full[mask], q_r, q_c)
        for field in ("rows", "cols", "values"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert np.allclose(backproject(a), backproject(b))


def test_sampling_probability_estimates_recover_product():
    from spectral_denoise import estimate_sampling_probabilities
    rng = np.random.default_rng(30)
    p, n = 300, 500
    q_r = np.linspace(0.3, 0.8, p)
    q_c = np.linspace(0.4, 0.9, n)
    mask = rng.random((p, n)) < np.outer(q_r, q_c)
    est_r, est_c = estimate_sampling_probabilities(mask)
    # Only the product is identifiable; per-row frequencies carry
    # binomial noise, so compare on average.
    err = np.abs(np.outer(est_r, est_c) - np.outer(q_r, q_c))
    assert err.mean() < 0.05


class TestBackproject:
    def test_full_observation_returns_matrix(self):
        rng = np.random.default_rng(12)
        full = rng.standard_normal((5, 8))
        pat = SamplingPattern.from_dense(full, np.ones((5, 8), dtype=bool),
                                         np.ones(5), np.ones(8))
        assert np.array_equal(backproject(pat), full)

    def test_no_observation_returns_zero(self):
        pat = SamplingPattern(np.ones(4), np.ones(5),
                              *np.nonzero(np.zeros((4, 5), dtype=bool)), np.zeros(0))
        assert np.all(backproject(pat) == 0)

    def test_half_observed_matches_hadamard(self):
        rng = np.random.default_rng(13)
        full = rng.standard_normal((10, 12))
        mask = rng.random((10, 12)) < 0.5
        pat = SamplingPattern.from_dense(full, mask, np.full(10, 0.5), np.full(12, 0.5))
        assert np.array_equal(backproject(pat), np.where(mask, full, 0.0))

    def test_adjoint_identity(self):
        rng = np.random.default_rng(14)
        mask = rng.random((9, 11)) < 0.6
        A = rng.standard_normal((9, 11))
        y = rng.standard_normal(int(mask.sum()))
        pat = SamplingPattern(np.full(9, 0.6), np.full(11, 0.6), *np.nonzero(mask), y)
        lhs = float(A[mask] @ y)            # <F(A), y>
        rhs = float(np.sum(A * backproject(pat)))  # <A, F*(y)>
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestMissingData:
    def test_full_sampling_reduces_to_shrinkage(self):
        rng = np.random.default_rng(15)
        p, n = 150, 200
        u = rng.standard_normal(p); u /= np.linalg.norm(u)
        v = rng.standard_normal(n); v /= np.linalg.norm(v)
        # unit-variance noise convention for observed entries
        full = 3.0 * np.sqrt(n) * np.outer(u, v) + rng.standard_normal((p, n))
        pat = SamplingPattern.from_dense(full, np.ones((p, n), dtype=bool),
                                         np.ones(p), np.ones(n))
        res = missing_data_denoise(pat)
        ref = np.sqrt(n) * svs_shrink(full / np.sqrt(n)).estimate
        assert np.allclose(res.estimate, ref, atol=1e-10 * np.linalg.norm(ref))

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError):
            SamplingPattern(np.array([1.0, 0.0]), np.ones(3),
                            *np.nonzero(np.ones((2, 3), dtype=bool)), np.ones(6))

    @pytest.mark.slow
    def test_backprojection_approaches_scaled_signal(self):
        # ||F*F(X) - P X Q||_op shrinks as n grows for delocalized signals.
        from spectral_denoise._svd import top_svd
        rng = np.random.default_rng(16)
        means = []
        for n in (400, 1600):
            p = n // 2
            q_r = np.linspace(0.3, 0.7, p)
            q_c = np.linspace(0.3, 0.7, n)
            vals = []
            for _ in range(20):
                u = rng.standard_normal(p); u /= np.linalg.norm(u)
                v = rng.standard_normal(n); v /= np.linalg.norm(v)
                X = 3.0 * np.outer(u, v)
                mask = rng.random((p, n)) < np.outer(q_r, q_c)
                masked = np.where(mask, X, 0.0)
                target = q_r[:, None] * X * q_c[None, :]
                vals.append(top_svd(masked - target, 1)[1][0])
            means.append(np.mean(vals))
        assert means[1] < means[0]


class TestFactoredEstimates:
    """Each pipeline forms its estimate from the inner denoiser's factors
    mapped through the loss weights; it must equal the dense back-mapping
    of the inner estimate, ``spectral_denoise(...).estimate``."""

    @staticmethod
    def _instance(seed, p=90, n=130):
        rng = np.random.default_rng(seed)
        sig = gen_signal("random_orthonormal", p, n, t=(4.0, 2.5), rng=rng)
        return rng, sig.X + rng.standard_normal((p, n)) / np.sqrt(n)

    @staticmethod
    def _assert_close(got, want):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_submatrix_equals_slice(self):
        rng, Y = self._instance(40)
        rows = np.sort(rng.choice(90, 35, replace=False))
        cols = np.sort(rng.choice(130, 70, replace=False))
        res = submatrix_denoise(Y, rows, cols)
        assert res.denoise.rank == 2
        self._assert_close(res.estimate, res.denoise.estimate[np.ix_(rows, cols)])

    @pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
    def test_whiten_equals_dense_back_mapping(self, dense):
        rng, Y = self._instance(41)
        if dense:
            A = rng.standard_normal((90, 90))
            B = rng.standard_normal((130, 130))
            S, T = A @ A.T / 90 + np.eye(90), B @ B.T / 130 + np.eye(130)
            def root(M):
                vals, vecs = np.linalg.eigh(M)
                return (vecs * np.sqrt(vals)) @ vecs.T
            S_half, T_half = root(S), root(T)
        else:
            S, T = rng.uniform(0.5, 2.0, 90), rng.uniform(0.5, 2.0, 130)
            S_half, T_half = np.diag(np.sqrt(S)), np.diag(np.sqrt(T))
        res = whiten_denoise(S_half @ Y @ T_half, NoiseCovariances(S, T))
        assert res.denoise.rank == 2
        self._assert_close(res.estimate, S_half @ res.denoise.estimate @ T_half)

    def test_missing_data_equals_dense_rescale(self):
        rng, Y = self._instance(42)
        p, n = Y.shape
        q_r, q_c = np.linspace(0.5, 0.9, p), np.linspace(0.5, 0.9, n)
        mask = rng.random((p, n)) < np.outer(q_r, q_c)
        res = missing_data_denoise(
            SamplingPattern.from_dense(np.sqrt(n) * Y, mask, q_r, q_c))
        assert res.denoise.rank >= 1
        inv_r, inv_c = 1.0 / np.sqrt(q_r), 1.0 / np.sqrt(q_c)
        want = np.sqrt(n) * (inv_r[:, None] * res.denoise.estimate * inv_c[None, :])
        self._assert_close(res.estimate, want)

    def test_rank_zero_factors(self):
        _, Y = self._instance(43)
        p, n = Y.shape
        parts = (make_equispaced_partition(p, 3), make_equispaced_partition(n, 4))
        for res in (svs_shrink(Y, rank=0), spectral_denoise(Y, rank=0),
                    localized_denoise(Y, *parts, rank=0)):
            assert res.left.shape == (p, 0) and res.right.shape == (n, 0)
            assert res.estimate.shape == (p, n) and np.all(res.estimate == 0)
