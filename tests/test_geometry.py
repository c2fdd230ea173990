import numpy as np
import pytest

from spectral_denoise import (DegenerateEstimateError, DimensionMismatchError,
                              IllConditionedRecoveryError, NoiseCovariances, Partition,
                              SamplingPattern, WeightOperator, as_weight_operator,
                              backproject, cosines, diagonal_denoise, estimate_spike_params,
                              missing_data_denoise, recover_population_geometry,
                              spectral_denoise, submatrix_denoise, trace_weight,
                              weighted_gram, whiten_denoise)
from spectral_denoise._svd import top_svd
from spectral_denoise.spiked import SpikeParams


def spikes_from_t(t, gamma):
    t = np.asarray(t, dtype=float)
    c, ct, s, st = cosines(t, gamma)
    from spectral_denoise import forward_singular_value
    lam = np.atleast_1d(forward_singular_value(t, gamma))
    return SpikeParams(t.size, lam, t, np.atleast_1d(c), np.atleast_1d(ct),
                       np.atleast_1d(s), np.atleast_1d(st), gamma)


class TestTraceWeight:
    def test_identity(self):
        assert trace_weight(WeightOperator.identity(50), 50) == 1.0

    def test_projection(self):
        op = WeightOperator.from_indices(np.arange(20), 80)
        assert trace_weight(op, 80) == pytest.approx(0.25)

    def test_scaled_identity(self):
        op = WeightOperator.from_diagonal(np.full(30, 2.0))
        assert trace_weight(op, 30) == pytest.approx(4.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            trace_weight(WeightOperator.identity(10), 11)


class TestWeightedGram:
    def test_identity_weight_gives_identity(self):
        rng = np.random.default_rng(0)
        V, _ = np.linalg.qr(rng.standard_normal((40, 5)))
        G = weighted_gram(V, WeightOperator.identity(40))
        assert np.allclose(G, np.eye(5), atol=1e-12)

    def test_basis_vectors_with_diagonal(self):
        w = np.array([0.5, 2.0, 3.0, 1.0])
        V = np.eye(4)[:, :3]
        G = weighted_gram(V, WeightOperator.from_diagonal(w))
        assert np.allclose(G, np.diag(w[:3] ** 2))

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        V, _ = np.linalg.qr(rng.standard_normal((30, 4)))
        W = rng.standard_normal((12, 30))
        G = weighted_gram(V, WeightOperator.from_matrix(W))
        expect = np.zeros((4, 4))
        for j in range(4):
            for k in range(4):
                expect[j, k] = (W @ V[:, j]) @ (W @ V[:, k])
        assert np.allclose(G, (expect + expect.T) / 2, atol=1e-12)
        assert np.array_equal(G, G.T)
        assert np.linalg.eigvalsh(G).min() >= -1e-10

    def test_non_unit_columns_rejected(self):
        V = np.ones((10, 2))
        with pytest.raises(ValueError):
            weighted_gram(V, WeightOperator.identity(10))


class TestAsWeightOperator:
    def test_none_is_identity(self):
        assert as_weight_operator(None, 7).kind == "identity"

    def test_vector_is_diagonal(self):
        assert as_weight_operator(np.ones(5), 5).kind == "diag"

    def test_matrix_is_dense(self):
        assert as_weight_operator(np.ones((3, 5)), 5).kind == "dense"

    def test_wrong_width_rejected(self):
        with pytest.raises(DimensionMismatchError):
            as_weight_operator(np.ones(4), 5)


# Index arrays of float or boolean dtype, and sizes that are not integers, are
# rejected, not truncated to integers.
_SIZE_BUILDS = {
    "identity": WeightOperator.identity,
    "from_indices": lambda dim: WeightOperator.from_indices([0], dim),
    "as_weight_operator": lambda dim: as_weight_operator(None, dim),
    "partition": lambda dim: Partition(dim, ([0],)),
}


@pytest.mark.parametrize("build, match", [
    (lambda: WeightOperator.from_indices([0.7, 2.9], 4), "indices must hold integers"),
    (lambda: WeightOperator.from_indices([True, False, True], 3), "indices must hold integers"),
    (lambda: SamplingPattern(np.ones(3), np.ones(3), [0.5, 1.9], [0, 2.2], [1.0, 2.0]),
     "rows must hold integers"),
    (lambda: Partition.from_lists(3, [[0.4, 1.6], [2.0]]), "partition block must hold integers"),
    (lambda: submatrix_denoise(np.ones((4, 4)), [0.5, 3.7], [1.2]), "indices must hold integers"),
    (lambda: WeightOperator("indices", [0.5], 6), "indices must hold integers"),
] + [
    (lambda build=build, size=size: _SIZE_BUILDS[build](size), "dim must be an integer")
    for build in _SIZE_BUILDS for size in (2.5, True, "3", None)
], ids=["from_indices-float", "from_indices-bool", "sampling-pattern", "partition",
        "submatrix", "raw-indices-float"] + [
    f"{build}-size-{size}" for build in _SIZE_BUILDS for size in ("float", "bool", "str", "None")
])
def test_non_integer_indices_rejected(build, match):
    with pytest.raises(ValueError, match=match) as info:
        build()
    assert info.type is ValueError


# Malformed data given to the checked constructors: each is a ValueError, or a
# DimensionMismatchError for a width other than ``dim``, never another exception.
@pytest.mark.parametrize("build, error, match", [
    (lambda: WeightOperator.identity(-1), ValueError, "nonnegative"),
    (lambda: as_weight_operator(None, -1), ValueError, "nonnegative"),
    (lambda: WeightOperator("indices", [9], 6), ValueError, "indices out of range"),
    (lambda: WeightOperator("dense", np.ones(6), 6), ValueError, "dense weight must be 2-D"),
    (lambda: WeightOperator("dense", np.ones((2, 3, 6)), 6), ValueError,
     "dense weight must be 2-D"),
    (lambda: WeightOperator("dense", None, 6), ValueError, "dense weight must be 2-D"),
    (lambda: WeightOperator("dense", np.ones((3, 5)), 6), DimensionMismatchError,
     "5 columns, expected 6"),
    (lambda: WeightOperator("diag", "x", 6), ValueError, "could not convert"),
    (lambda: WeightOperator("diag", None, 6), ValueError, "diag weight must be 1-D"),
    (lambda: Partition(6, None), ValueError, "must be a sequence"),
    (lambda: Partition(6, 5), ValueError, "must be a sequence"),
    (lambda: Partition.from_lists(6, [[0, [1]]]), ValueError, "with a sequence"),
], ids=["identity-negative", "as-weight-negative", "raw-indices-range",
        "dense-1d", "dense-3d", "dense-none", "dense-width", "diag-str", "diag-none",
        "partition-none", "partition-int", "partition-ragged"])
def test_malformed_constructor_input_rejected(build, error, match):
    with pytest.raises(error, match=match) as info:
        build()
    assert info.type is error


_Y = np.arange(12.0).reshape(3, 4)
_V = np.eye(5)[:, :2]


# Weight, size and pipeline arguments: a ``(error, match)`` row must raise
# exactly that error, any other row is the value the call returns.  A weight
# of ``None`` is the uniform weight here as in every denoiser.
@pytest.mark.parametrize("build, expected", [
    (lambda: trace_weight(None, 5), 1.0),
    (lambda: weighted_gram(_V, None).tobytes(), (_V.T @ _V).tobytes()),
    (lambda: trace_weight(np.ones(4), 5), (DimensionMismatchError, "4 columns, expected 5")),
    (lambda: weighted_gram(_V, WeightOperator.identity(4)),
     (DimensionMismatchError, "4 columns, expected 5")),
    (lambda: as_weight_operator(WeightOperator.identity(5), 2.5),
     (ValueError, "dim must be an integer, got 2.5")),
    (lambda: as_weight_operator(WeightOperator.identity(5), "5"),
     (ValueError, "dim must be an integer, got '5'")),
    (lambda: WeightOperator.from_diagonal({}), (ValueError, "diag weight must hold numbers")),
    (lambda: as_weight_operator({}, 5), (ValueError, "dense weight must hold numbers")),
    (lambda: top_svd(_Y, 2.5), (ValueError, "k must be an integer, got 2.5")),
    (lambda: top_svd(_Y, True), (ValueError, "k must be an integer, got True")),
    (lambda: missing_data_denoise(None),
     (ValueError, "pattern must be a SamplingPattern, got NoneType")),
    (lambda: backproject(None), (ValueError, "pattern must be a SamplingPattern, got NoneType")),
    (lambda: whiten_denoise(_Y, None),
     (ValueError, "cov must be a NoiseCovariances, got NoneType")),
    (lambda: NoiseCovariances(np.ones(3), np.ones(4)).whiten([[1.0]]),
     (DimensionMismatchError, r"Y has shape \(1, 1\), covariances expect \(3, 4\)")),
], ids=["trace-none", "gram-none", "trace-raw-width", "gram-operator-width",
        "as-weight-dim-float", "as-weight-dim-str", "from-diagonal-dict", "as-weight-dict",
        "top-svd-k-float", "top-svd-k-bool", "missing-data-none", "backproject-none",
        "whiten-none", "whiten-list"])
def test_weight_and_pipeline_arguments(build, expected):
    if isinstance(expected, tuple):
        error, match = expected
        with pytest.raises(error, match=match) as info:
            build()
        assert info.type is error
    else:
        assert build() == expected


def test_unknown_weight_kind_rejected():
    with pytest.raises(ValueError, match="unknown weight kind 'bogus'"):
        WeightOperator("bogus", None, 4)


def _spiked_40x80():
    rng = np.random.default_rng(12)
    U, _ = np.linalg.qr(rng.standard_normal((40, 2)))
    V, _ = np.linalg.qr(rng.standard_normal((80, 2)))
    return (U * [5.0, 4.0]) @ V.T + rng.standard_normal((40, 80)) / np.sqrt(80)


# A weight whose square overflows: in the Gram and the trace, in the trace alone
# (each 1e154**2 fits, their sum over 40 rows does not), dense, and on the columns.
@pytest.mark.parametrize("weights, side", [
    ({"omega": np.full(40, 1e160)}, "row"),
    ({"omega": np.full(40, 1e154)}, "row"),
    ({"omega": 1e200 * np.eye(40)}, "row"),
    ({"pi": np.full(80, 1e160)}, "column"),
], ids=["diagonal", "trace-only", "dense", "column"])
@pytest.mark.parametrize("denoiser", [spectral_denoise, diagonal_denoise])
def test_overflowing_weight_is_a_degenerate_estimate(denoiser, weights, side):
    with pytest.raises(DegenerateEstimateError, match=f"{side} weight"):
        denoiser(_spiked_40x80(), **weights)


def test_overflowing_weight_at_rank_zero_gives_the_zero_estimate():
    res = spectral_denoise(_spiked_40x80(), np.full(40, 1e160), rank=0)
    assert res.rank == 0 and np.all(res.estimate == 0) and res.amse_estimate == 0.0


class TestRecoverPopulationGeometry:
    def test_identity_grams_give_unit_energies(self):
        spikes = spikes_from_t([3.0, 2.0], 1.0)
        geom = recover_population_geometry(np.eye(2), np.eye(2), spikes, 1.0, 1.0)
        assert np.allclose(geom.alpha, 1.0, atol=1e-12)
        assert np.allclose(geom.beta, 1.0, atol=1e-12)
        off = geom.pop_gram_left[0, 1]
        assert off == pytest.approx(0.0, abs=1e-12)

    def test_synthetic_energy_recovered_exactly(self):
        spikes = spikes_from_t([2.5], 0.5)
        alpha = 0.37
        mu = 0.8
        d = spikes.c[0] ** 2 * alpha + spikes.s[0] ** 2 * mu
        geom = recover_population_geometry(np.array([[d]]), np.array([[1.0]]),
                                           spikes, mu, 1.0)
        assert geom.alpha[0] == pytest.approx(alpha, abs=1e-14)

    def test_exact_inversion_from_forward_model(self):
        # Build the grams from known finite vectors and a known weight, push
        # them through the limit formulas, and demand the generators back.
        rng = np.random.default_rng(3)
        m = 300
        r = 3
        U, _ = np.linalg.qr(rng.standard_normal((m, r)))
        w = rng.uniform(0.2, 2.0, m)
        om = WeightOperator.from_diagonal(w)
        pop = weighted_gram(U, om)
        mu = trace_weight(om, m)
        spikes = spikes_from_t([4.0, 3.0, 2.2], 1.0)
        c, s = spikes.c, spikes.s
        D = np.outer(c, c) * pop
        np.fill_diagonal(D, c**2 * np.diag(pop) + s**2 * mu)
        geom = recover_population_geometry(D, np.eye(r), spikes, mu, 1.0)
        assert np.allclose(geom.alpha, np.diag(pop), atol=1e-10)
        off = geom.pop_gram_left - np.diag(np.diag(geom.pop_gram_left))
        pop_off = pop - np.diag(np.diag(pop))
        assert np.allclose(off, pop_off, atol=1e-10)
        assert np.allclose(geom.cross_left, c[:, None] * geom.pop_gram_left)

    def test_clipping_flags_component(self):
        spikes = spikes_from_t([3.0], 1.0)
        # Diagonal small enough to push the energy estimate negative.
        d = spikes.s[0] ** 2 * 1.0 * 0.5
        geom = recover_population_geometry(np.array([[d]]), np.array([[1.0]]),
                                           spikes, 1.0, 1.0)
        assert geom.clipped == (0,)
        assert geom.alpha[0] > 0

    def test_tiny_cosine_rejected(self):
        spikes = spikes_from_t([3.0], 1.0)
        bad = SpikeParams(1, spikes.observed, spikes.t, np.array([1e-9]),
                          spikes.c_tilde, np.array([1.0]), spikes.s_tilde, 1.0)
        with pytest.raises(IllConditionedRecoveryError):
            recover_population_geometry(np.eye(1), np.eye(1), bad, 1.0, 1.0)


def test_sign_flip_invariance():
    # Flipping an SVD pair (u_k, v_k) must leave the assembled denoiser and
    # the error estimate untouched.
    from spectral_denoise import optimal_coefficients
    from spectral_denoise.denoise import _amse_raw
    rng = np.random.default_rng(11)
    p, n, r = 200, 150, 2
    U, _ = np.linalg.qr(rng.standard_normal((p, r)))
    V, _ = np.linalg.qr(rng.standard_normal((n, r)))
    spikes = spikes_from_t([3.0, 2.4], p / n)
    om = WeightOperator.from_diagonal(rng.uniform(0.3, 1.5, p))
    pi = WeightOperator.from_diagonal(rng.uniform(0.3, 1.5, n))
    mu, nu = trace_weight(om, p), trace_weight(pi, n)

    def assemble(U, V):
        D = weighted_gram(U, om)
        Dt = weighted_gram(V, pi)
        geom = recover_population_geometry(D, Dt, spikes, mu, nu)
        coeff = optimal_coefficients(geom)
        return U @ coeff @ V.T, _amse_raw(geom)

    X1, a1 = assemble(U, V)
    flip = np.array([1.0, -1.0])
    X2, a2 = assemble(U * flip, V * flip)
    assert np.allclose(X1, X2, atol=1e-12)
    assert a1 == pytest.approx(a2, abs=1e-12)


@pytest.mark.slow
def test_genericity_of_random_unit_vectors():
    # Projection weights see a fraction mu of a random unit vector's energy;
    # the recovered energy should concentrate on mu as p grows.
    from spectral_denoise import spectral_denoise
    t = 3.0
    errs = []
    for p in (400, 1600):
        n = p
        reps = 8
        rng = np.random.default_rng(p)
        om = WeightOperator.from_indices(np.arange(p // 2), p)
        vals = []
        for _ in range(reps):
            u = rng.standard_normal(p)
            u /= np.linalg.norm(u)
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            Y = t * np.outer(u, v) + rng.standard_normal((p, n)) / np.sqrt(n)
            res = spectral_denoise(Y, om, None, rank=1)
            vals.append(abs(res.geometry.alpha[0] - 0.5))
        errs.append(np.mean(vals))
    assert errs[1] < errs[0]
