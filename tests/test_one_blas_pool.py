"""Products in scipy's BLAS against the same code with numpy's products.

Every product larger than ``r x r`` runs in scipy's BLAS through
``_blas.abt`` and norms are summed by ``_blas.norm``.  These tests run each
pipeline as shipped and again with those products put back into numpy
(``a @ b.T``, ``np.linalg.norm``).  The estimates must agree within 1e-12
of their largest entry, with the same ranks and clipped components.
"""

import numpy as np
import pytest

from spectral_denoise import _blas, applications, denoise, geometry
from spectral_denoise._svd import svd_head_above
from spectral_denoise.applications import NoiseCovariances, submatrix_denoise, whiten_denoise
from spectral_denoise.denoise import spectral_denoise, svs_shrink
from spectral_denoise.localized import localized_denoise, make_equispaced_partition
from spectral_denoise.simlab import metrics, run_experiment, scenarios, signals, two_block_vectors

TOL = 1e-12
MARGIN = 0.05


def _numpy_abt(a, b):
    return np.asarray(a, dtype=float) @ np.asarray(b, dtype=float).T


@pytest.fixture
def numpy_products(monkeypatch):
    """A switch that sends every ``abt`` and ``norm`` to numpy for the rest of the test."""
    def switch():
        for module in (denoise, geometry, applications, signals, scenarios):
            monkeypatch.setattr(module, "abt", _numpy_abt)
        monkeypatch.setattr(metrics, "norm", lambda m: float(np.linalg.norm(m)))
    return switch


def _planted(rng, p, n, r):
    U = np.linalg.qr(rng.standard_normal((p, r)))[0]
    V = np.linalg.qr(rng.standard_normal((n, r)))[0]
    t = (p / n) ** 0.25 + 1.5 + np.arange(r, dtype=float)[::-1]
    return (U * t) @ V.T


def _pipelines(p, n, r, seed):
    """``name -> result`` for every pipeline on one seeded input."""
    rng = np.random.default_rng(seed)
    X = _planted(rng, p, n, r)
    Y = X + rng.standard_normal((p, n)) / np.sqrt(n)
    S = np.linspace(0.25, 1.0, p)
    T = np.linspace(0.25, 1.0, n)
    T /= T.mean()
    Yh = X + np.sqrt(S)[:, None] * rng.standard_normal((p, n)) / np.sqrt(n) * np.sqrt(T)
    omega = rng.uniform(0.5, 1.5, p)
    pi = rng.uniform(0.5, 1.5, n)
    return {
        "shrink": svs_shrink(Y, margin=MARGIN),
        "diagonal weights": spectral_denoise(Y, omega, pi, margin=MARGIN),
        "localized 4x4": localized_denoise(Y, make_equispaced_partition(p, 4),
                                           make_equispaced_partition(n, 4), margin=MARGIN),
        "whiten": whiten_denoise(Yh, NoiseCovariances(S, T), margin=MARGIN),
        "submatrix": submatrix_denoise(Y, np.arange(p // 2), np.arange(n // 2), margin=MARGIN),
    }


def _clipped(res):
    return (res.denoise if hasattr(res, "denoise") else res).clipped_components


def _close(a, b):
    return np.max(np.abs(a - b), initial=0.0) <= TOL * np.max(np.abs(b), initial=0.0)


SHAPES = [(500, 1000, 3), (500, 1000, 5), (200, 900, 3), (900, 200, 3)]


@pytest.mark.parametrize("p, n, r", SHAPES)
def test_estimate_matches_numpy_product(p, n, r, numpy_products):
    ours = _pipelines(p, n, r, seed=p + n + r)
    for name, res in ours.items():
        assert res.rank == r, name
        assert res.estimate.flags.c_contiguous, name
        assert _close(res.estimate, res.left @ res.right.T), name
    numpy_products()
    for name, ref in _pipelines(p, n, r, seed=p + n + r).items():
        res = ours[name]
        assert res.rank == ref.rank, name
        assert _clipped(res) == _clipped(ref), name
        assert _close(res.estimate, ref.estimate), name


def test_dense_weights_and_covariances_match_numpy(numpy_products):
    rng = np.random.default_rng(4)
    p, n = 60, 90
    Y = 3.0 * _planted(rng, p, n, 2) + rng.standard_normal((p, n)) / np.sqrt(n)
    A = rng.standard_normal((p, p)) / np.sqrt(p)
    B = rng.standard_normal((n, n)) / np.sqrt(n)
    cov = NoiseCovariances(A @ A.T + np.eye(p), B @ B.T + np.eye(n)).normalize()

    def run():
        return (spectral_denoise(Y, A, B, rank=2), whiten_denoise(Y, cov, rank=2),
                cov.whiten(Y))

    ours = run()
    numpy_products()
    refs = run()
    for res, ref in zip(ours[:2], refs[:2]):
        assert _clipped(res) == _clipped(ref)
        assert _close(res.estimate, ref.estimate)
    assert _close(ours[2], refs[2])


def test_heteroscedastic_rows_match_numpy_norms(numpy_products):
    config = {"scenario": "heteroscedastic", "seed": 13, "replicates": 2}
    ours = run_experiment(config).rows
    numpy_products()
    refs = run_experiment(config).rows
    assert len(ours) == len(refs) == 4
    for row, ref in zip(ours, refs):
        assert row.keys() == ref.keys()
        for key, value in ref.items():
            assert abs(row[key] - value) <= TOL * abs(value), key


def test_abt_shapes_and_layouts():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((7, 3))
    b = rng.standard_normal((5, 3))
    want = a @ b.T
    for x, y in ((a, b), (np.asfortranarray(a), b), (a, np.asfortranarray(b)),
                 (np.repeat(a, 2, axis=0)[::2], np.hstack([b, b])[:, :3])):
        got = _blas.abt(x, y)
        assert got.shape == (7, 5) and got.flags.c_contiguous
        assert _close(got, want)
    assert np.array_equal(_blas.abt(np.zeros((4, 0)), np.zeros((6, 0))), np.zeros((4, 6)))
    assert _blas.norm(np.array([[3.0, 0.0], [0.0, 4.0]])) == 5.0


def test_huge_threshold_takes_dense_fallback():
    rng = np.random.default_rng(2)
    Y = rng.standard_normal((20, 30)) / np.sqrt(30)
    res = svs_shrink(Y, margin=1e200)
    assert res.rank == 0 and np.all(res.estimate == 0)
    # Singular values near 1e200: the threshold's square overflows, the spike is kept.
    u = np.linalg.qr(rng.standard_normal((20, 1)))[0]
    v = np.linalg.qr(rng.standard_normal((30, 1)))[0]
    Z = 1e200 * (5.0 * u @ v.T + 0.2 * Y)
    U, s, V, spectrum = svd_head_above(Z, 1e200)
    assert s.size == 1 and U.shape == (20, 1) and V.shape == (30, 1)
    assert abs(s[0] - 5e200) <= 0.5e200
    assert spectrum.size == 20 and np.all(spectrum[1:] < 1e200)


@pytest.mark.parametrize("m", [0, 1, -3])
def test_two_block_vectors_needs_two_coordinates(m):
    with pytest.raises(ValueError, match=f"m={m}"):
        two_block_vectors(m)
