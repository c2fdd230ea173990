"""Differential tests of the head SVD against ``np.linalg.svd``.

Tolerances, for spikes at most ~10x the threshold on matrices of a few
hundred rows (observed errors are ~1e-15, so they leave three orders of
headroom):

* singular values: ``|s - s_ref| <= S_RTOL * s_1``;
* singular vectors of separated values, after sign alignment:
  ``max |u - u_ref| <= VEC_ATOL`` (likewise ``v``); tied values are
  compared through the projector onto their span;
* residuals: ``||Y v - s u|| <= RESID_RTOL * s_1`` for every triplet.

Shapes whose short side reaches ``_KRYLOV_MIN_DIM`` take the block Krylov
path with its Cholesky count certificate; the ``solver`` fixture counts
which routines a call ran.
"""

import tracemalloc

import numpy as np
import pytest

from spectral_denoise import _svd, spectral_fit
from spectral_denoise._svd import svd_head_above, top_svd

S_RTOL = 1e-12
VEC_ATOL = 1e-10
RESID_RTOL = 1e-12

#: Shapes whose Gram takes the Krylov path, wide and tall.
BIG = _svd._KRYLOV_MIN_DIM
WIDE, TALL = (BIG, BIG + 300), (BIG + 300, BIG)


def with_singular_values(rng, p, n, s):
    """A ``p x n`` matrix with Haar-random singular vectors and values ``s``."""
    m = len(s)
    U, _ = np.linalg.qr(rng.standard_normal((p, m)))
    V, _ = np.linalg.qr(rng.standard_normal((n, m)))
    return (U * np.asarray(s, dtype=float)) @ V.T


def spiked(rng, p, n, t=(6.0, 4.0, 2.5)):
    """Planted spikes ``t`` plus iid ``N(0, 1/n)`` noise."""
    return with_singular_values(rng, p, n, t) + rng.standard_normal((p, n)) / np.sqrt(n)


def edge(p, n, margin=0.05):
    return 1.0 + np.sqrt(p / n) + margin


def spike_for(ratio, p, n):
    """Spike strength whose observed squared value is ``ratio * edge(p, n)**2``."""
    g, target = p / n, ratio * edge(p, n)**2
    # observed s**2 = (1 + t**2) (g + t**2) / t**2; solve for x = t**2
    b = 1 + g - target
    return np.sqrt((-b + np.sqrt(b * b - 4 * g)) / 2)


@pytest.fixture
def solver(monkeypatch):
    """Counts of Krylov products, certificates and ``dsyevr`` calls."""
    calls = {"krylov": 0, "certificate": 0, "dsyevr": 0}

    def counted(name, fn, when=lambda kwargs: True):
        def wrapper(*args, **kwargs):
            calls[name] += when(kwargs)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(_svd, "dsymm", counted("krylov", _svd.dsymm))
    monkeypatch.setattr(_svd, "dpotrf", counted("certificate", _svd.dpotrf))
    monkeypatch.setattr(_svd, "eigh", counted("dsyevr", _svd.eigh,
                                              lambda kwargs: kwargs.get("driver") == "evr"))
    return calls


def dsyevr_only(monkeypatch, run):
    """``run()`` with the Krylov path switched off."""
    with monkeypatch.context() as m:
        m.setattr(_svd, "_KRYLOV_MIN_DIM", np.inf)
        return run()


def assert_same_bytes(a, b):
    for x, y in zip(a, b):
        assert x.tobytes() == y.tobytes()


def reference(Y):
    U, s, Vt = np.linalg.svd(Y, full_matrices=False)
    return U, s, Vt.T


def assert_triplets(Y, U, s, V, tied=()):
    """Check ``(U, s, V)`` against the reference SVD's leading triplets."""
    k = s.size
    U0, s0, V0 = reference(Y)
    scale = max(s0[0], 1.0)
    np.testing.assert_array_less(np.abs(s - s0[:k]), S_RTOL * scale)
    resid = np.linalg.norm(Y @ V - U * s, axis=0)
    np.testing.assert_array_less(resid, RESID_RTOL * scale)
    separate = [i for i in range(k) if i not in tied]
    sign = np.sign(np.sum(U[:, separate] * U0[:, separate], axis=0))
    assert np.max(np.abs(U[:, separate] * sign - U0[:, separate])) <= VEC_ATOL
    assert np.max(np.abs(V[:, separate] * sign - V0[:, separate])) <= VEC_ATOL
    if tied:
        tied = list(tied)
        for W, W0 in ((U[:, tied], U0[:, tied]), (V[:, tied], V0[:, tied])):
            assert np.max(np.abs(W @ W.T - W0 @ W0.T)) <= VEC_ATOL


@pytest.mark.parametrize("shape", [(120, 300), (300, 120), WIDE, TALL])
def test_head_matches_dense_svd(shape, solver):
    p, n = shape
    Y = spiked(np.random.default_rng(1), p, n)
    tau = edge(p, n)
    U, s, V, spectrum = svd_head_above(Y, tau)
    krylov = min(shape) >= BIG
    assert (solver["certificate"], solver["dsyevr"]) == (krylov, not krylov)
    assert s.size == int(np.sum(reference(Y)[1] > tau)) == 3
    assert U.shape == (p, 3) and V.shape == (n, 3)
    np.testing.assert_array_equal(spectrum, s)
    assert_triplets(Y, U, s, V)


@pytest.mark.parametrize("shape", [(120, 300), (300, 120), WIDE])
def test_forced_rank_matches_dense_svd(shape, solver):
    p, n = shape
    k = 3 if min(shape) >= BIG else 5  # Krylov takes a rank within the spikes
    Y = spiked(np.random.default_rng(2), p, n)
    U, s, V, spectrum = top_svd(Y, k)
    assert solver["certificate"] == (min(shape) >= BIG)
    assert U.shape == (p, k) and V.shape == (n, k)
    np.testing.assert_array_equal(spectrum[:k], s)
    assert_triplets(Y, U, s, V)


def test_forced_rank_past_the_krylov_block_takes_dsyevr(solver):
    k = _svd._BLOCK + 1
    Y = spiked(np.random.default_rng(12), *WIDE)
    U, s, V, spectrum = top_svd(Y, k)
    assert solver == {"krylov": 0, "certificate": 0, "dsyevr": 1}
    assert U.shape == (WIDE[0], k) and V.shape == (WIDE[1], k)
    np.testing.assert_array_equal(spectrum, s)
    assert_triplets(Y, U, s, V)


def test_rank_zero(solver):
    rng = np.random.default_rng(3)
    for Y in (rng.standard_normal((80, 200)) / np.sqrt(200), np.zeros((80, 200))):
        U, s, V, spectrum = svd_head_above(Y, edge(80, 200))
        assert U.shape == (80, 0) and s.shape == (0,) and V.shape == (200, 0)
        assert spectrum.size == 0
    U, s, V, spectrum = top_svd(np.zeros((80, 200)), 2)
    np.testing.assert_array_equal(s, 0.0)
    assert spectrum.size == 80  # s_k == 0: the dense fallback ran
    assert top_svd(rng.standard_normal((80, 200)), 0)[1].size == 0
    # Above the gate the certificate proves that the noise has rank 0; the
    # zero matrix exhausts the Krylov space and dsyevr finds nothing.
    p, n = WIDE
    for Y in (rng.standard_normal(WIDE) / np.sqrt(n), np.zeros(WIDE)):
        U, s, V, spectrum = svd_head_above(Y, edge(p, n))
        assert U.shape == (p, 0) and s.shape == (0,) and V.shape == (n, 0)
        assert spectrum.size == 0
    assert solver["certificate"] == 1
    U, s, V, spectrum = top_svd(np.zeros(WIDE), 2)
    np.testing.assert_array_equal(s, 0.0)
    assert spectrum.size == p
    U, s, V, spectrum = top_svd(with_singular_values(rng, p, n, [3.0, 2.0]), 3)
    np.testing.assert_allclose(s, [3.0, 2.0, 0.0], rtol=S_RTOL, atol=S_RTOL)
    assert spectrum.size == p


def test_tied_spikes(solver, monkeypatch):
    rng = np.random.default_rng(4)
    Y = with_singular_values(rng, 90, 150, [5.0, 3.0, 3.0, 0.5])
    U, s, V, _ = svd_head_above(Y, 1.0)
    np.testing.assert_allclose(s, [5.0, 3.0, 3.0], rtol=S_RTOL)
    assert_triplets(Y, U, s, V, tied=(1, 2))
    # Above the gate a tie wider than the Krylov block leaves tied
    # directions outside the basis: the certificate fails and dsyevr gives
    # its own bytes.
    ties = _svd._BLOCK + 2
    values = [5.0] + [3.0] * ties + list(np.linspace(0.5, 0.0, BIG - ties - 1))
    Y = with_singular_values(rng, *WIDE, values)
    head = svd_head_above(Y, 1.0)
    U, s, V, _ = head
    np.testing.assert_allclose(s, values[:ties + 1], rtol=S_RTOL)
    assert_triplets(Y, U, s, V, tied=range(1, ties + 1))
    assert solver["krylov"] and solver["certificate"] == 1
    assert_same_bytes(head, dsyevr_only(monkeypatch, lambda: svd_head_above(Y, 1.0)))


@pytest.mark.parametrize("shape", [(100, 160), (160, 100), WIDE])
@pytest.mark.parametrize("offset,count", [(1e-9, 2), (-1e-9, 1)])
def test_value_next_to_threshold_is_counted_exactly(shape, offset, count, solver,
                                                    monkeypatch):
    # Above the gate a bulk keeps the Gram full rank, so the Krylov space
    # does not run out; a value this close to tau sends the count to dsyevr.
    tau = 1.7
    bulk = np.linspace(0.5 * tau, 0.0, min(shape) - 2) if min(shape) >= BIG else [1.0]
    Y = with_singular_values(np.random.default_rng(5), *shape,
                             [3.0, tau * (1 + offset), *bulk])
    head = svd_head_above(Y, tau)
    U, s, V, spectrum = head
    assert s.size == int(np.sum(reference(Y)[1] > tau)) == count
    assert_triplets(Y, U, s, V)
    assert solver["dsyevr"] == 1 and solver["certificate"] == 0
    if min(shape) >= BIG:
        assert solver["krylov"]
        assert_same_bytes(head, dsyevr_only(monkeypatch, lambda: svd_head_above(Y, tau)))


def test_weak_spike_aborts_krylov_early(solver, monkeypatch):
    # The weakest spike sits 5% above tau**2, so Krylov would need more
    # steps than its budget; its Ritz values show that within a few steps.
    Y = spiked(np.random.default_rng(11), *WIDE, t=(6.0, 4.0, spike_for(1.05, *WIDE)))
    tau = edge(*WIDE)
    head = svd_head_above(Y, tau)
    assert head[1].size == 3
    assert 0 < solver["krylov"] <= 8
    assert solver["certificate"] == 0 and solver["dsyevr"] == 1
    assert_same_bytes(head, dsyevr_only(monkeypatch, lambda: svd_head_above(Y, tau)))


@pytest.mark.parametrize("shape", [(70, 110), (110, 70)])
def test_memory_layout_does_not_change_bytes(shape):
    Y = spiked(np.random.default_rng(6), *shape)
    F = np.asfortranarray(Y)
    assert not F.flags.c_contiguous
    tau = edge(*shape)
    for a, b in ((svd_head_above(Y, tau), svd_head_above(F, tau)),
                 (top_svd(Y, 4), top_svd(F, 4))):
        for x, y in zip(a, b):
            assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("shape", [(60, 100), (100, 60), WIDE])
def test_huge_spike_takes_dense_fallback(shape):
    p, n = shape
    Y = spiked(np.random.default_rng(7), p, n, t=(1e6, 4.0))
    tau = edge(p, n)
    U, s, V, spectrum = svd_head_above(Y, tau)
    assert spectrum.size == min(p, n)
    assert s.size == int(np.sum(reference(Y)[1] > tau)) == 2
    assert_triplets(Y, U, s, V)
    U, s, V, spectrum = top_svd(Y, 2)
    assert spectrum.size == min(p, n)
    assert_triplets(Y, U, s, V)


@pytest.mark.parametrize("shape", [(60, 100), (100, 60)])
def test_gram_overflow_takes_dense_fallback(shape):
    # Past s_1 ~ 1.34e154 the Gram overflows to inf; dsyevr would return
    # no eigenvalues for it, so the dense SVD must run instead.
    p, n = shape
    Y = spiked(np.random.default_rng(10), p, n)
    scale = 2.0**520
    U0, s0, V0, _ = top_svd(Y, 3)
    U, s, V, spectrum = top_svd(Y * scale, 3)
    assert s.size == 3 and spectrum.size == min(p, n)
    np.testing.assert_allclose(s, scale * s0, rtol=S_RTOL)
    sign = np.sign(np.sum(U * U0, axis=0))
    assert np.max(np.abs(U * sign - U0)) <= VEC_ATOL
    assert np.max(np.abs(V * sign - V0)) <= VEC_ATOL
    tau = edge(p, n)
    U, s, V, _ = svd_head_above(Y * scale, tau)
    ref = reference(Y)[1]
    assert s.size == int(np.sum(scale * ref > tau)) == min(p, n)
    np.testing.assert_allclose(s, scale * ref, rtol=S_RTOL * ref[0] / ref[-1])


def test_negative_threshold_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        svd_head_above(np.ones((3, 4)), -1.0)


@pytest.mark.parametrize("threshold", [np.inf, np.nan])
def test_nonfinite_threshold_rejected(threshold):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        svd_head_above(np.ones((3, 4)), threshold)


@pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
def test_empty_matrix_has_empty_head(shape, capfd):
    U, s, V, spectrum = svd_head_above(np.zeros(shape), 1.0)
    assert U.shape == (shape[0], 0) and V.shape == (shape[1], 0)
    assert s.size == spectrum.size == 0
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("shape", [(200, 2000), (2000, 200)])
def test_gram_path_does_not_copy_y(shape):
    # BLAS reads the Fortran-ordered view Y.T in place; a copy of Y
    # alone would take Y.nbytes.  The Gram and dsyevr's eigenvector
    # buffer take min(p, n)**2 doubles each, a tenth of Y each here.
    Y = spiked(np.random.default_rng(8), *shape)
    assert Y.flags.c_contiguous
    tau = edge(*shape)
    for run in (lambda: svd_head_above(Y, tau), lambda: top_svd(Y, 3)):
        tracemalloc.start()
        try:
            spectrum = run()[3]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spectrum.size == 3  # the Gram path ran
        assert peak < Y.nbytes / 2


@pytest.mark.parametrize("shape", [(80, 150), (150, 80), WIDE])
def test_repeated_calls_give_same_bytes(shape):
    Y = spiked(np.random.default_rng(9), *shape)
    tau = edge(*shape)

    def shrink():
        res = spectral_fit(Y).denoise()
        return res.left, res.right, res.estimate

    for run in (lambda: svd_head_above(Y, tau), lambda: top_svd(Y, 4), shrink):
        first, second = run(), run()
        for x, y in zip(first, second):
            assert x.tobytes() == y.tobytes()


def test_krylov_head_allocates_little_beyond_the_gram(solver):
    # dsyevr's value range allocates an m x m eigenvector array; the Krylov
    # basis (8 * 24 columns, 0.15 of the Gram at m = 1250) and the in-place
    # certificate stay well under that.
    Y = spiked(np.random.default_rng(12), *WIDE)
    gram_bytes = BIG * BIG * 8
    tracemalloc.start()
    try:
        spectrum = svd_head_above(Y, edge(*WIDE))[3]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spectrum.size == 3 and solver["certificate"] == 1 and solver["dsyevr"] == 0
    assert peak - gram_bytes < gram_bytes / 3
