"""Differential tests of the head SVD against ``np.linalg.svd``.

Tolerances, for spikes at most ~10x the threshold on matrices of a few
hundred rows (observed errors are ~1e-15, so they leave three orders of
headroom):

* singular values: ``|s - s_ref| <= S_RTOL * s_1``;
* singular vectors of separated values, after sign alignment:
  ``max |u - u_ref| <= VEC_ATOL`` (likewise ``v``); tied values are
  compared through the projector onto their span;
* residuals: ``||Y v - s u|| <= RESID_RTOL * s_1`` for every triplet.
"""

import numpy as np
import pytest

from spectral_denoise._svd import svd_head_above, top_svd

S_RTOL = 1e-12
VEC_ATOL = 1e-10
RESID_RTOL = 1e-12


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


@pytest.mark.parametrize("shape", [(120, 300), (300, 120)])
def test_head_matches_dense_svd(shape):
    p, n = shape
    Y = spiked(np.random.default_rng(1), p, n)
    tau = edge(p, n)
    U, s, V, spectrum = svd_head_above(Y, tau)
    assert s.size == int(np.sum(reference(Y)[1] > tau)) == 3
    assert U.shape == (p, 3) and V.shape == (n, 3)
    np.testing.assert_array_equal(spectrum, s)
    assert_triplets(Y, U, s, V)


@pytest.mark.parametrize("shape", [(120, 300), (300, 120)])
def test_forced_rank_matches_dense_svd(shape):
    p, n = shape
    Y = spiked(np.random.default_rng(2), p, n)
    U, s, V, spectrum = top_svd(Y, 5)
    assert U.shape == (p, 5) and V.shape == (n, 5)
    np.testing.assert_array_equal(spectrum[:5], s)
    assert_triplets(Y, U, s, V)


def test_rank_zero():
    rng = np.random.default_rng(3)
    for Y in (rng.standard_normal((80, 200)) / np.sqrt(200), np.zeros((80, 200))):
        U, s, V, spectrum = svd_head_above(Y, edge(80, 200))
        assert U.shape == (80, 0) and s.shape == (0,) and V.shape == (200, 0)
        assert spectrum.size == 0
    U, s, V, spectrum = top_svd(np.zeros((80, 200)), 2)
    np.testing.assert_array_equal(s, 0.0)
    assert spectrum.size == 80  # s_k == 0: the dense fallback ran
    assert top_svd(rng.standard_normal((80, 200)), 0)[1].size == 0


def test_tied_spikes():
    rng = np.random.default_rng(4)
    Y = with_singular_values(rng, 90, 150, [5.0, 3.0, 3.0, 0.5])
    U, s, V, _ = svd_head_above(Y, 1.0)
    np.testing.assert_allclose(s, [5.0, 3.0, 3.0], rtol=S_RTOL)
    assert_triplets(Y, U, s, V, tied=(1, 2))


@pytest.mark.parametrize("shape", [(100, 160), (160, 100)])
@pytest.mark.parametrize("offset,count", [(1e-9, 2), (-1e-9, 1)])
def test_value_next_to_threshold_is_counted_exactly(shape, offset, count):
    tau = 1.7
    Y = with_singular_values(np.random.default_rng(5), *shape,
                             [3.0, tau * (1 + offset), 1.0])
    U, s, V, spectrum = svd_head_above(Y, tau)
    assert s.size == int(np.sum(reference(Y)[1] > tau)) == count
    assert_triplets(Y, U, s, V)


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


@pytest.mark.parametrize("shape", [(60, 100), (100, 60)])
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


def test_negative_threshold_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        svd_head_above(np.ones((3, 4)), -1.0)
