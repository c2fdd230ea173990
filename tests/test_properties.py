"""Property sweep over shapes, ranks, sampling patterns and signal kinds.

Each case draws ``p, n`` in 6..40 and a seed (and, for the denoisers, a
forced rank 0-3), and plants three spikes well clear of the bulk edge, so
every forced rank is detectable.  The sampling-pattern properties are exact (bytes); the
paper's identities hold to 1e-10 of the largest entry, and every simlab signal kind
is its own SVD.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_denoise import (Partition, SamplingPattern, SpectralDenoiseError,
                              WeightOperator, backproject, diagonal_denoise,
                              localized_denoise, missing_data_denoise,
                              spectral_denoise, svs_shrink)
from spectral_denoise.simlab import gen_signal, make_rng

SWEEP = settings(max_examples=40, deadline=None, derandomize=True)
SHAPES = dict(p=st.integers(6, 40), n=st.integers(6, 40), seed=st.integers(0, 2**32 - 1))
RANKED = dict(SHAPES, rank=st.integers(0, 3))
ATOL = 1e-10


def planted(rng, p, n):
    """Three spikes 6, 4.5 and 3 above the bulk edge, plus iid N(0, 1/n) noise."""
    t = 1.0 + np.sqrt(p / n) + np.array([6.0, 4.5, 3.0])
    U, _ = np.linalg.qr(rng.standard_normal((p, 3)))
    V, _ = np.linalg.qr(rng.standard_normal((n, 3)))
    return (U * t) @ V.T + rng.standard_normal((p, n)) / np.sqrt(n)


def sampled(rng, p, n):
    """A pattern of ``sqrt(n) * planted`` entries with probabilities in [0.7, 1]."""
    q_row, q_col = rng.uniform(0.7, 1.0, p), rng.uniform(0.7, 1.0, n)
    mask = rng.random((p, n)) < np.outer(q_row, q_col)
    return np.sqrt(n) * planted(rng, p, n), mask, q_row, q_col


def outcome(pattern, rank):
    """The bytes of every factor, or the domain error raised instead."""
    try:
        res = missing_data_denoise(pattern, rank=rank)
    except SpectralDenoiseError as err:
        return type(err), str(err)
    return res.left.tobytes(), res.right.tobytes(), res.amse_estimate


def close(a, b):
    return np.max(np.abs(a - b), initial=0.0) <= ATOL * max(np.max(np.abs(b), initial=0.0), 1.0)


@SWEEP
@given(**RANKED)
def test_coordinate_order_does_not_change_bytes(p, n, rank, seed):
    rng = np.random.default_rng(seed)
    full, mask, q_row, q_col = sampled(rng, p, n)
    rows, cols = np.nonzero(mask)
    order = rng.permutation(rows.size)
    a = SamplingPattern.from_coordinates(rows, cols, full[mask], q_row, q_col)
    b = SamplingPattern.from_coordinates(rows[order], cols[order], full[mask][order],
                                         q_row, q_col)
    assert backproject(a).tobytes() == backproject(b).tobytes()
    assert outcome(a, rank) == outcome(b, rank)


@SWEEP
@given(**SHAPES)
def test_dense_and_coordinate_patterns_agree(p, n, seed):
    rng = np.random.default_rng(seed)
    full, mask, q_row, q_col = sampled(rng, p, n)
    a = SamplingPattern.from_dense(full, mask, q_row, q_col)
    b = SamplingPattern.from_coordinates(*np.nonzero(mask), full[mask], q_row, q_col)
    for field in ("q_row", "q_col", "rows", "cols", "values"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
    assert a.shape == b.shape == (p, n)
    assert backproject(a).tobytes() == np.where(mask, full, 0.0).tobytes()


@SWEEP
@given(**SHAPES)
def test_duplicate_or_out_of_range_coordinate_raises(p, n, seed):
    rng = np.random.default_rng(seed)
    full, mask, q_row, q_col = sampled(rng, p, n)
    rows, cols = np.nonzero(mask)
    values = full[mask]
    k = int(rng.integers(rows.size))
    with pytest.raises(ValueError, match="duplicate"):
        SamplingPattern.from_coordinates(np.append(rows, rows[k]), np.append(cols, cols[k]),
                                         np.append(values, 0.0), q_row, q_col)
    for bad_rows, bad_cols in ((p, cols[k]), (-1, cols[k]), (rows[k], n), (rows[k], -1)):
        r, c = rows.copy(), cols.copy()
        r[k], c[k] = bad_rows, bad_cols
        with pytest.raises(ValueError, match="out of range"):
            SamplingPattern.from_coordinates(r, c, values, q_row, q_col)


@SWEEP
@given(**RANKED)
def test_unit_weights_and_one_block_equal_shrinkage(p, n, rank, seed):
    Y = planted(np.random.default_rng(seed), p, n)
    ref = svs_shrink(Y, rank=rank)
    ones_p = WeightOperator.from_diagonal(np.ones(p))
    ones_n = WeightOperator.from_diagonal(np.ones(n))
    whole_p = Partition.from_lists(p, [list(range(p))])
    whole_n = Partition.from_lists(n, [list(range(n))])
    for res in (spectral_denoise(Y, ones_p, ones_n, rank=rank),
                diagonal_denoise(Y, ones_p, ones_n, rank=rank),
                localized_denoise(Y, whole_p, whole_n, rank=rank), ref):
        assert res.rank == rank
        assert np.array_equal(res.estimate, res.left @ res.right.T)
        assert close(res.estimate, ref.estimate)


@SWEEP
@given(**RANKED)
def test_full_observation_equals_scaled_shrinkage(p, n, rank, seed):
    full = np.sqrt(n) * planted(np.random.default_rng(seed), p, n)
    pattern = SamplingPattern.from_dense(full, np.ones((p, n), dtype=bool),
                                         np.ones(p), np.ones(n))
    res = missing_data_denoise(pattern, rank=rank)
    assert res.rank == rank
    assert np.array_equal(res.estimate, res.left @ res.right.T)
    assert close(res.estimate, np.sqrt(n) * svs_shrink(full / np.sqrt(n), rank=rank).estimate)


def signal_params(kind, rng, p, n, tie):
    """Valid keywords for a ``kind`` draw; ``tie`` makes the first two values equal."""
    if kind == "checkerboard":
        return {"f": 1.0 if tie else rng.uniform(0.5, 1.0), "cells": 2}
    r = int(rng.integers(1, 3 if kind == "piecewise_constant" else 4))
    t = np.sort(rng.uniform(0.5, 5.0, r))[::-1]
    if tie:
        t[1:2] = t[0]
    if kind == "random_orthonormal":
        return {"t": t, "rng": make_rng(int(rng.integers(2**32)))}
    if kind == "piecewise_constant":
        return {"t": t, "energy_fraction": rng.uniform(0.05, 0.95)}
    if kind == "custom":
        return {"t": t, "U": np.linalg.qr(rng.standard_normal((p, r)))[0],
                "V": np.linalg.qr(rng.standard_normal((n, r)))[0]}
    return {"t": t}


@SWEEP
@given(kind=st.sampled_from(["checkerboard", "random_orthonormal", "piecewise_constant",
                             "block_image", "custom"]), tie=st.booleans(), **SHAPES)
def test_every_signal_kind_is_an_exact_svd(kind, tie, p, n, seed):
    if kind == "checkerboard":  # two cells per side
        p, n = p - p % 2, n - n % 2
    sig = gen_signal(kind, p, n, **signal_params(kind, np.random.default_rng(seed), p, n, tie))
    r = sig.t.size
    assert sig.X.shape == (p, n) and sig.U.shape == (p, r) and sig.V.shape == (n, r)
    np.testing.assert_allclose(sig.X, (sig.U * sig.t) @ sig.V.T, rtol=0, atol=1e-12)
    for M in (sig.U, sig.V):
        np.testing.assert_allclose(M.T @ M, np.eye(r), rtol=0, atol=1e-12)
    assert np.all(sig.t > 0) and np.all(np.diff(sig.t) <= 0)
