"""The block formatter behind ``io.write_dense_csv`` writes ``repr``'s exact bytes.

Every case compares the bytes with ``csv_reference.write_dense_csv``, which
calls ``repr`` on each value.  The edge table holds the values where the
formatter's arithmetic is tightest: the switch between ``repr``'s positional
and exponent forms, powers of ten (where ``log10`` can round across an
integer) and of two (a lopsided rounding interval), the ends of the normal
range, and ties.  The last tests keep the writer's speed and memory from
slipping back without a failure.
"""

import tempfile
import tracemalloc
from pathlib import Path

import csv_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from spectral_denoise import _shortest, io

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
SHAPES = array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40)
TYPICAL_BITS = (int(np.float64(1e-6).view(np.int64)), int(np.float64(1e18).view(np.int64)))


def written(matrix) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        io.write_dense_csv(path, matrix)
        return path.read_bytes()


def assert_like_repr(matrix):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ref.csv"
        csv_reference.write_dense_csv(path, matrix)
        assert written(matrix) == path.read_bytes()


def around(x, k):
    """``x`` and the ``k`` doubles on each side of it."""
    return (np.float64(x).view(np.int64) + np.arange(-k, k + 1)).view(np.float64)


def edge_values():
    normal = np.finfo(float).tiny
    values = [np.array([0.0, 5e-324, 0.1, 0.3, 1 / 3, 0.9999999999999999, 9.999999999999998,
                        99999999999999.98, 157891799379026.875, np.nan, np.inf]),
              around(normal, 2), around(1e-4, 40), around(1e16, 40), around(4e15, 2),
              around(2.0**52, 2), around(np.finfo(float).max, 2)[:3]]
    values += [around(10.0**k, 2) for k in range(-307, 309)]
    values += [around(2.0**k, 2) for k in range(-1022, 1024)]
    values += [around(float(f"{s}e{e}"), 2) for s in significand_edges()
               for e in (-300, -297, -24, -21, -20, -17, -1, 0, 8, 287)]
    values = np.concatenate(values)
    return np.concatenate([values, -values])


def significand_edges():
    """17-digit significands at the edges of the digit stage, which splits them
    into a first digit and four digits at a time: 10**16 (first nine digits
    10**8, last eight 0), 10**16 + 10**8 - 1 (last eight 10**8 - 1), a "00"
    pair at each of the 8 pair positions and a "0000" at each of the 4 quad
    positions.  10**17 - 1 is no double's shortest significand; its neighbours
    carry into the exponent.  The exponents above put each in both of repr's
    forms, with 2- and 3-digit exponents, and near most a double has exactly
    these digits."""
    digits = "12345678912345678"
    return ([10**16, 10**17 - 1, 10**16 + 10**8 - 1]
            + [int(digits[:1 + 2 * j] + "00" + digits[3 + 2 * j:]) for j in range(8)]
            + [int(digits[:1 + 4 * j] + "0000" + digits[5 + 4 * j:]) for j in range(4)])


@PROPERTY
@given(arrays(np.int64, SHAPES, elements=st.one_of(st.integers(-2**63, 2**63 - 1),
                                                   st.integers(*TYPICAL_BITS))))
def test_bit_patterns_match_repr(bits):
    assert_like_repr(bits.view(np.float64))


@PROPERTY
@given(arrays(np.float64, SHAPES, elements=st.floats()))
def test_floats_match_repr(matrix):
    assert_like_repr(matrix)


def test_edge_table_matches_repr():
    values = edge_values()
    assert_like_repr(values.reshape(1, -1))
    assert_like_repr(values.reshape(-1, 2))


def layouts():
    block = _shortest.BLOCK
    return [(1, 1), (1, 57), (57, 1), (4, 0), (0, 3), (300, 37),
            (block // 64 + 1, 64), (1, block + 1), (block + 1, 1)]


@pytest.mark.parametrize("shape", layouts())
def test_layouts_match_repr(shape):
    rng = np.random.default_rng(sum(shape))
    big = rng.standard_normal((2 * shape[0], 3 * shape[1]))
    big *= 10.0 ** rng.integers(-6, 17, big.shape)
    view = big[::2, ::3]
    matrix = np.ascontiguousarray(view)
    text = written(matrix)
    assert written(np.asfortranarray(matrix)) == text
    assert written(view) == text
    assert_like_repr(matrix)


def guarded_values(monkeypatch, matrix) -> list:
    """The values of ``matrix`` that go through ``repr``, with the bytes checked."""
    guarded = []

    def counted(x):
        guarded.append(x)
        return repr(x)

    monkeypatch.setattr(_shortest, "_guard", counted)
    assert_like_repr(matrix)
    return guarded


def test_few_values_take_the_guard(monkeypatch):
    matrix = 0.01 * np.random.default_rng(0).standard_normal((200, 300))
    matrix[0, 0] = np.nan  # one value only repr writes
    assert 0 < len(guarded_values(monkeypatch, matrix)) < 0.02 * matrix.size


@pytest.mark.parametrize("kind", ["zeros", "signed zeros", "indicator", "tiny", "huge"])
def test_short_and_exponent_values_skip_the_guard(monkeypatch, kind):
    """Zeros, powers of two (0/1 data) and repr's exponent form, mixed among
    other values, are proven digits: only ties among them need repr."""
    rng = np.random.default_rng(2)
    values = {"zeros": np.zeros(2400),
              "signed zeros": np.where(rng.random(2400) < 0.5, 0.0, -0.0),
              "indicator": (rng.random(2400) < 0.3).astype(float),
              "tiny": 1e-5 * rng.standard_normal(2400),
              "huge": 1e20 * rng.standard_normal(2400)}[kind]
    matrix = np.where(rng.random(2400) < 0.5, values, rng.standard_normal(2400)).reshape(40, 60)
    assert len(guarded_values(monkeypatch, matrix)) < 0.01 * matrix.size


@pytest.mark.parametrize("shape", [(1000, 20), (37, 113), (1, 3000)])
def test_repeated_values_take_the_guard_once_a_block(monkeypatch, shape):
    """A rank-zero estimate is all zeros and 0/1 data hold two values: a block
    of few distinct values writes each of them once, with repr."""
    few = np.array([0.0, -0.0, 1.0, 0.1, np.nan, -np.inf, 5e-324, 1e300])
    matrix = np.random.default_rng(3).choice(few, shape)
    blocks = -(-matrix.size // _shortest.BLOCK)
    assert len(guarded_values(monkeypatch, matrix)) <= few.size * blocks
    assert len(guarded_values(monkeypatch, np.zeros(shape))) == blocks


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.transpose])
def test_memory_stays_bounded(layout):
    """Blocks are copied one at a time, so no layout costs a copy of the matrix."""
    matrix = layout(np.random.default_rng(1).standard_normal((1000, 2000)))
    with tempfile.TemporaryDirectory() as tmp:
        tracemalloc.start()
        try:
            io.write_dense_csv(Path(tmp) / "m.csv", matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4e6
