"""Small head SVDs on one scipy BLAS thread, against runs on the count as found.

``_svd`` runs a head whose Gram order ``min(p, n)`` is below
``_svd._ONE_THREAD_BELOW`` inside ``_blas.one_thread``, which sets scipy's
OpenBLAS to one thread and restores the count on exit.  These tests check
that the caller's count survives every exit, that heads above the gate
never touch it, that the context is a no-op without the setter, and that
the pipelines agree with a two-thread run within 1e-12 of the largest
entry, with the same ranks and clipped components.
"""

import sys
import threading

import numpy as np
import pytest
from test_one_blas_pool import _clipped, _close, _pipelines

from spectral_denoise import _blas, _svd
from spectral_denoise._svd import svd_head_above, top_svd

SETTER = _blas._thread_setter()
needs_setter = pytest.mark.skipif(SETTER is None, reason="scipy's BLAS has no thread setter")
BELOW = _svd._ONE_THREAD_BELOW


def _count() -> int:
    """scipy's OpenBLAS thread count, read by setting it and putting it back."""
    found = SETTER(1)
    SETTER(found)
    return found


@pytest.fixture
def calls(monkeypatch):
    """Every count handed to the setter during the test, in order."""
    seen = []

    def recording(n):
        seen.append(n)
        return SETTER(n)

    monkeypatch.setattr(_blas, "_thread_setter", lambda: recording)
    return seen


@pytest.fixture
def two_threads():
    """scipy's OpenBLAS on two threads for the test, the count as found after."""
    found = SETTER(2)
    yield
    SETTER(found)


def _noise(p, n, seed=0):
    return np.random.default_rng(seed).standard_normal((p, n)) / np.sqrt(n)


@needs_setter
def test_small_head_runs_on_one_thread_and_restores_the_count(calls, two_threads):
    Y = _noise(40, 80)
    for head in (lambda: svd_head_above(Y, 1.5), lambda: top_svd(Y, 3)):
        calls.clear()
        head()
        assert calls == [1, 2]
        assert _count() == 2


@needs_setter
def test_count_restored_when_the_head_raises(calls, two_threads):
    Y = _noise(30, 50)
    Y[3, 4] = np.nan  # the Gram is not finite, and the dense fallback rejects Y
    for head in (lambda: svd_head_above(Y, 1.5), lambda: top_svd(Y, 2)):
        calls.clear()
        with pytest.raises(ValueError, match="infs or NaNs"):
            head()
        assert calls == [1, 2]
        assert _count() == 2


@needs_setter
@pytest.mark.parametrize("shape", [(BELOW, BELOW + 10), (BELOW + 10, BELOW)])
def test_head_above_the_gate_never_sets_the_count(shape, calls, two_threads):
    Y = _noise(*shape)
    svd_head_above(Y, 1.5)
    top_svd(Y, 2)
    assert calls == []


@needs_setter
def test_nested_and_concurrent_entries_restore_the_count(two_threads):
    with _blas.one_thread:
        with _blas.one_thread:
            assert _count() == 1
        seen = []
        # The count is process-wide: another Python thread sees it too.
        reader = threading.Thread(target=lambda: seen.append(_count()))
        reader.start()
        reader.join(timeout=10)
        assert seen == [1]
        assert _count() == 1
    assert _count() == 2

    Y = _noise(60, 120)
    errors = []

    def worker():
        try:
            for _ in range(25):
                svd_head_above(Y, 1.5)
        except Exception as exc:  # read by the main thread below
            errors.append(exc)

    workers = [threading.Thread(target=worker) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    assert _count() == 2


def test_context_is_a_no_op_without_the_setter(monkeypatch):
    Y = _noise(50, 70)
    want = svd_head_above(Y, 1.2)
    found = _count() if SETTER is not None else None
    monkeypatch.setattr(_blas, "_thread_setter", lambda: None)
    with _blas.one_thread:
        got = svd_head_above(Y, 1.2)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    if SETTER is not None:
        assert _count() == found


@needs_setter
@pytest.mark.parametrize("p, n, r", [(300, 600, 3), (BELOW + 20, 900, 3)])
def test_pipelines_match_a_two_thread_run(p, n, r, monkeypatch, two_threads):
    ours = _pipelines(p, n, r, seed=p + n + r)
    monkeypatch.setattr(_svd, "_ONE_THREAD_BELOW", 0)
    for name, ref in _pipelines(p, n, r, seed=p + n + r).items():
        res = ours[name]
        assert res.rank == ref.rank == r, name
        assert _clipped(res) == _clipped(ref), name
        assert _close(res.estimate, ref.estimate), name
        if min(p, n) >= BELOW:  # the gate changed nothing
            assert res.estimate.tobytes() == ref.estimate.tobytes(), name

