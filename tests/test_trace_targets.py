"""The benchmark tracer must find every function it traces and read its calls.

``perfbench/tracing.py`` wraps library functions by name; a name that a
refactor deletes or renames is reported as missing and the per-layer
metrics built on it silently read 0.  Its per-span extras read the
arguments and results of real calls (``len(result[3])`` of an SVD,
``localized_denoise``'s partitions), so a changed signature or result
breaks them.  These tests make both a failure.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

import spectral_denoise as sd
from spectral_denoise import denoise, io

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = _load_tracing().Tracer()
    original = denoise.svs_shrink
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert denoise.svs_shrink is original


def test_span_extras_read_real_calls(tmp_path):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    rng = np.random.default_rng(5)
    p, n = 30, 50
    U, _ = np.linalg.qr(rng.standard_normal((p, 2)))
    V, _ = np.linalg.qr(rng.standard_normal((n, 2)))
    Y = (U * [5.0, 4.0]) @ V.T + rng.standard_normal((p, n)) / np.sqrt(n)
    rows, cols = np.nonzero(rng.random((p, n)) < 0.8)
    path = tmp_path / "Y.csv"
    tracer.install()
    try:
        sd.svs_shrink(Y)
        sd.localized_denoise(Y, sd.make_equispaced_partition(p, 3),
                             sd.make_equispaced_partition(n, 5))
        pattern = sd.SamplingPattern.from_coordinates(
            rows, cols, np.sqrt(n) * Y[rows, cols], np.full(p, 0.8), np.ones(n))
        sd.missing_data_denoise(pattern)
        io.write_dense_csv(path, Y)
        io.read_dense_csv(path)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, 1, 1.0, 1.0, 1)
    assert set(metrics) == set(tracing.PER_LAYER)
    assert all(math.isfinite(v) for v in metrics.values()), metrics
    assert metrics["svd.calls"] > 0
    assert metrics["denoise.eigh_calls"] > 0
    assert metrics["localized.tiles"] == 15
    assert metrics["applications.pattern_s"] > 0
    assert metrics["io.read_mb_per_s"] > 0 and metrics["io.write_mb_per_s"] > 0
