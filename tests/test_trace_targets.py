"""The benchmark tracer must find every function it traces.

``perfbench/tracing.py`` wraps library functions by name; a name that a
refactor deletes or renames is reported as missing and the per-layer
metrics built on it silently read 0.  This test makes that a failure.
"""

import importlib.util
from pathlib import Path

from spectral_denoise import denoise

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
