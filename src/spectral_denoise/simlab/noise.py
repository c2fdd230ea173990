"""Reproducible noise generation and seed derivation.

``gen_noise(dist, p, n, seed, scale)`` draws iid noise.  ``dist`` is the
value a scenario config carries: ``"gaussian"``, ``"rademacher"``, or
Student-t as ``"t<df>"``, ``"t_<df>"`` or the number ``df``.

Random streams use the counter-based Philox generator, which produces
identical output across platforms and thread counts.  Per-replicate
seeds are derived from the base seed by adding the replicate index and
passing the sum through the splitmix64 mixing function, so neighbouring
replicates get decorrelated streams and the derivation is trivially
documented and stable.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import warnings

import numpy as np

from ..spiked import _check_int

__all__ = ["gen_noise", "splitmix64", "derive_seed", "make_rng"]

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixing function."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(base: int, index: int) -> int:
    """Seed for replicate ``index``: ``splitmix64(base + index)``."""
    return splitmix64((int(base) + int(index)) & _MASK64)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def gen_noise(dist, p: int, n: int, seed: int = 0, scale: float | None = None) -> np.ndarray:
    """Draw a ``p x n`` iid noise matrix; identical for identical arguments.

    ``scale`` defaults to ``1/sqrt(n)``, matching the spiked-model convention.
    Student-t draws with ``df > 2`` are rescaled to unit variance before
    scaling; ``df <= 2`` has no finite variance, is deliberately allowed for
    breakdown studies, and triggers a warning instead of normalization.
    """
    if _check_int(p, "noise p") <= 0 or _check_int(n, "noise n") <= 0:
        raise ValueError("noise dimensions must be positive")
    rng = make_rng(seed)
    scale = 1.0 / np.sqrt(n) if scale is None else scale
    if dist == "gaussian":
        return rng.standard_normal((p, n)) * scale
    if dist == "rademacher":
        return (rng.integers(0, 2, size=(p, n)) * 2.0 - 1.0) * scale
    df = math.nan  # Student-t: "t<df>", "t_<df>" or the number df
    if isinstance(dist, str) and dist.startswith("t"):
        with contextlib.suppress(ValueError):
            df = float(dist[1:].removeprefix("_"))
    elif isinstance(dist, numbers.Real) and not isinstance(dist, bool):
        with contextlib.suppress(OverflowError):
            df = float(dist)
    if not (math.isfinite(df) and df > 0):
        raise ValueError(f"unknown noise distribution {dist!r}; expected 'gaussian', "
                         "'rademacher', or Student-t 't<df>', 't_<df>' or df, finite df > 0")
    draws = rng.standard_t(df, size=(p, n))
    if df > 2:
        draws *= np.sqrt((df - 2.0) / df)
    else:
        warnings.warn(f"student_t noise with df={df} has infinite variance; "
                      "no variance normalization applied", RuntimeWarning)
    return draws * scale
