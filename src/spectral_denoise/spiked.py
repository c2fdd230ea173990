"""Closed-form asymptotics of the spiked model.

The observation model is ``Y = X + G`` with ``X`` of fixed low rank and
``G`` an iid noise matrix whose entries have variance ``1/n``, in the
proportional regime ``p/n -> gamma``.  Each population singular value
``t`` above the detection point ``gamma**0.25`` produces an observed
singular value above the bulk edge ``1 + sqrt(gamma)``, with known
cosines between the corresponding population and empirical singular
vectors.  This module holds the forward and inverse maps between the
two, plus rank detection and the per-component parameter recovery every
denoiser in the package starts from.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import BelowDetectionThresholdError, DegenerateEstimateError

__all__ = [
    "bulk_edge",
    "detection_point",
    "forward_singular_value",
    "invert_singular_value",
    "cosines",
    "naive_rank",
    "SpikeParams",
    "estimate_spike_params",
]


def _check_real(value, name: str) -> float:
    """``value`` as a ``float``; booleans and anything but a real scalar raise ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _check_gamma(gamma: float) -> float:
    gamma = _check_real(gamma, "gamma")
    if not np.isfinite(gamma) or gamma <= 0:
        raise ValueError(f"aspect ratio gamma must be positive and finite, got {gamma}")
    return gamma


def _check_margin(margin: float) -> float:
    margin = _check_real(margin, "margin")
    if not (np.isfinite(margin) and margin >= 0):
        raise ValueError(f"margin must be finite and nonnegative, got {margin}")
    return margin


def _check_int(value, name: str) -> int:
    """``value`` as an ``int``; floats, booleans and other non-integers raise ``ValueError``."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def _index_set(values, dim: int, name: str) -> np.ndarray:
    """``values`` as a 1-D ``intp`` array in ``[0, dim)``; anything else raises ``ValueError``."""
    dim = _check_int(dim, "dim")
    arr = np.asarray(values)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{name} must hold integers, got dtype {arr.dtype}")
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D index set, got {arr.ndim}-D")
    if arr.size and (arr.min() < 0 or arr.max() >= dim):
        raise ValueError(f"{name} out of range: entries must lie in [0, {dim})")
    return arr.astype(np.intp, copy=False)


def _check_t(t) -> np.ndarray:
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0) or not np.all(np.isfinite(t_arr)):
        raise ValueError("population singular value t must be positive and finite")
    return t_arr


def _check_spectrum(singular_values) -> np.ndarray:
    sv = np.asarray(singular_values, dtype=float)
    if sv.ndim != 1:
        raise ValueError("singular_values must be a 1-D vector")
    if sv.size and np.any(np.diff(sv) > 0):
        raise ValueError("singular_values must be sorted in descending order")
    return sv


def bulk_edge(gamma: float) -> float:
    """Asymptotic largest singular value of pure noise, ``1 + sqrt(gamma)``."""
    return 1.0 + np.sqrt(_check_gamma(gamma))


def detection_point(gamma: float) -> float:
    """Smallest population singular value that rises above the bulk, ``gamma**(1/4)``."""
    return _check_gamma(gamma) ** 0.25


def forward_singular_value(t, gamma: float):
    """Observed singular value produced by a population singular value ``t``.

    Returns ``sqrt((t**2 + 1) * (1 + gamma / t**2))`` above the detection
    point and the bulk edge ``1 + sqrt(gamma)`` below it.  Accepts scalars
    or arrays; the two branches agree at ``t = gamma**0.25``.
    """
    gamma = _check_gamma(gamma)
    t_arr = _check_t(t)
    t2 = t_arr**2
    above = np.sqrt((t2 + 1.0) * (1.0 + gamma / t2))
    lam = np.where(t_arr > detection_point(gamma), above, bulk_edge(gamma))
    return float(lam) if np.isscalar(t) or t_arr.ndim == 0 else lam


def invert_singular_value(lam, gamma: float):
    """Population singular value behind an observed singular value ``lam``.

    Inverts :func:`forward_singular_value` on the detectable branch.
    Requires ``lam > 1 + sqrt(gamma)``; at or below the bulk edge the map
    is not invertible and :class:`BelowDetectionThresholdError` is raised,
    naming the first offending value and, for arrays, its index.  Values
    past ``max_float**0.25 / 2`` raise :class:`DegenerateEstimateError`.
    """
    gamma = _check_gamma(gamma)
    lam_arr = np.asarray(lam, dtype=float)
    edge = bulk_edge(gamma)
    if np.any(lam_arr <= edge):
        k = int(np.argmax(lam_arr <= edge))
        at = f" at index {k}" if lam_arr.ndim else ""
        raise BelowDetectionThresholdError(
            f"singular value {lam_arr.flat[k]:.6g}{at} does not exceed "
            f"the bulk edge {edge:.6g}",
            index=k if lam_arr.ndim else None,
        )
    if np.any(lam_arr > np.finfo(float).max ** 0.25 / 2):  # m**2 and t**4 would overflow
        raise DegenerateEstimateError(
            f"singular value {lam_arr.max():.6g} is too large for the spiked-model maps")
    m = lam_arr**2 - 1.0 - gamma
    t = np.sqrt((m + np.sqrt(m**2 - 4.0 * gamma)) / 2.0)
    return float(t) if np.isscalar(lam) or lam_arr.ndim == 0 else t


def cosines(t, gamma: float):
    """Limiting alignments between population and empirical singular vectors.

    For a population singular value ``t`` above the detection point the
    squared cosines are

        c**2 = (t**4 - gamma) / (t**4 + gamma * t**2)   (left vectors)
        c_tilde**2 = (t**4 - gamma) / (t**4 + t**2)     (right vectors)

    and both are 0 below it.  Returns ``(c, c_tilde, s, s_tilde)`` with
    ``s = sqrt(1 - c**2)``; all values lie in [0, 1] and the non-negative
    sign convention is used throughout.  The numerators are evaluated as
    ``t**4 - gamma`` to avoid cancellation near the detection point.
    """
    gamma = _check_gamma(gamma)
    t_arr = _check_t(t)
    t2 = t_arr**2
    t4 = t2**2
    num = np.maximum(t4 - gamma, 0.0)
    c2 = np.where(t4 > gamma, num / (t4 + gamma * t2), 0.0)
    ct2 = np.where(t4 > gamma, num / (t4 + t2), 0.0)
    c2 = np.clip(c2, 0.0, 1.0)
    ct2 = np.clip(ct2, 0.0, 1.0)
    c = np.sqrt(c2)
    ct = np.sqrt(ct2)
    s = np.sqrt(1.0 - c2)
    st = np.sqrt(1.0 - ct2)
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(c), float(ct), float(s), float(st)
    return c, ct, s, st


def naive_rank(singular_values, gamma: float, margin: float = 0.0) -> int:
    """Count singular values exceeding ``1 + sqrt(gamma) + margin``.

    Input must be sorted in descending order.  The margin shifts the
    threshold upward to guard against bulk-edge fluctuations at finite n.
    """
    margin = _check_margin(margin)
    sv = _check_spectrum(singular_values)
    return int(np.sum(sv > bulk_edge(gamma) + margin))


@dataclass(frozen=True)
class SpikeParams:
    """Recovered per-component spiked-model parameters.

    All vectors have length ``rank`` and are ordered by descending
    observed singular value.  ``observed`` holds the empirical singular
    values, ``t`` the recovered population ones, and ``(c, c_tilde)`` /
    ``(s, s_tilde)`` the left/right cosine and sine pairs, each
    satisfying ``c**2 + s**2 == 1``.
    """

    rank: int
    observed: np.ndarray
    t: np.ndarray
    c: np.ndarray
    c_tilde: np.ndarray
    s: np.ndarray
    s_tilde: np.ndarray
    gamma: float

    def __post_init__(self):
        for name in ("observed", "t", "c", "c_tilde", "s", "s_tilde"):
            v = getattr(self, name)
            if v.shape != (self.rank,):
                raise ValueError(f"SpikeParams.{name} must have length rank={self.rank}")


def estimate_spike_params(singular_values, gamma: float, rank: int | None = None,
                          margin: float = 0.0) -> SpikeParams:
    """Recover population parameters from the top observed singular values.

    When ``rank`` is omitted it is detected with :func:`naive_rank`.
    When given, every one of the top ``rank`` singular values must exceed
    the bulk edge, otherwise :class:`BelowDetectionThresholdError` names
    the offending index.

    Exactly tied observed singular values are processed as distinct
    components; the asymptotic theory behind the recovery assumes strictly
    separated population values and does not cover exact ties.
    """
    gamma = _check_gamma(gamma)
    margin = _check_margin(margin)
    sv = _check_spectrum(singular_values)
    if rank is None:
        rank = naive_rank(sv, gamma, margin=margin)
    else:
        rank = _check_int(rank, "rank")
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        if rank > sv.size:
            raise ValueError(f"rank {rank} exceeds the {sv.size} singular values supplied")
    head = sv[:rank].copy()
    t = invert_singular_value(head, gamma)
    return SpikeParams(rank, head, t, *cosines(t, gamma), gamma)
