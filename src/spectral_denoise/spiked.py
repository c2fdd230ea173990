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

from dataclasses import dataclass

import numpy as np

from .errors import (BelowDetectionThresholdError, DegenerateEstimateError, _check_int,
                     _check_real, _real_array)

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

#: Largest ``t``, ``lam`` and ``gamma`` the spiked-model maps take: ``t**4``,
#: ``lam**4`` and ``gamma * t**2`` stay finite up to it.
_MAP_MAX = float(np.finfo(float).max ** 0.25 / 2)


def _check_t(t, gamma, name: str = "population singular value t"):
    """``(t, gamma)`` of a map that squares ``t``: a float array and a float, both in
    ``(0, _MAP_MAX]``; anything else raises ``ValueError`` naming it."""
    gamma = _check_real(gamma, "gamma", positive=True)
    t_arr = _real_array(t, name)
    if np.any(t_arr <= 0):
        raise ValueError(f"{name} must be positive")
    for label, largest in (("gamma", gamma), (name, t_arr.max(initial=0.0))):
        if largest > _MAP_MAX:
            raise ValueError(f"{label} must be at most {_MAP_MAX:.6g}, got {largest:.6g}")
    return t_arr, gamma


def _detectable(t: np.ndarray, gamma: float) -> np.ndarray:
    """Whether each ``t`` is above the detection point; the branch's ``t**4 - gamma`` is > 0."""
    return (t * t)**2 > gamma


def _as_given(values: np.ndarray):
    """A map's result as a ``float`` for a scalar or 0-d input, else as the array."""
    return float(values) if values.ndim == 0 else values


def _check_spectrum(singular_values) -> np.ndarray:
    sv = _real_array(singular_values, "singular_values", ndim=1)
    if sv.size and np.any(np.diff(sv) > 0):
        raise ValueError("singular_values must be sorted in descending order")
    return sv


def bulk_edge(gamma: float) -> float:
    """Asymptotic largest singular value of pure noise, ``1 + sqrt(gamma)``."""
    return 1.0 + np.sqrt(_check_real(gamma, "gamma", positive=True))


def detection_point(gamma: float) -> float:
    """Smallest population singular value that rises above the bulk, ``gamma**(1/4)``."""
    return _check_real(gamma, "gamma", positive=True) ** 0.25


def forward_singular_value(t, gamma: float):
    """Observed singular value produced by a population singular value ``t``.

    Returns ``sqrt((t**2 + 1) * (1 + gamma / t**2))`` above the detection
    point (where ``t**4 > gamma``) and the bulk edge ``1 + sqrt(gamma)``
    below it; the two branches agree at ``t = gamma**0.25``.  Accepts
    scalars or arrays; ``t`` and ``gamma`` past ``max_float**0.25 / 2``
    raise ``ValueError``.
    """
    t_arr, gamma = _check_t(t, gamma)
    lam = np.full(t_arr.shape, bulk_edge(gamma))
    on = _detectable(t_arr, gamma)
    t2 = t_arr[on]**2
    lam[on] = np.sqrt((t2 + 1.0) * (1.0 + gamma / t2))
    return _as_given(lam)


def invert_singular_value(lam, gamma: float):
    """Population singular value behind an observed singular value ``lam``.

    Inverts :func:`forward_singular_value` on the detectable branch.
    Requires ``lam > 1 + sqrt(gamma)``; at or below the bulk edge the map
    is not invertible and :class:`BelowDetectionThresholdError` is raised,
    naming the first offending value and, for arrays, its index.  Finite
    values past ``max_float**0.25 / 2`` raise :class:`DegenerateEstimateError`,
    nan and inf ``ValueError``.
    """
    gamma = _check_real(gamma, "gamma", positive=True)
    lam_arr = _real_array(lam, "lam")
    edge = bulk_edge(gamma)
    if np.any(lam_arr <= edge):
        k = int(np.argmax(lam_arr <= edge))
        at = f" at index {k}" if lam_arr.ndim else ""
        raise BelowDetectionThresholdError(
            f"singular value {lam_arr.flat[k]:.6g}{at} does not exceed "
            f"the bulk edge {edge:.6g}",
            index=k if lam_arr.ndim else None,
        )
    if np.any(lam_arr > _MAP_MAX):  # m**2 and t**4 would overflow
        raise DegenerateEstimateError(
            f"singular value {lam_arr.max():.6g} is too large for the spiked-model maps")
    m = lam_arr.ravel()**2 - 1.0 - gamma  # 1-D: a scalar takes the array arithmetic
    t = np.sqrt((m + np.sqrt(m**2 - 4.0 * gamma)) / 2.0)
    return _as_given(t.reshape(lam_arr.shape))


def cosines(t, gamma: float):
    """Limiting alignments between population and empirical singular vectors.

    For a population singular value ``t`` above the detection point the
    squared cosines are

        c**2 = (t**4 - gamma) / (t**4 + gamma * t**2)   (left vectors)
        c_tilde**2 = (t**4 - gamma) / (t**4 + t**2)     (right vectors)

    and both are 0 below it, where ``t**4 <= gamma``.  Returns ``(c,
    c_tilde, s, s_tilde)`` with ``s = sqrt(1 - c**2)``; all values lie in
    [0, 1] and the non-negative sign convention is used throughout.  The
    numerators are evaluated as ``t**4 - gamma`` to avoid cancellation near
    the detection point.  ``t`` and ``gamma`` past ``max_float**0.25 / 2``
    raise ``ValueError``.
    """
    t_arr, gamma = _check_t(t, gamma)
    c2, ct2 = np.zeros(t_arr.shape), np.zeros(t_arr.shape)
    on = _detectable(t_arr, gamma)
    t2 = t_arr[on]**2
    t4 = t2**2
    c2[on] = (t4 - gamma) / (t4 + gamma * t2)
    ct2[on] = (t4 - gamma) / (t4 + t2)
    return tuple(_as_given(np.sqrt(v)) for v in (c2, ct2, 1.0 - c2, 1.0 - ct2))


def naive_rank(singular_values, gamma: float, margin: float = 0.0) -> int:
    """Count singular values exceeding ``1 + sqrt(gamma) + margin``.

    Input must be sorted in descending order.  The margin shifts the
    threshold upward to guard against bulk-edge fluctuations at finite n.
    """
    margin = _check_real(margin, "margin", nonnegative=True)
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
        _check_int(self.rank, "SpikeParams.rank", low=0)
        _check_real(self.gamma, "SpikeParams.gamma", positive=True)
        for name in ("observed", "t", "c", "c_tilde", "s", "s_tilde"):
            v = _real_array(getattr(self, name), f"SpikeParams.{name}", ndim=1)
            object.__setattr__(self, name, v)  # a float64 array is stored as itself
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
    gamma = _check_real(gamma, "gamma", positive=True)
    margin = _check_real(margin, "margin", nonnegative=True)
    sv = _check_spectrum(singular_values)
    if rank is None:
        rank = naive_rank(sv, gamma, margin=margin)
    else:
        rank = _check_int(rank, "rank", low=0, high=sv.size)
    head = sv[:rank].copy()
    t = invert_singular_value(head, gamma)
    return SpikeParams(rank, head, t, *cosines(t, gamma), gamma)
