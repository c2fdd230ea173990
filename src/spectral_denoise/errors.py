"""Exception types and the argument rules shared across the package.

All of these derive from ``ValueError`` so that callers who do not care about the
distinction can catch a single class; a rule's error names the argument it rejects.
"""

import math
import numbers
import operator

import numpy as np


class SpectralDenoiseError(ValueError):
    """Base class for domain errors raised by this package."""


class DimensionMismatchError(SpectralDenoiseError):
    """Shapes of two inputs are incompatible."""


class BelowDetectionThresholdError(SpectralDenoiseError):
    """A requested component sits at or below the noise bulk edge."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class IllConditionedRecoveryError(SpectralDenoiseError):
    """A cosine estimate is too small to divide by safely."""


class DegenerateEstimateError(SpectralDenoiseError):
    """An estimator received input it cannot produce a finite answer for."""


class UndefinedMetricError(SpectralDenoiseError):
    """A metric's denominator is zero."""


class MatrixFileError(SpectralDenoiseError):
    """A matrix, index, partition or config file could not be parsed."""


_MAX_INTP = int(np.iinfo(np.intp).max)  # the default upper bound of ``_check_int``


def _shown(value, show=repr) -> str:
    """``show(value)``, or its type for what Python will not print: an int of > 4300 digits."""
    try:
        return show(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _check_real(value, name: str, positive: bool = False, nonnegative: bool = False,
                finite: bool = False) -> float:
    """``value`` as a ``float``; booleans, anything but a real scalar, a number past the
    float range and, if ``positive`` (``nonnegative``, ``finite``), anything but a finite
    number > 0 (>= 0, of any sign) raise ``ValueError``.  It converts before it compares."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {_shown(value)}")
    try:
        real = float(value)
    except OverflowError:  # an int or a fraction past the largest float
        raise ValueError(f"{name} must be a real number within the float range") from None
    if positive and not 0 < real < math.inf:
        raise ValueError(f"{name} must be a finite number > 0, got {_shown(value, str)}")
    if nonnegative and not 0 <= real < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {_shown(value, str)}")
    if finite and not math.isfinite(real):
        raise ValueError(f"{name} must be a finite number, got {_shown(value, str)}")
    return real


def _check_int(value, name: str, low: int | None = None, high: int | None = _MAX_INTP) -> int:
    """``value`` as an ``int``; floats, booleans, arrays other than 0-d integer ones, other
    non-integers and values outside ``[low, high]`` raise ``ValueError``.  ``low=None`` is
    open; ``high`` defaults to the largest ``intp``, and ``None`` (seeds, offsets) is open."""
    try:  # a bool is no integer here: operator.index(None) raises TypeError
        value = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {_shown(value)}") from None
    too_high = high is not None and value > high
    if too_high or (low is not None and value < low):
        bound = (f"in [{low}, {high}]" if low is not None and high not in (None, _MAX_INTP)
                 else f"<= {high}" if too_high else "nonnegative" if low == 0 else f">= {low}")
        raise ValueError(f"{name}={_shown(value)} must be {bound}")
    return value


def _expect(value, kind, name: str):
    """``value`` itself if it is a ``kind``; anything else raises ``ValueError``."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _index_set(values, dim: int, name: str) -> np.ndarray:
    """``values`` as a 1-D ``intp`` array in ``[0, dim)``; anything else raises ``ValueError``."""
    dim = _check_int(dim, "dim")
    if isinstance(values, np.ma.MaskedArray):  # np.asarray would drop the mask
        raise ValueError(f"{name} must not be a masked array")
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # a ragged list
        raise ValueError(f"{name} must be a 1-D index set: {exc}") from None
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{name} must hold integers, got dtype {arr.dtype}")
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D index set, got {arr.ndim}-D")
    if arr.size and (arr.min() < 0 or arr.max() >= dim):
        raise ValueError(f"{name} out of range: entries must lie in [0, {dim})")
    return arr.astype(np.intp, copy=False)


def _real_array(values, name: str, ndim: int | None = None, finite: bool = True) -> np.ndarray:
    """``values`` as a float array, a float64 array as itself; complex data, text or other
    non-numbers, another dimension than ``ndim`` or, if ``finite``, nan or inf raise
    ``ValueError``, as does a masked array, whose mask ``np.asarray`` would drop."""
    if isinstance(values, np.ma.MaskedArray):
        raise ValueError(f"{name} must not be a masked array")
    try:
        arr = np.asarray(values)
        if arr.dtype.kind in "SU" or arr.dtype == object and any(
                isinstance(v, (str, bytes)) for v in arr.flat):
            raise TypeError(f"could not convert text of dtype {arr.dtype} to float")
        if not np.iscomplexobj(arr):
            arr = arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:  # text, a dict, a ragged list, 10**400
        raise ValueError(f"{name} must hold numbers: {exc}") from None
    if arr.dtype != float:
        raise ValueError(f"{name} must be real, got dtype {arr.dtype}")
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got {arr.ndim}-D")
    if finite and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must have finite entries")
    return arr


def _as_matrix(Y) -> np.ndarray:
    """``Y`` as a float array, checked to be a non-empty matrix of finite entries."""
    Y = _real_array(Y, "Y", ndim=2)
    if Y.size == 0:
        raise DegenerateEstimateError(f"Y is empty (shape {Y.shape[0]}x{Y.shape[1]})")
    return Y


def _as_mask(mask) -> np.ndarray:
    """``mask`` as booleans; it must hold booleans, or numbers that are all 0 or 1."""
    if not (type(mask) is np.ndarray and mask.dtype == bool):  # a masked one meets _real_array
        mask = _real_array(mask, "mask", finite=False)
        if not np.all((mask == 0) | (mask == 1)):  # NaN fails both comparisons
            raise ValueError("mask must hold booleans, or numbers that are all 0 or 1")
    return mask.astype(bool, copy=False)
