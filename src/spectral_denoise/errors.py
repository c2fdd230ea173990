"""Exception types shared across the package.

All of these derive from ``ValueError`` so that callers who do not care
about the distinction can catch a single class.
"""


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
