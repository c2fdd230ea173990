"""Spectral denoising of low-rank matrices under weighted Frobenius loss."""

from importlib.metadata import PackageNotFoundError, version

try:
    __version__ = version("spectral-denoise")
except PackageNotFoundError:  # running from a source tree
    __version__ = "0.1.0"

from .applications import (NoiseCovariances, PipelineResult, SamplingPattern, backproject,
                           estimate_noise_covariances, estimate_sampling_probabilities,
                           missing_data_denoise,
                           shrink_submatrix_baseline, snr_gain_tau,
                           submatrix_denoise, whiten_denoise)
from .denoise import (DenoiseResult, ShrinkageReport, SpectralFit, amse_estimate,
                      check_shrinkage_properties, diagonal_denoise,
                      optimal_coefficients, spectral_denoise, spectral_fit, svs_shrink)
from .errors import (BelowDetectionThresholdError, DegenerateEstimateError,
                     DimensionMismatchError, IllConditionedRecoveryError,
                     MatrixFileError, SpectralDenoiseError, UndefinedMetricError)
from .geometry import (Partition, WeightedGeometry, WeightOperator, as_weight_operator,
                       recover_population_geometry, trace_weight, weighted_gram)
from .localized import LocalizedResult, localized_denoise, make_equispaced_partition
from .spiked import (SpikeParams, bulk_edge, cosines, detection_point,
                     estimate_spike_params, forward_singular_value,
                     invert_singular_value, naive_rank)

__all__ = [
    "__version__",
    "BelowDetectionThresholdError", "DegenerateEstimateError",
    "DimensionMismatchError", "IllConditionedRecoveryError",
    "MatrixFileError", "SpectralDenoiseError", "UndefinedMetricError",
    "SpikeParams", "bulk_edge", "cosines", "detection_point",
    "estimate_spike_params", "forward_singular_value",
    "invert_singular_value", "naive_rank",
    "WeightOperator", "WeightedGeometry", "Partition", "as_weight_operator",
    "recover_population_geometry", "trace_weight", "weighted_gram",
    "DenoiseResult", "ShrinkageReport", "SpectralFit", "amse_estimate",
    "check_shrinkage_properties", "diagonal_denoise", "optimal_coefficients",
    "spectral_denoise", "spectral_fit", "svs_shrink",
    "LocalizedResult", "localized_denoise", "make_equispaced_partition",
    "NoiseCovariances", "PipelineResult", "SamplingPattern", "backproject",
    "estimate_noise_covariances", "estimate_sampling_probabilities",
    "missing_data_denoise",
    "shrink_submatrix_baseline", "snr_gain_tau", "submatrix_denoise",
    "whiten_denoise",
]
