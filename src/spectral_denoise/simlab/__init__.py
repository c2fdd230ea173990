"""Synthetic-data generators, metrics, and the Monte Carlo experiment runner."""

from .metrics import relative_error, weighted_loss
from .noise import derive_seed, gen_noise, make_rng, splitmix64
from .runner import (CONFIG_SCHEMA_VERSION, ExperimentReport, resolve_config,
                     run_experiment)
from .scenarios import SCENARIOS, offset_partition
from .signals import Signal, gen_signal, two_block_vectors

__all__ = [
    "relative_error", "weighted_loss",
    "derive_seed", "gen_noise", "make_rng", "splitmix64",
    "CONFIG_SCHEMA_VERSION", "ExperimentReport", "resolve_config", "run_experiment",
    "SCENARIOS", "offset_partition",
    "Signal", "gen_signal", "two_block_vectors",
]
