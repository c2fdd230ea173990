"""Every scalar range follows one rule: ``spiked._check_int`` or ``_check_real``.

A count takes closed bounds (``_check_int(value, name, low, high)``); a real
level is a finite number > 0 or >= 0 (``_check_real(..., positive=True)`` or
``nonnegative=True``).  A value just outside its range raises ``ValueError``
naming the argument, and the values on the boundary are still accepted.
"""

import numpy as np
import pytest

from spectral_denoise import (Partition, WeightOperator, cli, estimate_spike_params,
                              io, make_equispaced_partition, naive_rank, spectral_denoise,
                              spectral_fit, trace_weight)
from spectral_denoise._svd import svd_head_above, top_svd
from spectral_denoise.simlab import (gen_noise, gen_signal, offset_partition, resolve_config,
                                     run_experiment, two_block_vectors)
from spectral_denoise.spiked import _check_int, _check_real, bulk_edge

_Y = np.random.default_rng(0).standard_normal((6, 8)) / np.sqrt(8)
_STRONG = np.eye(6, 8) * np.arange(60.0, 0.0, -10.0)[:, None]  # six spikes above the bulk
_TINY = 5e-324  # the smallest positive float


def _complete_at(sd):
    """``complete`` at noise level ``sd`` with no input file: the level is checked first."""
    args = cli.build_parser().parse_args(["complete", "--input", "-", "--q-row", "-",
                                          "--q-col", "-", "--output", "-", f"--noise-sd={sd}"])
    return args.func(args)


def _simulate(scenario, jobs=1, **params):
    return run_experiment({"scenario": scenario, "replicates": 1, "scale": 0.1,
                           "params": params}, jobs=jobs)


# id: (call taking the scalar, words the message holds, a value just outside the
# range, the values on its boundary or, for an open bound, a value inside it;
# the CLI row has none, tests/test_cli.py runs ``complete`` at a valid level).
SITES = {
    "gamma": (bulk_edge, "gamma", 0.0, [_TINY]),
    "gamma-nan": (bulk_edge, "gamma", np.nan, [np.finfo(float).max]),
    "margin": (lambda v: naive_rank([3.0, 1.0], 1.0, margin=v), "margin", -_TINY, [0.0]),
    "spike-rank-low": (lambda v: estimate_spike_params([3.0, 2.5], 1.0, rank=v), "rank", -1,
                       [0]),
    "spike-rank-high": (lambda v: estimate_spike_params([3.0, 2.5], 1.0, rank=v), "rank", 3,
                        [2]),
    "top-svd-k": (lambda v: top_svd(_Y, v), "k", -1, [0]),
    "threshold": (lambda v: svd_head_above(_Y, v), "threshold", -_TINY, [0.0]),
    "threshold-inf": (lambda v: svd_head_above(_Y, v), "threshold", np.inf, [0.0]),
    "denoise-rank-low": (lambda v: spectral_denoise(_STRONG, rank=v), "rank", -1, [0]),
    "denoise-rank-high": (lambda v: spectral_denoise(_STRONG, rank=v), "rank", 7, [6]),
    "weight-dim": (WeightOperator.identity, "weight dim", -1, [0]),
    "partition-dim": (lambda v: Partition.from_lists(v, [list(range(v))]), "partition dim", 0,
                      [1]),
    "trace-dim": (lambda v: trace_weight(None, v), "trace dim", 0, [1]),
    "num-blocks-low": (lambda v: make_equispaced_partition(5, v), "num_blocks", 0, [1]),
    "num-blocks-high": (lambda v: make_equispaced_partition(5, v), "num_blocks", 6, [5]),
    "noise-sd": (_complete_at, "--noise-sd", 0.0, []),
    "noise-p": (lambda v: gen_noise("gaussian", v, 3), "noise p", 0, [1]),
    "noise-n": (lambda v: gen_noise("gaussian", 3, v), "noise n", 0, [1]),
    "two-block-m": (two_block_vectors, "m=1", 1, [2]),
    "checkerboard-cells": (lambda v: gen_signal("checkerboard", 8, 8, cells=v),
                           "checkerboard cells", 1, [2]),
    "signal-p": (lambda v: gen_signal("block_image", v, 4, t=(1.0,)), "block_image signal p",
                 0, [1]),
    "signal-n": (lambda v: gen_signal("block_image", 4, v, t=(1.0,)), "block_image signal n",
                 0, [1]),
    "replicates": (lambda v: resolve_config({"scenario": "submatrix", "replicates": v}),
                   "'replicates'", 0, [1]),
    "jobs": (lambda v: _simulate("rank-estimation", jobs=v), "jobs", 0, [1]),
    "kappa-grid": (lambda v: _simulate("heteroscedastic", kappa_grid=[10.0, v]), "kappa_grid",
                   0.0, [1.0]),
    "sigma-grid": (lambda v: _simulate("missing-data", sigma_grid=[v]), "sigma_grid", 0.0,
                   [0.25]),
    # A size past the largest intp: numpy could not index it.
    "noise-n-past-intp": (lambda v: gen_noise("gaussian", 5, v), "noise n", 2**64, []),
    "partition-dim-past-intp": (lambda v: make_equispaced_partition(v, 2), "dim=", 2**64, []),
    "index-weight-dim-past-intp": (lambda v: WeightOperator.from_indices([0], v), "weight dim",
                                   2**70, [1]),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_value_outside_the_range_names_the_argument(site):
    call, words, outside, _ = SITES[site]
    with pytest.raises(ValueError) as info:
        call(outside)
    assert info.type is ValueError
    assert words in str(info.value)


@pytest.mark.parametrize("site, value", [(site, value) for site in sorted(SITES)
                                         for value in SITES[site][3]])
def test_boundary_value_is_accepted(site, value):
    SITES[site][0](value)


@pytest.mark.parametrize("check, message", [
    (lambda: _check_int(-1, "k", low=0), "k=-1 must be nonnegative"),
    (lambda: _check_int(1, "m", low=2), "m=1 must be >= 2"),
    (lambda: _check_int(4, "rank", low=0, high=3), r"rank=4 must be in \[0, 3\]"),
    (lambda: _check_int(np.int64(-2), "rank", high=3, low=0), r"rank=-2 must be in \[0, 3\]"),
    (lambda: _check_real(-0.5, "margin", nonnegative=True),
     "margin must be finite and nonnegative, got -0.5"),
    (lambda: _check_real(np.inf, "gamma", positive=True),
     "gamma must be a finite number > 0, got inf"),
    (lambda: _check_int(2**63, "k", low=0),
     "k=9223372036854775808 must be <= 9223372036854775807"),
], ids=["low-0", "low-2", "closed-above", "closed-below", "real-nonnegative", "real-positive",
        "past-intp"])
def test_range_message_names_the_argument_and_its_range(check, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        check()


# Arguments of the wrong kind that used to end in a bare AttributeError, OverflowError or
# TypeError.
@pytest.mark.parametrize("call, words", [
    (lambda: gen_signal("random_orthonormal", 10, 10, t=(1.0,), rng=5),
     "random_orthonormal rng must be a Generator, got int"),
    (lambda: io.build_report("x", {}, None), "result.spikes must be a SpikeParams, got NoneType"),
    (lambda: io.build_report("x", {}, object()), "result.spikes"),
    (lambda: offset_partition(10, 2, "a"), "offset must be an integer, got 'a'"),
    (lambda: offset_partition(10, 2, 1.0), "offset must be an integer, got 1.0"),
    (lambda: _check_real(10**400, "t"), "t must be a real number within the float range"),
    (lambda: _check_real(10**400, "gamma", positive=True),
     "gamma must be a real number within the float range"),
    (lambda: bulk_edge(10**400), "gamma must be a real number within the float range"),
    (lambda: spectral_fit(_Y, margin=10**400), "margin must be a real number within"),
    (lambda: _check_int(np.array(1.0), "rank"), "rank must be an integer, got array(1.)"),
    (lambda: _check_int(np.array([1]), "rank"), "rank must be an integer, got array([1])"),
    (lambda: spectral_fit(_Y, rank=np.array(1.0)), "rank must be an integer, got array(1.)"),
], ids=["rng-int", "report-none", "report-object", "offset-text", "offset-float",
        "real-past-float-range", "positive-past-float-range", "bulk-edge-past-float-range",
        "fit-margin-past-float-range", "int-0d-float-array", "int-1d-array",
        "fit-rank-0d-float-array"])
def test_wrong_kind_is_a_domain_error(call, words):
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is ValueError
    assert words in str(info.value)


def test_zero_d_integer_array_is_an_integer():
    value = _check_int(np.array(3), "k", low=0)
    assert value == 3 and type(value) is int
