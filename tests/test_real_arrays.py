"""Every float-array argument follows one rule: ``spiked._real_array``.

Complex data, text, data that is not numbers and (where the site needs
finite values) nan or inf raise ``ValueError`` naming the argument.  They
never drop an imaginary part, read text as numbers, return a value or raise
``TypeError``.  A mask holds booleans or 0s and 1s.  An argument that must
be an object of one of the package's types, or a real scalar, follows the
same rule.
"""

import os
import re

import numpy as np
import pytest

from spectral_denoise import (DegenerateEstimateError, NoiseCovariances, Partition,
                              SamplingPattern, WeightOperator, amse_estimate,
                              as_weight_operator, check_shrinkage_properties, cosines,
                              diagonal_denoise, estimate_noise_covariances,
                              estimate_sampling_probabilities, estimate_spike_params,
                              forward_singular_value, invert_singular_value, localized_denoise,
                              naive_rank, optimal_coefficients, recover_population_geometry,
                              shrink_submatrix_baseline, snr_gain_tau, spectral_denoise,
                              spectral_fit, submatrix_denoise, svs_shrink, weighted_gram,
                              whiten_denoise)
from spectral_denoise._svd import svd_head_above
from spectral_denoise.io import validate_report, write_coordinate_csv, write_dense_csv
from spectral_denoise.simlab import gen_signal, relative_error, weighted_loss
from spectral_denoise.spiked import _real_array

_Y = np.random.default_rng(3).standard_normal((6, 8)) / np.sqrt(8)
_V = np.eye(5)[:, :2]
_COV = NoiseCovariances(np.ones(6), np.ones(8))
_SPIKES = estimate_spike_params([3.0, 2.5], 0.5)
_A, _B = np.eye(6, 2), np.eye(8, 2)
_Q_ROW, _Q_COL = np.full(2, 0.5), np.full(3, 0.5)
_ROWS, _COLS = Partition.from_lists(6, [[0, 1, 2], [3, 4, 5]]), Partition.from_lists(8, [range(8)])


def _custom(U=np.eye(10, 2), t=(2.0, 1.0), V=np.eye(10, 2)):
    return gen_signal("custom", 10, 10, t=t, U=U, V=V)


# (id, call with the argument replaced by x, the argument's real value, a pattern for
# its name in the error, whether the site needs finite values).  A weight that is not
# an array is read as a dense one.
ARGUMENTS = [
    ("spectral_denoise", spectral_denoise, _Y, "Y", True),
    ("diagonal_denoise", diagonal_denoise, _Y, "Y", True),
    ("svs_shrink", svs_shrink, _Y, "Y", True),
    ("spectral_fit", spectral_fit, _Y, "Y", True),
    ("localized_denoise", lambda x: localized_denoise(x, _ROWS, _COLS), _Y, "Y", True),
    ("submatrix_denoise", lambda x: submatrix_denoise(x, [0, 1], [2]), _Y, "Y", True),
    ("shrink_submatrix_baseline", lambda x: shrink_submatrix_baseline(x, [0, 1], [2]), _Y,
     "Y", True),
    ("whiten_denoise", lambda x: whiten_denoise(x, _COV), _Y, "Y", True),
    ("estimate_noise_covariances", estimate_noise_covariances, _Y, "Y", True),
    ("NoiseCovariances-row", lambda x: NoiseCovariances(x, np.ones(8)), np.ones(6),
     "row covariance", True),
    ("NoiseCovariances-col", lambda x: NoiseCovariances(np.ones(6), x), np.eye(8),
     "col covariance", True),
    ("NoiseCovariances.whiten", _COV.whiten, _Y, "Y", False),
    ("SamplingPattern-q_row", lambda x: SamplingPattern(x, _Q_COL, [0, 1], [0, 2], [1.0, 2.0]),
     _Q_ROW, "q_row", True),
    ("SamplingPattern-q_col", lambda x: SamplingPattern(_Q_ROW, x, [0, 1], [0, 2], [1.0, 2.0]),
     _Q_COL, "q_col", True),
    ("SamplingPattern-values", lambda x: SamplingPattern(_Q_ROW, _Q_COL, [0, 1], [0, 2], x),
     np.array([1.0, 2.0]), "values", True),
    ("from_dense-full", lambda x: SamplingPattern.from_dense(x, np.ones((2, 3), bool),
                                                             _Q_ROW, _Q_COL),
     np.ones((2, 3)), "full", False),
    ("from_diagonal", WeightOperator.from_diagonal, np.ones(5), "diag weight", True),
    ("from_matrix", WeightOperator.from_matrix, np.eye(5), "dense weight", True),
    ("as_weight_operator", lambda x: as_weight_operator(x, 5), np.ones(5), "(diag|dense) weight",
     True),
    ("apply", WeightOperator.from_diagonal(np.ones(5)).apply, _V, "vectors", False),
    ("weighted_gram", lambda x: weighted_gram(x, None), _V, "vectors", True),
    ("recover-gram_left", lambda x: recover_population_geometry(x, np.eye(2), _SPIKES, 1.0, 1.0),
     np.eye(2), "gram_left", False),
    ("recover-gram_right", lambda x: recover_population_geometry(np.eye(2), x, _SPIKES, 1.0, 1.0),
     np.eye(2), "gram_right", False),
    ("forward_singular_value", lambda x: forward_singular_value(x, 0.5), np.array([2.0, 1.5]),
     "population singular value t", True),
    ("cosines", lambda x: cosines(x, 0.5), np.array(2.0), "population singular value t", True),
    ("invert_singular_value", lambda x: invert_singular_value(x, 0.5), np.array(3.0), "lam",
     True),
    ("naive_rank", lambda x: naive_rank(x, 0.5), np.array([3.0, 2.5]), "singular_values", True),
    ("estimate_spike_params", lambda x: estimate_spike_params(x, 0.5), np.array([3.0, 2.5]),
     "singular_values", True),
    ("check_shrinkage_properties", lambda x: check_shrinkage_properties(1.0, 1, 1, 1, 1, x),
     np.array([1.5, 2.0]), "t_grid", True),
    ("relative_error-X_hat", lambda x: relative_error(x, _Y), _Y, "X_hat", False),
    ("relative_error-X", lambda x: relative_error(_Y, x), _Y, "X", False),
    ("relative_error-factor", lambda x: relative_error((x, _B), (_A, _B)), _A, "X_hat", False),
    ("weighted_loss-A", lambda x: weighted_loss(x, _Y), _Y, "A", False),
    ("weighted_loss-B", lambda x: weighted_loss((_A, _B), (_A, x)), _B, "B", False),
    ("write_dense_csv", lambda x: write_dense_csv(os.devnull, x), _Y, "matrix", False),
    ("write_coordinate_csv", lambda x: write_coordinate_csv(os.devnull, [0, 1], [0, 1], x),
     np.array([1.0, 2.0]), "values", False),
    ("gen_signal-U", lambda x: _custom(U=x), np.eye(10, 2), "custom signal U", True),
    ("gen_signal-t", lambda x: _custom(t=x), np.array([2.0, 1.0]), "custom signal t", True),
    ("gen_signal-V", lambda x: _custom(V=x), np.eye(10, 2), "custom signal V", True),
]


def _bad(kind, good):
    if kind == "complex-array":
        return good + 1j
    if kind == "complex-list":
        return (good + 1j).tolist()
    if kind == "dict":
        return {}
    if kind == "text":
        return good.astype(str)
    if kind == "past-float-range":  # an int no float can hold
        bad = good.astype(object)
        bad.flat[0] = 10**400
        return bad
    bad = good.copy()
    bad.flat[0] = np.nan
    return bad


@pytest.mark.parametrize("call, good, name, kind", [
    pytest.param(call, good, name, kind, id=f"{label}-{kind}")
    for label, call, good, name, finite in ARGUMENTS
    for kind in ("complex-array", "complex-list", "dict", "text", "past-float-range")
    + (("nan",) if finite else ())
])
def test_argument_that_is_not_a_real_array_is_a_value_error_naming_it(call, good, name, kind):
    call(good)  # the real value is accepted
    with pytest.raises(ValueError, match=rf"^{name}\b") as info:
        call(_bad(kind, good))
    assert info.type is ValueError


# nan or inf in a singular value, a spectrum or a set of unit vectors.
@pytest.mark.parametrize("call, name", [
    (lambda: invert_singular_value(float("nan"), 0.5), "lam"),
    (lambda: invert_singular_value(float("inf"), 0.5), "lam"),
    (lambda: naive_rank([float("nan"), 3.0], 0.5), "singular_values"),
    (lambda: weighted_gram(np.array([[1.0, np.nan], [0.0, 1.0]]), None), "vectors"),
], ids=["invert-nan", "invert-inf", "naive-rank-nan", "weighted-gram-nan"])
def test_non_finite_spectrum_or_vectors_is_a_value_error(call, name):
    with pytest.raises(ValueError, match=f"^{name} must have finite entries$") as info:
        call()
    assert info.type is ValueError


@pytest.mark.parametrize("call, name", [
    (lambda: check_shrinkage_properties(1.0, 1 + 1j, 1.0, 1.0, 1.0, [1.5, 2.0]), "alpha"),
    (lambda: check_shrinkage_properties(1.0, 1.0, 1.0, 1.0, {}, [1.5, 2.0]), "nu"),
    (lambda: recover_population_geometry(np.eye(2), np.eye(2), _SPIKES, np.complex128(1), 1.0),
     "mu"),
    (lambda: svd_head_above(np.ones((20, 30)), "3.0"), "threshold"),
    (lambda: svd_head_above(np.ones((20, 30)), True), "threshold"),
], ids=["shrinkage-alpha-complex", "shrinkage-nu-dict", "recover-mu-complex",
        "head-threshold-text", "head-threshold-bool"])
def test_scalar_arguments_are_real_numbers(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be a real number") as info:
        call()
    assert info.type is ValueError


# Weighted energies and normalized traces: finite and > 0.
@pytest.mark.parametrize("name", ["alpha", "beta", "mu", "nu"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0, 0])
def test_shrinkage_check_energies_and_traces_are_finite_and_positive(name, value):
    kwargs = dict(alpha=1.0, beta=1.0, mu=1.0, nu=1.0)
    kwargs[name] = value
    with pytest.raises(ValueError, match=f"^{name} must be a finite number > 0") as info:
        check_shrinkage_properties(1.0, t_grid=[1.5, 2.0], **kwargs)
    assert info.type is ValueError


_GEOM = spectral_fit(_Y, rank=0).denoise().geometry


# An argument that must be one of the package's objects: anything else is a
# ValueError naming it, never an AttributeError or a TypeError.
@pytest.mark.parametrize("call, message", [
    (lambda: snr_gain_tau(None), "cov must be a NoiseCovariances, got NoneType"),
    (lambda: amse_estimate(None), "geom must be a WeightedGeometry, got NoneType"),
    (lambda: optimal_coefficients(3), "geom must be a WeightedGeometry, got int"),
    (lambda: recover_population_geometry(np.eye(1), np.eye(1), None, 1.0, 1.0),
     "spikes must be a SpikeParams, got NoneType"),
    (lambda: validate_report(None), "report must be a dict, got NoneType"),
], ids=["snr_gain_tau", "amse_estimate", "optimal_coefficients", "recover-spikes",
        "validate_report"])
def test_wrong_object_is_a_value_error_naming_it(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is ValueError


def test_typed_arguments_of_the_right_type_are_accepted():
    assert snr_gain_tau(_COV) == 1.0
    assert amse_estimate(_GEOM) == 0.0
    assert optimal_coefficients(_GEOM).shape == (0, 0)


_MASK = np.array([[1, 0, 1], [0, 1, 1]])
MASK_CALLS = {
    "from_dense": lambda m: SamplingPattern.from_dense(np.ones((2, 3)), m, _Q_ROW, _Q_COL),
    "estimate_sampling_probabilities": estimate_sampling_probabilities,
}
BAD_MASKS = {"complex": _MASK + 1j, "complex-list": (_MASK + 0j).tolist(), "dict": {},
             "halves": np.full((2, 3), 0.5), "nan": np.full((2, 3), np.nan),
             "two": 2 * _MASK, "text": _MASK.astype(str)}


@pytest.mark.parametrize("kind", sorted(BAD_MASKS))
@pytest.mark.parametrize("site", sorted(MASK_CALLS))
def test_mask_that_is_not_booleans_or_zeros_and_ones_is_a_value_error(site, kind):
    with pytest.raises(ValueError, match=r"^mask\b") as info:
        MASK_CALLS[site](BAD_MASKS[kind])
    assert info.type is ValueError


@pytest.mark.parametrize("mask", [np.zeros((2, 3)), np.zeros((0, 3), bool), np.zeros((0, 0))],
                         ids=["zeros", "empty-rows", "empty"])
def test_mask_with_no_observed_entry_is_a_degenerate_estimate(mask):
    with pytest.raises(DegenerateEstimateError, match="mask has no observed entries"):
        estimate_sampling_probabilities(mask)


def test_mask_of_zeros_and_ones_reads_as_the_boolean_mask():
    for call in MASK_CALLS.values():
        for mask in (_MASK, _MASK.astype(float), _MASK.tolist()):
            want, got = call(_MASK.astype(bool)), call(mask)
            if isinstance(want, SamplingPattern):
                want, got = (want.rows, want.cols, want.values), (got.rows, got.cols, got.values)
            for w, g in zip(want, got):
                np.testing.assert_array_equal(g, w)


def test_real_array_rule_and_wording():
    x = np.arange(6.0).reshape(2, 3)
    assert _real_array(x, "x", ndim=2) is x  # float64 takes no copy
    assert _real_array([1, 2], "x").dtype == np.float64
    assert np.isnan(_real_array([np.nan], "x", finite=False)[0])
    for bad, message in ((x + 0j, "x must be real, got dtype complex128"),
                         ({}, "x must hold numbers: "),
                         (x.astype(str), "x must hold numbers: could not convert text of "
                                         "dtype <U32 to float"),
                         (x.astype(bytes), "x must hold numbers: could not convert text"),
                         (np.array([1.0, "2"], dtype=object), "x must hold numbers: could not "
                                                              "convert text of dtype object"),
                         ([1.0, b"2"], "x must hold numbers: could not convert text"),
                         ([[10**400, 1.0]], "x must hold numbers: int too large to convert"),
                         ([[1.0], [1.0, 2.0]], "x must hold numbers: "),
                         (x[0], "x must be 2-D, got 1-D"),
                         ([1.0, np.inf], "x must have finite entries")):
        with pytest.raises(ValueError, match=re.escape(message)):
            _real_array(bad, "x", ndim=2 if message.endswith("1-D") else None)
