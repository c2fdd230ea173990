import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_denoise import (BelowDetectionThresholdError, DegenerateEstimateError,
                              SpikeParams, bulk_edge, check_shrinkage_properties, cosines, detection_point,
                              estimate_spike_params, forward_singular_value,
                              invert_singular_value, naive_rank, spectral_fit)

GAMMAS = [0.1, 0.5, 1.0, 2.0, 4.0]


class TestForward:
    def test_hand_value(self):
        # sqrt((4+1)(1+1/4)) = sqrt(6.25)
        assert forward_singular_value(2.0, 1.0) == pytest.approx(2.5, abs=1e-12)

    def test_continuous_at_detection_point(self):
        for g in GAMMAS:
            t = g**0.25
            assert forward_singular_value(t, g) == pytest.approx(1 + np.sqrt(g), rel=1e-12)

    def test_subthreshold_sticks_to_bulk_edge(self):
        assert forward_singular_value(0.5, 1.0) == pytest.approx(2.0)
        assert forward_singular_value(1e-3, 4.0) == pytest.approx(3.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            forward_singular_value(-1.0, 1.0)
        with pytest.raises(ValueError):
            forward_singular_value(1.0, 0.0)

    def test_strictly_increasing_above_detection(self):
        for g in GAMMAS:
            t = np.geomspace(g**0.25 * 1.001, 100, 400)
            lam = forward_singular_value(t, g)
            assert np.all(np.diff(lam) > 0)


class TestInvert:
    def test_hand_value(self):
        # (6.25 - 2 + sqrt(4.25**2 - 4)) / 2 = 4 -> t = 2
        assert invert_singular_value(2.5, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_roundtrip_grid(self):
        for g in GAMMAS:
            t = np.geomspace(g**0.25 * 1.001, 100, 200)
            lam = forward_singular_value(t, g)
            back = invert_singular_value(lam, g)
            assert np.max(np.abs(back - t) / t) < 1e-10

    def test_edge_is_excluded(self):
        with pytest.raises(BelowDetectionThresholdError):
            invert_singular_value(2.0, 1.0)
        with pytest.raises(BelowDetectionThresholdError):
            invert_singular_value(1.9, 1.0)

    def test_error_names_value_and_index(self):
        with pytest.raises(BelowDetectionThresholdError,
                           match="singular value 2 at index 1 does not exceed") as err:
            invert_singular_value([3.0, 2.0], 1.0)
        assert err.value.index == 1

    def test_overflowing_value_is_named(self):
        # m**2 overflows near lam = 1.16e77: a typed error, not a warning.
        assert np.isfinite(invert_singular_value(1e76, 0.5))
        for lam in (1e80, [3.0, 1e160]):
            with pytest.raises(DegenerateEstimateError,
                               match="singular value 1e\\+[0-9]+ is too large"):
                invert_singular_value(lam, 0.5)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(t=st.floats(0.5, 50.0), g=st.floats(0.05, 8.0))
    def test_roundtrip_property(self, t, g):
        t = max(t, g**0.25 * 1.01)
        lam = forward_singular_value(t, g)
        assert invert_singular_value(lam, g) == pytest.approx(t, rel=1e-10)


class TestCosines:
    def test_hand_value(self):
        c, ct, s, st_ = cosines(2.0, 1.0)
        assert c**2 == pytest.approx(0.75, abs=1e-12)
        assert ct**2 == pytest.approx(0.75, abs=1e-12)

    def test_subthreshold_is_zero(self):
        for g in GAMMAS:
            c, ct, s, st_ = cosines(g**0.25 * 0.9, g)
            assert c == 0.0 and ct == 0.0
            assert s == 1.0 and st_ == 1.0

    def test_noiseless_limit(self):
        c, ct, s, st_ = cosines(1e6, 1.0)
        assert c == pytest.approx(1.0, abs=1e-10)
        assert st_ == pytest.approx(0.0, abs=1e-5)

    def test_increasing_in_t(self):
        for g in GAMMAS:
            t = np.geomspace(g**0.25 * 1.001, 100, 300)
            c, ct, _, _ = cosines(t, g)
            assert np.all(np.diff(c) > 0)
            assert np.all(np.diff(ct) > 0)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(t=st.floats(0.2, 100.0), g=st.floats(0.05, 8.0))
    def test_normalization_property(self, t, g):
        c, ct, s, st_ = cosines(t, g)
        assert abs(c**2 + s**2 - 1.0) <= 1e-14
        assert abs(ct**2 + st_**2 - 1.0) <= 1e-14
        assert 0.0 <= c <= 1.0 and 0.0 <= ct <= 1.0


class TestNaiveRank:
    def test_no_detectable_spikes(self):
        assert naive_rank([2.0, 1.5, 0.2], 1.0) == 0

    def test_counts_against_threshold(self):
        assert naive_rank([2.5, 2.1, 1.9], 1.0) == 2

    def test_margin_shifts_threshold(self):
        assert naive_rank([2.5, 2.1, 1.9], 1.0, margin=0.2) == 1

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            naive_rank([1.0, 2.0], 1.0)

    @pytest.mark.parametrize("margin", [np.nan, np.inf, -0.5])
    def test_bad_margin_rejected(self, margin):
        with pytest.raises(ValueError, match="margin"):
            naive_rank([3.0, 2.5], 1.0, margin=margin)


class TestEstimateSpikeParams:
    def test_single_component(self):
        sp = estimate_spike_params([2.5], 1.0, rank=1)
        assert sp.t[0] == pytest.approx(2.0, abs=1e-12)
        assert sp.c[0] ** 2 == pytest.approx(0.75, abs=1e-12)

    def test_forced_rank_at_edge_errors(self):
        with pytest.raises(BelowDetectionThresholdError) as err:
            estimate_spike_params([2.0], 1.0, rank=1)
        assert err.value.index == 0

    def test_naive_rank_drops_subthreshold(self):
        sp = estimate_spike_params([2.5, 1.5], 1.0)
        assert sp.rank == 1

    def test_t_strictly_decreasing(self):
        sp = estimate_spike_params([4.0, 3.0, 2.5], 1.0, rank=3)
        assert np.all(np.diff(sp.t) < 0)

    def test_rank_zero(self):
        sp = estimate_spike_params([1.5], 1.0)
        assert sp.rank == 0 and sp.t.size == 0

    @pytest.mark.parametrize("margin", [np.nan, np.inf, -0.5])
    def test_bad_margin_rejected(self, margin):
        with pytest.raises(ValueError, match="margin"):
            estimate_spike_params([3.0, 2.5], 1.0, margin=margin)

    @pytest.mark.parametrize("margin", [np.nan, np.inf, -4.0])
    def test_bad_margin_rejected_with_forced_rank(self, margin):
        with pytest.raises(ValueError, match="margin"):
            estimate_spike_params([3.0, 2.5], 1.0, rank=1, margin=margin)

    @pytest.mark.parametrize("rank", [1.9, 2.0, "2", True, np.nan])
    def test_non_integer_rank_rejected(self, rank):
        with pytest.raises(ValueError, match="rank"):
            estimate_spike_params([3.0, 2.5], 0.5, rank=rank)

    def test_numpy_integer_rank_accepted(self):
        assert estimate_spike_params([3.0, 2.5], 0.5, rank=np.int64(2)).rank == 2


class TestSpikeParams:
    def test_vectors_given_as_lists_are_stored_as_float_arrays(self):
        sp = SpikeParams(1, [3.0], [2.0], [0.9], [0.9], [0.1], [0.1], 0.5)
        assert sp.t.dtype == np.float64 and sp.t.shape == (1,)
        np.testing.assert_array_equal(sp.observed, [3.0])

    def test_float64_vectors_are_kept_as_they_are(self):
        sp = estimate_spike_params([4.0, 3.0], 0.5, rank=2)
        again = SpikeParams(sp.rank, sp.observed, sp.t, sp.c, sp.c_tilde, sp.s, sp.s_tilde,
                            sp.gamma)
        assert all(getattr(again, f) is getattr(sp, f)
                   for f in ("observed", "t", "c", "c_tilde", "s", "s_tilde"))

    @pytest.mark.parametrize("field, value, message", [
        ("rank", -1, "SpikeParams.rank=-1 must be nonnegative"),
        ("rank", 1.0, "SpikeParams.rank must be an integer"),
        ("gamma", 0.0, "SpikeParams.gamma must be a finite number > 0"),
        ("t", [[2.0]], "SpikeParams.t must be 1-D"),
        ("c", [np.nan], "SpikeParams.c must have finite entries"),
        ("s", [0.1, 0.2], "SpikeParams.s must have length rank=1"),
    ])
    def test_bad_field_is_a_value_error_naming_it(self, field, value, message):
        fields = dict(rank=1, observed=[3.0], t=[2.0], c=[0.9], c_tilde=[0.9], s=[0.1],
                      s_tilde=[0.1], gamma=0.5)
        with pytest.raises(ValueError, match=re.escape(message)):
            SpikeParams(**{**fields, field: value})


@pytest.mark.slow
def test_monte_carlo_consistency():
    # Single spike t=2 at gamma=1: observed top singular value and cosine
    # should land on the closed forms, averaged over 50 replicates.
    n = 2000
    t = 2.0
    rng = np.random.default_rng(1234)
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    X = t * np.outer(u, v)
    lams, coss = [], []
    from spectral_denoise._svd import top_svd
    for _ in range(50):
        Y = X + rng.standard_normal((n, n)) / np.sqrt(n)
        U, s, V, _ = top_svd(Y, 1)
        lams.append(s[0])
        coss.append(abs(U[:, 0] @ u))
    assert abs(np.mean(lams) - 2.5) <= 0.05
    assert abs(np.mean(coss) - np.sqrt(0.75)) <= 0.05


# A margin or aspect ratio of the wrong kind is a domain error naming it, not a
# bare TypeError from float().
@pytest.mark.parametrize("call, name", [
    (lambda: spectral_fit(np.eye(3, 4), margin=None), "margin"),
    (lambda: spectral_fit(np.eye(3, 4), margin=[1]), "margin"),
    (lambda: naive_rank([3.0, 2.5], 1.0, margin="0.1"), "margin"),
    (lambda: cosines(2.0, None), "gamma"),
    (lambda: bulk_edge(None), "gamma"),
    (lambda: detection_point(np.array([1.0])), "gamma"),
], ids=["fit-margin-none", "fit-margin-list", "margin-str", "cosines-gamma-none",
        "bulk-edge-none", "gamma-array"])
def test_wrong_kind_scalar_is_a_domain_error(call, name):
    with pytest.raises(ValueError, match=f"{name} must be a real number") as info:
        call()
    assert info.type is ValueError


# Float extremes of the maps' arguments, alone and beside a valid entry: each call
# returns a finite answer or raises a ValueError naming the argument, never a warning.
EXTREMES = [5e-324, 1e-300, 1e-150, 1e150, 1e200, 1e308]


def _beside(x, valid=3.0):
    """``x`` beside a valid entry, in increasing order."""
    return sorted([x, valid])


def _shrinkage(gamma, t_grid):
    rep = check_shrinkage_properties(gamma, 1.0, 1.0, 1.0, 1.0, t_grid)
    return rep.observed, rep.denoised


MAP_CALLS = {
    "forward-t": (lambda x: forward_singular_value(x, 0.5), "population singular value t"),
    "forward-t-beside": (lambda x: forward_singular_value(_beside(x), 0.5),
                         "population singular value t"),
    "forward-gamma": (lambda x: forward_singular_value([0.5, 3.0], x), "gamma"),
    "cosines-t": (lambda x: cosines(x, 0.5), "population singular value t"),
    "cosines-t-beside": (lambda x: cosines(_beside(x), 0.5), "population singular value t"),
    "cosines-gamma": (lambda x: cosines([0.5, 3.0], x), "gamma"),
    "invert-lam": (lambda x: invert_singular_value(x, 0.5), "singular value"),
    "invert-lam-beside": (lambda x: invert_singular_value(_beside(x), 0.5), "singular value"),
    # Past gamma = 5.8e76 the bulk edge rises past every value the inverse takes.
    "invert-gamma": (lambda x: invert_singular_value(3.0, x), "singular value"),
    "bulk-edge": (bulk_edge, "gamma"),
    "shrinkage-t": (lambda x: _shrinkage(5e-324, [x]), "t_grid"),
    "shrinkage-t-beside": (lambda x: _shrinkage(0.5, _beside(x)), "t_grid"),
    "shrinkage-gamma": (lambda x: _shrinkage(x, [2.0, 3.0]), "gamma"),
}


@pytest.mark.parametrize("x", EXTREMES)
@pytest.mark.parametrize("site", sorted(MAP_CALLS))
def test_extreme_argument_gives_a_finite_answer_or_a_named_error(site, x):
    call, name = MAP_CALLS[site]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(x)
        except ValueError as exc:
            assert re.search(name, str(exc)), str(exc)
            return
    assert np.all(np.isfinite(np.asarray(result, dtype=float)))


def test_scalar_call_gives_the_bits_of_a_one_entry_array():
    rng = np.random.default_rng(0)
    for gamma in rng.uniform(0.01, 20.0, 100):
        for t in gamma**0.25 * np.exp(np.linspace(-1.0, 3.0, 50)):
            lam = forward_singular_value(t, gamma)
            pairs = [(lam, forward_singular_value(np.array([t]), gamma)),
                     *zip(cosines(t, gamma), cosines(np.array([t]), gamma))]
            if lam > bulk_edge(gamma):
                pairs.append((invert_singular_value(lam, gamma),
                              invert_singular_value(np.array([lam]), gamma)))
            for scalar, array in pairs:
                assert type(scalar) is float
                assert np.float64(scalar).tobytes() == array.tobytes(), (gamma, t)
