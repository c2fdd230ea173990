import csv
import json
import re
import tempfile
import tracemalloc
import warnings
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_denoise import cli, denoise
from spectral_denoise._blas import abt
from spectral_denoise.errors import DimensionMismatchError, UndefinedMetricError
from spectral_denoise.geometry import WeightOperator
from spectral_denoise.io import MatrixFileError
from spectral_denoise.simlab import (derive_seed, gen_noise, gen_signal, make_rng,
                                     relative_error, resolve_config,
                                     run_experiment, splitmix64, two_block_vectors,
                                     weighted_loss)
from spectral_denoise.simlab import scenarios
from spectral_denoise.simlab.scenarios import SCENARIOS, offset_partition

README = Path(__file__).resolve().parents[1] / "README.md"


class TestCheckerboard:
    def test_unit_energy_and_light_fraction(self):
        cells = 8
        cell = 80 // cells
        I, J = np.meshgrid(np.arange(80) // cell, np.arange(80) // cell,
                           indexing="ij")
        light = (I + J) % 2 == 0
        for f in (0.5, 0.6, 0.7, 0.95, 1.0):
            sig = gen_signal("checkerboard", 80, 80, f=f)
            assert np.sum(sig.X**2) == pytest.approx(1.0, abs=1e-12)
            assert np.sum(sig.X[light] ** 2) == pytest.approx(f, abs=1e-12)

    def test_rank_two_above_half(self):
        sig = gen_signal("checkerboard", 64, 96, f=0.7)
        assert sig.t.size == 2
        assert np.linalg.matrix_rank(sig.X) == 2

    def test_rank_one_at_half(self):
        sig = gen_signal("checkerboard", 64, 64, f=0.5)
        assert sig.t.size == 1
        assert np.ptp(sig.X) == pytest.approx(0.0, abs=1e-15)

    def test_dark_squares_zero_at_one(self):
        sig = gen_signal("checkerboard", 64, 64, f=1.0)
        assert np.min(np.abs(sig.X)) == pytest.approx(0.0, abs=1e-15)
        assert sig.t[0] == sig.t[1]  # a tie, which an SVD allows

    def test_factors_are_exact_svd(self):
        sig = gen_signal("checkerboard", 80, 120, f=0.8)
        assert np.allclose(sig.U.T @ sig.U, np.eye(2), atol=1e-12)
        assert np.allclose(sig.V.T @ sig.V, np.eye(2), atol=1e-12)
        assert np.allclose((sig.U * sig.t) @ sig.V.T, sig.X, atol=1e-14)

    def test_divisibility_required(self):
        with pytest.raises(ValueError):
            gen_signal("checkerboard", 81, 80, f=0.7)

    def test_fraction_range(self):
        with pytest.raises(ValueError):
            gen_signal("checkerboard", 80, 80, f=0.4)


class TestOtherSignals:
    def test_random_orthonormal(self):
        rng = make_rng(1)
        sig = gen_signal("random_orthonormal", 50, 70, t=(3.0, 2.0, 1.0), rng=rng)
        assert np.allclose(sig.U.T @ sig.U, np.eye(3), atol=1e-12)
        assert np.allclose(sig.V.T @ sig.V, np.eye(3), atol=1e-12)
        sv = np.linalg.svd(sig.X, compute_uv=False)[:3]
        assert np.allclose(sv, [3.0, 2.0, 1.0], atol=1e-10)

    def test_piecewise_constant_energy_split(self):
        sig = gen_signal("piecewise_constant", 100, 200, t=(2.0,),
                         energy_fraction=0.64)
        u = sig.U[:, 0]
        assert np.sum(u[:50] ** 2) == pytest.approx(0.64, abs=1e-12)
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)

    def test_piecewise_constant_rank_two_orthonormal(self):
        sig = gen_signal("piecewise_constant", 100, 100, t=(3.0, 2.0),
                         energy_fraction=0.5)
        assert np.allclose(sig.U.T @ sig.U, np.eye(2), atol=1e-12)

    def test_two_block_pairs_orthonormal_at_every_size(self):
        for m in range(2, 42):
            for U in (np.column_stack(two_block_vectors(m)),
                      gen_signal("piecewise_constant", m, 2, t=(3.0, 2.0),
                                 energy_fraction=0.7).U):
                np.testing.assert_allclose(U.T @ U, np.eye(2), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scenario", ["rank-estimation", "weighted-inner-products"])
    def test_two_block_scenarios_run_at_odd_sizes(self, scenario, tmp_path):
        report = run_experiment({"scenario": scenario, "seed": 1, "replicates": 1,
                                 "scale": 0.25}, tmp_path)
        assert report.rows

    def test_block_image_orthonormal(self):
        sig = gen_signal("block_image", 90, 120, t=(4.0, 3.0, 2.0))
        assert np.allclose(sig.U.T @ sig.U, np.eye(3), atol=1e-12)
        assert np.allclose(sig.V.T @ sig.V, np.eye(3), atol=1e-12)

    def test_custom_requires_orthonormal(self):
        with pytest.raises(ValueError):
            gen_signal("custom", 10, 10, t=(1.0,), U=np.ones((10, 1)), V=np.ones((10, 1)))

    def test_param_the_kind_does_not_read_is_a_type_error(self):
        with pytest.raises(TypeError):
            gen_signal("block_image", 10, 10, t=(1.0,), f=0.7)

    @pytest.mark.parametrize("draw, message", [
        (partial(gen_signal, "nope", 10, 10), "unknown signal kind"),
        (partial(gen_signal, "random_orthonormal", 10, 10, t=(1.0,)), "needs an rng"),
        (partial(gen_signal, "custom", 10, 10, t=(), U=np.ones((10, 1)), V=np.ones((10, 1))),
         "need U, t and V"),
        (partial(gen_signal, "piecewise_constant", 10, 10, t=(3.0, 2.0, 1.0)), "rank 1 or 2"),
        (partial(gen_signal, "piecewise_constant", 10, 10, t=(1.0,), energy_fraction=1.0),
         "energy_fraction"),
        (partial(gen_signal, "block_image", 10, 10, t=(1.0,) * 11), "dimensions too small"),
        (partial(gen_signal, "custom", 10, 10, t=(2.0, 1.0), U=np.eye(10, 2), V=np.eye(9, 2)),
         "V must be 10 x 2"),
        (partial(gen_noise, "gaussian", 5.7, 3.2), "noise p must be an integer, got 5.7"),
        (partial(gen_noise, "gaussian", True, 3), "noise p must be an integer, got True"),
        (partial(gen_signal, "checkerboard", 8, 8, cells=4.0),
         "checkerboard cells must be an integer, got 4.0"),
        (partial(gen_signal, "checkerboard", 8, 8, f="0.7"),
         "checkerboard f must be a real number, got '0.7'"),
        (partial(gen_signal, "piecewise_constant", 10, 10, t=(1.0,), energy_fraction="0.5"),
         "energy_fraction must be a real number, got '0.5'"),
        (partial(two_block_vectors, 4.0), "two_block_vectors m must be an integer, got 4.0"),
        (partial(two_block_vectors, "4"), "two_block_vectors m must be an integer, got '4'"),
    ], ids=["unknown-kind", "no-rng", "custom-without-t", "piecewise-rank-3",
            "piecewise-fraction", "block-image-rank", "custom-shape", "noise-float-dims",
            "noise-bool-dim", "checkerboard-float-cells", "checkerboard-text-f",
            "piecewise-text-fraction", "two-block-float-m", "two-block-text-m"])
    def test_signal_domain_errors_name_the_problem(self, draw, message):
        with pytest.raises(ValueError, match=message):
            draw()

    def test_tied_values_are_an_svd(self):
        for kind, extra in (("random_orthonormal", {"rng": make_rng(2)}), ("block_image", {})):
            sig = gen_signal(kind, 12, 15, t=(2.0, 2.0, 1.0), **extra)
            np.testing.assert_array_equal(sig.t, [2.0, 2.0, 1.0])


def _with_t(kind, t):
    """``gen_signal`` keywords for ``kind`` at ``10 x 10`` with values ``t``."""
    r = max(np.size(t), 1)
    extra = {"random_orthonormal": {"rng": make_rng(0)},
             "custom": {"U": np.eye(10, r), "V": np.eye(10, r)}}.get(kind, {})
    return dict(extra, t=t)


T_KINDS = ["random_orthonormal", "piecewise_constant", "block_image", "custom"]
BAD_T = {"empty": (), "negative": (-1.0,), "nan": (float("nan"),),
         "inf": (float("inf"), 1.0), "2-d": [[3.0, 2.0]], "increasing": (2.0, 3.0)}


@pytest.mark.parametrize("case", sorted(BAD_T))
@pytest.mark.parametrize("kind", T_KINDS)
def test_every_kind_rejects_values_that_are_not_singular_values(kind, case):
    with pytest.raises(ValueError, match=kind):
        gen_signal(kind, 10, 10, **_with_t(kind, BAD_T[case]))


# RuntimeWarnings are errors in this suite, so a division by zero fails here too.
@pytest.mark.parametrize("p, n", [(0, 10), (1, 10), (10, 0), (10, 1), (2.0, 10), (True, 10)])
@pytest.mark.parametrize("kind", ["checkerboard", *T_KINDS])
def test_degenerate_or_non_integer_dimension_is_a_value_error(kind, p, n):
    params = {} if kind == "checkerboard" else _with_t(kind, (2.0, 1.0))
    if kind == "custom":
        params.update(U=np.eye(int(p), 2), V=np.eye(n, 2))
    with pytest.raises(ValueError):
        gen_signal(kind, p, n, **params)


@pytest.mark.parametrize("kind", ["checkerboard", *T_KINDS])
def test_signal_matrix_is_formed_from_its_factors_on_every_access(kind):
    params = {"cells": 2} if kind == "checkerboard" else _with_t(kind, (2.0, 1.0))
    sig = gen_signal(kind, 10, 10, **params)
    assert [f.name for f in fields(sig)] == ["U", "t", "V"]  # no dense matrix is kept
    first, second = sig.X, sig.X
    assert first is not second
    for X in (first, second):
        assert X.tobytes() == abt(sig.U * sig.t, sig.V).tobytes()


class TestGenNoise:
    def test_deterministic_given_seed(self):
        a = gen_noise("gaussian", 30, 40, seed=42)
        b = gen_noise("gaussian", 30, 40, seed=42)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = gen_noise("gaussian", 10, 10, seed=1)
        b = gen_noise("gaussian", 10, 10, seed=2)
        assert not np.array_equal(a, b)

    def test_rademacher_support(self):
        n = 50
        G = gen_noise("rademacher", 40, n, seed=3)
        assert np.array_equal(np.unique(np.abs(G)), np.array([1 / np.sqrt(n)]))

    def test_default_scale_matches_model(self):
        G = gen_noise("gaussian", 400, 400, seed=4)
        assert np.var(G) == pytest.approx(1 / 400, rel=0.05)

    def test_student_t_kurtosis(self):
        G = gen_noise("t10", 1000, 1000, seed=5, scale=1.0)
        x = G.ravel()
        kurt = np.mean(x**4) / np.mean(x**2) ** 2
        assert kurt > 3.0
        assert np.var(x) == pytest.approx(1.0, rel=0.05)

    def test_heavy_tail_warns(self):
        with pytest.warns(RuntimeWarning):
            gen_noise("t2", 10, 10, seed=6)

    def test_bad_df_rejected(self):
        with pytest.raises(ValueError):
            gen_noise("t0", 10, 10)

    def test_unknown_dist_rejected(self):
        with pytest.raises(ValueError):
            gen_noise("uniform", 10, 10)

    @pytest.mark.parametrize("dist", ["t_3", 3, 3.0])
    def test_student_t_spellings_draw_identically(self, dist):
        assert gen_noise(dist, 20, 30, seed=7).tobytes() \
            == gen_noise("t3", 20, 30, seed=7).tobytes()

    # "uniform" and "t0" are the two tests above.
    @pytest.mark.parametrize("dist", ["t", "t-3", "tnan", "tinf", None, True, [3]])
    def test_malformed_dist_rejected(self, dist):
        with pytest.raises(ValueError, match="noise distribution"):
            gen_noise(dist, 10, 10)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -1, 0, "a", True, [1.0]])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="noise scale"):
            gen_noise("gaussian", 3, 4, seed=1, scale=scale)


class TestSeeds:
    def test_splitmix_is_stable(self):
        assert splitmix64(0) == splitmix64(0)
        assert splitmix64(1) != splitmix64(2)
        assert 0 <= splitmix64(123456789) < 2**64

    def test_derive_seed_decorrelates_neighbours(self):
        seeds = {derive_seed(7, i) for i in range(100)}
        assert len(seeds) == 100

    @pytest.mark.parametrize("call", [
        lambda: derive_seed(1.9, 0), lambda: derive_seed(1, 0.5), lambda: derive_seed(True, 0),
        lambda: make_rng(1.5), lambda: make_rng("1"),
        lambda: gen_noise("gaussian", 3, 4, seed=1.5)])
    def test_non_integer_seed_rejected(self, call):
        with pytest.raises(ValueError, match="must be an integer"):
            call()

    def test_negative_seeds_still_work(self):
        assert derive_seed(-3, 1) == derive_seed(-2, 0)
        assert make_rng(-1).random() == make_rng(2**64 - 1).random()
        assert gen_noise("gaussian", 3, 4, seed=np.int64(-5)).shape == (3, 4)


class TestRelativeError:
    def test_exact_recovery(self):
        X = np.arange(12.0).reshape(3, 4) + 1
        assert relative_error(X, X) == 0.0

    def test_zero_estimate(self):
        X = np.arange(12.0).reshape(3, 4) + 1
        assert relative_error(np.zeros_like(X), X) == pytest.approx(1.0)

    def test_double_estimate(self):
        X = np.arange(12.0).reshape(3, 4) + 1
        assert relative_error(2 * X, X) == pytest.approx(1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(UndefinedMetricError):
            relative_error(np.ones((2, 2)), np.zeros((2, 2)))

    def test_weighted_variant(self):
        X = np.ones((4, 4))
        X_hat = X.copy()
        X_hat[2:, :] = 0.0  # error only in rows the weight ignores
        err = relative_error(X_hat, X, omega=np.array([1.0, 1.0, 0.0, 0.0]))
        assert err == 0.0


_P, _N = 30, 45
_W = np.random.default_rng(8)
FACTOR_WEIGHTS = {
    "none": (None, None),
    "diagonal": (np.linspace(0.1, 2.0, _P), np.linspace(3.0, 0.5, _N)),
    "dense": (_W.standard_normal((20, _P)), _W.standard_normal((_N, _N))),
    "indices": (WeightOperator.from_indices(range(0, _P, 2), _P),
                WeightOperator.from_indices(range(40), _N)),
}


def _factored_case(case):
    """``(estimate, signal)`` factor pairs at ``30 x 45``, signal rank 3."""
    rng = np.random.default_rng(9)
    X = (rng.standard_normal((_P, 3)) * [3.0, 2.0, 1.0], rng.standard_normal((_N, 3)))
    estimates = {
        "rank-2": (rng.standard_normal((_P, 2)), rng.standard_normal((_N, 2))),
        "rank-0": (np.zeros((_P, 0)), np.zeros((_N, 0))),
        "equal": (X[0].copy(), X[1].copy()),
        "error-1e-8": (X[0] + 1e-8 * rng.standard_normal((_P, 3)), X[1]),
    }
    return estimates[case], X


class TestFactoredMetrics:
    """Two factor pairs against the dense path, which is the reference."""

    @pytest.mark.parametrize("case", ["rank-2", "rank-0", "equal", "error-1e-8"])
    @pytest.mark.parametrize("weights", sorted(FACTOR_WEIGHTS))
    def test_pairs_agree_with_dense(self, case, weights):
        omega, pi = FACTOR_WEIGHTS[weights]
        est, X = _factored_case(case)
        dense_est, dense_X = abt(*est), abt(*X)
        ref = relative_error(dense_est, dense_X, omega, pi)
        assert abs(relative_error(est, X, omega, pi) - ref) <= 1e-13
        energy = weighted_loss(np.zeros_like(dense_X), dense_X, omega, pi)
        loss = weighted_loss(dense_est, dense_X, omega, pi)
        assert abs(weighted_loss(est, X, omega, pi) - loss) <= 1e-13 * energy
        if case == "error-1e-8":
            assert 1e-9 < ref < 1e-7
        # A pair against a dense matrix is formed densely: the dense path exactly.
        assert relative_error(est, dense_X, omega, pi) == ref
        assert weighted_loss(dense_est, X, omega, pi) == loss

    def test_rank_zero_reference_rejected(self):
        est, _ = _factored_case("rank-2")
        with pytest.raises(UndefinedMetricError):
            relative_error(est, (np.zeros((_P, 0)), np.zeros((_N, 0))))

    @pytest.mark.parametrize("est, X", [
        ((np.ones((_P, 2)), np.ones((_N, 3))), (np.ones((_P, 1)), np.ones((_N, 1)))),
        ((np.ones((_P, 2)), np.ones((_N, 2))), (np.ones((_P + 1, 1)), np.ones((_N, 1)))),
        ((np.ones(_P), np.ones(_N)), (np.ones((_P, 1)), np.ones((_N, 1)))),
        ((np.ones((_P, 1)), np.ones((_N, 1))), np.ones((_P, _N + 1))),
    ], ids=["inner-mismatch", "row-mismatch", "one-dimensional", "pair-vs-dense"])
    def test_mismatched_shapes_rejected(self, est, X):
        for metric in (relative_error, weighted_loss):
            with pytest.raises(DimensionMismatchError):
                metric(est, X)


def test_default_heteroscedastic_replicate_holds_at_most_four_matrices():
    params = dict(SCENARIOS["heteroscedastic"].defaults)
    tracemalloc.start()
    try:
        SCENARIOS["heteroscedastic"].replicate(params, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * params["p"] * params["n"] * 8


class TestOffsetPartition:
    def test_zero_offset_is_equispaced(self):
        part = offset_partition(12, 3, 0)
        assert [b.tolist() for b in part.blocks] == [[0, 1, 2, 3], [4, 5, 6, 7],
                                                     [8, 9, 10, 11]]

    def test_offset_wraps(self):
        part = offset_partition(8, 2, 2)
        flat = sorted(i for b in part.blocks for i in b.tolist())
        assert flat == list(range(8))

    @pytest.mark.parametrize("offset", [2**64, -2**64, 10**400])
    def test_offset_of_any_size_acts_as_its_remainder(self, offset):
        part = offset_partition(10, 2, offset)
        want = offset_partition(10, 2, offset % 10)
        assert [b.tolist() for b in part.blocks] == [b.tolist() for b in want.blocks]


class TestRunner:
    CONFIG = {"schema": 1, "scenario": "rank-estimation", "seed": 11,
              "replicates": 3, "params": {"p": 120, "n": 240}}

    def test_resolve_fills_defaults(self):
        resolved = resolve_config({"scenario": "submatrix"})
        assert resolved["params"]["p"] == 500
        assert resolved["schema"] == 1

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            resolve_config({"scenario": "nope"})

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError):
            resolve_config({"schema": 99, "scenario": "submatrix"})

    @pytest.mark.parametrize("config, key", [
        ({"scenario": "heteroscedastic", "replicas": 3}, "replicas"),
        ({"scenario": "heteroscedastic", "params": {"kapa_grid": [10.0]}}, "kapa_grid"),
    ], ids=["top-level", "param"])
    def test_misspelled_key_rejected(self, config, key):
        with pytest.raises(ValueError, match=key) as err:
            resolve_config(config)
        if key == "kapa_grid":
            assert "kappa_grid" in str(err.value)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_runs_from_its_own_defaults(self, name):
        # The defaults declare every param a replicate reads: a missing one
        # would raise KeyError here.
        defaults = SCENARIOS[name].defaults
        assert resolve_config({"scenario": name, "params": dict(defaults)})["params"] \
            == defaults
        report = run_experiment({"scenario": name, "replicates": 1, "scale": 0.1})
        assert len(report.rows) >= 1

    def test_readme_config_example_runs(self):
        block = re.search(r"## Experiments.*?```json\n(.*?)```", README.read_text(),
                          re.S).group(1)
        config = json.loads(block)
        assert resolve_config(config)["replicates"] == config["replicates"]
        report = run_experiment(dict(config, replicates=1, scale=0.1))
        assert report.scenario == config["scenario"]

    @pytest.mark.parametrize("content", [b"\xff\xfe\x00",
                                         b'{"seed": ' + b"9" * 5000 + b"}"],
                             ids=["undecodable", "oversized-integer"])
    def test_unreadable_config_file_names_path(self, tmp_path, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        with pytest.raises(MatrixFileError, match="config.json"):
            resolve_config(path)
        with pytest.raises(MatrixFileError, match="config.json"):
            run_experiment(str(path))

    BAD_CONFIGS = {
        "params-null": {"params": None},
        "params-number": {"params": 5},
        "p-null": {"params": {"p": None}},
        "dists-number": {"params": {"dists": 5}},
        "dists-null-entry": {"params": {"dists": [None]}},
        "replicates-null": {"replicates": None},
        # A count below one is rejected, not clamped to one replicate.
        "replicates-zero": {"replicates": 0},
        "replicates-negative": {"replicates": -3},
        "seed-null": {"seed": None},
        "scale-null": {"scale": None},
        "scale-inf": {"scale": float("inf")},
        "scale-nan": {"scale": float("nan")},
        "kappa-grid-number": {"scenario": "heteroscedastic", "params": {"kappa_grid": 5}},
        "n-grid-null-entry": {"scenario": "weighted-inner-products",
                              "params": {"n_grid": [None]}},
        "f-grid-empty": {"scenario": "submatrix", "params": {"f_grid": []}},
        "range-of-three": {"scenario": "missing-data", "params": {"q_row_range": [0.3, 0.5, 0.7]}},
        # An integer param takes integers only, so report.json echoes the size that ran.
        "p-float": {"params": {"p": 60.7}},
        "p-bool": {"params": {"p": True}},
        "rank-float": {"scenario": "heteroscedastic", "params": {"rank": 2.9}},
        "n-grid-float": {"scenario": "weighted-inner-products", "params": {"n_grid": [40.5]}},
        "row-blocks-float": {"scenario": "localized-checkerboard", "params": {"row_blocks": 4.5}},
    }

    @pytest.mark.parametrize("case", ["p-float", "rank-float", "n-grid-float",
                                      "row-blocks-float"])
    def test_integer_param_error_names_the_key(self, case):
        (key,) = self.BAD_CONFIGS[case]["params"]
        with pytest.raises(ValueError, match=repr(key)):
            resolve_config(dict({"scenario": "rank-estimation"}, **self.BAD_CONFIGS[case]))

    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_malformed_config_value_is_a_domain_error(self, case, tmp_path):
        config = dict({"scenario": "rank-estimation", "replicates": 1}, **self.BAD_CONFIGS[case])
        with pytest.raises(ValueError):
            run_experiment(config)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert cli.main(["simulate", "--config", str(path),
                         "--output-dir", str(tmp_path / "o")]) == 5

    @pytest.mark.parametrize("jobs", [0, pytest.param(2, id="int-2"), -4, 1.5, True, "2",
                                      None])
    def test_bad_jobs_is_named_before_any_draw(self, jobs, monkeypatch):
        monkeypatch.setattr(scenarios, "gen_signal", self._no_draw)
        with pytest.raises(ValueError, match="jobs"):
            run_experiment({"scenario": "rank-estimation", "replicates": 1}, jobs=jobs)

    def test_jobs_flag_is_refused_by_the_parser(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(scenarios, "gen_signal", self._no_draw)
        with pytest.raises(SystemExit) as info:
            cli.main(["simulate", "--scenario", "rank-estimation", "--jobs", "2",
                      "--output-dir", str(tmp_path / "o")])
        assert info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_zero_count_flag_exits_5(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scenarios, "gen_signal", self._no_draw)
        assert cli.main(["simulate", "--scenario", "rank-estimation", "--replicates", "0",
                         "--output-dir", str(tmp_path / "o")]) == 5

    @staticmethod
    def _no_draw(*args, **kwargs):
        raise AssertionError("a matrix was drawn")

    @pytest.mark.parametrize("config, key", [
        ({"scale": 1.5}, "scale"),
        ({"scale": 1e300}, "scale"),
        ({"scenario": "heteroscedastic", "params": {"kappa_grid": [0]}}, "kappa_grid"),
        ({"scenario": "heteroscedastic", "params": {"kappa_grid": [10.0, -1.0]}}, "kappa_grid"),
        ({"scenario": "missing-data", "params": {"sigma_grid": [-0.5]}}, "sigma_grid"),
        ({"scenario": "missing-data", "params": {"sigma_grid": [0.25, 0]}}, "sigma_grid"),
        ({"scenario": "weighted-inner-products", "params": {"omega_fraction": 0}},
         "omega_fraction"),
        # n = 500 gives p = 1000 rows, and round(0.0004 * 1000) == 0
        ({"scenario": "weighted-inner-products", "params": {"omega_fraction": 0.0004}},
         "omega_fraction"),
        # A size is checked before scale clamps it up to 4 or 8.
        ({"scenario": "submatrix", "scale": 0.5, "params": {"p": -5}}, "'p'"),
        ({"scenario": "weighted-inner-products", "scale": 0.5, "params": {"n_grid": [-10]}},
         "n_grid"),
        ({"scenario": "localized-checkerboard", "params": {"row_blocks": 0, "n": 64}},
         "row_blocks"),
        ({"scenario": "heteroscedastic", "params": {"rank": 0}}, "'rank'"),
        ({"scenario": "missing-data", "params": {"rank": 0}}, "'rank'"),
        ({"scenario": "submatrix", "params": {"t_offset": 10**400}}, "t_offset"),
        ({"scenario": "submatrix", "params": {"p": 10**400}}, "'p'"),
        ({"scenario": "submatrix", "scale": 0.5, "params": {"n": 2**63}}, "'n'"),
    ], ids=["scale-1.5", "scale-1e300", "kappa-0", "kappa-negative", "sigma-negative",
            "sigma-0", "omega-0", "omega-keeps-no-row", "p-negative-scaled",
            "n-grid-negative-scaled", "row-blocks-0", "heteroscedastic-rank-0",
            "missing-data-rank-0", "t-offset-past-float-range", "p-past-float-range",
            "n-past-intp-scaled"])
    def test_out_of_range_value_is_named_before_any_draw(self, config, key, tmp_path,
                                                         monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a matrix was drawn")

        monkeypatch.setattr(scenarios, "gen_signal", no_draw)
        monkeypatch.setattr(scenarios, "gen_noise", no_draw)
        config = dict({"scenario": "rank-estimation", "replicates": 1}, **config)
        with pytest.raises(ValueError, match=key):
            run_experiment(config)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert cli.main(["simulate", "--config", str(path),
                         "--output-dir", str(tmp_path / "o")]) == 5

    def test_non_object_config_file_is_a_domain_error(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        assert cli.main(["simulate", "--config", str(path), "--seed", "3",
                         "--output-dir", str(tmp_path / "o")]) == 5

    def test_deterministic_rows(self):
        a = run_experiment(self.CONFIG)
        b = run_experiment(self.CONFIG)
        assert a.rows == b.rows
        assert a.aggregates == b.aggregates

    def test_scale_shrinks_problem(self):
        resolved = resolve_config({"scenario": "rank-estimation", "scale": 0.5,
                                   "replicates": 10})
        assert resolved["params"]["n"] == 300
        assert resolved["replicates"] == 5

    def test_scale_keeps_checkerboard_divisible(self):
        resolved = resolve_config({"scenario": "localized-checkerboard",
                                   "scale": 0.43})
        n = resolved["params"]["n"]
        assert n % (resolved["params"]["cells"]
                    * resolved["params"]["row_blocks"]) == 0

    # The scaled size is a multiple of cells * blocks, so a zero count is
    # named before it is divided by; unscaled, the replicate rejects it.
    @pytest.mark.parametrize("key", ["cells", "row_blocks", "col_blocks"])
    def test_zero_checkerboard_count_is_named_before_scaling(self, key, tmp_path):
        config = {"scenario": "localized-checkerboard", "replicates": 1, "params": {key: 0}}
        with pytest.raises(ValueError, match=f"'{key}'=0") as info:
            resolve_config(dict(config, scale=0.5))
        assert info.type is ValueError
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(config, params={key: 0, "n": 64})))
        for scale in ("0.5", "1"):
            assert cli.main(["simulate", "--config", str(path), "--scale", scale,
                             "--output-dir", str(tmp_path / "o")]) == 5

    # gamma and n_grid are named by their own message, not by omega_fraction's.
    @pytest.mark.parametrize("params, key", [
        ({"gamma": 0.0}, "'gamma'"), ({"gamma": -1.0}, "'gamma'"),
        ({"n_grid": [-10]}, "'n_grid'"), ({"n_grid": [500, 0]}, "'n_grid'"),
    ], ids=["gamma-0", "gamma-negative", "n-grid-negative", "n-grid-0"])
    def test_weighted_inner_products_names_the_bad_param(self, params, key, monkeypatch):
        monkeypatch.setattr(scenarios, "gen_signal", self._no_draw)
        with pytest.raises(ValueError, match=key) as info:
            run_experiment({"scenario": "weighted-inner-products", "replicates": 1,
                            "params": params})
        assert "omega_fraction" not in str(info.value)

    @pytest.mark.parametrize("config, calls", [
        ({"scenario": "localized-checkerboard", "replicates": 3,
          "params": {"n": 64}}, 3),
        ({"scenario": "submatrix", "replicates": 1,
          "params": {"p": 60, "n": 120, "f_grid": [0.25, 0.95]}}, 4),
    ], ids=["localized-checkerboard", "submatrix"])
    def test_one_head_svd_per_matrix(self, monkeypatch, config, calls):
        # localized-checkerboard fits Y once for shrinkage and localized;
        # submatrix fits the whole Y once and the baseline's submatrix once.
        count = []
        head = denoise.svd_head_above

        def counted(*args, **kwargs):
            count.append(1)
            return head(*args, **kwargs)

        monkeypatch.setattr(denoise, "svd_head_above", counted)
        run_experiment(dict(config, seed=5))
        assert len(count) == calls

    def test_rank_estimation_takes_two_head_svds_per_draw(self, monkeypatch):
        # One forced-rank fit for the oracle and one detected-rank fit whose
        # rank is the naive count; no separate spectrum for the count.
        count = []

        def counting(fn):
            def counted(*args, **kwargs):
                count.append(fn.__name__)
                return fn(*args, **kwargs)
            return counted

        for module in (denoise, scenarios):
            for name in ("top_svd", "svd_head_above"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(getattr(module, name)))
        run_experiment({"scenario": "rank-estimation", "seed": 5, "replicates": 3,
                        "params": {"p": 60, "n": 120, "dists": ["gaussian", "t3"]}})
        assert len(count) == 2 * 3 * 2
        assert count.count("svd_head_above") == count.count("top_svd") == 6

    def test_outputs_written_and_recomputable(self, tmp_path):
        report = run_experiment(self.CONFIG, output_dir=tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["scenario"] == "rank-estimation"
        assert data["seeds"]["base"] == 11
        with open(tmp_path / "replicates.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(report.rows)
        # aggregates recompute from the CSV rows exactly
        col = "rel_err_oracle"
        vals = np.array([float(r[col]) for r in rows])
        agg = report.group_metrics(dist="gaussian")[col]
        assert vals.mean() == pytest.approx(agg["mean"], abs=1e-15)
        assert vals.max() == agg["max"]

    def test_rank_estimation_scenario(self):
        rep = run_experiment({"scenario": "rank-estimation", "seed": 5,
                              "replicates": 2, "params": {"p": 120, "n": 240}})
        assert rep.scenario == "rank-estimation"
        assert {"naive_rank", "rel_err_oracle", "rel_err_naive"} <= set(rep.columns)


def test_naive_rank_on_pure_noise_is_nonnegative_and_small():
    # Bulk-edge fluctuations can push an occasional noise singular value
    # over the threshold; only nonnegativity is guaranteed.
    from spectral_denoise import naive_rank
    from spectral_denoise._svd import top_svd
    p, n = 300, 600
    ranks = []
    for seed in range(8):
        G = make_rng(seed).standard_normal((p, n)) / np.sqrt(n)
        s = top_svd(G, 8)[1]
        ranks.append(naive_rank(s, p / n))
    assert all(r >= 0 for r in ranks)
    assert max(ranks) <= 2


@pytest.mark.slow
def test_heavy_tail_noise_inflates_naive_rank():
    # Student-t with three degrees of freedom breaks the bulk-edge model
    # and the naive count runs far above the true rank of 2.
    rep = run_experiment({"scenario": "rank-estimation", "seed": 135,
                          "replicates": 10, "params": {"dists": ["t3"]}})
    m = rep.group_metrics(dist="t3")
    assert m["naive_rank"]["mean"] > 4.0


@pytest.mark.slow
def test_estimated_covariances_sit_between_oracle_and_plain():
    # Strong heteroscedasticity: whitening with estimated covariances is
    # worse than with the true ones but still beats the white-noise model.
    rep = run_experiment({"scenario": "heteroscedastic", "seed": 2468,
                          "replicates": 6,
                          "params": {"p": 400, "n": 800, "kappa_grid": [10.0]}})
    m = rep.group_metrics(kappa=10.0)
    oracle = m["rel_err_whiten_oracle"]["mean"]
    estimated = m["rel_err_whiten_estimated"]["mean"]
    plain = m["rel_err_shrink"]["mean"]
    assert oracle < estimated < plain


# ---------------------------------------------------------------------------
# Config fuzz: a value of the wrong JSON kind is a domain error, never a crash.
# ---------------------------------------------------------------------------

#: Sizes that keep every scenario's replicate to a few milliseconds.
TINY = {"localized-checkerboard": {"n": 16}, "submatrix": {"p": 8, "n": 16},
        "heteroscedastic": {"p": 10, "n": 20}, "missing-data": {"p": 10, "n": 20},
        "weighted-inner-products": {"n_grid": [16]}, "rank-estimation": {"p": 8, "n": 16}}

JSON_KINDS = {
    "null": st.none(),
    "boolean": st.booleans(),
    "string": st.text(max_size=4),
    "number": st.one_of(st.integers(), st.floats()),
    "array": st.lists(st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=2)),
                      max_size=3),
    "object": st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
}


def _json_kind(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, str):
        return "string"
    if isinstance(value, (int, float)):
        return "number"
    return "array" if isinstance(value, (list, tuple)) else "object"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_config_of_wrong_json_kind_is_a_domain_error(data):
    name = data.draw(st.sampled_from(sorted(SCENARIOS)))
    config = {"scenario": name, "seed": 1, "replicates": 1, "params": dict(TINY[name])}
    top = {"schema": 1, "scenario": name, "seed": 1, "replicates": 1, "scale": 1.0,
           "params": {}}
    keys = [("top", k) for k in top] + [("param", k) for k in SCENARIOS[name].defaults]
    where, key = data.draw(st.sampled_from(keys))
    original = top[key] if where == "top" else SCENARIOS[name].defaults[key]
    kind = data.draw(st.sampled_from([k for k in JSON_KINDS if k != _json_kind(original)]))
    value = data.draw(JSON_KINDS[kind])
    (config if where == "top" else config["params"])[key] = value

    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp:
        # A numeric dist is Student-t; df <= 2 warns by design.
        warnings.filterwarnings("ignore", "student_t noise", RuntimeWarning)
        try:
            run_experiment(config)
        except ValueError:
            pass
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(config))
        code = cli.main(["simulate", "--config", str(path), "--output-dir", str(Path(tmp) / "o")])
    assert code in (0, 5)
