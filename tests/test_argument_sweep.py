"""A generated sweep: every public callable against every hostile argument.

``_rows`` holds one valid call of each callable in ``spectral_denoise.__all__``,
``io.__all__`` and ``simlab.__all__`` and of the classmethod constructors of
``WeightOperator``, ``Partition`` and ``SamplingPattern``, and a pattern for the
name each argument carries in its errors.  Each argument in turn is replaced by every value of
``HOSTILE``, the others kept valid.  With warnings as errors, the call must
return a finite result or raise ``ValueError`` whose message matches that
argument's pattern.  A path argument gets only a path that does not exist,
since ``open`` reads an int as a file descriptor; it may raise ``OSError``.
Two more outcomes are documented and allowed by name: ``gen_noise``'s warning
for Student-t noise with ``df <= 2``, and ``OSError`` for a config path that
does not exist (the CLI's exit 2).  A public callable with neither a row nor
an entry in ``EXEMPT`` fails the sweep.
"""

import copy
import dataclasses
import math
import numbers
import re
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import spectral_denoise as sd
from spectral_denoise import io, simlab

HOSTILE = (10**400, -10**400, 2**64, 10**5000, np.array(1.0), np.array([1, 2]),
           np.ma.masked_array([1.0, 2.0], mask=[False, True]), 1e308, -1e308, 5e-324,
           math.nan, math.inf, True, None, "1", b"1", 1 + 1j, [], [[1.0]], {}, object(),
           -1, 0, [[1.0], [1.0, 2.0]])

#: Record types: each is built from a checked computation, and every function that
#: takes one checks it with ``_expect``.
EXEMPT = {
    "DenoiseResult": "a record that denoise builds",
    "LocalizedResult": "a record that localized_denoise builds",
    "PipelineResult": "a record that the application pipelines build",
    "SpectralFit": "a record that spectral_fit builds",
    "ShrinkageReport": "a record that check_shrinkage_properties builds",
    "ExperimentReport": "a record that run_experiment builds",
    "Signal": "a record that gen_signal builds",
    "WeightedGeometry": "a record that recover_population_geometry builds",
}

MODULES = (sd, io, simlab)

WEIGHT = "weight"  # a weight's errors name its kind: dense, diag or index weight

_RNG = np.random.default_rng(7)
_U = np.linalg.qr(_RNG.standard_normal((12, 1)))[0]
_V = np.linalg.qr(_RNG.standard_normal((16, 1)))[0]
_Y = 4.0 * _U @ _V.T + _RNG.standard_normal((12, 16)) / 4.0  # one spike above the bulk
_FIT = sd.spectral_denoise(_Y)
_SPIKES, _GEOM = _FIT.spikes, _FIT.geometry
_COV = sd.NoiseCovariances(np.ones(12), np.ones(16))
_MASK = (np.arange(12 * 16).reshape(12, 16) % 3 > 0)
_PATTERN = sd.SamplingPattern(np.full(12, 0.8), np.full(16, 0.8), *np.nonzero(_MASK), _Y[_MASK])
_CONFIG = {"scenario": "weighted-inner-products", "seed": 3, "replicates": 1, "scale": 0.1}


def _rows(tmp):
    """``name: (callable, keyword arguments, {argument: pattern}, allowed)``; an argument
    without a pattern is named by itself, ``allowed`` maps arguments to the documented
    ``(exception type, pattern)`` each may raise."""
    files = {name: tmp / name for name in ("dense.csv", "coord.csv", "index.json",
                                           "partition.json")}
    out = tmp / "out"
    denoise = {"Y": _Y, "rank": None, "margin": 0.0}
    weighted = {**denoise, "omega": np.ones(12), "pi": np.ones(16)}
    weights = {"Y": "Y|weight has", "omega": WEIGHT, "pi": WEIGHT}  # a mismatch names both
    sub = {**denoise, "row_idx": [0, 1, 2], "col_idx": [3, 4]}
    indices = {"Y": "Y|indices", "row_idx": "ind", "col_idx": "ind"}  # indices, index weight
    metric = {"omega": np.ones(12), "pi": np.ones(16)}
    mismatch = {"X_hat": "X_hat|mismatch", "X": "X|mismatch", "A": "A|mismatch",
                "B": "B|mismatch", "omega": WEIGHT, "pi": WEIGHT}
    config = {"config": "config|scenario"}
    t = "population singular value t"
    return {
        "bulk_edge": (sd.bulk_edge, {"gamma": 0.5}, {}, {}),
        "detection_point": (sd.detection_point, {"gamma": 0.5}, {}, {}),
        "cosines": (sd.cosines, {"t": [2.0, 1.5], "gamma": 0.5}, {"t": t}, {}),
        "forward_singular_value": (sd.forward_singular_value, {"t": [2.0], "gamma": 0.5},
                                   {"t": t}, {}),
        "invert_singular_value": (sd.invert_singular_value, {"lam": [3.0], "gamma": 0.5},
                                  {"lam": "lam|singular value", "gamma": "gamma|bulk edge"}, {}),
        "naive_rank": (sd.naive_rank, {"singular_values": [3.0, 2.5, 1.0], "gamma": 0.5,
                                       "margin": 0.0}, {}, {}),
        "estimate_spike_params": (sd.estimate_spike_params,
                                  {"singular_values": [3.0, 2.5, 1.0], "gamma": 0.5,
                                   "rank": None, "margin": 0.0},
                                  {"rank": "rank|singular value"}, {}),
        "WeightOperator": (sd.WeightOperator, {"kind": "diag", "data": np.ones(6), "dim": 6},
                           {"kind": "weight kind", "data": WEIGHT, "dim": WEIGHT}, {}),
        "WeightOperator.from_matrix": (sd.WeightOperator.from_matrix,
                                       {"matrix": np.eye(3)}, {"matrix": WEIGHT}, {}),
        "WeightOperator.from_diagonal": (sd.WeightOperator.from_diagonal,
                                         {"diag": np.ones(3)}, {"diag": WEIGHT}, {}),
        "WeightOperator.from_indices": (sd.WeightOperator.from_indices,
                                        {"indices": [0, 2], "dim": 3},
                                        {"indices": "ind", "dim": "weight dim|indices"}, {}),
        "WeightOperator.identity": (sd.WeightOperator.identity, {"dim": 3},
                                    {"dim": "weight dim"}, {}),
        "as_weight_operator": (sd.as_weight_operator, {"weight": np.ones(6), "dim": 6},
                               {"weight": WEIGHT, "dim": "dim|weight"}, {}),
        "Partition": (sd.Partition, {"dim": 4, "blocks": ([0, 1], [2, 3])},
                      {"dim": "partition dim", "blocks": "partition block"}, {}),
        "Partition.from_lists": (sd.Partition.from_lists, {"dim": 4, "lists": [[1, 0], [3, 2]]},
                                 {"dim": "partition dim", "lists": "partition block"}, {}),
        "make_equispaced_partition": (sd.make_equispaced_partition,
                                      {"dim": 6, "num_blocks": 2},
                                      {"dim": "dim", "num_blocks": "num_blocks"}, {}),
        "trace_weight": (sd.trace_weight, {"omega": np.ones(6), "dim": 6},
                         {"omega": WEIGHT, "dim": "trace dim"}, {}),
        "weighted_gram": (sd.weighted_gram, {"vectors": _U, "omega": np.ones(12)},
                          {"omega": WEIGHT, "vectors": "vectors|weight"}, {}),
        "recover_population_geometry": (
            sd.recover_population_geometry,
            {"gram_left": np.eye(1), "gram_right": np.eye(1), "spikes": _SPIKES,
             "mu": 1.0, "nu": 1.0},
            {"gram_left": "gram_left|grams", "gram_right": "gram_right|grams",
             "mu": "mu|row weight", "nu": "nu|column weight"}, {}),
        "SpikeParams": (sd.SpikeParams, {"rank": 1, "observed": [3.0], "t": [2.0],
                                         "c": [0.9], "c_tilde": [0.9], "s": [0.1],
                                         "s_tilde": [0.1], "gamma": 0.5}, {}, {}),
        "amse_estimate": (sd.amse_estimate, {"geom": _GEOM}, {}, {}),
        "optimal_coefficients": (sd.optimal_coefficients, {"geom": _GEOM}, {}, {}),
        "check_shrinkage_properties": (sd.check_shrinkage_properties,
                                       {"gamma": 0.5, "alpha": 1.0, "beta": 1.0, "mu": 1.0,
                                        "nu": 1.0, "t_grid": [1.0, 2.0]}, {}, {}),
        "spectral_fit": (sd.spectral_fit, denoise, {}, {}),
        "svs_shrink": (sd.svs_shrink, denoise, {}, {}),
        "spectral_denoise": (sd.spectral_denoise, weighted, weights, {}),
        "diagonal_denoise": (sd.diagonal_denoise, weighted, weights, {}),
        "localized_denoise": (sd.localized_denoise,
                              {**denoise, "rows": sd.make_equispaced_partition(12, 2),
                               "cols": sd.make_equispaced_partition(16, 2)},
                              {"rows": "row partition", "cols": "column partition"}, {}),
        "submatrix_denoise": (sd.submatrix_denoise, sub, indices, {}),
        "shrink_submatrix_baseline": (sd.shrink_submatrix_baseline, sub, indices, {}),
        "NoiseCovariances": (sd.NoiseCovariances, {"row_cov": np.ones(3), "col_cov": np.ones(4)},
                             {"row_cov": "row covariance", "col_cov": "col covariance"}, {}),
        "estimate_noise_covariances": (sd.estimate_noise_covariances, {"Y": _Y}, {}, {}),
        "snr_gain_tau": (sd.snr_gain_tau, {"cov": _COV}, {}, {}),
        "whiten_denoise": (sd.whiten_denoise, {**denoise, "cov": _COV}, {}, {}),
        "SamplingPattern": (sd.SamplingPattern,
                            {"q_row": np.full(3, 0.5), "q_col": np.full(4, 0.5),
                             "rows": [0, 1], "cols": [2, 3], "values": [1.0, 2.0]},
                            {"q_row": "q_row|rows", "q_col": "q_col|cols"}, {}),
        "SamplingPattern.from_dense": (sd.SamplingPattern.from_dense,
                                       {"full": _Y, "mask": _MASK, "q_row": np.full(12, 0.8),
                                        "q_col": np.full(16, 0.8)},
                                       {"full": "full|matrix", "mask": "mask",
                                        "q_row": "q_row|probability",
                                        "q_col": "q_col|probability"}, {}),
        "SamplingPattern.from_coordinates": (sd.SamplingPattern.from_coordinates,
                                             {"rows": [0, 1], "cols": [2, 3],
                                              "values": [1.0, 2.0], "q_row": np.full(3, 0.5),
                                              "q_col": np.full(4, 0.5)},
                                             {"q_row": "q_row|rows", "q_col": "q_col|cols"}, {}),
        "estimate_sampling_probabilities": (sd.estimate_sampling_probabilities,
                                            {"mask": _MASK}, {}, {}),
        "backproject": (sd.backproject, {"pattern": _PATTERN}, {}, {}),
        "missing_data_denoise": (sd.missing_data_denoise,
                                 {"pattern": _PATTERN, "rank": None, "margin": 0.0}, {}, {}),
        "read_dense_csv": (io.read_dense_csv, {"path": files["dense.csv"],
                                               "missing_sentinel": None}, {}, {}),
        "write_dense_csv": (io.write_dense_csv, {"path": out, "matrix": _Y}, {}, {}),
        "read_coordinate_csv": (io.read_coordinate_csv, {"path": files["coord.csv"]}, {}, {}),
        "write_coordinate_csv": (io.write_coordinate_csv,
                                 {"path": out, "rows": [0, 1], "cols": [1, 0],
                                  "values": [1.0, 2.0]}, {}, {}),
        "read_index_json": (io.read_index_json, {"path": files["index.json"]}, {}, {}),
        "read_partition_json": (io.read_partition_json, {"path": files["partition.json"]},
                                {}, {}),
        "validate_report": (io.validate_report, {"report": _report()}, {}, {}),
        "write_report_json": (io.write_report_json, {"path": out, "report": _report()}, {}, {}),
        "relative_error": (simlab.relative_error, {"X_hat": _Y, "X": _Y + 1.0, **metric},
                           mismatch, {}),
        "weighted_loss": (simlab.weighted_loss, {"A": _Y, "B": _Y + 1.0, **metric},
                          mismatch, {}),
        "derive_seed": (simlab.derive_seed, {"base": 3, "index": 1}, {"base": "seed"}, {}),
        "make_rng": (simlab.make_rng, {"seed": 3}, {}, {}),
        "splitmix64": (simlab.splitmix64, {"x": 3}, {}, {}),
        "gen_noise": (simlab.gen_noise,
                      {"dist": "gaussian", "p": 10, "n": 12, "seed": 1, "scale": 0.5},
                      {"dist": "noise distribution", "p": "noise p", "n": "noise n",
                       "scale": "noise scale"},
                      {"dist": (RuntimeWarning, "infinite variance")}),
        "gen_signal": (simlab.gen_signal, {"kind": "piecewise_constant", "p": 8, "n": 10,
                                           "t": [2.0, 1.0], "energy_fraction": 0.7},
                       {"kind": "signal kind", "p": "signal p", "n": "signal n",
                        "t": "signal t|rank", "energy_fraction": "energy_fraction"}, {}),
        "two_block_vectors": (simlab.two_block_vectors, {"m": 6}, {}, {}),
        "offset_partition": (simlab.offset_partition,
                             {"dim": 6, "num_blocks": 2, "offset": 1}, {}, {}),
        "resolve_config": (simlab.resolve_config, {"config": _CONFIG}, config,
                           {"config": (OSError, "")}),
        "run_experiment": (simlab.run_experiment,
                           {"config": _CONFIG, "output_dir": tmp / "experiment", "jobs": 1}, config,
                           {"config": (OSError, "")}),
    }


#: Path arguments, by callable; each gets only ``MISSING`` and may raise ``OSError``.
PATHS = {"read_dense_csv": "path", "write_dense_csv": "path", "read_coordinate_csv": "path",
         "write_coordinate_csv": "path", "read_index_json": "path",
         "read_partition_json": "path", "write_report_json": "path",
         "run_experiment": "output_dir"}


def _report():
    return io.build_report("shrink", {"margin": 0.0}, _FIT)


def _write_files(tmp):
    (tmp / "dense.csv").write_text("1.5,2.5\n3.5,4.5\n")
    (tmp / "coord.csv").write_text("row,col,value\n0,1,2.5\n1,0,3.5\n")
    (tmp / "index.json").write_text("[0, 2]")
    (tmp / "partition.json").write_text("[[0, 1], [2]]")


def _public_callables(modules=MODULES):
    """The callable names of the modules' ``__all__``, exception types aside."""
    return {name for mod in modules for name in mod.__all__
            if callable(obj := getattr(mod, name))
            and not (isinstance(obj, type) and issubclass(obj, BaseException))}


def _uncovered(names, rows) -> list:
    return sorted(set(names) - set(rows) - set(EXEMPT))


def _finite(value) -> bool:
    """Whether no float in ``value``, a record or container walked through, is nan or inf."""
    if isinstance(value, (np.ndarray, np.generic, numbers.Number)):
        arr = np.asarray(value)
        return arr.dtype.kind not in "fc" or bool(np.all(np.isfinite(arr)))
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    if dataclasses.is_dataclass(value) or hasattr(value, "__dict__"):
        return all(map(_finite, vars(value).values()))
    return True


def _failure(func, kwargs, label=None, allowed=None):
    """``None`` if the call passes the sweep, else what went wrong; with no ``label``,
    only a finite result passes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = func(**kwargs)
        except ValueError as exc:
            return None if label and re.search(label, str(exc)) else f"ValueError {exc}"
        except Exception as exc:  # any other outcome is a leak, unless documented
            kind, pattern = allowed or (None, None)
            if kind is not None and isinstance(exc, kind) and re.search(pattern, str(exc)):
                return None
            return f"{type(exc).__name__} {exc}"
    return None if _finite(result) else f"a result that is not finite: {result!r}"


@pytest.fixture
def rows(tmp_path, monkeypatch):
    _write_files(tmp_path)
    monkeypatch.chdir(tmp_path)  # a config "1" is a path that does not exist
    return _rows(tmp_path)


@pytest.mark.parametrize("name", sorted(_rows(Path("."))))
def test_hostile_arguments_name_themselves(rows, tmp_path, name):
    func, base, labels, allowed = rows[name]
    path_arg = PATHS.get(name)
    missing = tmp_path / "no such dir" / "file"
    found = []
    for arg in base:
        values = (missing,) if arg == path_arg else HOSTILE
        allow = (OSError, "") if arg == path_arg else allowed.get(arg)
        for i, value in enumerate(values):
            kwargs = {**copy.deepcopy(base), arg: value}
            failure = _failure(func, kwargs, labels.get(arg, re.escape(arg)), allow)
            if failure is not None:  # a value too long to print is shown by its index
                where = f"HOSTILE[{i}]" if values is HOSTILE else "a missing path"
                found.append(f"{arg}={where}: {failure[:160]}")
    assert found == []


def test_every_valid_call_passes(rows):
    for name, (func, kwargs, _, _) in rows.items():
        assert _failure(func, copy.deepcopy(kwargs)) is None, name


def test_every_public_callable_has_a_row_or_an_exemption(tmp_path):
    assert _uncovered(_public_callables(), _rows(tmp_path)) == []
    assert set(EXEMPT) <= _public_callables()


def test_a_new_public_callable_without_a_row_fails(tmp_path):
    extra = types.SimpleNamespace(__all__=["spectral_fit", "brand_new"],
                                  spectral_fit=sd.spectral_fit, brand_new=lambda x: x)
    assert _uncovered(_public_callables(MODULES + (extra,)), _rows(tmp_path)) == ["brand_new"]
