"""Rank 0 through every entry point, and what the CLI report says.

A fit with no spikes is the ``r = 0`` case of the general weighted solve:
every entry point returns ``p x 0`` / ``n x 0`` factors, a zero estimate,
a zero error estimate and the weights' normalized traces, whether the
rank is detected or forced.  A zero-trace weight is rejected at rank 0 as
it is at every other rank.
"""

import json

import numpy as np
import pytest

from spectral_denoise import (DenoiseResult, LocalizedResult, NoiseCovariances,
                              PipelineResult, SamplingPattern, WeightOperator,
                              as_weight_operator, cli, diagonal_denoise,
                              estimate_noise_covariances, io, localized_denoise,
                              make_equispaced_partition, missing_data_denoise,
                              shrink_submatrix_baseline, spectral_denoise, spectral_fit,
                              submatrix_denoise, svs_shrink, trace_weight,
                              whiten_denoise)
from spectral_denoise.simlab import NoiseSpec, SignalSpec, gen_noise, gen_signal

P, N = 60, 120
#: Detection margin that keeps a pure-noise matrix's top singular value below
#: the threshold for any seed at this size.
NOISE_MARGIN = 0.3


@pytest.fixture(scope="module")
def noise():
    return np.random.default_rng(5).standard_normal((P, N)) / np.sqrt(N)


def _weights():
    rng = np.random.default_rng(8)
    return {
        "identity": (None, None),
        "diagonal": (np.linspace(0.5, 2.0, P), np.linspace(1.0, 3.0, N)),
        "dense": (rng.standard_normal((P + 5, P)), rng.standard_normal((N - 7, N))),
        "index": (WeightOperator.from_indices(np.arange(0, P, 3), P),
                  WeightOperator.from_indices(np.arange(10, 70), N)),
    }


WEIGHTS = _weights()
#: ``rank`` and ``margin`` for a detected and a forced rank 0.
RANKS = {"detected": {"margin": NOISE_MARGIN}, "forced": {"rank": 0}}


def _traces(omega, pi):
    return (trace_weight(as_weight_operator(omega, P), P),
            trace_weight(as_weight_operator(pi, N), N))


def _assert_empty(res, p, n):
    assert res.rank == 0
    assert res.left.shape == (p, 0) and res.right.shape == (n, 0)
    assert res.estimate.shape == (p, n) and np.all(res.estimate == 0)
    assert res.amse_estimate == 0.0


def _assert_empty_denoise(res: DenoiseResult, mu, nu):
    _assert_empty(res, P, N)
    assert res.coefficients.shape == (0, 0)
    assert res.spikes.rank == 0
    assert res.clipped_components == ()
    assert res.amse_clamped is False
    geom = res.geometry
    assert geom.rank == 0 and geom.t.shape == geom.alpha.shape == geom.beta.shape == (0,)
    assert geom.mu == pytest.approx(mu, rel=1e-12) and geom.nu == pytest.approx(nu, rel=1e-12)


@pytest.mark.parametrize("how", sorted(RANKS))
@pytest.mark.parametrize("kind", sorted(WEIGHTS))
def test_weighted_entry_points(noise, how, kind):
    omega, pi = WEIGHTS[kind]
    mu, nu = _traces(omega, pi)
    fit = spectral_fit(noise, **RANKS[how])
    for res in (spectral_denoise(noise, omega, pi, **RANKS[how]),
                diagonal_denoise(noise, omega, pi, **RANKS[how]),
                fit.denoise(omega, pi), fit.diagonal(omega, pi)):
        _assert_empty_denoise(res, mu, nu)


@pytest.mark.parametrize("how", sorted(RANKS))
def test_shrink(noise, how):
    _assert_empty_denoise(svs_shrink(noise, **RANKS[how]), 1.0, 1.0)


@pytest.mark.parametrize("how", sorted(RANKS))
@pytest.mark.parametrize("blocks", [(1, 1), (4, 3), (P, N)])
def test_localized(noise, how, blocks):
    rows = make_equispaced_partition(P, blocks[0])
    cols = make_equispaced_partition(N, blocks[1])
    for res in (localized_denoise(noise, rows, cols, **RANKS[how]),
                spectral_fit(noise, **RANKS[how]).localized(rows, cols)):
        assert isinstance(res, LocalizedResult)
        _assert_empty(res, P, N)
        assert res.tile_amse.shape == blocks and np.all(res.tile_amse == 0)
        assert res.clipped_components == ()
        assert res.amse_clamped is False


def _assert_pipeline(res: PipelineResult, p, n, mu, nu):
    assert isinstance(res, PipelineResult)
    _assert_empty(res, p, n)
    _assert_empty_denoise(res.denoise, mu, nu)


@pytest.mark.parametrize("how", sorted(RANKS))
def test_submatrix(noise, how):
    rows, cols = np.arange(5, 45), np.arange(0, N, 2)
    mu, nu = rows.size / P, cols.size / N
    _assert_pipeline(submatrix_denoise(noise, rows, cols, **RANKS[how]),
                     rows.size, cols.size, mu, nu)
    _assert_pipeline(spectral_fit(noise, **RANKS[how]).submatrix(rows, cols),
                     rows.size, cols.size, mu, nu)


@pytest.mark.parametrize("how", sorted(RANKS))
def test_submatrix_baseline(noise, how):
    rows, cols = np.arange(P), np.arange(N)
    res = shrink_submatrix_baseline(noise, rows, cols, **RANKS[how])
    assert isinstance(res, PipelineResult)
    _assert_empty(res, P, N)
    _assert_empty_denoise(res.denoise, 1.0, 1.0)


@pytest.mark.parametrize("how", sorted(RANKS))
@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
def test_whiten(noise, how, dense):
    s, t = np.linspace(0.5, 1.5, P), np.linspace(0.8, 1.2, N)
    cov = NoiseCovariances(np.diag(s) if dense else s, np.diag(t) if dense else t)
    res = whiten_denoise(noise * np.sqrt(s)[:, None] * np.sqrt(t), cov, **RANKS[how])
    _assert_pipeline(res, P, N, np.mean(s), np.mean(t))


@pytest.mark.parametrize("how", sorted(RANKS))
def test_missing_data(noise, how):
    q_r, q_c = np.linspace(0.5, 0.9, P), np.linspace(0.6, 1.0, N)
    mask = np.random.default_rng(2).random((P, N)) < np.outer(q_r, q_c)
    pattern = SamplingPattern.from_dense(np.sqrt(N) * noise, mask, q_r, q_c)
    res = missing_data_denoise(pattern, **RANKS[how])
    _assert_pipeline(res, P, N, np.mean(1.0 / q_r), np.mean(1.0 / q_c))


@pytest.mark.parametrize("how", sorted(RANKS))
@pytest.mark.parametrize("side", ["omega", "pi"])
def test_zero_trace_weight_rejected(noise, how, side):
    weights = {"omega": np.zeros(P)} if side == "omega" else {"pi": np.zeros(N)}
    fit = spectral_fit(noise, **RANKS[how])
    for run in (fit.denoise, fit.diagonal):
        with pytest.raises(ValueError, match="normalized weight traces"):
            run(**weights)


# ---------------------------------------------------------------------------
# The CLI report of a pipeline command carries the pipeline's error estimate.
# ---------------------------------------------------------------------------

@pytest.fixture
def spiked(tmp_path):
    p, n = 80, 140
    sig = gen_signal(SignalSpec("random_orthonormal", p, n, t=(4.0, 2.5)),
                     np.random.default_rng(31))
    Y = sig.X + gen_noise(NoiseSpec(seed=32), p, n)
    path = tmp_path / "Y.csv"
    io.write_dense_csv(path, Y)
    return path, io.read_dense_csv(path)


def _run_report(tmp_path, argv):
    report = tmp_path / "r.json"
    assert cli.main(argv + ["--output", str(tmp_path / "x.csv"),
                            "--report", str(report)]) == 0
    return json.loads(report.read_text())


def test_submatrix_report_amse(tmp_path, spiked):
    # ``submatrix --baseline`` is covered in test_cli.py.
    path, Y = spiked
    rows, cols = np.arange(0, 80, 2), np.arange(30, 100)
    (tmp_path / "rows.json").write_text(json.dumps(rows.tolist()))
    (tmp_path / "cols.json").write_text(json.dumps(cols.tolist()))
    report = _run_report(tmp_path, ["submatrix", "--input", str(path),
                                    "--rows", str(tmp_path / "rows.json"),
                                    "--cols", str(tmp_path / "cols.json")])
    res = submatrix_denoise(Y, rows, cols)
    assert res.rank == 2
    assert report["amse_estimate"] == res.amse_estimate
    assert report["rank"] == res.denoise.rank


def test_whiten_report_amse(tmp_path, spiked):
    path, Y = spiked
    report = _run_report(tmp_path, ["whiten", "--input", str(path), "--estimate-cov"])
    res = whiten_denoise(Y, estimate_noise_covariances(Y))
    assert res.rank == 2
    assert report["amse_estimate"] == res.amse_estimate
    assert report["geometry"]["mu"] == res.denoise.geometry.mu


def test_complete_report_amse_scales_with_noise_sd(tmp_path, spiked):
    path, Y = spiked
    p, n = Y.shape
    noise_sd = 2.0
    q_r, q_c = np.full(p, 0.9), np.full(n, 0.95)
    mask = np.random.default_rng(4).random((p, n)) < np.outer(q_r, q_c)
    rr, cc = np.nonzero(mask)
    values = np.sqrt(n) * noise_sd * Y[mask]
    io.write_coordinate_csv(tmp_path / "obs.csv", rr, cc, values)
    io.write_dense_csv(tmp_path / "qr.csv", q_r.reshape(1, -1))
    io.write_dense_csv(tmp_path / "qc.csv", q_c.reshape(1, -1))
    report = _run_report(tmp_path, [
        "complete", "--input", str(tmp_path / "obs.csv"), "--q-row", str(tmp_path / "qr.csv"),
        "--q-col", str(tmp_path / "qc.csv"), "--noise-sd", str(noise_sd)])
    obs = io.read_coordinate_csv(tmp_path / "obs.csv")
    res = missing_data_denoise(SamplingPattern.from_coordinates(
        obs[0], obs[1], obs[2] / noise_sd, q_r, q_c))
    assert res.rank >= 1
    assert report["amse_estimate"] == float(res.amse_estimate * noise_sd**2)
