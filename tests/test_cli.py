import json

import csv_reference
import numpy as np
import pytest

from spectral_denoise import (BelowDetectionThresholdError, DegenerateEstimateError,
                              DimensionMismatchError, NoiseCovariances, SamplingPattern,
                              SpectralDenoiseError, cli, io, missing_data_denoise,
                              shrink_submatrix_baseline, spectral_denoise, whiten_denoise)
from spectral_denoise.simlab import gen_noise, gen_signal


@pytest.fixture
def spiked_csv(tmp_path):
    rng = np.random.default_rng(17)
    p, n = 120, 180
    sig = gen_signal("random_orthonormal", p, n, t=(4.0, 2.6), rng=rng)
    Y = sig.X + gen_noise("gaussian", p, n, seed=99)
    path = tmp_path / "Y.csv"
    io.write_dense_csv(path, Y)
    return path, Y, sig


class TestIoFormats:
    def test_dense_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((17, 9)) * 10.0 ** rng.integers(-8, 8, (17, 9))
        path = tmp_path / "m.csv"
        io.write_dense_csv(path, M)
        back = io.read_dense_csv(path)
        assert np.array_equal(back, M)

    def test_dense_header_tolerated(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1.5,2\n3,4\n")
        assert np.array_equal(io.read_dense_csv(path), [[1.5, 2.0], [3.0, 4.0]])

    def test_dense_ragged_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(io.MatrixFileError):
            io.read_dense_csv(path)

    def test_dense_sentinel_mask(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,,2.0\n,3.0,\n")
        matrix, mask = io.read_dense_csv(path, missing_sentinel="")
        assert np.array_equal(mask, [[True, False, True], [False, True, False]])
        assert matrix[0, 2] == 2.0 and matrix[1, 0] == 0.0

    def test_coordinate_round_trip(self, tmp_path):
        path = tmp_path / "c.csv"
        io.write_coordinate_csv(path, [0, 2, 1], [1, 0, 2], [0.5, -1.25, 3.75])
        rows, cols, values = io.read_coordinate_csv(path)
        assert rows.tolist() == [0, 2, 1]
        assert values.tolist() == [0.5, -1.25, 3.75]

    def test_coordinate_writer_checks_indices(self, tmp_path):
        path = tmp_path / "c.csv"
        with pytest.raises(ValueError, match="rows must hold integers"):
            io.write_coordinate_csv(path, [0.5, -3], [1.9, 2], [1.0, 2.0])
        with pytest.raises(ValueError, match="rows out of range"):
            io.write_coordinate_csv(path, [0, -3], [1, 2], [1.0, 2.0])
        with pytest.raises(ValueError, match="cols must be a 1-D index set"):
            io.write_coordinate_csv(path, [0, 3], [[1, 2]], [1.0, 2.0])
        with pytest.raises(DimensionMismatchError):
            io.write_coordinate_csv(path, [0, 3], [1, 2], [1.0])
        with pytest.raises(ValueError, match="values must be real, got dtype complex128"):
            io.write_coordinate_csv(path, [0, 3], [1, 2], [1.0, 2j])
        with pytest.raises(ValueError, match="matrix must be real, got dtype complex128"):
            io.write_dense_csv(path, [[1 + 2j, 3]])
        assert not path.exists()

    def test_coordinate_header_required(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("0,1,2.0\n")
        with pytest.raises(io.MatrixFileError):
            io.read_coordinate_csv(path)

    @pytest.mark.parametrize("text, sentinel", [
        (b"a,b\n1.5,2\n3,4\n", None),
        (b'"x","y"\n1,2\n', None),
        (b"\n a , b \n\n1,2\n\n3,4\n\n", None),
        (b"1,2\r\n3,4\r\n", None),
        (b'"1.5",2\n3,"-4e-3"\n', None),
        (b" 1 , 2 \n", None),
        (b"1,2,3\n", None),
        (b"1\n2\n3\n", None),
        (b"7.25", None),
        (b"a,b,c\n\n1.0,,2.0\r\n,3.0,\n", ""),
        (b"1,NA\nNA,2\n", "NA"),
        (b'1_000, NA \n"NA",-2e-3\n\n', "NA"),
    ], ids=["header", "quoted-header", "blank-lines", "crlf", "quoted-cells",
            "spaces", "single-row", "single-column", "single-cell",
            "sentinel-header-crlf", "sentinel-word", "sentinel-python-float"])
    def test_dense_reader_matches_reference(self, tmp_path, text, sentinel):
        path = tmp_path / "m.csv"
        path.write_bytes(text)
        got = io.read_dense_csv(path, missing_sentinel=sentinel)
        want = csv_reference.read_dense_csv(path, missing_sentinel=sentinel)
        if sentinel is None:
            got, want = (got,), (want,)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()

    def test_writers_match_reference(self, tmp_path):
        M = np.array([[-0.0, 5e-324, 1.7976931348623157e308, 0.1],
                      [1.0, -3.0, 1e22, 2.0 ** 60],
                      [np.nan, np.inf, -np.inf, 1.5e-300]])
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        io.write_dense_csv(new, M)
        csv_reference.write_dense_csv(ref, M)
        assert new.read_bytes() == ref.read_bytes()
        assert new.read_bytes().count(b"\r\n") == M.shape[0]
        back = io.read_dense_csv(new)
        assert back.tobytes() == csv_reference.read_dense_csv(ref).tobytes()
        assert np.array_equal(back, M, equal_nan=True)
        assert np.array_equal(np.signbit(back), np.signbit(M))

        rows, cols = np.nonzero(np.ones(M.shape, dtype=bool))
        io.write_coordinate_csv(new, rows, cols, M.ravel())
        csv_reference.write_coordinate_csv(ref, rows, cols, M.ravel())
        assert new.read_bytes() == ref.read_bytes()
        for a, b in zip(io.read_coordinate_csv(new),
                        csv_reference.read_coordinate_csv(ref)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("text", [
        b"1,2\n3\n", b"1,2\nx,y\n", b"1,2,\n", b"", b"\n\n", b"a,b\n",
        b"a,b\n\n\n", b"1_000,2\n", b"\xff\xfe\x00\x01binary",
    ], ids=["ragged", "non-numeric", "trailing-comma", "empty", "blank-only",
            "header-only", "header-then-blank", "python-only-literal",
            "undecodable"])
    def test_dense_malformed_rejected(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text)
        with pytest.raises(io.MatrixFileError):
            io.read_dense_csv(path)

    @pytest.mark.parametrize("text", [b"1,NA\n2\n", b"1,NA\nx,2\n", b"1,NA\n,2\n"],
                             ids=["ragged", "non-numeric", "empty-cell"])
    def test_dense_sentinel_malformed_rejected(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text)
        with pytest.raises(io.MatrixFileError):
            io.read_dense_csv(path, missing_sentinel="NA")

    @pytest.mark.parametrize("text", [
        b" Row , COL ,value \n0,1,2.5\n3,4,-1e-3\n",
        b"\nrow,col,value\r\n\r\n0,1,2.5\r\n\r\n2,0,3\r\n",
        b'row,col,value\n"0","1","2.5"\n 5 , 6 , 7 \n',
        b"row,col,value\n",
    ], ids=["header-case-spaces", "blank-lines-crlf", "quoted-and-spaces",
            "header-only"])
    def test_coordinate_reader_matches_reference(self, tmp_path, text):
        path = tmp_path / "c.csv"
        path.write_bytes(text)
        for a, b in zip(io.read_coordinate_csv(path),
                        csv_reference.read_coordinate_csv(path)):
            assert a.dtype == b.dtype and a.flags.c_contiguous
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("text", [
        b"row,col,value\n1.0,2,3\n", b"row,col,value\n1,2\n",
        b"row,col,value\n1,2,3,4\n", b"row,col,value\n1,2,3\n4,5\n",
        b"", b"row,col,value\n\xff\xfe\n",
    ], ids=["float-index", "two-fields", "four-fields", "short-second-line",
            "empty", "undecodable"])
    def test_coordinate_malformed_rejected(self, tmp_path, text):
        path = tmp_path / "c.csv"
        path.write_bytes(text)
        with pytest.raises(io.MatrixFileError):
            io.read_coordinate_csv(path)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            io.validate_report({"schema": 1})


class TestDenoiseCommands:
    def test_identity_weights_match_shrink(self, tmp_path, spiked_csv):
        path, Y, sig = spiked_csv
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["denoise", "--input", str(path), "--output", str(out1)]) == 0
        assert cli.main(["shrink", "--input", str(path), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_schema(self, tmp_path, spiked_csv):
        path, Y, sig = spiked_csv
        report_path = tmp_path / "rep.json"
        code = cli.main(["denoise", "--input", str(path),
                         "--output", str(tmp_path / "x.csv"),
                         "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        io.validate_report(report)
        assert report["rank"] == 2
        assert len(report["spike"]["t"]) == 2
        assert report["geometry"]["mu"] == pytest.approx(1.0)

    def test_weighted_run_with_indices(self, tmp_path, spiked_csv):
        path, Y, sig = spiked_csv
        idx = tmp_path / "rows.json"
        idx.write_text(json.dumps(list(range(60))))
        code = cli.main(["denoise", "--input", str(path),
                         "--row-weight-indices", str(idx),
                         "--output", str(tmp_path / "x.csv"),
                         "--report", str(tmp_path / "r.json")])
        assert code == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["geometry"]["mu"] == pytest.approx(0.5)

    def test_no_signal_writes_zero_matrix(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "noise.csv"
        io.write_dense_csv(path, rng.standard_normal((60, 80)) / 80.0)
        out = tmp_path / "x.csv"
        report_path = tmp_path / "r.json"
        code = cli.main(["shrink", "--input", str(path), "--output", str(out),
                         "--report", str(report_path)])
        assert code == 0
        assert np.all(io.read_dense_csv(out) == 0)
        assert json.loads(report_path.read_text())["rank"] == 0

    def test_forced_rank_below_threshold_exits_4(self, tmp_path, spiked_csv, capsys):
        path, Y, sig = spiked_csv
        code = cli.main(["shrink", "--input", str(path), "--rank", "40",
                         "--output", str(tmp_path / "x.csv")])
        assert code == 4
        assert "index" in capsys.readouterr().err

    def test_non_finite_margin_exits_5(self, tmp_path, spiked_csv, capsys):
        path, Y, sig = spiked_csv
        code = cli.main(["shrink", "--input", str(path), "--margin", "nan",
                         "--output", str(tmp_path / "x.csv")])
        assert code == 5
        assert "margin" in capsys.readouterr().err

    def test_malformed_file_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\nx,y,z\n")
        assert cli.main(["shrink", "--input", str(path),
                         "--output", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("flag", ["--input", "--rows"])
    def test_undecodable_file_exits_2(self, tmp_path, spiked_csv, capsys, flag):
        path, Y, sig = spiked_csv
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe\x00")
        idx = tmp_path / "idx.json"
        idx.write_text(json.dumps([0, 1]))
        files = {"--input": path, "--rows": idx, "--cols": idx, flag: bad}
        argv = ["submatrix", "--output", str(tmp_path / "x.csv")]
        for option, file in files.items():
            argv += [option, str(file)]
        assert cli.main(argv) == 2
        assert "bad.bin" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, content", [
        ("localized", "--row-partition", [[0], [0, 1]]),
        ("localized", "--row-partition", [list(range(119))]),
        ("localized", "--row-partition", [[True], list(range(1, 120))]),
        ("submatrix", "--rows", [True, False]),
        ("localized", "--row-partition", [[10**23], list(range(120))]),
        ("submatrix", "--rows", [10**23]),
        # Over Python's 4300-digit integer conversion limit; kept as text
        # because json.dumps cannot write it either.
        ("localized", "--row-partition", "[[" + "9" * 5000 + "]]"),
        ("submatrix", "--rows", "[" + "9" * 5000 + "]"),
    ], ids=["overlapping-blocks", "uncovered-index", "boolean-partition",
            "boolean-indices", "partition-index-beyond-intp",
            "index-beyond-intp", "partition-index-5000-digits",
            "index-5000-digits"])
    def test_invalid_index_file_exits_2(self, tmp_path, spiked_csv, command,
                                        flag, content):
        path, Y, sig = spiked_csv
        bad = tmp_path / "bad.json"
        bad.write_text(content if isinstance(content, str) else json.dumps(content))
        cols = tmp_path / "cols.json"
        cols.write_text(json.dumps([0, 1]))
        extra = ["--cols", str(cols)] if command == "submatrix" else []
        assert cli.main([command, "--input", str(path), flag, str(bad), *extra,
                         "--output", str(tmp_path / "x.csv")]) == 2

    def test_overflowing_weight_exits_5(self, tmp_path, spiked_csv, capsys):
        path, Y, sig = spiked_csv
        diag = tmp_path / "w.csv"
        io.write_dense_csv(diag, np.full((1, Y.shape[0]), 1e160))
        assert cli.main(["denoise", "--input", str(path), "--row-weight-diag", str(diag),
                         "--output", str(tmp_path / "x.csv")]) == 5
        assert "row weight" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_report_is_strict_json_when_a_geometry_value_overflows(self, tmp_path):
        # At rank 0 nothing checks the weight, and mu = tr(W^T W)/p overflows to inf.
        path, diag, report = tmp_path / "noise.csv", tmp_path / "w.csv", tmp_path / "r.json"
        io.write_dense_csv(path, np.random.default_rng(3).standard_normal((60, 80)) / 80.0)
        io.write_dense_csv(diag, np.full((1, 60), 1e160))
        assert cli.main(["denoise", "--input", str(path), "--row-weight-diag", str(diag),
                         "--rank", "0", "--output", str(tmp_path / "x.csv"),
                         "--report", str(report)]) == 0

        def no_constant(token):
            raise AssertionError(f"report.json holds the non-JSON token {token}")

        loaded = json.loads(report.read_text(), parse_constant=no_constant)
        assert loaded["rank"] == 0 and loaded["geometry"]["mu"] is None

    def test_dimension_mismatch_exits_3(self, tmp_path, spiked_csv):
        path, Y, sig = spiked_csv
        diag = tmp_path / "w.csv"
        io.write_dense_csv(diag, np.ones((1, 7)))
        assert cli.main(["denoise", "--input", str(path),
                         "--row-weight-diag", str(diag),
                         "--output", str(tmp_path / "x.csv")]) == 3

    @pytest.mark.parametrize("side", ["row", "col"])
    def test_dense_weight_file_matches_the_library(self, tmp_path, spiked_csv, side):
        path, Y, sig = spiked_csv
        dim = Y.shape[0] if side == "row" else Y.shape[1]
        W = np.random.default_rng(8).standard_normal((dim // 2, dim))
        io.write_dense_csv(tmp_path / "W.csv", W)
        out = tmp_path / "x.csv"
        assert cli.main(["denoise", "--input", str(path), f"--{side}-weights",
                         str(tmp_path / "W.csv"), "--output", str(out)]) == 0
        weights = {"omega": W} if side == "row" else {"pi": W}
        want = spectral_denoise(io.read_dense_csv(path), **weights).estimate
        np.testing.assert_array_equal(io.read_dense_csv(out), want)
        # A dense weight of the wrong width is a dimension mismatch.
        io.write_dense_csv(tmp_path / "W.csv", W[:, 1:])
        assert cli.main(["denoise", "--input", str(path), f"--{side}-weights",
                         str(tmp_path / "W.csv"), "--output", str(out)]) == 3


class TestLocalizedCommand:
    def test_blocks_and_partition_file_agree(self, tmp_path, spiked_csv):
        path, Y, sig = spiked_csv
        part = tmp_path / "rows.json"
        part.write_text(json.dumps([list(range(0, 60)), list(range(60, 120))]))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["localized", "--input", str(path), "--row-blocks", "2",
                         "--col-blocks", "3", "--output", str(a)]) == 0
        assert cli.main(["localized", "--input", str(path),
                         "--row-partition", str(part), "--col-blocks", "3",
                         "--output", str(b)]) == 0
        assert np.array_equal(io.read_dense_csv(a), io.read_dense_csv(b))

    @pytest.mark.parametrize("flag", ["--row-blocks", "--col-blocks"])
    def test_zero_blocks_exits_5(self, tmp_path, spiked_csv, capsys, flag):
        path, Y, sig = spiked_csv
        assert cli.main(["localized", "--input", str(path), flag, "0",
                         "--output", str(tmp_path / "x.csv")]) == 5
        assert "num_blocks" in capsys.readouterr().err


class TestSubmatrixCommand:
    def test_weighted_and_baseline(self, tmp_path, spiked_csv):
        path, Y, sig = spiked_csv
        rows = tmp_path / "rows.json"
        cols = tmp_path / "cols.json"
        rows.write_text(json.dumps(list(range(50))))
        cols.write_text(json.dumps(list(range(70))))
        out = tmp_path / "x.csv"
        assert cli.main(["submatrix", "--input", str(path), "--rows", str(rows),
                         "--cols", str(cols), "--output", str(out)]) == 0
        assert io.read_dense_csv(out).shape == (50, 70)
        assert cli.main(["submatrix", "--input", str(path), "--rows", str(rows),
                         "--cols", str(cols), "--baseline",
                         "--output", str(out)]) == 0
        assert io.read_dense_csv(out).shape == (50, 70)

    def test_baseline_reports_error_of_written_matrix(self, tmp_path, spiked_csv):
        path, Y, sig = spiked_csv
        rows = tmp_path / "rows.json"
        cols = tmp_path / "cols.json"
        rows.write_text(json.dumps(list(range(120))))
        cols.write_text(json.dumps(list(range(45))))
        out, report = tmp_path / "x.csv", tmp_path / "r.json"
        assert cli.main(["submatrix", "--input", str(path), "--rows", str(rows),
                         "--cols", str(cols), "--baseline", "--output", str(out),
                         "--report", str(report)]) == 0
        base = shrink_submatrix_baseline(Y, np.arange(120), np.arange(45))
        data = json.loads(report.read_text())
        assert data["baseline"] is True
        assert data["amse_estimate"] == base.amse_estimate
        assert data["amse_estimate"] == base.denoise.amse_estimate / 4.0
        assert np.array_equal(io.read_dense_csv(out), base.estimate)


class TestWhitenCommand:
    def test_with_files_and_estimated(self, tmp_path):
        rng = np.random.default_rng(23)
        p, n = 150, 260
        sig = gen_signal("random_orthonormal", p, n, t=(5.0,), rng=rng)
        s = np.linspace(0.4, 1.0, p)
        t = np.linspace(0.4, 1.0, n)
        G = gen_noise("gaussian", p, n, seed=31)
        Y = sig.X + np.sqrt(s)[:, None] * G * np.sqrt(t)[None, :]
        y_path = tmp_path / "Y.csv"
        io.write_dense_csv(y_path, Y)
        io.write_dense_csv(tmp_path / "s.csv", s.reshape(1, -1))
        io.write_dense_csv(tmp_path / "t.csv", t.reshape(1, -1))
        assert cli.main(["whiten", "--input", str(y_path),
                         "--cov-s", str(tmp_path / "s.csv"),
                         "--cov-t", str(tmp_path / "t.csv"),
                         "--output", str(tmp_path / "a.csv")]) == 0
        assert cli.main(["whiten", "--input", str(y_path), "--estimate-cov",
                         "--output", str(tmp_path / "b.csv")]) == 0
        assert cli.main(["whiten", "--input", str(y_path),
                         "--output", str(tmp_path / "c.csv")]) == 5

    def test_dense_covariance_files_match_the_library(self, tmp_path):
        rng = np.random.default_rng(24)
        p, n = 60, 90
        S = np.cov(rng.standard_normal((p, 3 * p))) + np.eye(p)
        T = np.diag(np.linspace(0.5, 1.0, n))
        Y = gen_signal("random_orthonormal", p, n, t=(5.0,), rng=rng).X
        Y += gen_noise("gaussian", p, n, seed=3)
        for name, m in (("Y", Y), ("S", S), ("T", T)):
            io.write_dense_csv(tmp_path / f"{name}.csv", m)
        assert cli.main(["whiten", "--input", str(tmp_path / "Y.csv"),
                         "--cov-s", str(tmp_path / "S.csv"), "--cov-t", str(tmp_path / "T.csv"),
                         "--output", str(tmp_path / "x.csv")]) == 0
        cov = NoiseCovariances(io.read_dense_csv(tmp_path / "S.csv"),
                               io.read_dense_csv(tmp_path / "T.csv"))
        want = whiten_denoise(io.read_dense_csv(tmp_path / "Y.csv"), cov).estimate
        np.testing.assert_array_equal(io.read_dense_csv(tmp_path / "x.csv"), want)


class TestCompleteCommand:
    def _write_inputs(self, tmp_path, fmt):
        rng = np.random.default_rng(29)
        p, n = 100, 160
        sig = gen_signal("random_orthonormal", p, n,
                         t=(10.0 * np.sqrt(n),), rng=rng)
        full = sig.X + rng.standard_normal((p, n))
        q_r, q_c = np.full(p, 0.95), np.full(n, 0.95)
        mask = rng.random((p, n)) < np.outer(q_r, q_c)
        io.write_dense_csv(tmp_path / "qr.csv", q_r.reshape(1, -1))
        io.write_dense_csv(tmp_path / "qc.csv", q_c.reshape(1, -1))
        if fmt == "coordinate":
            rr, cc = np.nonzero(mask)
            io.write_coordinate_csv(tmp_path / "obs.csv", rr, cc, full[mask])
        else:
            with open(tmp_path / "obs.csv", "w") as fh:
                for i in range(p):
                    fh.write(",".join(repr(float(full[i, j])) if mask[i, j] else ""
                                      for j in range(n)) + "\n")
        return sig

    @pytest.mark.parametrize("fmt", ["coordinate", "dense"])
    def test_complete_runs(self, tmp_path, fmt):
        sig = self._write_inputs(tmp_path, fmt)
        args = ["complete", "--input", str(tmp_path / "obs.csv"),
                "--q-row", str(tmp_path / "qr.csv"),
                "--q-col", str(tmp_path / "qc.csv"),
                "--output", str(tmp_path / "x.csv"),
                "--report", str(tmp_path / "r.json")]
        if fmt == "dense":
            args += ["--input-format", "dense"]
        assert cli.main(args) == 0
        X_hat = io.read_dense_csv(tmp_path / "x.csv")
        assert X_hat.shape == sig.X.shape
        err = np.linalg.norm(X_hat - sig.X) / np.linalg.norm(sig.X)
        assert err < 0.4
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["rank"] >= 1
        assert report["observed_entries"] > 0

    @pytest.mark.parametrize("flag", ["--q-row", "--q-col"])
    def test_probability_file_that_is_not_a_vector_exits_2(self, tmp_path, capsys, flag):
        self._write_inputs(tmp_path, "coordinate")
        io.write_dense_csv(tmp_path / "q.csv", np.full((2, 3), 0.9))
        files = {"--q-row": tmp_path / "qr.csv", "--q-col": tmp_path / "qc.csv",
                 flag: tmp_path / "q.csv"}
        argv = ["complete", "--input", str(tmp_path / "obs.csv"),
                "--output", str(tmp_path / "x.csv")]
        for option, file in files.items():
            argv += [option, str(file)]
        assert cli.main(argv) == 2
        assert "expected a vector, got shape (2, 3)" in capsys.readouterr().err

    @pytest.mark.parametrize("sd", ["inf", "nan", "0", "-1"])
    def test_noise_sd_must_be_finite_and_positive(self, tmp_path, capsys, sd):
        # No input file exists: the value is rejected before any file is read.
        missing = str(tmp_path / "missing.csv")
        assert cli.main(["complete", "--input", missing, "--q-row", missing,
                         "--q-col", missing, f"--noise-sd={sd}",
                         "--output", str(tmp_path / "x.csv")]) == 5
        assert "--noise-sd" in capsys.readouterr().err

    def test_noise_sd_scales_the_unit_noise_estimate(self, tmp_path):
        self._write_inputs(tmp_path, "coordinate")
        assert cli.main(["complete", "--input", str(tmp_path / "obs.csv"),
                         "--q-row", str(tmp_path / "qr.csv"), "--q-col", str(tmp_path / "qc.csv"),
                         "--noise-sd", "1.1", "--output", str(tmp_path / "x.csv")]) == 0
        rows, cols, values = io.read_coordinate_csv(tmp_path / "obs.csv")
        q_r = io.read_dense_csv(tmp_path / "qr.csv").ravel()
        q_c = io.read_dense_csv(tmp_path / "qc.csv").ravel()
        res = missing_data_denoise(SamplingPattern.from_coordinates(
            rows, cols, values / 1.1, q_r, q_c))
        assert res.rank >= 1
        want = res.estimate * 1.1
        got = io.read_dense_csv(tmp_path / "x.csv")
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


class TestExitCodes:
    """``cli.main`` maps each error class to its exit code and an ``error:`` line."""

    @pytest.mark.parametrize("exc, code, prefix", [
        (BelowDetectionThresholdError("below"), 4, "error: "),
        (DimensionMismatchError("shapes"), 3, "error: "),
        (io.MatrixFileError("bad file"), 2, "error: "),
        (FileNotFoundError("no file"), 2, "error: "),
        (DegenerateEstimateError("degenerate"), 5, "error: "),
        (SpectralDenoiseError("domain"), 5, "error: "),
        (ValueError("value"), 5, "error: "),
        (RuntimeError("boom"), 1, "unexpected error: "),
    ], ids=["threshold", "dimension", "matrix-file", "os-error", "degenerate", "domain",
            "value", "runtime"])
    def test_error_class_maps_to_its_exit_code(self, monkeypatch, capsys, tmp_path,
                                               exc, code, prefix):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_simulate", fail)
        assert cli.main(["simulate", "--output-dir", str(tmp_path)]) == code
        assert capsys.readouterr().err == f"{prefix}{exc}\n"


class TestSimulateCommand:
    def test_jobs_do_not_change_aggregates(self, tmp_path):
        cfg = {"schema": 1, "scenario": "rank-estimation", "seed": 13,
               "replicates": 4, "params": {"p": 100, "n": 200}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["simulate", "--config", str(cfg_path),
                         "--output-dir", str(tmp_path / "one"), "--jobs", "1"]) == 0
        assert cli.main(["simulate", "--config", str(cfg_path),
                         "--output-dir", str(tmp_path / "eight"), "--jobs", "8"]) == 0
        a = json.loads((tmp_path / "one" / "report.json").read_text())
        b = json.loads((tmp_path / "eight" / "report.json").read_text())
        assert a["aggregates"] == b["aggregates"]
        assert (tmp_path / "one" / "replicates.csv").read_text() \
            == (tmp_path / "eight" / "replicates.csv").read_text()

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b"\xff\xfe\x00")
        assert cli.main(["simulate", "--config", str(cfg_path),
                         "--output-dir", str(tmp_path / "o")]) == 2
        assert "cfg.json" in capsys.readouterr().err

    def test_oversized_integer_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"replicates": ' + "9" * 5000 + "}")
        assert cli.main(["simulate", "--config", str(cfg_path),
                         "--output-dir", str(tmp_path / "o")]) == 2
        assert "cfg.json" in capsys.readouterr().err

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_SEED, "77")
        assert cli.main(["simulate", "--scenario", "rank-estimation",
                         "--replicates", "2", "--output-dir", str(tmp_path / "o"),
                         ]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["seeds"]["base"] == 77
