"""Command-line interface.

One subcommand per pipeline, file-based matrices in and out::

    spectral-denoise denoise --input Y.csv --row-weight-indices rows.json \
        --output Xhat.csv --report report.json

Distinct exit codes: 0 success, 2 malformed or unreadable files, 3
dimension mismatches, 4 a forced rank below the detection threshold, 5
other domain errors, 1 anything unexpected.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__, io
from .applications import (NoiseCovariances, SamplingPattern,
                           estimate_noise_covariances, missing_data_denoise,
                           shrink_submatrix_baseline, submatrix_denoise,
                           whiten_denoise)
from .denoise import spectral_denoise
from .errors import (BelowDetectionThresholdError, DimensionMismatchError,
                     SpectralDenoiseError)
from .geometry import Partition, WeightOperator
from .localized import localized_denoise, make_equispaced_partition
from .simlab import run_experiment
from .spiked import _check_real

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_FILE = 2
EXIT_DIMENSION = 3
EXIT_THRESHOLD = 4
EXIT_DOMAIN = 5

#: Exit code of each error class, the first match winning; any other error is unexpected.
_EXIT_CODES = ((BelowDetectionThresholdError, EXIT_THRESHOLD),
               (DimensionMismatchError, EXIT_DIMENSION),
               ((io.MatrixFileError, OSError), EXIT_FILE),
               ((SpectralDenoiseError, ValueError), EXIT_DOMAIN))

ENV_SEED = "SPECTRAL_DENOISE_SEED"


def _add_io_args(sub, weights=False):
    sub.add_argument("--input", required=True, help="dense CSV matrix")
    sub.add_argument("--output", required=True, help="where to write the denoised CSV")
    sub.add_argument("--report", help="optional JSON report path")
    sub.add_argument("--rank", type=int, default=None,
                     help="force the number of components (default: detect)")
    sub.add_argument("--margin", type=float, default=0.0,
                     help="additive margin on the detection threshold")
    if weights:
        for side, dim in (("row", "p"), ("col", "n")):
            group = sub.add_mutually_exclusive_group()
            group.add_argument(f"--{side}-weights",
                               help=f"dense CSV weight matrix with {dim} columns")
            group.add_argument(f"--{side}-weight-diag",
                               help="CSV vector of diagonal weights")
            group.add_argument(f"--{side}-weight-indices",
                               help="JSON index array (coordinate projection)")


def _vector_from_csv(path) -> np.ndarray:
    m = io.read_dense_csv(path)
    if 1 not in m.shape:
        raise io.MatrixFileError(f"{path}: expected a vector, got shape {m.shape}")
    return m.ravel()


def _weight_from_args(args, side: str, dim: int):
    dense = getattr(args, f"{side}_weights", None)
    diag = getattr(args, f"{side}_weight_diag", None)
    indices = getattr(args, f"{side}_weight_indices", None)
    if dense:
        return WeightOperator.from_matrix(io.read_dense_csv(dense))
    if diag:
        return WeightOperator.from_diagonal(_vector_from_csv(diag))
    if indices:
        return WeightOperator.from_indices(io.read_index_json(indices), dim)
    return None


def _finish(args, result, extra=None) -> int:
    """Write ``result.estimate`` and, if asked for, the report built from ``result``."""
    io.write_dense_csv(args.output, result.estimate)
    if args.report:
        config = {k: v for k, v in vars(args).items()
                  if k != "func" and not k.startswith("_")}
        report = io.build_report(args.command, config, result, extra=extra)
        io.write_report_json(args.report, report)
    return EXIT_OK


def _cmd_denoise(args) -> int:
    """``denoise``, and ``shrink``: with no weight flags this is shrinkage."""
    Y = io.read_dense_csv(args.input)
    p, n = Y.shape
    omega = _weight_from_args(args, "row", p)
    pi = _weight_from_args(args, "col", n)
    res = spectral_denoise(Y, omega, pi, rank=args.rank, margin=args.margin)
    return _finish(args, res)


def _partition_from_args(args, side: str, dim: int) -> Partition:
    blocks = getattr(args, f"{side}_blocks")
    part_file = getattr(args, f"{side}_partition")
    if part_file:
        return Partition.from_json(part_file, dim)
    return make_equispaced_partition(dim, 1 if blocks is None else blocks)


def _cmd_localized(args) -> int:
    Y = io.read_dense_csv(args.input)
    p, n = Y.shape
    rows = _partition_from_args(args, "row", p)
    cols = _partition_from_args(args, "col", n)
    res = localized_denoise(Y, rows, cols, rank=args.rank, margin=args.margin)
    extra = {"row_blocks": len(rows), "col_blocks": len(cols),
             "tile_amse": res.tile_amse.tolist()}
    return _finish(args, res, extra=extra)


def _cmd_submatrix(args) -> int:
    Y = io.read_dense_csv(args.input)
    rows = io.read_index_json(args.rows)
    cols = io.read_index_json(args.cols)
    run = shrink_submatrix_baseline if args.baseline else submatrix_denoise
    res = run(Y, rows, cols, rank=args.rank, margin=args.margin)
    return _finish(args, res, extra={"baseline": args.baseline})


def _covariance_from_file(path) -> np.ndarray:
    m = io.read_dense_csv(path)
    if 1 in m.shape:
        return m.ravel()
    return m


def _cmd_whiten(args) -> int:
    Y = io.read_dense_csv(args.input)
    if args.estimate_cov:
        cov = estimate_noise_covariances(Y)
    else:
        if not (args.cov_s and args.cov_t):
            raise SpectralDenoiseError(
                "whiten needs --cov-s and --cov-t, or --estimate-cov")
        cov = NoiseCovariances(_covariance_from_file(args.cov_s),
                               _covariance_from_file(args.cov_t))
    res = whiten_denoise(Y, cov, rank=args.rank, margin=args.margin)
    return _finish(args, res, extra={"estimated_covariances": args.estimate_cov})


def _cmd_complete(args) -> int:
    """``complete``: the pipeline runs on unit-noise values, its result is mapped back once."""
    sd = _check_real(args.noise_sd, "--noise-sd", positive=True)
    q_row = _vector_from_csv(args.q_row)
    q_col = _vector_from_csv(args.q_col)
    if args.input_format == "coordinate":
        rows, cols, values = io.read_coordinate_csv(args.input)
        values /= sd
        pattern = SamplingPattern.from_coordinates(rows, cols, values, q_row, q_col)
    else:
        matrix, mask = io.read_dense_csv(args.input,
                                         missing_sentinel=args.missing_sentinel)
        matrix /= sd
        pattern = SamplingPattern.from_dense(matrix, mask, q_row, q_col)
    res = missing_data_denoise(pattern, rank=args.rank, margin=args.margin)
    res = dataclasses.replace(res, left=res.left * sd, amse_estimate=res.amse_estimate * sd**2)
    return _finish(args, res, extra={"observed_entries": pattern.values.size})


def _cmd_simulate(args) -> int:
    config = io._read_json(args.config) if args.config else {}
    if not isinstance(config, dict):
        raise ValueError(f"{args.config}: a simlab config must be a JSON object")
    seed = args.seed
    if seed is None and os.environ.get(ENV_SEED):
        seed = int(os.environ[ENV_SEED])
    overrides = {"scenario": args.scenario or None, "replicates": args.replicates,
                 "scale": args.scale, "seed": seed}
    config.update((k, v) for k, v in overrides.items() if v is not None)
    report = run_experiment(config, output_dir=args.output_dir, jobs=args.jobs)
    print(f"{report.scenario}: {len(report.rows)} rows, "
          f"{report.wall_clock_s:.2f}s -> {args.output_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-denoise",
        description="Spectral denoising of low-rank matrices under weighted "
                    "Frobenius loss.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("denoise", help="optimal weighted spectral denoiser")
    _add_io_args(p, weights=True)
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("shrink", help="optimal singular value shrinkage")
    _add_io_args(p)
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("localized", help="blockwise localized denoising")
    _add_io_args(p)
    for side in ("row", "col"):
        group = p.add_mutually_exclusive_group()
        group.add_argument(f"--{side}-blocks", type=int,
                           help="number of equispaced blocks")
        group.add_argument(f"--{side}-partition",
                           help="JSON array of index arrays")
    p.set_defaults(func=_cmd_localized)

    p = sub.add_parser("submatrix", help="denoise a submatrix via the full matrix")
    _add_io_args(p)
    p.add_argument("--rows", required=True, help="JSON index array of rows")
    p.add_argument("--cols", required=True, help="JSON index array of columns")
    p.add_argument("--baseline", action="store_true",
                   help="run shrinkage on the submatrix alone instead")
    p.set_defaults(func=_cmd_submatrix)

    p = sub.add_parser("whiten", help="doubly-heteroscedastic noise via whitening")
    _add_io_args(p)
    p.add_argument("--cov-s", help="row covariance (CSV matrix or vector)")
    p.add_argument("--cov-t", help="column covariance (CSV matrix or vector)")
    p.add_argument("--estimate-cov", action="store_true",
                   help="estimate diagonal covariances from the data")
    p.set_defaults(func=_cmd_whiten)

    p = sub.add_parser("complete", help="denoise a partially observed matrix")
    _add_io_args(p)
    p.add_argument("--input-format", choices=["coordinate", "dense"],
                   default="coordinate")
    p.add_argument("--missing-sentinel", default="",
                   help="cell marking a missing entry in dense input")
    p.add_argument("--q-row", required=True, help="CSV vector of row probabilities")
    p.add_argument("--q-col", required=True, help="CSV vector of column probabilities")
    p.add_argument("--noise-sd", type=float, default=1.0,
                   help="noise standard deviation of observed entries")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    p.add_argument("--scenario", help="registered scenario name")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help=f"base seed (falls back to ${ENV_SEED})")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        code = next((c for kind, c in _EXIT_CODES if isinstance(exc, kind)), EXIT_UNEXPECTED)
        print(f"{'unexpected error' if code == EXIT_UNEXPECTED else 'error'}: {exc}",
              file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
