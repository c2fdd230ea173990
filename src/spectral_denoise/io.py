"""File formats: dense CSV, coordinate CSV, index/partition JSON, reports.

Dense CSV is row-major and comma-separated.  The first non-empty line is
a header, and skipped, when any of its cells does not parse as a float.
Empty lines are skipped.  Cells go through numpy's float parser
(``np.loadtxt``): decimal and exponent forms, ``nan`` and ``inf``,
surrounding spaces and double-quoted cells are accepted, Python-only
spellings such as ``1_000`` are not (with a missing-value sentinel the
cells go through Python's ``float``, which accepts them).  Numbers are written
with ``repr``'s shortest round-trip digits and CRLF line endings, so a matrix that
is written and re-read is bit-identical; dense values are formatted in blocks by
a vectorized formatter (``_shortest``), and those outside its fast range by
``repr``.  Coordinate CSV carries a ``row,col,value`` header and zero-based
integer indices.  A file that is malformed or not decodable text raises
``MatrixFileError``.
"""

from __future__ import annotations

import contextlib
import csv
import json
from pathlib import Path

import numpy as np

from . import __version__, _shortest
from .errors import (DimensionMismatchError, MatrixFileError, _MAX_INTP, _expect, _index_set,
                     _real_array, _shown)
from .spiked import SpikeParams

__all__ = [
    "read_dense_csv",
    "write_dense_csv",
    "read_coordinate_csv",
    "write_coordinate_csv",
    "read_index_json",
    "read_partition_json",
    "write_report_json",
    "validate_report",
    "REPORT_REQUIRED_KEYS",
]


_COORDINATE_DTYPE = [("r", np.intp), ("c", np.intp), ("v", float)]


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


@contextlib.contextmanager
def _open_text(path):
    """Open ``path`` for reading; undecodable bytes raise ``MatrixFileError``."""
    try:
        with open(path) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise MatrixFileError(f"{path}: not a text file ({exc})") from exc


def _next_line(fh):
    """The next non-empty line (``""`` at the end) and the offset it starts at."""
    while True:
        pos = fh.tell()
        line = fh.readline()
        if line != "\n":
            return line, pos


def _loadtxt(path, fh, **kwargs):
    try:
        return np.loadtxt(fh, delimiter=",", comments=None, quotechar='"',
                          **kwargs)
    except ValueError as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc


def read_dense_csv(path, missing_sentinel: str | None = None):
    """Read a dense CSV matrix, tolerating one header row.

    When ``missing_sentinel`` is given (empty string allowed), cells equal
    to it are treated as unobserved and the function returns
    ``(matrix, mask)`` with zeros at unobserved positions; otherwise every
    cell must parse as a float and only the matrix is returned.
    """
    if missing_sentinel is not None:
        _expect(missing_sentinel, str, "missing_sentinel")
    with _open_text(path) as fh:
        line, pos = _next_line(fh)
        if not line:
            raise MatrixFileError(f"{path}: empty matrix file")
        if not all(_is_float(tok) or (missing_sentinel is not None
                                      and tok.strip() == missing_sentinel)
                   for tok in next(csv.reader([line]))):
            line, pos = _next_line(fh)
            if not line:
                raise MatrixFileError(f"{path}: no data rows")
        fh.seek(pos)
        if missing_sentinel is None:
            return _loadtxt(path, fh, ndmin=2)
        # Python ``str`` cells: a numpy ``str`` array stores every cell at the
        # widest cell's size, and loadtxt warns on blank lines when filling one.
        cells = _loadtxt(path, fh, dtype=object, ndmin=2)
    mask = np.frompyfunc(str.strip, 1, 1)(cells) != missing_sentinel
    matrix = np.zeros(cells.shape)
    try:
        matrix[mask] = cells[mask].astype(float)
    except ValueError as exc:
        raise MatrixFileError(f"{path}: non-numeric cell ({exc})") from exc
    return matrix, mask


def write_dense_csv(path, matrix) -> None:
    """Write a matrix as dense CSV with shortest round-trip decimals."""
    m = _real_array(matrix, "matrix", ndim=2, finite=False)
    # The csv module's default dialect: CRLF line ends, and ``repr`` of a
    # float never needs quoting.
    with open(path, "wb") as fh:
        _shortest.write_csv(fh, m)


def read_coordinate_csv(path):
    """Read ``row,col,value`` triples (zero-based, header required)."""
    with _open_text(path) as fh:
        line, _ = _next_line(fh)
        if not line:
            raise MatrixFileError(f"{path}: empty coordinate file")
        header = [tok.strip().lower() for tok in next(csv.reader([line]))]
        if header != ["row", "col", "value"]:
            raise MatrixFileError(f"{path}: coordinate CSV must start with a "
                                  "'row,col,value' header")
        line, pos = _next_line(fh)
        fh.seek(pos)
        table = (_loadtxt(path, fh, dtype=_COORDINATE_DTYPE, ndmin=1) if line
                 else np.empty(0, dtype=_COORDINATE_DTYPE))
    return tuple(np.ascontiguousarray(table[k]) for k in ("r", "c", "v"))


def write_coordinate_csv(path, rows, cols, values) -> None:
    rows = _index_set(rows, _MAX_INTP, "rows")  # no bound but the type's is known
    cols = _index_set(cols, _MAX_INTP, "cols")
    values = _real_array(values, "values", finite=False)
    if not (rows.shape == cols.shape == values.shape):
        raise DimensionMismatchError("rows, cols, values must have equal length")
    with open(path, "w", newline="") as fh:
        fh.write("row,col,value\r\n")
        fh.writelines(f"{r},{c},{v!r}\r\n" for r, c, v in
                      zip(rows.tolist(), cols.tolist(), values.tolist()))


def _is_index(i) -> bool:
    return type(i) is int and -_MAX_INTP - 1 <= i <= _MAX_INTP


def _read_json(path):
    """Parse a JSON file; bad JSON or an over-long integer raises ``MatrixFileError``."""
    with _open_text(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except ValueError as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc


def read_index_json(path) -> np.ndarray:
    """Read a flat JSON array of zero-based indices."""
    data = _read_json(path)
    if not isinstance(data, list) or not all(map(_is_index, data)):
        raise MatrixFileError(f"{path}: expected a JSON array of machine-size integers")
    return np.asarray(data, dtype=np.intp)


def read_partition_json(path) -> list:
    """Read a JSON array of arrays of zero-based indices."""
    data = _read_json(path)
    if (not isinstance(data, list)
            or not all(isinstance(b, list) for b in data)
            or not all(_is_index(i) for b in data for i in b)):
        raise MatrixFileError(f"{path}: expected a JSON array of index arrays")
    return data


#: Keys every CLI report must carry.
REPORT_REQUIRED_KEYS = ("schema", "version", "command", "config", "rank",
                        "gamma", "amse_estimate", "clipped_components")

REPORT_SCHEMA_VERSION = 1


def build_report(command: str, config: dict, result, extra: dict | None = None) -> dict:
    """Assemble the JSON report for one CLI invocation from the result it returns.

    Spikes, clipped components and geometry come from the fit: the result
    itself, or a pipeline result's inner ``denoise``.  ``amse_estimate`` is
    always the returned result's own, so a pipeline reports the error of
    the matrix it wrote.  ``extra`` keys are added last and win.
    """
    fit = getattr(result, "denoise", result)
    spikes = _expect(getattr(fit, "spikes", None), SpikeParams, "result.spikes")
    report = {
        "schema": REPORT_SCHEMA_VERSION,
        "version": __version__,
        "command": command,
        "config": config,
        "rank": int(spikes.rank),
        "gamma": float(spikes.gamma),
        "amse_estimate": float(result.amse_estimate),
        "clipped_components": [int(i) for i in fit.clipped_components],
        "spike": {
            "observed": spikes.observed.tolist(),
            "t": spikes.t.tolist(),
            "c": spikes.c.tolist(),
            "c_tilde": spikes.c_tilde.tolist(),
        },
    }
    geom = getattr(fit, "geometry", None)
    if geom is not None:
        report["geometry"] = {
            "mu": float(geom.mu),
            "nu": float(geom.nu),
            "alpha": geom.alpha.tolist(),
            "beta": geom.beta.tolist(),
        }
    if extra:
        report.update(extra)
    return json.loads(json.dumps(report), parse_constant=lambda _: None)  # inf, nan: null


def validate_report(report: dict) -> None:
    """Raise ``ValueError`` if a report is missing required keys."""
    missing = [k for k in REPORT_REQUIRED_KEYS if k not in _expect(report, dict, "report")]
    if missing:
        raise ValueError(f"report is missing keys: {missing}")
    if report["schema"] != REPORT_SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema {_shown(report['schema'])}")


def write_report_json(path, report: dict) -> None:
    validate_report(report)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
