"""Cell-by-cell ``csv``-module reader and writers: the reference for ``io``.

These are the loops ``spectral_denoise.io`` used before it parsed with
``np.loadtxt`` and formatted whole rows.  The differential tests in
``test_cli.py`` require the vectorised versions to write the same bytes
and to read the same bits.
"""

import csv

import numpy as np

from spectral_denoise.io import MatrixFileError


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def read_dense_csv(path, missing_sentinel=None):
    rows = []
    with open(path, newline="") as fh:
        for line in csv.reader(fh):
            if line:
                rows.append(line)
    if not rows:
        raise MatrixFileError(f"{path}: empty matrix file")
    start = 0
    if not all(_is_float(tok) or (missing_sentinel is not None
                                  and tok.strip() == missing_sentinel)
               for tok in rows[0]):
        start = 1
    body = rows[start:]
    if not body:
        raise MatrixFileError(f"{path}: no data rows")
    width = len(body[0])
    if any(len(r) != width for r in body):
        raise MatrixFileError(f"{path}: ragged rows")

    if missing_sentinel is None:
        try:
            return np.array([[float(tok) for tok in r] for r in body])
        except ValueError as exc:
            raise MatrixFileError(f"{path}: non-numeric cell ({exc})") from exc

    matrix = np.zeros((len(body), width))
    mask = np.zeros((len(body), width), dtype=bool)
    for i, r in enumerate(body):
        for j, tok in enumerate(r):
            if tok.strip() == missing_sentinel:
                continue
            try:
                matrix[i, j] = float(tok)
            except ValueError as exc:
                raise MatrixFileError(f"{path}: non-numeric cell") from exc
            mask[i, j] = True
    return matrix, mask


def write_dense_csv(path, matrix) -> None:
    m = np.asarray(matrix, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in m:
            writer.writerow([repr(float(x)) for x in row])


def read_coordinate_csv(path):
    with open(path, newline="") as fh:
        lines = [line for line in csv.reader(fh) if line]
    if not lines:
        raise MatrixFileError(f"{path}: empty coordinate file")
    if [tok.strip().lower() for tok in lines[0]] != ["row", "col", "value"]:
        raise MatrixFileError(f"{path}: missing 'row,col,value' header")
    rows, cols, values = [], [], []
    for i, line in enumerate(lines[1:], start=2):
        if len(line) != 3:
            raise MatrixFileError(f"{path}: line {i} does not have 3 fields")
        try:
            rows.append(int(line[0]))
            cols.append(int(line[1]))
            values.append(float(line[2]))
        except ValueError as exc:
            raise MatrixFileError(f"{path}: line {i}: {exc}") from exc
    return (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
            np.array(values))


def write_coordinate_csv(path, rows, cols, values) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "value"])
        for r, c, v in zip(rows, cols, np.asarray(values, dtype=float)):
            writer.writerow([int(r), int(c), repr(float(v))])
