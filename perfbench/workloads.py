"""Seeded inputs, operation lists and correctness checks of the four workloads.

Inputs are made by this file from the seed alone, with code of its own,
so both commits of a comparison receive identical bytes.  Each generator
follows the noise model of the pipeline it feeds:

* ``shrink``, ``submatrix`` and ``localized`` get ``X + G`` with iid
  ``N(0, 1/n)`` noise ``G``;
* ``whiten`` gets ``X + S**0.5 G T**0.5`` with the same diagonal ``S`` and
  ``T`` that are passed to ``whiten_denoise``;
* ``complete`` gets entries of ``sqrt(n) (X + G)``, i.e. unit-variance noise
  on the observed entries, sampled with probability ``q_row[i] q_col[j]``.

The planted signal ``X`` is rank ``r`` with Haar-random singular vectors
and fixed singular values well above the detection point, so the detected
rank equals ``r`` and no pipeline leaves its ordinary path.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

#: Workload name -> matrix shape and planted rank.
SHAPES = {
    "cli-csv": (1000, 2000, 5),
    "library-large": (2000, 4000, 5),
    "localized-fine": (500, 1000, 3),
    "simlab-pool": (500, 1000, 5),
}

#: The ``simlab-pool`` experiment.  With ``jobs=2`` and the BLAS thread
#: variables unset, pass times on a 2-core machine ranged over 13.5-28 s
#: (quartile spread ~18%), too wide for any bound, so the workload runs the
#: replicates in this process (``jobs=1``, 7.3-8.1 s for 6 replicates).
#: Tracing also needs ``jobs=1``: spans recorded in pool workers are lost.
SIMLAB = {"scenario": "heteroscedastic", "replicates": 4, "jobs": 1}

#: Detection margin passed to every pipeline but ``complete``.  With margin
#: 0 the first bulk singular value crosses the asymptotic edge
#: ``1 + sqrt(gamma)`` in a fair share of seeds at these sizes (Tracy-Widom
#: fluctuations), which would make the detected rank depend on the seed.
MARGIN = 0.05

#: Detection margin of ``complete``.  Sampling the signal adds variance
#: ``(1 - q) / q * X_ij**2`` to each rescaled entry, which lifts the bulk
#: edge of the completion input by about 0.04 at 1000x2000 (0.038 +/- 0.006
#: over 100 seeds, up to 0.057), so 0.05 would detect a bulk value as a
#: spike for a few seeds in a hundred.
COMPLETE_MARGIN = 0.1

#: Row and column sampling probabilities of ``complete`` lie in this range,
#: so about half of the entries (~1M at 1000x2000) are observed.
Q_RANGE = (0.6, 0.82)

#: Diagonal noise covariances of ``whiten`` span ``[1/KAPPA, 1]`` before
#: the column side is normalized to ``tr(T)/n = 1``.
KAPPA = 4.0


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def strengths(p: int, n: int, r: int) -> np.ndarray:
    """Planted singular values: 1.5 above the detection point and up."""
    return (p / n) ** 0.25 + 1.5 + np.arange(r, dtype=float)[::-1]


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([int(seed), tag])


def _signal(rng, p, n, r):
    U, _ = np.linalg.qr(rng.standard_normal((p, r)))
    V, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return (U * strengths(p, n, r)) @ V.T


def _covariances(p, n):
    row = np.linspace(1.0 / KAPPA, 1.0, p)
    col = np.linspace(1.0 / KAPPA, 1.0, n)
    theta = col.mean()
    return row * theta, col / theta


def detected_count(Y: np.ndarray, r: int, margin: float, iters: int = 12) -> int:
    """Singular values of ``Y`` above the detection threshold, of the top ``r + 8``.

    Block subspace iteration from a fixed start; its estimates never exceed
    the true values, and the spikes converge in a few steps, so a count
    above ``r`` means the noise does not follow the model.
    """
    p, n = Y.shape
    k = min(r + 8, p, n)
    Q = np.linalg.qr(np.random.default_rng(0).standard_normal((n, k)))[0]
    for _ in range(iters):
        Q = np.linalg.qr(Y.T @ np.linalg.qr(Y @ Q)[0])[0]
    s = np.linalg.svd(Y @ Q, compute_uv=False)
    return int(np.sum(s > 1.0 + np.sqrt(p / n) + margin))


def make_inputs(workload: str, seed: int, workdir: str) -> None:
    """Write the workload's inputs for ``seed`` into ``workdir``.

    Raises ``RuntimeError`` when the input check finds a detected rank other
    than the planted one.
    """
    if workload == "simlab-pool":
        return  # the scenario draws its own data from the seed
    p, n, r = SHAPES[workload]
    rng = _rng(seed, workload)
    X = _signal(rng, p, n, r)
    G = rng.standard_normal((p, n)) / np.sqrt(n)
    Y = X + G
    checks = {"Y": (Y, MARGIN)}
    arrays = {"X": X, "Y": Y}
    if workload == "library-large":
        S, T = _covariances(p, n)
        H = rng.standard_normal((p, n)) / np.sqrt(n)
        Yh = X + np.sqrt(S)[:, None] * H * np.sqrt(T)[None, :]
        arrays.update(Yh=Yh, S=S, T=T)
        checks["whitened Yh"] = (Yh / np.sqrt(S)[:, None] / np.sqrt(T)[None, :], MARGIN)
    if workload == "cli-csv":
        q_row = rng.uniform(*Q_RANGE, p)
        q_col = rng.uniform(*Q_RANGE, n)
        mask = rng.random((p, n)) < np.outer(q_row, q_col)
        # What ``complete`` factorizes: the backprojection rescaled to
        # variance-1/n noise (``sqrt(n)`` in the values cancels ``1/sqrt(n)``).
        scaled = np.where(mask, Y, 0.0) / np.sqrt(q_row)[:, None] / np.sqrt(q_col)[None, :]
        checks["complete input"] = (scaled, COMPLETE_MARGIN)
    for name, (M, margin) in checks.items():
        found = detected_count(M, r, margin)
        if found != r:
            raise RuntimeError(f"{workload} seed {seed}: input {name} shows "
                               f"{found} spikes, planted {r}")
    if workload == "cli-csv":
        _write_cli_inputs(Y, q_row, q_col, mask, workdir)
    np.savez(os.path.join(workdir, "inputs.npz"), **arrays)


def _write_cli_inputs(Y, q_row, q_col, mask, workdir):
    n = Y.shape[1]
    np.savetxt(os.path.join(workdir, "Y.csv"), Y, fmt="%.17g", delimiter=",")
    rows, cols = np.nonzero(mask)
    values = np.sqrt(n) * Y[rows, cols]
    with open(os.path.join(workdir, "coords.csv"), "w") as fh:
        fh.write("row,col,value\n")
        np.savetxt(fh, np.column_stack([rows, cols, values]),
                   fmt=["%d", "%d", "%.17g"], delimiter=",")
    np.savetxt(os.path.join(workdir, "q_row.csv"), q_row, fmt="%.17g")
    np.savetxt(os.path.join(workdir, "q_col.csv"), q_col, fmt="%.17g")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Operation:
    """One call into the program and the check of its output.

    ``run`` returns an opaque output; ``check(output)`` returns
    ``(digest, rel_err, problem)`` where ``digest`` identifies the output
    bytes and ``problem`` is ``None`` when the output passes.
    """

    name: str
    run: Callable
    check: Callable


def _digest_array(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _digest_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _rel_err(Xhat, X) -> float:
    return float(np.linalg.norm(Xhat - X) / np.linalg.norm(X))


def _verdict(name, estimate, X, detected, rank, reference):
    """``(rel_err, problem)`` of one output; ``problem`` is ``None`` when it passes."""
    if estimate.shape != X.shape:
        return float("nan"), f"shape {estimate.shape} != {X.shape}"
    if not np.all(np.isfinite(estimate)):
        return float("nan"), "non-finite output"
    err = _rel_err(estimate, X)
    if detected != rank:
        return err, f"detected rank {detected} != {rank}"
    return err, _judge(name, err, reference)


def _judge(name, rel_err, reference):
    ref = reference["rel_err"][name]
    tol = reference["tolerance"]
    if not abs(rel_err - ref) <= tol * ref:
        return f"rel_err {rel_err:.6g} outside {ref:.6g} +/- {tol:.0%}"
    return None


def _array_check(name, X, rank, reference):
    """Check of an in-process result ``(estimate, detected rank)``."""
    def check(out):
        estimate, detected = out
        return (_digest_array(estimate),) + _verdict(name, estimate, X, detected,
                                                     rank, reference)
    return check


def _cli_check(name, X, rank, out_path, report_path, reference, memo):
    """Check of a CLI call from its exit code, output file and report.

    Re-reading a 1000x2000 CSV takes about a second, so an output whose
    bytes were already checked reuses that verdict.
    """
    def check(code):
        if code != 0:
            return None, float("nan"), f"exit code {code}"
        digest = _digest_file(out_path) + _digest_file(report_path)
        if digest not in memo:
            estimate = np.loadtxt(out_path, delimiter=",", ndmin=2)
            with open(report_path) as fh:
                detected = json.load(fh)["rank"]
            memo[digest] = _verdict(name, estimate, X, detected, rank, reference)
        return (digest,) + memo[digest]
    return check


def operations(workload: str, seed: int, workdir: str):
    """The fixed operation list of one pass over ``workload``."""
    import spectral_denoise as sd

    reference = load_reference()
    p, n, r = SHAPES[workload]
    if workload == "simlab-pool":
        return [_simlab_operation(seed, workdir, reference)]
    inputs = np.load(os.path.join(workdir, "inputs.npz"))
    X, Y = inputs["X"], inputs["Y"]

    if workload == "cli-csv":
        from spectral_denoise import cli

        def path(name):
            return os.path.join(workdir, name)

        memo = {}
        ops = []
        for command, inputs_argv, target, margin in (
                ("shrink", ["--input", path("Y.csv")], X, MARGIN),
                ("complete", ["--input", path("coords.csv"), "--q-row", path("q_row.csv"),
                              "--q-col", path("q_col.csv")], np.sqrt(n) * X, COMPLETE_MARGIN)):
            name = f"{workload}/{command}"
            out, rep = path(f"{command}.out.csv"), path(f"{command}.report.json")
            argv = [command, *inputs_argv, "--output", out, "--report", rep,
                    "--margin", repr(margin)]
            ops.append(Operation(name, lambda argv=argv: cli.main(argv),
                                 _cli_check(name, target, r, out, rep, reference, memo)))
        return ops

    if workload == "library-large":
        rows, cols = np.arange(p // 2), np.arange(n // 2)
        cov = sd.NoiseCovariances(inputs["S"], inputs["T"])
        Yh = inputs["Yh"]

        def shrink():
            res = sd.svs_shrink(Y, margin=MARGIN)
            return res.estimate, res.rank

        def submatrix():
            res = sd.submatrix_denoise(Y, rows, cols, margin=MARGIN)
            return res.estimate, res.denoise.rank

        def whiten():
            res = sd.whiten_denoise(Yh, cov, margin=MARGIN)
            return res.estimate, res.denoise.rank

        return [
            Operation(f"{workload}/shrink", shrink,
                      _array_check(f"{workload}/shrink", X, r, reference)),
            Operation(f"{workload}/submatrix", submatrix,
                      _array_check(f"{workload}/submatrix", X[np.ix_(rows, cols)],
                                   r, reference)),
            Operation(f"{workload}/whiten", whiten,
                      _array_check(f"{workload}/whiten", X, r, reference)),
        ]

    if workload == "localized-fine":
        ops = []
        for blocks in (100, 4):
            part_rows = sd.make_equispaced_partition(p, blocks)
            part_cols = sd.make_equispaced_partition(n, blocks)
            name = f"{workload}/blocks{blocks}"

            def run(part_rows=part_rows, part_cols=part_cols):
                res = sd.localized_denoise(Y, part_rows, part_cols, margin=MARGIN)
                return res.estimate, res.rank

            ops.append(Operation(name, run, _array_check(name, X, r, reference)))
        return ops

    raise ValueError(f"unknown workload {workload!r}")


def _simlab_operation(seed, workdir, reference):
    from spectral_denoise.simlab import run_experiment

    name = "simlab-pool/heteroscedastic"
    out_dir = os.path.join(workdir, "simlab")
    config = {"scenario": SIMLAB["scenario"], "seed": int(seed),
              "replicates": SIMLAB["replicates"]}
    expected_rows = SIMLAB["replicates"] * 2  # the scenario's two kappa values

    def run():
        run_experiment(config, output_dir=out_dir, jobs=SIMLAB["jobs"])
        return out_dir

    def check(out):
        path = os.path.join(out, "replicates.csv")
        digest = _digest_file(path)
        table = np.genfromtxt(path, delimiter=",", names=True)
        if table.size != expected_rows:
            return digest, float("nan"), f"{table.size} rows != {expected_rows}"
        errs = [table[c] for c in table.dtype.names if c.startswith("rel_err")]
        if not all(np.all(np.isfinite(e)) for e in errs):
            return digest, float("nan"), "non-finite rel_err column"
        if not os.path.exists(os.path.join(out, "report.json")):
            return digest, float("nan"), "report.json missing"
        err = float(np.mean(table["rel_err_whiten_oracle"]))
        return digest, err, _judge(name, err, reference)

    return Operation(name, run, check)
