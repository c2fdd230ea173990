"""Benchmark of spectral-denoise: four seeded workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload library-large --seed 1 --seconds 12 --trace 0

The program is taken from the checkout's ``src`` directory.  The run

1. measures ``setup_s``: a fresh interpreter imports ``spectral_denoise``
   and builds the CLI parser, several times, and the median is kept;
2. writes the workload's inputs for ``--seed`` into a scratch directory
   under ``perfbench/_work`` and checks that their detected rank is the
   planted one;
3. measures the workload in a fresh process (``measure.py``) for
   ``--seconds``: untraced with ``--trace 0``, untraced and then traced with
   ``--trace 1``;
4. prints every metric by name and unit, the machine, and as the last line
   one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

The end-to-end metrics (``--trace 0``) are ``setup_s``, ``wall_s``,
``peak_rss_mb`` and ``rel_err``; ``error_rate`` is printed with them and is
``failed / attempted`` of the JSON line.  ``--trace 1`` reports the
per-layer metrics of ``tracing.PER_LAYER``.  Nothing here sets the BLAS
thread variables.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
RESULTS = os.path.join(HERE, "results")

#: Fresh-interpreter set-up probes per run, taken before and after the
#: measured process: import time on a shared 2-core machine drifts between
#: fast and slow phases, so the samples are spread out.  One more probe
#: runs first to warm the bytecode cache and is discarded.
SETUP_SAMPLES_BEFORE = 3
SETUP_SAMPLES_AFTER = 2

#: A measuring process is killed after this many seconds.
CHILD_TIMEOUT_S = 150

SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import spectral_denoise\n"
    "from spectral_denoise.cli import build_parser\n"
    "build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "rel_err": "1",
}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def machine_info() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def _run_child(cmd, env, timeout):
    """Run ``cmd`` in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        raise RuntimeError(f"{cmd[1]} timed out after {timeout}s:\n{err}")
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited with {proc.returncode}:\n{err}")
    return out


def measure_setup(env, count) -> list:
    samples = []
    for _ in range(count):
        out = _run_child([sys.executable, "-c", SETUP_PROBE], env, 60)
        samples.append(float(out.strip().splitlines()[-1]))
    return samples


def _summarize(raw: dict):
    checks = raw["checks"]
    failed = [c for c in checks if c["problem"]]
    first = {}
    differs = set()
    for c in checks:
        if c["digest"] is None:
            continue
        if first.setdefault(c["op"], c["digest"]) != c["digest"]:
            differs.add(c["op"])
    problems = sorted({f"{c['op']}: {c['problem']}" for c in failed})
    problems += [f"{op}: output differs between passes" for op in sorted(differs)]
    return checks, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spectral-denoise benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "spectral_denoise", "__init__.py")):
        print(f"error: no spectral_denoise package under {SRC}", file=sys.stderr)
        return 2

    env = _child_env()
    machine = machine_info()
    setup = measure_setup(env, SETUP_SAMPLES_BEFORE + 1)[1:]

    os.makedirs(WORK, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=tag + "-", dir=WORK)
    try:
        workloads.make_inputs(args.workload, args.seed, workdir)
        result_path = os.path.join(workdir, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "measure.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(float(args.seconds)), "--trace", str(args.trace),
               "--workdir", workdir, "--result", result_path]
        if args.trace:
            cmd += ["--spans", os.path.join(RESULTS, f"{tag}-spans.json")]
        _run_child(cmd, env, CHILD_TIMEOUT_S)
        with open(result_path) as fh:
            raw = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup += measure_setup(env, SETUP_SAMPLES_AFTER)
    checks, failed, problems = _summarize(raw)
    errs = [c["rel_err"] for c in checks if math.isfinite(c["rel_err"])]
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(raw["walls"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "rel_err": statistics.fmean(errs) if errs else 1.0,
    }
    error_rate = len(failed) / len(checks)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(raw['walls'])} pass_walls_s={raw['walls']}")
    for name, unit in END_TO_END.items():
        print(f"{name:<24} {e2e[name]:>14.6g} {unit}")
    print(f"{'error_rate':<24} {error_rate:>14.6g} 1")
    if args.trace:
        print(f"# traced pass walls_s={raw['traced_walls']}")
        for name, value in raw["layers"].items():
            print(f"{name:<24} {value:>14.6g} {tracing.PER_LAYER[name][0]}")
        for name in raw["missing_metrics"]:
            print(f"missing per-layer metric: {name}")
        for name in raw["missing_targets"]:
            print(f"missing traced name: {name}", file=sys.stderr)
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "setup_samples_s": setup,
              "end_to_end": e2e, "error_rate": error_rate, "problems": problems,
              "pass_walls_s": raw["walls"],
              "op_rel_err": {c["op"]: c["rel_err"] for c in checks},
              "op_seconds": {op: [c["seconds"] for c in checks
                                  if c["op"] == op and not c["traced"]]
                             for op in dict.fromkeys(c["op"] for c in checks)}}
    if args.trace:
        record.update(per_layer=raw["layers"], traced_walls_s=raw["traced_walls"],
                      missing_metrics=raw["missing_metrics"],
                      missing_targets=raw["missing_targets"])
    with open(os.path.join(RESULTS, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({"machine": machine}))

    if args.trace:
        metrics = {name: {"value": raw["layers"][name], "unit": unit}
                   for name, (unit, _) in tracing.PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not problems, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
