"""One measured run of a workload, in a fresh process started by ``run.py``.

Usage: ``python3 perfbench/measure.py --workload W --seed N --seconds S
--trace 0|1 --workdir DIR --result FILE`` with ``PYTHONPATH`` pointing at
the checkout's ``src``.  The inputs must already be in ``DIR``.

The process runs passes over the workload's operation list until
``--seconds`` have elapsed (at least one pass), timing only the calls into
the program and checking every output after its call.  With ``--trace 1``
half of the time goes to untraced passes and half to traced ones, whose
outputs must be bit-identical to the untraced ones.  Peak RSS covers this
process and its largest child, not the set-up probes or the input
generator.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import tracing
import workloads


def run_passes(ops, seconds, tracer=None):
    """Closed loop over ``ops`` for ``seconds``; returns pass walls and checks."""
    walls, checks = [], []
    start = time.perf_counter()
    # At least one pass; stop before a pass that would likely end after the budget.
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        wall = 0.0
        for op in ops:
            if tracer is not None:
                tracer.op = f"{len(walls)}:{op.name}"
            problem = digest = None
            err = math.nan
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                seconds_op = time.perf_counter() - t0
                problem = f"raised {type(exc).__name__}: {exc}"
            else:
                seconds_op = time.perf_counter() - t0
                try:
                    digest, err, problem = op.check(out)
                except Exception as exc:
                    problem = f"check raised {type(exc).__name__}: {exc}"
                del out
            wall += seconds_op
            checks.append({"op": op.name, "seconds": seconds_op, "digest": digest,
                           "rel_err": err, "problem": problem,
                           "traced": tracer is not None})
        walls.append(wall)
    return walls, checks


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    import spectral_denoise
    src = os.environ.get("PYTHONPATH", "").split(os.pathsep)[0]
    if not os.path.abspath(spectral_denoise.__file__).startswith(os.path.abspath(src)):
        print(f"spectral_denoise was imported from {spectral_denoise.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    ops = workloads.operations(args.workload, args.seed, args.workdir)
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, checks = run_passes(ops, budget)
    result = {"walls": walls, "checks": checks}

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_walls, traced_checks = run_passes(ops, budget, tracer)
        finally:
            tracer.uninstall()
        checks += traced_checks
        result["traced_walls"] = traced_walls
        result["missing_targets"] = tracer.missing
        result["missing_metrics"] = tracing.missing_metrics(tracer.missing)
        result["layers"] = tracing.layer_metrics(
            tracer, len(traced_walls), statistics.median(traced_walls),
            statistics.median(walls), workloads.SIMLAB["jobs"])
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump(tracer.dump(), fh)

    result["peak_rss_mb"] = peak_rss_mb()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
