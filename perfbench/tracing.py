"""Outside-in span tracing of the ``spectral_denoise`` layers.

Wrappers are installed from here, never from the package: every module of
the package that binds a traced function object gets the wrapper in its
place, because callers bind names at import time (``denoise`` binds
``svd_head_above``, ``localized`` binds ``optimal_coefficients``).  A span
records its name, start, end, parent span and operation id; spans stay in
memory until the run writes them out.  A traced name that no longer exists
is reported as missing, and the metrics built on it read 0.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from collections import Counter

PACKAGE = "spectral_denoise"

#: Traced functions: (layer, module, attribute).  Attributes with a dot are
#: methods.  The layer names are the per-layer metric prefixes.
TARGETS = [
    ("cli", "cli", "main"),
    ("io", "io", "read_dense_csv"),
    ("io", "io", "read_coordinate_csv"),
    ("io", "io", "write_dense_csv"),
    ("io", "io", "build_report"),
    ("io", "io", "write_report_json"),
    ("applications", "applications", "submatrix_denoise"),
    ("applications", "applications", "whiten_denoise"),
    ("applications", "applications", "missing_data_denoise"),
    ("applications", "applications", "estimate_noise_covariances"),
    ("applications", "applications", "SamplingPattern.from_coordinates"),
    ("svd", "_svd", "top_svd"),
    ("svd", "_svd", "svd_head_above"),
    ("spiked", "spiked", "naive_rank"),
    ("spiked", "spiked", "estimate_spike_params"),
    ("spiked", "spiked", "invert_singular_value"),
    ("spiked", "spiked", "cosines"),
    ("spiked", "spiked", "bulk_edge"),
    ("geometry", "geometry", "weighted_gram"),
    ("geometry", "geometry", "recover_population_geometry"),
    ("geometry", "geometry", "as_weight_operator"),
    ("geometry", "geometry", "trace_weight"),
    ("geometry", "geometry", "WeightOperator.from_indices"),
    ("geometry", "geometry", "WeightOperator.from_diagonal"),
    ("geometry", "geometry", "WeightOperator.from_matrix"),
    ("denoise", "denoise", "_detect_and_estimate"),
    ("denoise", "denoise", "spectral_denoise"),
    ("denoise", "denoise", "svs_shrink"),
    ("denoise", "denoise", "optimal_coefficients"),
    ("denoise", "denoise", "_amse_raw"),
    ("denoise", "denoise", "_sym_pinv"),
    ("localized", "localized", "localized_denoise"),
    ("localized", "localized", "make_equispaced_partition"),
    ("simlab", "simlab.runner", "_run_one"),
    ("simlab", "simlab.runner", "ExperimentReport.write"),
    ("simlab", "simlab.signals", "gen_signal"),
    ("simlab", "simlab.noise", "gen_noise"),
]

#: Traced names: ``layer.attribute``.
NAMES = [f"{layer}.{attr}" for layer, _, attr in TARGETS]

#: Targets that are only counted, not spanned: each non-empty call of
#: ``_sym_pinv`` is one ``eigh`` of a weighted Gram.
COUNTED = {"denoise._sym_pinv"}

#: The spans whose time is the coefficient solve rather than ``denoise`` self time.
SOLVE = ("denoise.optimal_coefficients", "denoise._amse_raw")


def _file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _svd_shape(args, kwargs, result):
    """(min(p, n), computed spectrum length, kept triplets) of an SVD call."""
    Y = args[0] if args else kwargs["Y"]
    return (min(Y.shape), len(result[3]), len(result[1]))


def _tiles(args, kwargs, result):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    cols = args[2] if len(args) > 2 else kwargs["cols"]
    return len(rows) * len(cols)


#: Per-span data taken from the call's arguments or result.
EXTRA = {
    "io.read_dense_csv": _file_bytes,
    "io.read_coordinate_csv": _file_bytes,
    "io.write_dense_csv": _file_bytes,
    "svd.top_svd": _svd_shape,
    "svd.svd_head_above": _svd_shape,
    "localized.localized_denoise": _tiles,
}


class Tracer:
    """In-memory span recorder.  Spans are ``[name, start, end, parent, op, extra]``."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._restore = []
        self.missing = []

    def span(self, name, fn):
        extra = EXTRA.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                record[5] = extra(args, kwargs, result)
            return result
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(m, *args, **kwargs):
            if getattr(m, "size", 1):
                counts[name] += 1
            return fn(m, *args, **kwargs)
        return wrapper

    # -- installation ---------------------------------------------------
    def install(self):
        """Wrap every target; record the ones that cannot be found."""
        for (layer, module, attr), name in zip(TARGETS, NAMES):
            self._install(name, module, attr,
                          self.counter if name in COUNTED else self.span)

    def _install(self, name, module, attr, make):
        try:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            self.missing.append(name)
            return
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name, None)
            raw = vars(owner).get(meth) if isinstance(owner, type) else None
            if raw is None:
                self.missing.append(name)
                return
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(make(name, raw.__func__))
            else:
                wrapped = make(name, raw)
            setattr(owner, meth, wrapped)
            self._restore.append((owner, meth, raw))
            return
        original = getattr(mod, attr, None)
        if not callable(original):
            self.missing.append(name)
            return
        wrapped = make(name, original)
        for modname, m in list(sys.modules.items()):
            if m is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
                    self._restore.append((m, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- analysis -------------------------------------------------------
    def self_times(self):
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, extra in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[2] - s[1]) - c for s, c in zip(self.spans, child)]

    def dump(self):
        keys = ("name", "start", "end", "parent", "op", "extra")
        return [dict(zip(keys, s)) for s in self.spans]


#: Per-layer metric name -> (unit, better).  The order is the report order.
PER_LAYER = {
    "cli.self_s": ("s", "lower"),
    "io.read_dense_s": ("s", "lower"),
    "io.read_coord_s": ("s", "lower"),
    "io.write_dense_s": ("s", "lower"),
    "io.report_s": ("s", "lower"),
    "io.read_mb_per_s": ("MB/s", "higher"),
    "io.write_mb_per_s": ("MB/s", "higher"),
    "applications.pattern_s": ("s", "lower"),
    "applications.self_s": ("s", "lower"),
    "svd.calls": ("count", "lower"),
    "svd.self_s": ("s", "lower"),
    "svd.dense_calls": ("count", "lower"),
    "svd.partial_calls": ("count", "lower"),
    "svd.k_escalations": ("count", "lower"),
    "svd.useful_ratio": ("1", "higher"),
    "spiked.self_s": ("s", "lower"),
    "geometry.calls": ("count", "lower"),
    "geometry.self_s": ("s", "lower"),
    "denoise.solve_calls": ("count", "lower"),
    "denoise.solve_s": ("s", "lower"),
    "denoise.eigh_calls": ("count", "lower"),
    "denoise.self_s": ("s", "lower"),
    "localized.tiles": ("count", "lower"),
    "localized.self_s": ("s", "lower"),
    "simlab.replicates": ("count", "lower"),
    "simlab.replicate_p50_s": ("s", "lower"),
    "simlab.generate_s": ("s", "lower"),
    "simlab.write_s": ("s", "lower"),
    "simlab.pool_efficiency": ("1", "higher"),
    "trace.overhead_frac": ("1", "lower"),
}

#: Traced names each metric is built from; a metric whose sources are all
#: missing is reported as missing.
SOURCES = {
    "cli.self_s": ["cli.main"],
    "io.read_dense_s": ["io.read_dense_csv"],
    "io.read_coord_s": ["io.read_coordinate_csv"],
    "io.write_dense_s": ["io.write_dense_csv"],
    "io.report_s": ["io.build_report", "io.write_report_json"],
    "io.read_mb_per_s": ["io.read_dense_csv", "io.read_coordinate_csv"],
    "io.write_mb_per_s": ["io.write_dense_csv"],
    "applications.pattern_s": ["applications.SamplingPattern.from_coordinates"],
    "svd.k_escalations": ["svd.svd_head_above"],
    "denoise.solve_calls": list(SOLVE),
    "denoise.solve_s": list(SOLVE),
    "denoise.eigh_calls": ["denoise._sym_pinv"],
    "localized.tiles": ["localized.localized_denoise"],
    "simlab.replicates": ["simlab._run_one"],
    "simlab.replicate_p50_s": ["simlab._run_one"],
    "simlab.generate_s": ["simlab.gen_signal", "simlab.gen_noise"],
    "simlab.write_s": ["simlab.ExperimentReport.write"],
    "simlab.pool_efficiency": ["simlab._run_one"],
}


def missing_metrics(missing):
    """Per-layer metrics none of whose traced names could be installed.

    A metric without a ``SOURCES`` entry is built on every name of its layer.
    """
    out = []
    for metric in PER_LAYER:
        layer = metric.split(".")[0]
        sources = SOURCES.get(metric) or [n for n in NAMES if n.split(".")[0] == layer]
        if sources and set(missing).issuperset(sources):
            out.append(metric)
    return out


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, passes: int, traced_wall: float,
                  untraced_wall: float, jobs: int) -> dict:
    """Per-layer metrics of ``passes`` traced passes, as per-pass values.

    ``simlab.pool_efficiency`` is replicate busy time over ``jobs`` times the
    untraced pass wall time.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    total = Counter()
    self_by_layer = Counter()
    calls = Counter()
    extra = {}
    for (name, start, end, parent, op, ext), own in zip(spans, selfs):
        total[name] += end - start
        calls[name] += 1
        layer = name.split(".")[0]
        if name not in SOLVE:
            self_by_layer[layer] += own
        if ext is not None:
            extra.setdefault(name, []).append(ext)

    def per_pass(x):
        return x / passes

    # SVD: one computation per top_svd, plus svd_head_above calls that
    # factorize directly (no top_svd child).  The path is read from the
    # returned spectrum: a full spectrum means the dense path ran.
    children = Counter()
    for name, start, end, parent, op, ext in spans:
        if name == "svd.top_svd" and parent >= 0 and spans[parent][0] == "svd.svd_head_above":
            children[parent] += 1
    computed = kept = dense = partial = escalations = 0
    for i, (name, start, end, parent, op, ext) in enumerate(spans):
        if name not in ("svd.top_svd", "svd.svd_head_above") or ext is None:
            continue
        mn, length, out = ext
        if name == "svd.svd_head_above":
            escalations += max(children[i] - 1, 0)
        if name == "svd.top_svd" or children[i] == 0:
            computed += length
            if length >= mn:
                dense += 1
            else:
                partial += 1
        if parent < 0 or not spans[parent][0].startswith("svd."):
            kept += out

    read_bytes = sum(extra.get("io.read_dense_csv", [])) + \
        sum(extra.get("io.read_coordinate_csv", []))
    read_s = total["io.read_dense_csv"] + total["io.read_coordinate_csv"]
    write_bytes = sum(extra.get("io.write_dense_csv", []))
    replicate_times = [end - start for name, start, end, *_ in spans
                       if name == "simlab._run_one"]

    return {
        "cli.self_s": per_pass(self_by_layer["cli"]),
        "io.read_dense_s": per_pass(total["io.read_dense_csv"]),
        "io.read_coord_s": per_pass(total["io.read_coordinate_csv"]),
        "io.write_dense_s": per_pass(total["io.write_dense_csv"]),
        "io.report_s": per_pass(total["io.build_report"] + total["io.write_report_json"]),
        "io.read_mb_per_s": _ratio(read_bytes / 1e6, read_s),
        "io.write_mb_per_s": _ratio(write_bytes / 1e6, total["io.write_dense_csv"]),
        "applications.pattern_s": per_pass(total["applications.SamplingPattern.from_coordinates"]),
        "applications.self_s": per_pass(self_by_layer["applications"]),
        "svd.calls": per_pass(dense + partial),
        "svd.self_s": per_pass(self_by_layer["svd"]),
        "svd.dense_calls": per_pass(dense),
        "svd.partial_calls": per_pass(partial),
        "svd.k_escalations": per_pass(escalations),
        "svd.useful_ratio": _ratio(kept, computed),
        "spiked.self_s": per_pass(self_by_layer["spiked"]),
        "geometry.calls": per_pass(sum(c for n, c in calls.items() if n.startswith("geometry."))),
        "geometry.self_s": per_pass(self_by_layer["geometry"]),
        "denoise.solve_calls": per_pass(sum(calls[n] for n in SOLVE)),
        "denoise.solve_s": per_pass(sum(total[n] for n in SOLVE)),
        "denoise.eigh_calls": per_pass(tracer.counts["denoise._sym_pinv"]),
        "denoise.self_s": per_pass(self_by_layer["denoise"]),
        "localized.tiles": per_pass(sum(extra.get("localized.localized_denoise", []))),
        "localized.self_s": per_pass(self_by_layer["localized"]),
        "simlab.replicates": per_pass(len(replicate_times)),
        "simlab.replicate_p50_s": statistics.median(replicate_times) if replicate_times else 0.0,
        "simlab.generate_s": per_pass(total["simlab.gen_signal"] + total["simlab.gen_noise"]),
        "simlab.write_s": per_pass(total["simlab.ExperimentReport.write"]),
        "simlab.pool_efficiency": _ratio(per_pass(sum(replicate_times)), jobs * untraced_wall),
        "trace.overhead_frac": _ratio(traced_wall - untraced_wall, untraced_wall),
    }
