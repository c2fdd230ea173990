"""Monte Carlo experiment runner: config in, report and replicate rows out.

Configs are JSON objects with a versioned schema::

    {"schema": 1, "scenario": "submatrix", "seed": 7,
     "replicates": 50, "scale": 1.0, "params": {...}}

Replicates are independent jobs with seeds derived from the base seed,
so a worker pool and a sequential run produce identical rows; the
aggregates are folded per group in replicate-index order.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import __version__
from ..io import _read_json
from .noise import derive_seed
from .scenarios import SCENARIOS

__all__ = ["ExperimentReport", "run_experiment", "resolve_config",
           "CONFIG_SCHEMA_VERSION"]

CONFIG_SCHEMA_VERSION = 1

_CONFIG_KEYS = ("schema", "scenario", "seed", "replicates", "scale", "params")


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_param(name: str, key: str, value, default) -> None:
    """A param takes its default's kind: integers for an ``int``, finite numbers for a
    ``float``, element-wise for a list; ``dist`` values are left to ``gen_noise``."""
    if isinstance(default, (list, tuple)):
        kind = next((k for k in (_is_int, _is_number) if all(map(k, default))), None)
        if (not isinstance(value, (list, tuple)) or not value
                or (kind and not all(map(kind, value)))
                or (isinstance(default, tuple) and len(value) != len(default))):
            raise ValueError(f"{name} param {key!r} must be a list like {list(default)!r}, "
                             f"got {value!r}")
    elif _is_int(default) and not _is_int(value):
        raise ValueError(f"{name} param {key!r} must be an integer, got {value!r}")
    elif _is_number(default) and not _is_number(value):
        raise ValueError(f"{name} param {key!r} must be a finite number, got {value!r}")


def resolve_config(config) -> dict:
    """Validate a config (dict or JSON path), reject unknown keys, fill in defaults."""
    if isinstance(config, (str, Path)):
        config = _read_json(config)
    if not isinstance(config, dict):
        raise ValueError("config must be a dict or a path to a JSON file")
    unknown = sorted(set(config) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}; expected {list(_CONFIG_KEYS)}")
    schema = config.get("schema", CONFIG_SCHEMA_VERSION)
    if schema != CONFIG_SCHEMA_VERSION:
        raise ValueError(f"unsupported config schema {schema!r}; "
                         f"this build reads schema {CONFIG_SCHEMA_VERSION}")
    name = config.get("scenario")
    if not isinstance(name, str) or name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; expected one of "
                         f"{sorted(SCENARIOS)}")
    seed, replicates = config.get("seed", 0), config.get("replicates", 20)
    if not _is_int(seed):
        raise ValueError(f"config 'seed' must be an integer, got {seed!r}")
    if not (_is_int(replicates) and replicates >= 1):
        raise ValueError(f"config 'replicates' must be an integer >= 1, got {replicates!r}")
    scale = config.get("scale", 1.0)
    if not (_is_number(scale) and 0 < scale <= 1):
        raise ValueError(f"config 'scale' must be a number in (0, 1], got {scale!r}")
    given = config.get("params", {})
    if not isinstance(given, dict):
        raise ValueError(f"config 'params' must be a JSON object, got {given!r}")
    scenario = SCENARIOS[name]
    params = dict(scenario.defaults)
    unknown = sorted(set(given) - set(params))
    if unknown:
        raise ValueError(f"unknown {name} param {unknown[0]!r}; valid params: "
                         f"{sorted(params)}")
    for key, value in given.items():
        _check_param(name, key, value, params[key])
    params.update(given)
    if scale != 1.0:
        params = scenario.apply_scale(params, scale)
    return {
        "schema": CONFIG_SCHEMA_VERSION,
        "scenario": name,
        "seed": int(seed),
        "replicates": max(1, int(round(replicates * scale))),  # a valid count may round to 0
        "scale": float(scale),
        "params": params,
    }


@dataclass(frozen=True)
class ExperimentReport:
    """Full record of one experiment run.

    ``rows`` holds one dict per (replicate, grid point); ``aggregates``
    is a list of ``{"group": {...}, "metrics": {name: {mean, std, max}}}``
    entries, one per grid point, recomputable from the rows.
    """

    scenario: str
    config: dict
    columns: tuple
    rows: tuple
    aggregates: tuple
    seeds: tuple
    wall_clock_s: float
    version: str = __version__

    def to_dict(self) -> dict:
        return {
            "schema": CONFIG_SCHEMA_VERSION,
            "version": self.version,
            "scenario": self.scenario,
            "config": self.config,
            "seeds": {"base": self.config["seed"], "replicates": list(self.seeds)},
            "columns": list(self.columns),
            "aggregates": [dict(a) for a in self.aggregates],
            "wall_clock_s": self.wall_clock_s,
        }

    def write(self, output_dir) -> None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "report.json", "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(out / "replicates.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([_format_cell(row.get(c)) for c in self.columns])

    def group_metrics(self, **group) -> dict:
        """Aggregate metrics for the grid point matching ``group`` exactly."""
        for entry in self.aggregates:
            if entry["group"] == group:
                return entry["metrics"]
        raise KeyError(f"no aggregate for group {group!r}")


def _format_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


def _aggregate(rows: list[dict], group_keys: list[str], columns: list[str]) -> list[dict]:
    groups: dict = {}  # insertion-ordered: groups come out in first-row order
    for row in rows:
        groups.setdefault(tuple(row[k] for k in group_keys), []).append(row)
    metric_cols = [c for c in columns
                   if c not in group_keys + ["replicate", "seed"]
                   and not isinstance(rows[0].get(c), str)]
    out = []
    for key, block in groups.items():
        metrics = {}
        for c in metric_cols:
            vals = np.array([float(r[c]) for r in block])
            metrics[c] = {"mean": float(vals.mean()),
                          "std": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
                          "max": float(vals.max())}
        out.append({"group": dict(zip(group_keys, key)), "metrics": metrics})
    return out


def _run_one(args):
    name, params, replicate_index, seed = args
    rows = SCENARIOS[name].replicate(params, seed)
    for row in rows:
        row["replicate"] = replicate_index
        row["seed"] = seed
    return rows


def run_experiment(config, output_dir=None, jobs: int = 1) -> ExperimentReport:
    """Run a registered scenario and aggregate its per-replicate metrics.

    ``jobs > 1`` evaluates replicates on a process pool; rows and
    aggregates are identical to a sequential run because every replicate
    owns its derived seed and results are folded in replicate order.
    Writes ``report.json`` and ``replicates.csv`` when ``output_dir`` is
    given.
    """
    if not (_is_int(jobs) and jobs >= 1):
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    resolved = resolve_config(config)
    scenario = SCENARIOS[resolved["scenario"]]
    seeds = tuple(derive_seed(resolved["seed"], i)
                  for i in range(resolved["replicates"]))
    tasks = [(resolved["scenario"], resolved["params"], i, s)
             for i, s in enumerate(seeds)]

    start = time.perf_counter()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_run_one, tasks))
    else:
        chunks = [_run_one(t) for t in tasks]
    elapsed = time.perf_counter() - start

    rows = [row for chunk in chunks for row in chunk]
    lead = ["replicate", "seed"] + scenario.group_keys
    metric_cols = [c for c in rows[0] if c not in lead]
    columns = tuple(lead + metric_cols)
    aggregates = tuple(_aggregate(rows, scenario.group_keys, list(columns)))

    report = ExperimentReport(
        scenario=resolved["scenario"],
        config=resolved,
        columns=columns,
        rows=tuple(rows),
        aggregates=aggregates,
        seeds=seeds,
        wall_clock_s=elapsed,
    )
    if output_dir is not None:
        report.write(output_dir)
    return report

