"""Spans and counts around pathlift's public functions, kept in memory.

``Tracer.install`` wraps each function named in ``TIMED`` and ``COUNTED``
and replaces it under every name it is looked up by (``uninstall`` puts
the originals back): the module that
defines it, every pathlift module that imported it, and the package
itself (for example ``cli.stochastic_heat_scenario`` as well as
``processes.stochastic_heat_scenario``). A dotted attribute such as
``QuantileMeasure.__post_init__`` is patched on its class, so every
construction passes through the wrapper. Private helpers are patched the
same way where they carry a layer's work: ``processes._bridge_values``
(the Brownian bridge, also called by ``brownian_bundle`` and
``independent_particle_paths``) and ``_rng.stream`` (every random stream).
Nothing in ``src/`` changes.

A span is (name, start, end, parent index). A layer's self time is the
duration of its spans minus the time their direct child spans cover.
"""

import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

# (module, attribute, layer metric that receives the span's self time)
TIMED = (
    ("pathlift.processes", "stochastic_heat_scenario", "processes.scenario_ms"),
    ("pathlift.processes", "independent_particle_paths", "processes.scenario_ms"),
    ("pathlift.processes", "quantile_particle_paths", "processes.scenario_ms"),
    ("pathlift.processes", "brownian_bundle", "processes.scenario_ms"),
    ("pathlift.processes", "heat_flow_path", "processes.scenario_ms"),
    ("pathlift.processes", "BrownianPath.__post_init__", "processes.bridge_ms"),
    ("pathlift.processes", "_bridge_values", "processes.bridge_ms"),
    ("pathlift.processes", "euler_maruyama", "processes.euler_ms"),
    ("pathlift.quantile_transport", "wasserstein_p", "quantile_transport.wp_ms"),
    ("pathlift.quantile_transport", "wasserstein_p_clouds",
     "quantile_transport.wp_ms"),
    ("pathlift.quantile_transport", "monotone_multicoupling",
     "quantile_transport.coupling_ms"),
    ("pathlift.lift_builder", "build_dyadic_lift", "lift_builder.build_ms"),
    ("pathlift.lift_builder", "build_shuffled_lift", "lift_builder.build_ms"),
    ("pathlift.lift_builder", "refine_and_track", "lift_builder.build_ms"),
    ("pathlift.lift_builder", "PathMeasure.__post_init__",
     "lift_builder.build_ms"),
    ("pathlift.lift_builder", "MeasurePathSample.__post_init__",
     "lift_builder.build_ms"),
    ("pathlift.lift_builder", "lift_energy", "lift_builder.lift_energy_ms"),
    ("pathlift.lift_builder", "marginal_curve_energy",
     "lift_builder.marginal_energy_ms"),
    ("pathlift.lift_builder", "pm_to_csv", "lift_builder.csv_write_ms"),
    ("pathlift.mc_estimator", "curve_besov_energy", "mc_estimator.curve_energy_ms"),
    ("pathlift.mc_estimator", "curve_energy", "mc_estimator.curve_energy_ms"),
    ("pathlift.mc_estimator", "expected_wp", "mc_estimator.estimator_self_ms"),
    ("pathlift.mc_estimator", "process_besov_energy",
     "mc_estimator.estimator_self_ms"),
    ("pathlift.mc_estimator", "expected_lift_energy",
     "mc_estimator.estimator_self_ms"),
    ("pathlift.mc_estimator", "compare_lifts", "mc_estimator.estimator_self_ms"),
    ("pathlift.path_norms", "embedding_report", "path_norms.embedding_ms"),
    ("pathlift.path_norms", "p_variation", "path_norms.pvar_ms"),
    ("pathlift.path_norms", "holder_seminorm", "path_norms.seminorm_ms"),
    ("pathlift.path_norms", "besov_seminorm", "path_norms.seminorm_ms"),
    ("pathlift.path_norms", "frac_sobolev_seminorm", "path_norms.seminorm_ms"),
    ("pathlift.path_norms", "path_from_csv", "path_norms.csv_read_ms"),
    ("pathlift.cli", "main", "cli.self_ms"),
)

# the span the benchmark opens around each operation; its self time is
# the benchmark's own code plus program code that no wrapper covers
OP_SPAN = "bench.op"
OP_METRIC = "bench.glue_ms"


def _one(args):
    return 1


def _bundle_bytes(args):
    argv = list(args["argv"] or ())
    out = argv[argv.index("--out") + 1]
    return sum(e.stat().st_size for e in os.scandir(out) if e.is_file())


# (module, attribute, count metric, count per call from the bound arguments).
# pairwise_cells is computed from the grid size, K^2 per dense pairwise
# matrix the kernel forms, not measured.
COUNTED = (
    ("pathlift.processes", "stochastic_heat_scenario",
     "processes.scenarios_built", _one),
    ("pathlift.processes", "BrownianPath.__post_init__",
     "processes.brownian_paths_built", _one),
    ("pathlift.processes", "_bridge_values", "processes.bridge_calls", _one),
    ("pathlift._rng", "stream", "rng.streams", _one),
    ("pathlift.processes", "euler_maruyama", "processes.euler_steps",
     lambda a: a["substeps"] - int(round(a["t0"] * a["substeps"]))),
    ("pathlift.quantile_transport", "QuantileMeasure.__post_init__",
     "quantile_transport.measures_built", _one),
    ("pathlift.quantile_transport", "wasserstein_p",
     "quantile_transport.wp_calls", _one),
    ("pathlift.quantile_transport", "wasserstein_p_clouds",
     "quantile_transport.wp_calls", _one),
    ("pathlift.path_norms", "embedding_report", "path_norms.pairwise_cells",
     lambda a: a["path"].n_points ** 2 + (a["path"].n_points - 1) ** 2),
    ("pathlift.path_norms", "p_variation", "path_norms.pairwise_cells",
     lambda a: a["path"].n_points * (a["path"].n_points - 1) // 2),
    ("pathlift.path_norms", "holder_seminorm", "path_norms.pairwise_cells",
     lambda a: a["path"].n_points ** 2),
    ("pathlift.path_norms", "frac_sobolev_seminorm", "path_norms.pairwise_cells",
     lambda a: (a["path"].n_points - 1) ** 2),
    ("pathlift.cli", "main", "cli.bytes_written", _bundle_bytes),
)

# (module, attribute, metric): calls per distinct ``seed`` argument within
# one operation; 1 means every scenario of an operation is built once
PER_SEED = (
    ("pathlift.processes", "stochastic_heat_scenario",
     "processes.scenario_builds_per_seed"),
)

SPAN_METRICS = sorted({m for _, _, m in TIMED} | {OP_METRIC})
COUNT_METRICS = sorted({m for _, _, m, _ in COUNTED})
PER_SEED_METRICS = sorted({m for _, _, m in PER_SEED})
COUNT_UNITS = {m: "count/op" for m in COUNT_METRICS} | {
    "path_norms.pairwise_cells": "cells/op", "cli.bytes_written": "B/op",
}


class Tracer:
    """Records spans and counts; ``install`` routes pathlift through it."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.seeds = {m: set() for m in PER_SEED_METRICS}  # (operation, seed)
        self._ops = 0
        self._stack = []
        self._metric = {OP_SPAN: OP_METRIC}
        self._patches = None

    def span(self, name, fn):
        """Call fn() inside a span named name."""
        idx = len(self.spans)
        self._ops += name == OP_SPAN
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.spans[idx] = (name, start, time.perf_counter(), parent)
            self._stack.pop()

    def _wrap(self, qualname, fn, metric, counters, per_seed):
        sig = inspect.signature(fn)
        needs_args = per_seed or any(c is not _one for _, c in counters)

        def wrapper(*args, **kwargs):
            if metric is None:
                result = fn(*args, **kwargs)
            else:
                result = self.span(qualname, lambda: fn(*args, **kwargs))
            bound = None
            if needs_args:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            for name, count in counters:
                self.counts[name] += count(bound)
            for name in per_seed:
                self.counts[name] += 1
                self.seeds[name].add((self._ops, bound["seed"]))
            return result

        return wrapper

    def _find_patches(self):
        """(namespace, name, original, wrapper) for every place to patch."""
        patches = []
        targets = {}
        for mod, attr, metric in TIMED:
            targets.setdefault((mod, attr), [None, [], []])[0] = metric
        for mod, attr, metric, count in COUNTED:
            targets.setdefault((mod, attr), [None, [], []])[1].append(
                (metric, count)
            )
        for mod, attr, metric in PER_SEED:
            targets.setdefault((mod, attr), [None, [], []])[2].append(metric)
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "pathlift" or n.startswith("pathlift.")
        ]
        for (modname, attr), (metric, counters, per_seed) in targets.items():
            mod = importlib.import_module(modname)
            qualname = f"{modname.split('.')[-1]}.{attr}"
            if metric is not None:
                self._metric[qualname] = metric
            if "." in attr:
                owner_name, meth = attr.split(".")
                owner = getattr(mod, owner_name)
                fn = getattr(owner, meth)
                wrapped = self._wrap(qualname, fn, metric, counters, per_seed)
                patches.append((owner, meth, fn, wrapped))
                continue
            fn = getattr(mod, attr)
            wrapped = self._wrap(qualname, fn, metric, counters, per_seed)
            for m in modules:
                for key, value in vars(m).items():
                    if value is fn:
                        patches.append((m, key, fn, wrapped))
        return patches

    def install(self):
        """Route every target function through its wrapper."""
        if self._patches is None:
            self._patches = self._find_patches()
        for owner, key, _, wrapped in self._patches:
            setattr(owner, key, wrapped)

    def uninstall(self):
        """Put the original functions back."""
        for owner, key, fn, _ in self._patches or ():
            setattr(owner, key, fn)

    def self_times(self):
        """Seconds of self time per layer metric."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[self._metric[name]] += (end - start) - covered[i]
        return totals

    def dump(self, path, meta):
        """Write the spans and counts as JSON, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            json.dump({
                **meta,
                "span_fields": ["name", "start_s", "end_s", "parent"],
                "spans": [
                    [n, round(s - t0, 9), round(e - t0, 9), p]
                    for n, s, e, p in self.spans
                ],
                "counts": dict(self.counts),
            }, f)
