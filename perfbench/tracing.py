"""Per-layer spans for the traced benchmark run.

`install` wraps gaze3d's layer functions where they are called: each
name is patched in the namespace of the module that calls it, so the
library code itself is unchanged.  It is meant for a process of its own;
nothing is restored.

A span's self time is its duration minus the durations of the spans
nested in it.  Spans are aggregated per layer as they close (calls, total
and self time) rather than kept one by one; fit durations are kept so
that percentiles can be taken.
"""

from __future__ import annotations

import math
import os
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)
        self.counts = Counter()       # work counted inside a layer
        self._open = []               # child time of each open span

    def wrap(self, fn, name, after=None, keep_durations=False):
        """`fn` recorded as a span named `name` (or `name(*args)`);
        `after(tracer, args, result)` runs once the span has closed."""
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            self._open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                self.calls[label] += 1
                self.total[label] += elapsed
                self.self_time[label] += elapsed - children
                if keep_durations:
                    self.durations[label].append(elapsed)
            if after is not None:
                after(self, args, result)
            return result
        return traced

    def snapshot(self):
        """Everything recorded so far, as plain JSON-ready dicts."""
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time),
                "durations": {k: list(v) for k, v in self.durations.items()},
                "counts": dict(self.counts)}


def _count_lm(tracer, args, report):
    tracer.counts["optimizer.lm_iterations"] += report.iterations
    capped = report.termination == "max_iterations"
    tracer.counts["optimizer.lm_capped"] += capped


def _count_bytes(tracer, args, result):
    tracer.counts["dataset_io.save_dataset.bytes"] += os.path.getsize(args[1])


def _count_records(tracer, args, loaded):
    tracer.counts["dataset_io.load_dataset.records"] += loaded.n_records


def install(tracer: Tracer) -> None:
    """Patch the gaze3d layer functions with traced wrappers."""
    from gaze3d import (_kernels, cli, dataset_io, evaluation, eye_simulator,
                        mappers, optimizer)

    def patch(modules, attr, name, **kwargs):
        wrapped = tracer.wrap(getattr(modules[0], attr), name, **kwargs)
        for module in modules:
            setattr(module, attr, wrapped)

    patch([_kernels], "residuals_2d3d", "kernels.residuals_2d3d")
    patch([_kernels], "residuals_3d3d", "kernels.residuals_3d3d")
    patch([optimizer], "numeric_jacobian", "optimizer.numeric_jacobian")
    patch([mappers], "solve_lm", "optimizer.solve_lm", after=_count_lm)
    patch([evaluation, cli], "fit_mapper",
          lambda mapper_id, *a, **k: f"mappers.fit_mapper.{mapper_id}",
          keep_durations=True)
    patch([evaluation], "predict_sample", "mappers.predict_sample")
    patch([evaluation, cli], "evaluate", "evaluation.evaluate")
    patch([evaluation], "angular_error", "evaluation.angular_error")
    for fn in ("back_project", "intersect_ray_depth_plane", "angle_between"):
        patch([evaluation], fn, f"geometry.{fn}")
    patch([eye_simulator, dataset_io], "synthesize_dataset",
          "eye_simulator.synthesize_dataset")
    patch([eye_simulator], "synthesize_sample",
          "eye_simulator.synthesize_sample")
    patch([cli], "save_dataset", "dataset_io.save_dataset", after=_count_bytes)
    patch([cli], "load_dataset", "dataset_io.load_dataset",
          after=_count_records)
    patch([cli], "save_model", "dataset_io.save_model")
    patch([cli], "load_model", "dataset_io.load_model")
    for command in ("simulate", "fit", "evaluate"):
        patch([cli], f"cmd_{command}", f"cli.{command}")


# (metric, unit): every per-layer metric the traced run reports.
# Values cover one traced set-up plus one operation on the workload's
# first input.
PER_LAYER = [
    ("kernels.residuals_2d3d.calls", "count"),
    ("kernels.residuals_2d3d.s", "s"),
    ("kernels.residuals_3d3d.calls", "count"),
    ("kernels.residuals_3d3d.s", "s"),
    ("optimizer.numeric_jacobian.calls", "count"),
    ("optimizer.numeric_jacobian.self_s", "s"),
    ("optimizer.solve_lm.calls", "count"),
    ("optimizer.solve_lm.self_s", "s"),
    ("optimizer.residual_calls_per_iteration", "count"),
    ("optimizer.lm_iterations", "count"),
    ("optimizer.lm_capped_frac", "frac"),
] + [
    (f"mappers.fit_mapper.{m}.{stat}", unit)
    for m in ("2d2d", "2d3d", "3d3d")
    for stat, unit in (("calls", "count"), ("ms_p50", "ms"), ("ms_p90", "ms"))
] + [
    ("mappers.predict_sample.calls", "count"),
    ("mappers.predict_sample.self_s", "s"),
    ("evaluation.evaluate.calls", "count"),
    ("evaluation.evaluate.self_s", "s"),
    ("evaluation.angular_error.calls", "count"),
    ("evaluation.angular_error.self_s", "s"),
    ("geometry.back_project.s", "s"),
    ("geometry.intersect_ray_depth_plane.s", "s"),
    ("geometry.angle_between.s", "s"),
    ("eye_simulator.synthesize_dataset.s", "s"),
    ("eye_simulator.synthesize_sample.calls", "count"),
    ("dataset_io.save_dataset.s", "s"),
    ("dataset_io.save_dataset.bytes", "bytes"),
    ("dataset_io.load_dataset.s", "s"),
    ("dataset_io.load_dataset.records", "count"),
    ("dataset_io.save_model.s", "s"),
    ("dataset_io.load_model.s", "s"),
    ("cli.simulate.s", "s"),
    ("cli.fit.s", "s"),
    ("cli.evaluate.s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.counts_repeat", "count"),
]


def repeat_counts(snap):
    """The counts that must repeat exactly between two traced runs of the
    same seed: calls of every layer, LM iterations, records and bytes."""
    return {**{f"{k}.calls": v for k, v in snap["calls"].items()},
            **snap["counts"]}


def _percentile_ms(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)      # nearest rank
    return 1e3 * ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_values(snap):
    """Per-layer metric values (without the trace.* entries) from one
    traced run's snapshot."""
    calls, total, self_time = snap["calls"], snap["total"], snap["self"]
    counts = snap["counts"]
    values = {}
    for name, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls.get(layer, 0)
        elif stat == "s":
            values[name] = total.get(layer, 0.0)
        elif stat == "self_s":
            values[name] = self_time.get(layer, 0.0)
        elif stat in ("ms_p50", "ms_p90"):
            values[name] = _percentile_ms(snap["durations"].get(layer, []),
                                          0.5 if stat == "ms_p50" else 0.9)
    iterations = counts.get("optimizer.lm_iterations", 0)
    residual_calls = (calls.get("kernels.residuals_2d3d", 0)
                      + calls.get("kernels.residuals_3d3d", 0))
    fits = calls.get("optimizer.solve_lm", 0)
    values["optimizer.lm_iterations"] = iterations
    values["optimizer.residual_calls_per_iteration"] = (
        residual_calls / iterations if iterations else 0.0)
    values["optimizer.lm_capped_frac"] = (
        counts.get("optimizer.lm_capped", 0) / fits if fits else 0.0)
    for name in ("dataset_io.save_dataset.bytes",
                 "dataset_io.load_dataset.records"):
        values[name] = counts.get(name, 0)
    return values
