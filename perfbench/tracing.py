"""Spans and counts at the boundaries of the persets layers.

Each layer's public entry point is replaced, at the name its caller looks
up, by a wrapper that records a span (name, start, end, parent) and adds
counts computed from the shapes of its arguments and results.  Counts are
therefore exact and repeat for a fixed seed; they are not measured memory
traffic.  Spans are kept in memory and written out by the parent when the
benchmark ends.

Tracing assumes one thread and no worker processes (the traced passes run
with ``workers=1``).  An entry point that no longer exists is listed in
``missing`` and its layer reports zero calls, instead of its time being
attributed elsewhere.
"""
from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self.missing = []
        self._stack = []

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a traced wrapper.

        ``count(bound_arguments, result)`` returns {counter: increment}.
        """
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        sig = inspect.signature(orig)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = [start, end]
            if count is not None:
                for key, inc in count(sig.bind(*args, **kwargs).arguments, result).items():
                    self.counts[key] += inc
            return result

        setattr(owner, attr, traced)

    def summary(self):
        """Per span name: calls, total seconds, self seconds (minus children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child_time):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return dict(out)


def _size(path):
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def _sidecar(a):
    return a.get("json_path") or str(a["csv_path"]) + ".json"


def install(tracer, persets):
    """Wrap every traced entry point of the program; see README.md."""
    from persets import diagram_metrics, engine, graph_analysis, graphs, metric, regions, spaces

    def distances(prefix):
        return lambda a, r: {f"{prefix}.distances_computed": np.size(r),
                             f"{prefix}.distance_mb": np.asarray(r).nbytes / 1e6}

    tracer.wrap(spaces, "sample_distance_matrices", "spaces.sample_distance_matrices")
    for cls in vars(spaces).values():
        if isinstance(cls, type) and cls.__module__ == spaces.__name__:
            if "sample_points" in cls.__dict__:
                tracer.wrap(cls, "sample_points", "spaces.sample_points")
            if "pair_distance" in cls.__dict__:
                tracer.wrap(cls, "pair_distance", "spaces.pair_distance", distances("spaces"))

    tracer.wrap(graphs, "build_graph", "graphs.build_graph")
    tracer.wrap(graphs, "sample_distance_matrices", "graphs.sample_distance_matrices")
    tracer.wrap(graphs, "sample_graph", "graphs.sample_graph")
    tracer.wrap(graphs, "point_distance_batch", "graphs.point_distance_batch", distances("graphs"))

    tracer.wrap(engine, "principal_pairs", "principal.principal_pairs",
                lambda a, r: {"principal.matrices": int(np.prod(a["mats"].shape[:-2])),
                              "principal.input_mb": a["mats"].nbytes / 1e6})

    tracer.wrap(engine, "sample_persistence_set", "engine.campaign",
                lambda a, r: {"engine.tuples": r.tuples_drawn, "engine.nontrivial": len(r.points)})
    tracer.wrap(engine.FiniteSpace, "sample_distance_matrices", "engine.finite_gather")
    tracer.wrap(engine, "write_sample", "engine.write_sample",
                lambda a, r: {"engine.bytes_written": _size(a["csv_path"]) + _size(_sidecar(a))})
    tracer.wrap(engine, "read_sample", "engine.read_sample",
                lambda a, r: {"engine.bytes_read": _size(a["csv_path"]) + _size(_sidecar(a))})
    for attr in ("svg_scatter", "svg_heatmap"):
        tracer.wrap(engine, attr, "engine.svg",
                    lambda a, r: {"engine.bytes_written": _size(a["path"])})

    tracer.wrap(regions, "contains", "regions.contains",
                lambda a, r: {"regions.points_tested": np.size(a["t_b"])})
    tracer.wrap(diagram_metrics, "hausdorff_bottleneck_points",
                "diagram_metrics.hausdorff_bottleneck_points",
                lambda a, r: {"diagram_metrics.points_queried":
                              len(np.reshape(a["pts_a"], (-1, 2))) + len(np.reshape(a["pts_b"], (-1, 2)))})
    tracer.wrap(graph_analysis, "detect_corners", "graph_analysis.detect_corners",
                lambda a, r: {"graph_analysis.corners_found": len(r.corners)})
    tracer.wrap(metric, "read_matrix_csv", "metric.read_matrix_csv")
    tracer.wrap(metric, "validate", "metric.validate",
                lambda a, r: {"metric.triangle_checks": np.shape(a["matrix"])[0] ** 3})


LAYERS = ("spaces", "graphs", "principal", "engine", "regions", "diagram_metrics",
          "graph_analysis", "metric")


def layer_metrics(summary, counts):
    """The per-layer metrics of one traced pass, zero for layers never called."""
    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def own(name):
        return summary.get(name, {}).get("self_s", 0.0)

    m = {f"{layer}.calls": sum(row["calls"] for name, row in summary.items()
                               if name.split(".")[0] == layer)
         for layer in LAYERS}
    tuples = counts.get("engine.tuples", 0)
    m.update({
        "spaces.sample_points_s": total("spaces.sample_points"),
        "spaces.pair_distance_s": total("spaces.pair_distance"),
        "spaces.self_s": own("spaces.sample_distance_matrices"),
        "spaces.distances_computed": counts.get("spaces.distances_computed", 0),
        "spaces.distance_mb": counts.get("spaces.distance_mb", 0.0),
        "graphs.build_graph_s": total("graphs.build_graph"),
        "graphs.sample_graph_s": total("graphs.sample_graph"),
        "graphs.point_distance_batch_s": total("graphs.point_distance_batch"),
        "graphs.self_s": own("graphs.sample_distance_matrices"),
        "graphs.distances_computed": counts.get("graphs.distances_computed", 0),
        "principal.principal_pairs_s": total("principal.principal_pairs"),
        "principal.matrices": counts.get("principal.matrices", 0),
        "principal.input_mb": counts.get("principal.input_mb", 0.0),
        "engine.campaign_s": total("engine.campaign"),
        "engine.self_s": own("engine.campaign"),
        "engine.chunks": summary.get("principal.principal_pairs", {}).get("calls", 0),
        "engine.nontrivial_fraction": counts.get("engine.nontrivial", 0) / tuples if tuples else 0.0,
        "engine.finite_gather_s": total("engine.finite_gather"),
        "engine.write_sample_s": total("engine.write_sample"),
        "engine.read_sample_s": total("engine.read_sample"),
        "engine.svg_s": total("engine.svg"),
        "engine.bytes_written": counts.get("engine.bytes_written", 0),
        "engine.bytes_read": counts.get("engine.bytes_read", 0),
        "regions.contains_s": total("regions.contains"),
        "regions.points_tested": counts.get("regions.points_tested", 0),
        "diagram_metrics.hausdorff_bottleneck_points_s":
            total("diagram_metrics.hausdorff_bottleneck_points"),
        "diagram_metrics.points_queried": counts.get("diagram_metrics.points_queried", 0),
        "graph_analysis.detect_corners_s": total("graph_analysis.detect_corners"),
        "graph_analysis.corners_found": counts.get("graph_analysis.corners_found", 0),
        "metric.read_matrix_csv_s": total("metric.read_matrix_csv"),
        "metric.validate_s": total("metric.validate"),
        "metric.self_s": own("metric.read_matrix_csv"),
        "metric.triangle_checks": counts.get("metric.triangle_checks", 0),
    })
    return m
