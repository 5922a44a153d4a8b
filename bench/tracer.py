"""Outside-in tracing of the uoslearn layers, and the per-layer metrics.

The tracer replaces public functions with timing wrappers in the module
namespace their caller looks them up in: the package binds names with
`from .x import y`, so `cli.cslrr_solve` and `hierarchy.cslrr_solve` are
wrapped separately, and so are `svm.dtw_distance_matrix` and
`solver.svt`. Nothing under src/ is edited; the originals are restored
when the traced pass ends.

Spans are kept in memory and written as JSON lines when the run ends. A
span's parent is the innermost wrapped call that was open when it began.
Times are integer nanoseconds, so self times (duration minus the children's
durations) are exact and never negative.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from importlib import import_module
from pathlib import Path
from typing import Callable

NS = 1e-9


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start: int = 0
    end: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


# Counters computed from a wrapped call's arguments and result.
def _iterations(args, result):
    return {"iterations": result.iterations}


def _tree(args, result):
    # Every accepted split, the unconditional root split included, adds
    # exactly two nodes; a failed root split leaves one.
    return {"leaves": len(result.leaves()), "accepted": len(result.nodes) // 2}


def _frames(args, result):
    return {"frames": len(result)}


def _feature_cells(args, result):
    return {"cells": args[0].length * args[1].length}


def _assignment_cells(args, result):
    return {"cells": len(args[0]) * len(args[1])}


def _support_vectors(args, result):
    return {"support_vectors": int((result.alpha > 0).sum())}


def _bytes_arg0(args, result):
    # A path, or a DatasetManifest whose features file is read.
    path = getattr(args[0], "features", args[0])
    return {"bytes": Path(path).stat().st_size}


def _bytes_sequence_dir(args, result):
    d = Path(args[0])
    names = ("features.bin", "labels.txt", "boundaries.txt")
    return {"bytes": sum((d / n).stat().st_size for n in names)}


# (module, attribute, span name, counter). Each attribute is the name the
# calling module looks up at call time.
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("cli", "cslrr_solve", "solver.solve", _iterations),
    ("hierarchy", "cslrr_solve", "solver.solve", _iterations),
    ("solver", "build_weight_matrix", "solver.weights", None),
    ("solver", "update_z", "solver.z_step", None),
    ("solver", "svt", "solver.svt", None),
    ("solver", "update_q", "solver.q_step", None),
    ("solver", "elementwise_shrink", "linalg.elementwise_shrink", None),
    ("solver", "update_f", "solver.f_step", None),
    ("solver", "sym_eig_smallest", "solver.eig", None),
    ("solver", "update_e", "solver.e_step", None),
    ("solver", "col_l21_prox", "linalg.col_l21_prox", None),
    ("cli", "spectral_cluster", "spectral.cluster", None),
    ("hierarchy", "spectral_cluster", "spectral.cluster", None),
    ("spectral", "kmeans", "spectral.kmeans", None),
    ("cli", "hcs_lrr", "hierarchy.build", _tree),
    ("hierarchy", "_bisect", "hierarchy.split", None),
    ("hierarchy", "try_split", "hierarchy.try_split", None),
    ("hierarchy", "estimate_subspace", "hierarchy.subspace", None),
    ("cli", "write_tree", "hierarchy.tree_write", None),
    ("cli", "assign_to_leaves", "sequences.assign", _frames),
    ("sequences", "assign_to_leaves", "sequences.assign", _frames),
    ("sequences", "align_features_dtw", "sequences.feature_dtw", _feature_cells),
    ("sequences", "dtw_grassmann", "sequences.assign_dtw", _assignment_cells),
    ("sequences", "class_distance_ceilings", "sequences.ceilings", None),
    ("bundles", "class_distance_ceilings", "sequences.ceilings", None),
    ("svm", "dtw_distance_matrix", "svm.kernel", None),
    ("svm", "svm_train_binary", "svm.smo", _support_vectors),
    ("cli", "svm_train_multiclass", "svm.train", None),
    ("cli", "svm_predict_multiclass", "svm.predict", None),
    ("cli", "open_set_svm", "svm.predict", None),
    ("bundles", "svm_predict_multiclass", "svm.predict", None),
    ("bundles", "open_set_svm", "svm.predict", None),
    ("datasets", "load_feature_matrix", "datasets.load", _bytes_arg0),
    ("datasets", "load_labels", "datasets.load", _bytes_arg0),
    ("datasets", "load_leaves", "datasets.load", _bytes_arg0),
    ("datasets", "load_sequence_dataset", "datasets.load", _bytes_sequence_dir),
    ("cli", "save_model_bundle", "bundles.save", _bytes_arg0),
    ("cli", "load_model_bundle", "bundles.load", _bytes_arg0),
]


class Tracer:
    """Span recorder for one benchmark run; `run` labels the spans of one pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[Span] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.run)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn: Callable, name: str, counter: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.attrs = counter(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, counter in TARGETS:
                module = import_module(f"uoslearn.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the durations of its direct children (ns)."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def write_spans(spans: list[Span], path: Path) -> None:
    own = self_times(spans)
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({**asdict(s), "self": own[s.id]}) + "\n")


# Per-layer metrics: name -> unit. Every workload reports all of them; a
# layer a workload does not use reads 0.
PER_LAYER = {
    "solver.solve_s": "s",
    "solver.z_step_s": "s",
    "solver.svt_s": "s",
    "solver.q_step_s": "s",
    "solver.f_step_s": "s",
    "solver.eig_s": "s",
    "solver.e_step_s": "s",
    "solver.weights_s": "s",
    "solver.self_s": "s",
    "solver.iterations": "count",
    "solver.ms_per_iter": "ms",
    "spectral.calls": "count",
    "spectral.cluster_s": "s",
    "spectral.kmeans_s": "s",
    "hierarchy.splits_tried": "count",
    "hierarchy.splits_accepted": "count",
    "hierarchy.accept_ratio": "fraction",
    "hierarchy.split_s": "s",
    "hierarchy.subspace_s": "s",
    "hierarchy.leaves": "count",
    "hierarchy.tree_write_s": "s",
    "sequences.assign_s": "s",
    "sequences.frames_assigned": "count",
    "sequences.feature_dtw_pairs": "count",
    "sequences.feature_dtw_cells": "count",
    "sequences.feature_dtw_s": "s",
    "sequences.assign_dtw_pairs": "count",
    "sequences.assign_dtw_cells": "count",
    "sequences.assign_dtw_s": "s",
    "sequences.ceilings_s": "s",
    "svm.kernel_s": "s",
    "svm.smo_s": "s",
    "svm.binary_models": "count",
    "svm.support_vectors": "count",
    "svm.predict_s": "s",
    "datasets.load_s": "s",
    "datasets.bytes_read": "bytes",
    "bundles.save_s": "s",
    "bundles.load_s": "s",
    "bundles.bytes": "bytes",
    "cli.cluster_s": "s",
    "cli.hierarchy_s": "s",
    "cli.classify_knn_open_s": "s",
    "cli.classify_svm_ovo_save_s": "s",
    "cli.classify_bundle_s": "s",
    "cli.classify_svm_ova_open_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace.overhead_s)."""
    own = self_times(spans)
    names = {s.id: s.name for s in spans}

    def named(name):
        return [s for s in spans if s.name == name]

    def seconds(name):
        return sum(s.duration for s in named(name)) * NS

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    def outermost(name):
        return [s for s in named(name) if names.get(s.parent) != name]

    loads = outermost("datasets.load")
    iterations = attr("solver.solve", "iterations")
    tried = len(named("hierarchy.split"))
    accepted = attr("hierarchy.build", "accepted")
    m = {
        "solver.solve_s": seconds("solver.solve"),
        "solver.z_step_s": seconds("solver.z_step"),
        "solver.svt_s": seconds("solver.svt"),
        "solver.q_step_s": seconds("solver.q_step"),
        "solver.f_step_s": seconds("solver.f_step"),
        "solver.eig_s": seconds("solver.eig"),
        "solver.e_step_s": seconds("solver.e_step"),
        "solver.weights_s": seconds("solver.weights"),
        "solver.self_s": sum(own[s.id] for s in named("solver.solve")) * NS,
        "solver.iterations": iterations,
        "solver.ms_per_iter": (
            1e3 * seconds("solver.solve") / iterations if iterations else 0.0
        ),
        "spectral.calls": len(named("spectral.cluster")),
        "spectral.cluster_s": seconds("spectral.cluster"),
        "spectral.kmeans_s": seconds("spectral.kmeans"),
        "hierarchy.splits_tried": tried,
        "hierarchy.splits_accepted": accepted,
        "hierarchy.accept_ratio": accepted / tried if tried else 0.0,
        "hierarchy.split_s": seconds("hierarchy.split"),
        "hierarchy.subspace_s": seconds("hierarchy.subspace"),
        "hierarchy.leaves": attr("hierarchy.build", "leaves"),
        "hierarchy.tree_write_s": seconds("hierarchy.tree_write"),
        "sequences.assign_s": seconds("sequences.assign"),
        "sequences.frames_assigned": attr("sequences.assign", "frames"),
        "sequences.feature_dtw_pairs": len(named("sequences.feature_dtw")),
        "sequences.feature_dtw_cells": attr("sequences.feature_dtw", "cells"),
        "sequences.feature_dtw_s": seconds("sequences.feature_dtw"),
        "sequences.assign_dtw_pairs": len(named("sequences.assign_dtw")),
        "sequences.assign_dtw_cells": attr("sequences.assign_dtw", "cells"),
        "sequences.assign_dtw_s": seconds("sequences.assign_dtw"),
        "sequences.ceilings_s": seconds("sequences.ceilings"),
        "svm.kernel_s": seconds("svm.kernel"),
        "svm.smo_s": seconds("svm.smo"),
        "svm.binary_models": len(named("svm.smo")),
        "svm.support_vectors": attr("svm.smo", "support_vectors"),
        "svm.predict_s": seconds("svm.predict"),
        "datasets.load_s": sum(s.duration for s in loads) * NS,
        "datasets.bytes_read": sum(s.attrs["bytes"] for s in loads),
        "bundles.save_s": seconds("bundles.save"),
        "bundles.load_s": seconds("bundles.load"),
        "bundles.bytes": attr("bundles.save", "bytes"),
        "cli.self_s": 0.0,
    }
    for s in spans:
        if s.parent is None and s.name.startswith("cli."):
            key = f"{s.name}_s"
            if key not in PER_LAYER:
                raise KeyError(f"stage span {s.name} has no per-layer metric")
            m[key] = s.duration * NS
            m["cli.self_s"] += own[s.id] * NS
    return {name: m.get(name, 0.0) for name in PER_LAYER if name != "trace.overhead_s"}
