"""Spans and counts recorded around the program's layer functions.

The tracer wraps functions by name on the module objects the pipeline
calls through (``topmix.pipeline`` imports most layer functions into its
own namespace, so the wrapper goes on that binding). A name that a module
no longer has is skipped: its span is absent, and nothing fails.

Spans live in memory as (name, start, end, parent, op) tuples and are
written out by the caller after the run. A span's self time is its
duration minus the durations of its direct children; calls are
single-threaded and nested, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

Hook = Callable[["Tracer", tuple, dict, Any], None]


def _size(path) -> int:
    try:
        return Path(path).stat().st_size
    except (OSError, TypeError):
        return 0


def _on_parse(tr: "Tracer", args, kwargs, result) -> None:
    report = result[1]
    tr.add("ingest.rows_kept", report.kept_rows)
    tr.add("ingest.rows_dropped", report.dropped_rows)


def _on_encode(tr: "Tracer", args, kwargs, result) -> None:
    tr.counts[tr.op]["preprocess.width_m"] = result.values.shape[1]


def _on_rips(tr: "Tracer", args, kwargs, result) -> None:
    tr.add("persistence.diagrams", 1)
    tr.add("persistence.pairs", len(result.pairs))


def _on_distance_matrix(tr: "Tracer", args, kwargs, result) -> None:
    n = result.shape[0]
    tr.add("metric.pairs", n * (n - 1) // 2)


def _bytes_of(arg: int, key: str) -> Hook:
    def hook(tr: "Tracer", args, kwargs, result) -> None:
        if len(args) > arg:
            tr.add(key, _size(args[arg]))

    return hook


def _on_report(tr: "Tracer", args, kwargs, result) -> None:
    tr.add("pipeline.report_bytes", sum(_size(p) for p in result.values()))


# (module, attribute, span name, hook on the returned value)
TARGETS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("topmix.pipeline", "load_experiment_config", "pipeline.config", None),
    ("topmix.pipeline", "run_pipeline", "pipeline.run", None),
    ("topmix.pipeline", "compute_diagrams", "pipeline.diagrams", None),
    ("topmix.pipeline", "compute_distances", "pipeline.distances", None),
    ("topmix.pipeline", "prepare_features", "pipeline.prepare", None),
    ("topmix.pipeline", "features_fingerprint", "pipeline.fingerprint", None),
    ("topmix.pipeline", "write_artifacts", "pipeline.report", _on_report),
    ("topmix.pipeline", "load_schema", "ingest.schema", None),
    ("topmix.pipeline", "parse_dataset", "ingest.parse", _on_parse),
    ("topmix.pipeline", "one_hot_encode", "preprocess.encode", _on_encode),
    ("topmix.pipeline", "fit_standardizer", "preprocess.standardize", None),
    ("topmix.pipeline", "standardize", "preprocess.standardize", None),
    ("topmix.pipeline", "default_symmetry_vector", "preprocess.symmetry", None),
    ("topmix.pipeline", "symmetry_break", "preprocess.symmetry", None),
    ("topmix.pipeline", "build_point_cloud", "cloud.build", None),
    ("topmix.pipeline", "pairwise_distances", "cloud.pairwise", None),
    ("topmix.persistence", "pairwise_distances", "cloud.pairwise", None),
    ("topmix.pipeline", "choose_maxscale", "persistence.maxscale", None),
    ("topmix.pipeline", "rips_dim0_diagram", "persistence.rips", _on_rips),
    ("topmix.pipeline", "load_diagrams", "persistence.cache_read", _bytes_of(0, "persistence.cache_read_bytes")),
    ("topmix.pipeline", "save_diagrams", "persistence.cache_write", _bytes_of(1, "persistence.cache_write_bytes")),
    ("topmix.pipeline", "distance_matrix", "metric.distance_matrix", _on_distance_matrix),
    ("topmix.pipeline", "load_distance_matrix", "metric.cache_read", _bytes_of(0, "metric.cache_read_bytes")),
    ("topmix.pipeline", "save_distance_matrix", "metric.cache_write", _bytes_of(1, "metric.cache_write_bytes")),
    ("topmix.pipeline", "evaluate_split", "evaluate.protocol", None),
    ("topmix.pipeline", "evaluate_kfold", "evaluate.protocol", None),
    ("topmix.pipeline", "select_k_kfold", "evaluate.protocol", None),
    ("topmix.evaluate", "evaluate_kfold", "evaluate.protocol", None),
    ("topmix.evaluate", "knn_predict", "classify.knn", None),
)

LAYERS = ("ingest", "preprocess", "cloud", "persistence", "metric", "classify", "evaluate", "pipeline")
ROOT = "op"


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[int, Counter] = {}  # op -> counter name -> value
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        name, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, op)
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[self.op][key] += value

    def run_op(self, op: int, fn: Callable[[], Any]) -> Any:
        """Call ``fn`` inside a root span with every target wrapped."""
        self.op = op
        self.counts.setdefault(op, Counter())
        self.install()
        index = self._enter(ROOT)
        try:
            return fn()
        finally:
            self._exit(index)
            self.uninstall()

    def wrap(self, module: Any, attr: str, name: str, hook: Hook | None = None) -> bool:
        """Replace ``module.attr`` by a span-recording wrapper, if it exists."""
        original = getattr(module, attr, None)
        if not callable(original):
            return False

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(index)
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.add("trace.hook_errors", 1)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))
        return True

    def install(self) -> None:
        for module_name, attr, name, hook in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            self.wrap(module, attr, name, hook)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[int, Counter]:
        """Per operation: span name -> summed self time (root included)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, Counter] = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            out.setdefault(op, Counter())[name] += (end - start) - child_time[i]
        return out

    def totals(self) -> dict[int, Counter]:
        """Per operation: span name -> summed duration of the outermost spans.

        A span nested inside a span of the same name (select_k_kfold calling
        evaluate_kfold) is not added twice.
        """
        out: dict[int, Counter] = {}
        for name, start, end, parent, op in self.spans:
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out.setdefault(op, Counter())[name] += end - start
        return out

    def dump(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            **meta,
            "span_fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
            "counts": {str(op): dict(c) for op, c in self.counts.items()},
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
