"""Spans and counters around the program's public entry points.

A traced pass swaps each entry point below, as its callers look it up, for
a wrapper that records a span (name, start, end, parent, pass id) and the
counts of the work it did.  Hot per-pair helpers get no span; where a
layer's work is a pair count it is taken from the call's arguments or
result.  Every patch is undone when the pass ends, so untraced passes run
the program unmodified.

Span names are "<layer>:<operation>"; a layer's self time is the time its
spans cover minus the time their direct children cover.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from time import perf_counter

import attackdag.cli as cli
import attackdag.graph as graph
import attackdag.learn.gridsearch as gridsearch
import attackdag.learn.svm as svm
import attackdag.storage as storage
from attackdag.features import AttributeTable
from attackdag.learn.baselines import GaussianNbModel, SgdSvmModel, TreeModel
from attackdag.learn.svm import SvmModel

from workloads import COMMANDS

# Per-layer metrics a traced run reports, with their units.
LAYER_METRICS = {
    **{f"cli.{c}_s": "s" for c in COMMANDS},
    "cli.self_s": "s",
    "expr.calls": "count",
    "expr.chars": "chars",
    "expr.self_s": "s",
    "storage.self_s": "s",
    "storage.bytes_written": "bytes",
    "storage.bytes_read": "bytes",
    "graph.self_s": "s",
    "graph.nodes": "count",
    "graph.edges": "count",
    "graph.paths": "count",
    "graph.path_enumerations": "count",
    "model.validate_s": "s",
    "features.self_s": "s",
    "features.pairs": "count",
    "features.pairs_per_s": "1/s",
    "negatives.self_s": "s",
    "negatives.pairs_examined": "count",
    "negatives.candidates": "count",
    "negatives.yield": "ratio",
    "csp.self_s": "s",
    "csp.branches": "count",
    "learn.svm.fits": "count",
    "learn.svm.fit_s": "s",
    "learn.svm.iterations": "count",
    "learn.svm.unconverged": "count",
    "learn.svm.n_sv": "count",
    "learn.svm.gram_entries": "count",
    "learn.svm.predict_s": "s",
    "learn.svm.kernel_entries_scored": "count",
    "learn.svm.kernel_bytes": "bytes",
    "learn.gridsearch.self_s": "s",
    "learn.gridsearch.cells": "count",
    "learn.gridsearch.failed_cells": "count",
    "learn.gridsearch.gram_reuse": "ratio",
    "learn.baselines.knn_s": "s",
    "learn.baselines.knn_queries": "count",
    "learn.baselines.gnb_s": "s",
    "learn.baselines.tree_s": "s",
    "learn.baselines.sgd_s": "s",
    "learn.evaluation.calls": "count",
    "learn.evaluation.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def wrap(self, name, fn, after=None):
        """fn with a span around each call; after(tracer, args, result) counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append([name, perf_counter(), None, parent])
            self._stack.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.spans[index][2] = perf_counter()
                self._stack.pop()
                if after is not None:
                    after(self, args, result)

        return wrapper

    def count_only(self, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(self, args, result)
            return result

        return wrapper

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "pass": self.pass_id}
            for n, s, e, p in self.spans
        ]


# --- counters -------------------------------------------------------------------


def _read_first(t, args, result):
    t.add("storage.bytes_read", os.path.getsize(args[0]))


def _read_all(t, args, result):
    t.add("storage.bytes_read", sum(os.path.getsize(p) for p in args))


def _written(t, args, result):
    t.add("storage.bytes_written", len(args[1].encode("utf-8")))


def _parsed(t, args, result):
    t.add("expr.calls", 1)
    t.add("expr.chars", len(args[0]))


def _built(t, args, result):
    if result is not None:
        t.peak("graph.nodes", len(result.nodes))
        t.peak("graph.edges", len(result.edges))


def _enumerated(t, args, result):
    t.add("graph.path_enumerations", 1)
    if result is not None:
        t.peak("graph.paths", len(result))


def _candidates(t, args, result):
    if result is not None:
        t.add("features.pairs", len(result))


def _negatives(t, args, result):
    n = len(args[0].nodes)
    t.add("negatives.pairs_examined", n * (n - 1))
    if result is not None:
        t.add("negatives.candidates", len(result))


def _classified(t, args, result):
    t.add("csp.branches", 1)


def _fitted(t, args, result):
    t.add("learn.svm.fits", 1)
    if result is not None:
        t.add("learn.svm.iterations", result.iterations)
        t.add("learn.svm.unconverged", int(not result.converged))
        t.add("learn.svm.n_sv", len(result.sv_indices))


def _gram(t, args, result):
    entries = len(args[1]) * len(args[2])
    t.peak("learn.svm.kernel_bytes", entries * 8)
    if t.inside("learn.svm:fit"):
        t.add("learn.svm.gram_entries", entries)
        if t.inside("learn.gridsearch:search"):
            t.add("learn.gridsearch.grams_built", 1)


def _scored(t, args, result):
    if result is not None:
        t.add("learn.svm.kernel_entries_scored", len(result) * len(args[0].sv_indices))


def _searched(t, args, result):
    if result is not None:
        surface = result[1]
        t.add("learn.gridsearch.cells", len(surface))
        t.add("learn.gridsearch.failed_cells", sum(1 for c in surface if c.fn is None))
        t.add("learn.gridsearch.distinct_kernels",
              len({(c.params.kernel, c.params.gamma) for c in surface}))


def _queried(t, args, result):
    t.add("learn.baselines.knn_queries", 1)


def _evaluated(t, args, result):
    t.add("learn.evaluation.calls", 1)


# (owner, attribute, span name or None for count-only, counter)
PLAN = (
    (storage, "parse_expression", "expr:parse", _parsed),
    (cli, "load_corpus", "storage:load_corpus", _read_first),
    (cli, "load_dag", "storage:load_dag", _read_first),
    (cli, "load_labels", "storage:load_labels", _read_first),
    (cli, "load_model", "storage:load_model", _read_first),
    (cli, "load_predictions", "storage:load_predictions", _read_first),
    (cli, "file_fingerprint", "storage:fingerprint", _read_all),
    (cli, "save_dag", "storage:save_dag", None),
    (cli, "save_labels", "storage:save_labels", None),
    (cli, "save_model", "storage:save_model", None),
    (cli, "save_predictions", "storage:save_predictions", None),
    (cli, "dump_json", "storage:dump_json", None),
    (cli, "write_text_atomic", "storage:write", _written),
    (storage, "write_text_atomic", None, _written),
    (graph, "build_dag", "graph:build_dag", _built),
    (storage, "merge_cdfgs", "graph:merge", None),
    (storage, "cdfg_from_expression", "graph:cdfg", None),
    (cli, "enumerate_attack_paths", "graph:paths", _enumerated),
    (graph, "enumerate_attack_paths", "graph:paths", _enumerated),
    (cli, "known_attack_paths", "graph:known", None),
    (cli, "discover_unexploited", "graph:unexploited", None),
    (cli, "validate_dag", "model:validate", None),
    (cli, "enumerate_candidates", "features:candidates", _candidates),
    (AttributeTable, "from_csv", "features:read_table", None),
    (AttributeTable, "check_against", "features:check", None),
    (cli, "generate_negative_candidates", "negatives:generate", _negatives),
    (cli, "corpus_stats", "negatives:stats", None),
    (cli, "csp_facts", "csp:facts", None),
    (cli, "csp_classify", "csp:classify", _classified),
    (cli, "train_svm", "learn.svm:fit", _fitted),
    (gridsearch, "train_svm", "learn.svm:fit", _fitted),
    (svm, "gram_matrix", None, _gram),
    (SvmModel, "decision_values", "learn.svm:predict", _scored),
    (cli, "grid_search_min_fn", "learn.gridsearch:search", _searched),
    (cli, "knn_predict", "learn.baselines:knn", _queried),
    (cli, "train_gnb", "learn.baselines:gnb", None),
    (GaussianNbModel, "predict", "learn.baselines:gnb", None),
    (cli, "train_tree", "learn.baselines:tree", None),
    (TreeModel, "predict", "learn.baselines:tree", None),
    (cli, "train_sgd_svm", "learn.baselines:sgd", None),
    (SgdSvmModel, "predict", "learn.baselines:sgd", None),
    (cli, "evaluate", "learn.evaluation:evaluate", _evaluated),
    (gridsearch, "evaluate", "learn.evaluation:evaluate", _evaluated),
)


@contextmanager
def installed(tracer: Tracer):
    """Patch every entry point in PLAN for one pass; restore them all after."""
    undo = []
    try:
        for owner, attr, name, counter in PLAN:
            raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if raw is None:
                tracer.missing.append(f"{owner.__name__}.{attr}")
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            new = tracer.count_only(fn, counter) if name is None else tracer.wrap(name, fn, counter)
            setattr(owner, attr, classmethod(new) if isinstance(raw, classmethod) else new)
            undo.append((owner, attr, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.overhead_s excepted)."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    total: dict[str, float] = {}  # span name -> inclusive seconds
    self_time: dict[str, float] = {}  # layer -> seconds
    for (name, start, end, _), children in zip(spans, child_time):
        total[name] = total.get(name, 0.0) + (end - start)
        layer = name.split(":", 1)[0]
        self_time[layer] = self_time.get(layer, 0.0) + (end - start - children)

    c = tracer.counts
    out = {f"cli.{cmd}_s": total.get(f"cli:{cmd}", 0.0) for cmd in COMMANDS}
    out["cli.self_s"] = self_time.get("cli", 0.0)
    for layer in ("expr", "storage", "graph", "features", "negatives", "csp",
                  "learn.gridsearch", "learn.evaluation"):
        out[f"{layer}.self_s"] = self_time.get(layer, 0.0)
    for key in ("expr.calls", "expr.chars", "storage.bytes_written", "storage.bytes_read",
                "graph.nodes", "graph.edges", "graph.paths", "graph.path_enumerations",
                "features.pairs", "negatives.pairs_examined", "negatives.candidates",
                "csp.branches", "learn.svm.fits", "learn.svm.iterations",
                "learn.svm.unconverged", "learn.svm.n_sv", "learn.svm.gram_entries",
                "learn.svm.kernel_entries_scored", "learn.svm.kernel_bytes",
                "learn.gridsearch.cells", "learn.gridsearch.failed_cells",
                "learn.baselines.knn_queries", "learn.evaluation.calls"):
        out[key] = c.get(key, 0)
    out["model.validate_s"] = total.get("model:validate", 0.0)
    enumerate_s = total.get("features:candidates", 0.0)
    out["features.pairs_per_s"] = out["features.pairs"] / enumerate_s if enumerate_s else 0.0
    examined = out["negatives.pairs_examined"]
    out["negatives.yield"] = out["negatives.candidates"] / examined if examined else 0.0
    out["learn.svm.fit_s"] = total.get("learn.svm:fit", 0.0)
    out["learn.svm.predict_s"] = total.get("learn.svm:predict", 0.0)
    built = c.get("learn.gridsearch.grams_built", 0)
    out["learn.gridsearch.gram_reuse"] = (
        c.get("learn.gridsearch.distinct_kernels", 0) / built if built else 0.0)
    for model in ("knn", "gnb", "tree", "sgd"):
        out[f"learn.baselines.{model}_s"] = total.get(f"learn.baselines:{model}", 0.0)
    return out
