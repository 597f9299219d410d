"""In-memory span tracing around the program's layer functions.

The tracer wraps public functions of the runtime modules at every place they
are bound. ``sinkhorn`` and ``ground_cost_matrix`` are imported with
``from .ot import ...`` into ``model``, ``training``, ``classify`` and
``interpret``, so patching ``anchorwmd.ot`` alone would record nothing; each
binding is patched separately. Bindings that a later version of the program
no longer has are skipped.

A span records its name, start, end, parent, thread and the benchmark phase
it ran in. The parent is the innermost open span on the same thread; work
that a fan-out function (a thread-pool map) hands to worker threads takes
the fan-out span as its parent, so self time stays meaningful at
``threads > 1``. Self time is a span's duration minus the part of its
interval that its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute, span name, fan-out): every binding that is wrapped.
SITES = [
    ("data", "load_word_vectors", "data.load_word_vectors", False),
    ("data", "load_corpus", "data.load_corpus", False),
    ("data", "corpus_to_measures", "data.corpus_to_measures", False),
    ("training", "init_anchors", "model.init_anchors", False),
    ("model", "save_checkpoint", "model.save_checkpoint", False),
    ("model", "load_checkpoint", "model.load_checkpoint", False),
    ("classify", "embed_document", "model.embed_document", False),
    ("classify", "doc_anchor_distance", "model.doc_anchor_distance", False),
    ("ot", "ground_cost_matrix", "ot.ground_cost_matrix", False),
    ("model", "ground_cost_matrix", "ot.ground_cost_matrix", False),
    ("training", "ground_cost_matrix", "ot.ground_cost_matrix", False),
    ("classify", "ground_cost_matrix", "ot.ground_cost_matrix", False),
    ("interpret", "ground_cost_matrix", "ot.ground_cost_matrix", False),
    ("ot", "sinkhorn", "ot.sinkhorn", False),
    ("model", "sinkhorn", "ot.sinkhorn", False),
    ("training", "sinkhorn", "ot.sinkhorn", False),
    ("classify", "sinkhorn", "ot.sinkhorn", False),
    ("training", "train", "training.train", False),
    ("training", "batch_gradients", "training.batch_gradients", True),
    ("training", "adam_step", "training.adam_step", False),
    ("classify", "classify_corpus", "classify.classify_corpus", True),
    ("classify", "anchor_nn_classify", "classify.anchor_nn_classify", False),
    ("classify", "knn_predict_corpus", "classify.knn_predict_corpus", True),
    ("interpret", "compute_importance_table", "interpret.compute_importance_table", False),
    ("interpret", "ImportanceTable.write_tsv", "interpret.ImportanceTable.write_tsv", False),
    ("interpret", "top_k_words", "interpret.top_k_words", False),
    ("interpret", "export_projection", "interpret.export_projection", False),
    ("interpret", "tfidf_top_words", "interpret.tfidf_top_words", False),
]

# data runs only in set-up, so shares of the work round leave it out
LAYERS = ("model", "ot", "training", "classify", "interpret")


def _sinkhorn_attrs(args, result) -> dict:
    cost = np.shape(args[0])
    return {
        "iters": int(result.iterations_used),
        "converged": bool(result.converged),
        "cells": int(cost[0] * cost[1]),
    }


def _ground_cost_attrs(args, result) -> dict:
    d = np.shape(args[0])[0]
    n, m = np.shape(result)
    return {"flop": 2 * d * n * m}


def _batch_attrs(args, result) -> dict:
    return {"docs": len(args[1])}


ATTRS = {
    "ot.sinkhorn": _sinkhorn_attrs,
    "ot.ground_cost_matrix": _ground_cost_attrs,
    "training.batch_gradients": _batch_attrs,
}


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    phase: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-safe span buffer plus the patching that feeds it."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fanout: int | None = None
        self.spans: list[Span] = []
        self.phase = ""

    def _wrap(self, name: str, fn, fanout: bool):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else self._fanout
            sid = next(self._ids)
            stack.append(sid)
            outer_fanout = self._fanout
            if fanout:
                self._fanout = sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if fanout:
                    self._fanout = outer_fanout
            span = Span(sid, name, start, end, parent, threading.get_ident(), self.phase)
            if attrs_of is not None:
                span.attrs = attrs_of(args, result)
            with self._lock:
                self.spans.append(span)
            return result

        return traced

    @contextlib.contextmanager
    def recording(self, package):
        """Record spans inside the block; outside it the program runs unpatched.

        ``package`` is the imported ``anchorwmd``; every listed binding of it
        is patched on entry and restored on exit.
        """
        patched = []
        for module_name, path, name, fanout in SITES:
            owner = getattr(package, module_name)
            *parents, attr = path.split(".")  # "Class.method" patches the class
            for parent in parents:
                owner = getattr(owner, parent, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, fanout))
        try:
            yield
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Remove and return the spans recorded so far."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    result = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.sid, [])):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        result[s.sid] = s.duration - covered
    return result


def _total(spans, name):
    return float(sum(s.duration for s in spans if s.name == name))


def _count(spans, name):
    return sum(1 for s in spans if s.name == name)


def _quantile(values, q):
    return float(np.quantile(values, q)) if len(values) else 0.0


def round_metrics(spans: list[Span], threads: int, knn_pairs: int, main_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced work round."""
    selfs = self_times(spans)
    m: dict[str, float] = {}

    def self_of(name):
        return float(sum(selfs[s.sid] for s in spans if s.name == name))

    for name in ("model.init_anchors", "model.save_checkpoint", "model.embed_document"):
        m[f"{name}.s"] = _total(spans, name)

    cost = [s for s in spans if s.name == "ot.ground_cost_matrix"]
    m["ot.ground_cost_matrix.calls"] = len(cost)
    m["ot.ground_cost_matrix.s"] = _total(spans, "ot.ground_cost_matrix")
    m["ot.ground_cost_matrix.gflop"] = sum(s.attrs["flop"] for s in cost) / 1e9

    solves = [s for s in spans if s.name == "ot.sinkhorn"]
    iters = [s.attrs["iters"] for s in solves]
    micros = [1e6 * s.duration for s in solves]
    nonconverged = sum(1 for s in solves if not s.attrs["converged"])
    m["ot.sinkhorn.calls"] = len(solves)
    m["ot.sinkhorn.s"] = _total(spans, "ot.sinkhorn")
    m["ot.sinkhorn.solve_us_p50"] = _quantile(micros, 0.5)
    m["ot.sinkhorn.solve_us_p90"] = _quantile(micros, 0.9)
    m["ot.sinkhorn.iters_p50"] = _quantile(iters, 0.5)
    m["ot.sinkhorn.iters_p90"] = _quantile(iters, 0.9)
    m["ot.sinkhorn.iters_max"] = float(max(iters, default=0))
    m["ot.sinkhorn.nonconverged"] = nonconverged
    m["ot.sinkhorn.converged_ratio"] = (1.0 - nonconverged / len(solves)) if solves else 0.0
    m["ot.sinkhorn.cells_mean"] = float(np.mean([s.attrs["cells"] for s in solves])) if solves else 0.0

    m["training.train.s"] = _total(spans, "training.train")
    m["training.batch_gradients.calls"] = _count(spans, "training.batch_gradients")
    m["training.batch_gradients.s"] = _total(spans, "training.batch_gradients")
    m["training.batch_gradients.self_s"] = self_of("training.batch_gradients")
    m["training.batch_gradients.self_share"] = (
        m["training.batch_gradients.self_s"] / m["training.train.s"] if m["training.train.s"] else 0.0
    )
    batch_docs = sum(s.attrs["docs"] for s in spans if s.name == "training.batch_gradients")
    m["training.batch_gradients.self_ms_per_doc"] = (
        1e3 * m["training.batch_gradients.self_s"] / batch_docs if batch_docs else 0.0
    )
    m["training.adam_step.s"] = _total(spans, "training.adam_step")

    m["classify.classify_corpus.s"] = _total(spans, "classify.classify_corpus")
    per_doc = [s for s in spans if s.name == "classify.anchor_nn_classify"]
    m["classify.anchor_nn_classify.calls"] = len(per_doc)
    m["classify.anchor_nn_classify.self_s"] = self_of("classify.anchor_nn_classify")
    busy = sum(s.duration for s in per_doc)
    wall = m["classify.classify_corpus.s"]
    m["classify.thread_util"] = busy / (wall * threads) if wall else 0.0
    m["classify.knn_predict_corpus.s"] = _total(spans, "classify.knn_predict_corpus")
    m["classify.knn.pairs"] = knn_pairs
    knn_solves = sum(1 for s in solves if s.phase == "knn")
    m["classify.knn.solve_ratio"] = knn_solves / knn_pairs if knn_pairs else 0.0

    for name in ("compute_importance_table", "ImportanceTable.write_tsv", "top_k_words", "export_projection", "tfidf_top_words"):
        m[f"interpret.{name}.s"] = _total(spans, f"interpret.{name}")

    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer = s.name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += selfs[s.sid]
    busy_total = sum(layer_self.values())
    for layer in LAYERS:
        m[f"share.{layer}"] = layer_self[layer] / busy_total if busy_total else 0.0
    m["trace.spans"] = len(spans)
    m["trace.main_s"] = main_s
    return m


def setup_metrics(spans: list[Span], vector_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced set-up."""
    load_s = _total(spans, "data.load_word_vectors")
    return {
        "data.load_word_vectors.s": load_s,
        "data.load_word_vectors.mb_per_s": vector_bytes / 1e6 / load_s if load_s else 0.0,
        "data.load_corpus.s": _total(spans, "data.load_corpus"),
        "data.corpus_to_measures.s": _total(spans, "data.corpus_to_measures"),
        "model.load_checkpoint.s": _total(spans, "model.load_checkpoint"),
    }


def write_spans(spans: list[Span], path: str) -> None:
    """One JSON object per span, in start order."""
    selfs = self_times(spans)
    with open(path, "w", encoding="utf-8") as fh:
        for s in sorted(spans, key=lambda s: s.start):
            row = {
                "id": s.sid,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "self": selfs[s.sid],
                "parent": s.parent,
                "thread": s.thread,
                "phase": s.phase,
                **s.attrs,
            }
            fh.write(json.dumps(row) + "\n")
