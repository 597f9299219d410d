"""Nearest-anchor classification, the raw-WMD KNN baseline, and evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _write_table
from .model import AnchorModel, DocumentMeasure, _ordered_map, anchor_cost_rows, transport_cost_rows
from .ot import SinkhornConfig, _squared_norms, ground_cost_matrix, sinkhorn

__all__ = [
    "Prediction",
    "anchor_nn_classify",
    "classify_corpus",
    "knn_predict_corpus",
    "check_k_values",
    "error_rate",
    "write_predictions",
]


@dataclass(frozen=True)
class Prediction:
    """Predicted class and the distances to every class anchor."""

    predicted_class: int
    anchor_distances: np.ndarray


def anchor_nn_classify(
    doc: DocumentMeasure, model: AnchorModel, config: SinkhornConfig | None = None
) -> Prediction:
    """Assign the class of the nearest anchor.

    Costs the raw document's words against every anchor column
    (:func:`~anchorwmd.model.anchor_cost_rows`), solves them against every
    anchor as a stack of one document
    (:func:`~anchorwmd.model.transport_cost_rows`), and returns the argmin
    of the unregularized ``distance`` (first index wins exact ties).
    """
    result = transport_cost_rows(model, [anchor_cost_rows(model, doc.support)], [doc.weights], config)
    return Prediction(predicted_class=int(np.argmin(result.distance)), anchor_distances=result.distance)


def classify_corpus(
    docs: list[DocumentMeasure],
    model: AnchorModel,
    config: SinkhornConfig | None = None,
    threads: int = 1,
) -> list[Prediction]:
    """Classify a list of documents on ``threads`` workers.

    Documents are independent; results come back in input order regardless
    of the worker count.
    """
    return _ordered_map(lambda doc: anchor_nn_classify(doc, model, config), docs, threads)


# The raw-WMD ground costs are one product per test document and block of
# consecutive training documents, their supports side by side; a block holds at
# most this many support values (2 MiB), or one document. On the d=300 k-NN
# benchmark (about 113 words a document) that is 7 documents, and the ground
# cost of a test document takes 10.4 ms, against 15.4 ms in one product per
# pair and 8.8 ms in one product with all 40 training documents; that one
# block raised the run's peak memory by 20 MB (a copy of every training
# support and its cost matrix), the blocks of 7 by 4.6 MB.
_KNN_BLOCK_VALUES = 2**18


def _blocks(docs: list[DocumentMeasure]) -> list[list[DocumentMeasure]]:
    """``docs`` cut into runs of at most ``_KNN_BLOCK_VALUES`` support values; a larger document is a run alone."""
    blocks: list[list[DocumentMeasure]] = []
    values = 0
    for doc in docs:
        if blocks and values + doc.support.size <= _KNN_BLOCK_VALUES:
            blocks[-1].append(doc)
            values += doc.support.size
        else:
            blocks.append([doc])
            values = doc.support.size
    return blocks


def _wmd_distances(test_doc: DocumentMeasure, block: list[DocumentMeasure], points, norms, config) -> np.ndarray:
    """Raw WMD from ``test_doc`` to each document of ``block``, from one ground-cost product.

    ``points`` holds the block's supports side by side and ``norms`` their
    squared column norms, each document's computed from its own support as
    a cost against it alone computes them. Each neighbour's solve takes its
    own columns of the one cost matrix.
    """
    cost = ground_cost_matrix(test_doc.support, points, norms)
    distances = np.empty(len(block))
    start = 0
    for k, neighbour in enumerate(block):
        stop = start + neighbour.size
        distances[k] = sinkhorn(cost[:, start:stop], test_doc.weights, neighbour.weights, config).distance
        start = stop
    return distances


def _knn_distances(test_docs, train_corpus, config, threads: int) -> list[np.ndarray]:
    """Per test document, the (len(train_corpus),) raw WMD to every training document."""
    parts = []
    for block in _blocks(train_corpus):
        points = np.concatenate([doc.support for doc in block], axis=1)
        norms = np.concatenate([_squared_norms(doc.support) for doc in block])
        parts.append(_ordered_map(lambda doc: _wmd_distances(doc, block, points, norms, config), test_docs, threads))
    return [np.concatenate(row) for row in zip(*parts)]


def _knn_vote(distances: np.ndarray, labels: list[int], k: int) -> int:
    nearest = np.argsort(distances, kind="stable")[: min(k, distances.size)]
    votes: dict[int, list[float]] = {}
    for idx in nearest:
        votes.setdefault(labels[idx], []).append(float(distances[idx]))
    # most votes, then smallest mean distance, then smallest class id
    best = min(votes.items(), key=lambda item: (-len(item[1]), float(np.mean(item[1])), item[0]))
    return best[0]


def knn_predict_corpus(
    test_docs: list[DocumentMeasure],
    train_corpus: list[DocumentMeasure],
    ks: list[int],
    config: SinkhornConfig | None = None,
    threads: int = 1,
) -> dict[int, list[int]]:
    """Majority vote over the k nearest training documents in raw WMD.

    Works in untransformed word-vector space, for several k values sharing
    one distance computation, on ``threads`` workers. Vote ties break toward
    the class with the smaller mean distance among its voting neighbours,
    then toward the smaller class id. Returns a mapping from each k to the
    per-document predicted labels.

    Each test document takes one ground-cost product per block of training
    documents (their supports side by side, see ``_KNN_BLOCK_VALUES``), and
    each pair one :func:`~anchorwmd.ot.sinkhorn` solve on its columns. A
    column of that product can differ from the document pair's own product
    in its last bits, since BLAS picks its kernels by matrix shape.
    """
    if not train_corpus:
        raise ValueError("train corpus is empty")
    check_k_values(ks)
    labels = [doc.label for doc in train_corpus]
    all_dists = _knn_distances(test_docs, train_corpus, config, threads)
    return {k: [_knn_vote(dists, labels, k) for dists in all_dists] for k in ks}


def check_k_values(ks) -> None:
    """Reject a neighbour count below 1."""
    if any(k < 1 for k in ks):
        raise ValueError("all k values must be at least 1")


def error_rate(predictions, truths) -> float:
    """Fraction of mismatched labels."""
    pred = list(predictions)
    true = list(truths)
    if len(pred) != len(true):
        raise ValueError(f"length mismatch: {len(pred)} predictions vs {len(true)} truths")
    if not pred:
        raise ValueError("empty prediction list")
    wrong = sum(1 for a, b in zip(pred, true) if a != b)
    return wrong / len(pred)


def write_predictions(path: str, doc_ids, truths, predictions: list[Prediction]) -> None:
    """Write one CSV row per document with the per-class anchor distances."""
    num_classes = predictions[0].anchor_distances.size if predictions else 0
    header = ["doc_id", "true_label", "predicted_label"] + [f"dist_class_{k}" for k in range(num_classes)]
    rows = ([doc_id, truth, pred.predicted_class, *pred.anchor_distances.tolist()]
            for doc_id, truth, pred in zip(doc_ids, truths, predictions))
    _write_table(path, header, rows)
