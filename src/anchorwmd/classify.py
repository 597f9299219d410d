"""Nearest-anchor classification, the raw-WMD KNN baseline, and evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _write_table
from .model import AnchorModel, DocumentMeasure, _ordered_map, anchor_cost_rows, distinct_words, transport_cost_rows
from .ot import SinkhornConfig, _check_count, _squared_norms, ground_cost_matrix, sinkhorn

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


def _knn_distances(test_docs, train_corpus, config, threads: int) -> list[np.ndarray]:
    """Per test document, the (len(train_corpus),) raw WMD to every training document.

    The training documents' distinct words (:func:`~anchorwmd.model.distinct_words`)
    are costed against each test document in one product, and each pair's
    solve takes its neighbour's columns of it, gathered.
    """
    words = distinct_words(train_corpus)
    points = words.vectors.T
    norms = _squared_norms(points)

    def distances(test_doc: DocumentMeasure) -> np.ndarray:
        cost = ground_cost_matrix(test_doc.support, points, norms)
        return np.array([
            sinkhorn(cost[:, rows], test_doc.weights, neighbour.weights, config).distance
            for rows, neighbour in zip(words.rows, train_corpus)
        ])

    return _ordered_map(distances, test_docs, threads)


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

    Each test document takes one ground-cost product against the training
    corpus's distinct words, and each pair one
    :func:`~anchorwmd.ot.sinkhorn` solve on its neighbour's columns of it.
    A column of that product can differ from the document pair's own
    product in its last bits, since BLAS picks its kernels by matrix shape.
    """
    if not train_corpus:
        raise ValueError("train corpus is empty")
    check_k_values(ks)
    labels = [doc.label for doc in train_corpus]
    all_dists = _knn_distances(test_docs, train_corpus, config, threads)
    return {k: [_knn_vote(dists, labels, k) for dists in all_dists] for k in ks}


def check_k_values(ks) -> None:
    """Reject a neighbour count that is not an integer of at least 1."""
    for k in ks:
        _check_count("k", k, 1)


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
