"""Nearest-anchor classification, the raw-WMD KNN baseline, and evaluation."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .model import AnchorModel, DocumentMeasure, _ordered_map, anchor_transport
from .ot import SinkhornConfig, ground_cost_matrix, sinkhorn

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

    Transports the raw document to every anchor with
    :func:`~anchorwmd.model.anchor_transport`, as a stack of one document,
    and returns the argmin of the unregularized ``distance`` (first index
    wins exact ties).
    """
    _, result = anchor_transport(model, [doc], config)
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


def _wmd_distances(test_doc: DocumentMeasure, train_corpus: list[DocumentMeasure], config) -> np.ndarray:
    return np.array(
        [
            sinkhorn(
                ground_cost_matrix(test_doc.support, neighbour.support),
                test_doc.weights,
                neighbour.weights,
                config,
            ).distance
            for neighbour in train_corpus
        ]
    )


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
    """
    if not train_corpus:
        raise ValueError("train corpus is empty")
    check_k_values(ks)
    labels = [doc.label for doc in train_corpus]
    all_dists = _ordered_map(lambda doc: _wmd_distances(doc, train_corpus, config), test_docs, threads)
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["doc_id", "true_label", "predicted_label"]
            + [f"dist_class_{k}" for k in range(num_classes)]
        )
        for doc_id, truth, pred in zip(doc_ids, truths, predictions):
            writer.writerow(
                [doc_id, truth, pred.predicted_class]
                + [repr(float(d)) for d in pred.anchor_distances]
            )
