"""Word-level interpretation of a trained model.

A word matters for a class when its transformed vector sits close to that
class's anchor and far from every other anchor. The importance of a word for
class y aggregates that margin: the sum of its minimum squared distances to
the other anchors minus (Y - 1) times its distance to the class-y anchor,
so the per-word importances over all classes always sum to zero. The same
squared Euclidean metric as the transport ground cost is used throughout.
"""

from __future__ import annotations

import logging
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import Corpus
from .model import AnchorModel, anchor_columns
from .ot import ground_cost_matrix

__all__ = [
    "ImportanceTable",
    "compute_importance_table",
    "top_k_words",
    "tfidf_top_words",
    "tfidf_rankings",
    "pca_2d",
    "export_projection",
]

logger = logging.getLogger(__name__)


def _anchor_scores(points: np.ndarray, anchors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum anchor distances and importances of (d, N) points, both (N, Y).

    ``D[i, k]`` is the smallest squared distance from point i to a column of
    anchor k; the importance of point i for class y is
    ``sum_{k != y} D[i, k] - (Y - 1) * D[i, y]``.
    """
    num_classes, _, p = anchors.shape
    cost = ground_cost_matrix(points, anchor_columns(anchors))
    min_dists = cost.reshape(-1, num_classes, p).min(axis=2)
    return min_dists, min_dists.sum(axis=1, keepdims=True) - num_classes * min_dists


@dataclass
class ImportanceTable:
    """Per-word, per-class importances and minimum anchor distances.

    ``min_distances`` and ``importances`` have shape (V, Y) aligned with
    ``words`` and ``class_names``. Rows satisfy the zero-sum identity:
    each word's importances over the classes sum to zero.
    """

    words: list[str]
    class_names: list[str]
    min_distances: np.ndarray
    importances: np.ndarray

    def write_tsv(self, path: str) -> None:
        """One row per (word, class): word, class, importance, then the word's Y distances."""
        names = self.class_names
        importances = np.asarray(self.importances, dtype=float).tolist()
        min_distances = np.asarray(self.min_distances, dtype=float).tolist()
        with open(path, "w", encoding="utf-8") as fh:
            header = ["word", "class", "importance"] + [f"D_{k}" for k in range(len(names))]
            fh.write("\t".join(header) + "\n")
            for word, scores, dists in zip(self.words, importances, min_distances):
                # the D_k columns are the same on all Y rows of a word: format them once
                tail = "\t".join(map(repr, dists)) + "\n"
                fh.write("".join(f"{word}\t{name}\t{score!r}\t{tail}" for name, score in zip(names, scores)))


def compute_importance_table(
    model: AnchorModel, words: list[str], word_vectors: np.ndarray
) -> ImportanceTable:
    """Score every word against every class anchor.

    ``word_vectors`` is a (V, d) matrix of raw (untransformed) vectors
    aligned with ``words``; they are pushed through the model transform
    before scoring.
    """
    vectors = np.asarray(word_vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[0] != len(words):
        raise ValueError("word_vectors must be (len(words), d)")
    min_dists, importances = _anchor_scores(model.transform @ vectors.T, model.anchors)
    return ImportanceTable(
        words=list(words),
        class_names=list(model.class_names),
        min_distances=min_dists,
        importances=importances,
    )


def top_k_words(table: ImportanceTable, class_id: int, k: int) -> list[tuple[str, float]]:
    """The k most important words for a class, ties broken alphabetically.

    Only the words scoring at least the k-th best score (ties included) are
    sorted, so the result equals the first k of a full sort.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not (0 <= class_id < len(table.class_names)):
        raise ValueError(f"class id {class_id} out of range")
    num_words = len(table.words)
    if k > num_words:
        warnings.warn(
            f"requested top-{k} but the vocabulary has {num_words} words; returning all",
            stacklevel=2,
        )
        k = num_words
    column = np.asarray(table.importances)[:, class_id]
    candidates = np.arange(num_words)
    if k < num_words:
        kth_best = np.partition(column, num_words - k)[num_words - k]
        candidates = np.flatnonzero(column >= kth_best)
    scored = sorted(
        zip([table.words[i] for i in candidates], column[candidates].tolist()),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return [(word, float(score)) for word, score in scored[:k]]


def tfidf_top_words(corpus: Corpus, class_id: int, k: int) -> list[tuple[str, float]]:
    """Class-level TF-IDF ranking, treating each class as one big document.

    TF is the term's count inside the class divided by the class token
    total; IDF is ``ln(Y / (1 + number of classes containing the term)) + 1``
    over the Y-class collection.
    """
    return tfidf_rankings(corpus, k, [class_id])[0]


def tfidf_rankings(corpus: Corpus, k: int, class_ids=None) -> list[list[tuple[str, float]]]:
    """:func:`tfidf_top_words` of each of ``class_ids`` (default: every class) from one corpus count."""
    if k < 1:
        raise ValueError("k must be at least 1")
    class_counts = corpus.class_token_counts()
    doc_freq = Counter()
    for counts in class_counts:
        doc_freq.update(set(counts))
    num_classes = corpus.num_classes
    rankings = []
    for class_id in range(num_classes) if class_ids is None else class_ids:
        if not (0 <= class_id < num_classes):
            raise ValueError(f"class id {class_id} out of range")
        own = class_counts[class_id]
        if not own:
            raise ValueError(f"class {corpus.class_names[class_id]!r} has no documents")
        total = sum(own.values())
        scored = []
        for term, count in own.items():
            tf = count / total
            idf = np.log(num_classes / (1 + doc_freq[term])) + 1.0
            scored.append((term, float(tf * idf)))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        rankings.append(scored[: min(k, len(scored))])
    return rankings


def pca_2d(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project rows onto their top two principal components.

    Returns (projections (N, 2), components (2, d)). If the centered data
    has rank below two the missing coordinate is zero-padded with a warning.
    Component signs are fixed so the dominant loading is positive.

    A tall input (more rows than columns) is reduced to the (d, d) R factor
    of its QR decomposition first: R has the same singular values and right
    singular vectors as the centered data (Chan 1982).
    """
    pts = np.asfortranarray(points, dtype=float)  # one layout, so C and Fortran inputs give the same bits
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array of row vectors")
    centered = pts - pts.mean(axis=0, keepdims=True)
    factor = np.linalg.qr(centered, mode="r") if centered.shape[0] > centered.shape[1] else centered
    _, singular, vt = np.linalg.svd(factor, full_matrices=False)
    cutoff = singular[0] * 1e-12 if singular.size else 0.0
    rank = int(np.sum(singular > cutoff))
    components = np.zeros((2, pts.shape[1]))
    take = min(2, rank, vt.shape[0])
    components[:take] = vt[:take]
    if take < 2:
        warnings.warn(
            f"projection input has rank {take}; padding with a zero coordinate",
            stacklevel=2,
        )
    for row in range(take):
        lead = np.argmax(np.abs(components[row]))
        if components[row, lead] < 0:
            components[row] = -components[row]
    return centered @ components.T, components


def export_projection(
    model: AnchorModel,
    table: ImportanceTable,
    word_vectors: np.ndarray,
    top_words_per_class: int,
    path: str,
) -> int:
    """Write a 2-D map of anchors and each class's top words as TSV.

    The principal components are fitted on the union of all transformed
    vocabulary vectors and all anchor columns; rows are written for every
    anchor column and for the ``top_words_per_class`` highest-importance
    words of each class. Returns the number of rows written.
    """
    vectors = np.asarray(word_vectors, dtype=float)
    transformed = (model.transform @ vectors.T).T  # (V, d)
    columns = anchor_columns(model.anchors)  # (d, Y p)
    _, anchor_importances = _anchor_scores(columns, model.anchors)
    projections, _ = pca_2d(np.concatenate([transformed, columns.T]))
    word_proj = projections[: len(table.words)]
    anchor_proj = projections[len(table.words) :]

    word_row = {word: i for i, word in enumerate(table.words)}
    p = model.num_support_points
    rows = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("kind\tclass\tlabel\tpc1\tpc2\timportance\n")
        for k, class_name in enumerate(model.class_names):
            for j in range(p):
                x, y = anchor_proj[k * p + j]
                fh.write(
                    f"anchor\t{class_name}\tanchor{j:02d}\t{float(x)!r}\t{float(y)!r}\t"
                    f"{float(anchor_importances[k * p + j, k])!r}\n"
                )
                rows += 1
            for word, score in top_k_words(table, k, top_words_per_class):
                x, y = word_proj[word_row[word]]
                fh.write(f"word\t{class_name}\t{word}\t{float(x)!r}\t{float(y)!r}\t{score!r}\n")
                rows += 1
    logger.info("wrote %d projection rows to %s", rows, path)
    return rows
