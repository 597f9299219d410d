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

from .data import Corpus, _name_non_finite_word, _write_table
from .floattext import _write_labelled_rows
from .model import AnchorModel, anchor_columns, anchor_cost_rows
from .ot import _check_count, ground_cost_matrix

__all__ = [
    "ImportanceTable",
    "compute_importance_table",
    "top_k_words",
    "importance_rankings",
    "tfidf_top_words",
    "tfidf_rankings",
    "pca_2d",
    "projection_rows",
    "write_projection",
    "export_projection",
]

logger = logging.getLogger(__name__)


def _anchor_scores(cost: np.ndarray, model: AnchorModel) -> tuple[np.ndarray, np.ndarray]:
    """Minimum anchor distances and importances of N points from their (N, Y * p) cost rows, both (N, Y).

    ``cost`` holds each point's squared distances to the anchor columns of
    ``model``, in :func:`~anchorwmd.model.anchor_columns` order. ``D[i, k]``
    is the smallest of point i's distances to a column of anchor k; the
    importance of point i for class y is ``sum_{k != y} D[i, k] - (Y - 1) * D[i, y]``.
    """
    num_classes, p = model.num_classes, model.num_support_points
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
        """One row per word: the word, its importances ``I_k``, then its distances ``D_k``.

        Column k is class k of ``class_names``; every value is written as
        ``repr(float(x))``, and a value that is not finite is a ``ValueError``.
        """
        num_classes = len(self.class_names)
        importances = np.asarray(self.importances, dtype=float)
        min_distances = np.asarray(self.min_distances, dtype=float)
        if not (np.isfinite(importances).all() and np.isfinite(min_distances).all()):
            raise ValueError("importance table values must be finite")
        with open(path, "w", encoding="utf-8") as fh:
            header = ["word"] + [f"I_{k}" for k in range(num_classes)] + [f"D_{k}" for k in range(num_classes)]
            fh.write("\t".join(header) + "\n")
            _write_labelled_rows(fh, self.words, np.concatenate((importances, min_distances), axis=1), "\t")


def compute_importance_table(
    model: AnchorModel, words: list[str], word_vectors: np.ndarray
) -> ImportanceTable:
    """Score every word against every class anchor.

    ``word_vectors`` is a (V, d) matrix of raw (untransformed) vectors
    aligned with ``words``, costed against every anchor column by
    :func:`~anchorwmd.model.anchor_cost_rows`, as training and
    classification cost a document's words. Vectors of another dimension
    than the model's, or so large that the transformed vectors or their
    anchor distances are not finite, raise ``ValueError``; so does a vector
    that is not finite, naming the first such word.
    """
    vectors = np.asarray(word_vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[0] != len(words):
        raise ValueError("word_vectors must be (len(words), d)")
    try:
        # an overflow is reported once, as the error below, not as a warning per operation
        with np.errstate(over="ignore", invalid="ignore"):
            min_dists, importances = _anchor_scores(anchor_cost_rows(model, vectors.T), model)
    except ValueError:
        _name_non_finite_word(words, vectors)
        raise
    if not (np.isfinite(min_dists).all() and np.isfinite(importances).all()):
        raise ValueError("word-to-anchor distances are not finite: the word vectors or the model are too large")
    return ImportanceTable(
        words=list(words),
        class_names=list(model.class_names),
        min_distances=min_dists,
        importances=importances,
    )


def _capped_k(k: int, num_words: int) -> int:
    """``k`` capped at the vocabulary size, with a warning, for the caller's caller, when above it."""
    if k > num_words:
        warnings.warn(f"requested top-{k} but the vocabulary has {num_words} words; returning all", stacklevel=3)
        return num_words
    return k


def importance_rankings(table: ImportanceTable, k: int) -> list[list[tuple[str, float]]]:
    """:func:`top_k_words` of every class; a ``k`` above the vocabulary size warns once, not per class."""
    _check_count("k", k, 1)
    k = _capped_k(k, len(table.words))
    return [top_k_words(table, class_id, k) for class_id in range(len(table.class_names))]


def top_k_words(table: ImportanceTable, class_id: int, k: int) -> list[tuple[str, float]]:
    """The k most important words for a class, ties broken alphabetically.

    Only the words scoring at least the k-th best score (ties included) are
    sorted, so the result equals the first k of a full sort.
    """
    _check_count("k", k, 1)
    if not (0 <= class_id < len(table.class_names)):
        raise ValueError(f"class id {class_id} out of range")
    num_words = len(table.words)
    k = _capped_k(k, num_words)
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
    _check_count("k", k, 1)
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

    Returns (projections (N, 2), components (2, d)). Component signs are
    fixed so the dominant loading is positive.

    The components are the top two eigenvectors of the (d, d) scatter
    matrix of the centered rows. An eigenvalue counts toward the rank when
    it exceeds 1e-13 times the largest (a singular-value ratio of about
    3e-7, the scatter's resolution); below rank two the missing coordinate
    is zero-padded with a warning. A scatter that is not finite, or one
    with an eigenvalue that is not, is a ``ValueError``.
    """
    # a copy in one layout, so C and Fortran inputs give the same bits
    return _pca_2d_in_place(np.array(points, dtype=float, order="F"))


def _pca_2d_in_place(centered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`pca_2d` of a Fortran-order float array, which it centers in place."""
    if centered.ndim != 2:
        raise ValueError("points must be a 2-D array of row vectors")
    with np.errstate(over="ignore", invalid="ignore"):
        centered -= centered.mean(axis=0, keepdims=True)
        scatter = centered.T @ centered
    if not np.isfinite(scatter).all():
        raise ValueError("the projection's scatter matrix is not finite: its input is not finite or too large")
    eigenvalues, eigenvectors = np.linalg.eigh(scatter)
    if not np.isfinite(eigenvalues).all():
        # a finite scatter near the overflow threshold can still have an infinite eigenvalue
        raise ValueError("the projection's scatter matrix has an eigenvalue that is not finite: its input is too large")
    eigenvalues, eigenvectors = eigenvalues[::-1], eigenvectors[:, ::-1]
    cutoff = eigenvalues[0] * 1e-13 if eigenvalues.size else 0.0
    take = min(2, int(np.sum(eigenvalues > cutoff)))
    components = np.zeros((2, centered.shape[1]))
    components[:take] = eigenvectors[:, :take].T
    if take < 2:
        warnings.warn(
            f"projection input has rank {take}; padding with a zero coordinate",
            stacklevel=3,
        )
    for row in range(take):
        lead = np.argmax(np.abs(components[row]))
        if components[row, lead] < 0:
            components[row] = -components[row]
    return centered @ components.T, components


def projection_rows(
    model: AnchorModel,
    table: ImportanceTable,
    word_vectors: np.ndarray,
    rankings: list[list[tuple[str, float]]],
) -> list[tuple[str, str, str, float, float, float]]:
    """The rows of a 2-D map of anchors and ranked words: kind, class, label, pc1, pc2, importance.

    The principal components are fitted on the union of all transformed
    vocabulary vectors (``word_vectors``, aligned with ``table.words``) and
    all anchor columns. Per class, in the model's class order, come a row for
    each anchor column and then one for each word of ``rankings[class]``, a
    :func:`top_k_words` list. A projection that overflows is a
    ``ValueError``, as in :func:`pca_2d`.
    """
    vectors = np.asarray(word_vectors, dtype=float)
    columns = anchor_columns(model.anchors)  # (d, Y p)
    # the anchor columns are already embedded: their costs come straight from ground_cost_matrix
    _, anchor_importances = _anchor_scores(ground_cost_matrix(columns, columns, model.column_sq_norms), model)
    # the PCA input built once, in pca_2d's layout: transformed words, then anchor columns
    num_words = vectors.shape[0]
    points = np.empty((num_words + columns.shape[1], columns.shape[0]), order="F")
    np.matmul(model.transform, vectors.T, out=points[:num_words].T)  # no (d, V) temporary
    points[num_words:] = columns.T
    projections, _ = _pca_2d_in_place(points)
    word_proj = projections[: len(table.words)]
    anchor_proj = projections[len(table.words) :]

    word_row = {word: i for i, word in enumerate(table.words)}
    p = model.num_support_points
    rows = []
    for k, class_name in enumerate(model.class_names):
        for j in range(p):
            x, y = anchor_proj[k * p + j].tolist()
            rows.append(("anchor", class_name, f"anchor{j:02d}", x, y, float(anchor_importances[k * p + j, k])))
        for word, score in rankings[k]:
            x, y = word_proj[word_row[word]].tolist()
            rows.append(("word", class_name, word, x, y, score))
    return rows


def write_projection(rows: list[tuple[str, str, str, float, float, float]], path: str) -> int:
    """Write :func:`projection_rows` as TSV with a header; returns the number of rows written."""
    _write_table(path, ["kind", "class", "label", "pc1", "pc2", "importance"], rows, delimiter="\t")
    logger.info("wrote %d projection rows to %s", len(rows), path)
    return len(rows)


def export_projection(
    model: AnchorModel,
    table: ImportanceTable,
    word_vectors: np.ndarray,
    top_words_per_class: int,
    path: str,
) -> int:
    """Write the 2-D map of anchors and each class's ``top_words_per_class`` words as TSV.

    Ranks every class with :func:`importance_rankings`, then writes
    :func:`projection_rows` with :func:`write_projection`. Returns the number
    of rows written.
    """
    rankings = importance_rankings(table, top_words_per_class)
    return write_projection(projection_rows(model, table, word_vectors, rankings), path)
