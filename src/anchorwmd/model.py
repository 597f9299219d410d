"""Learnable embedding objects: a linear word transform and per-class anchors.

A document is an empirical measure over embedded word vectors; each class is
represented by an anchor, a point cloud of ``p`` support columns carrying a
uniform measure. The transform is a dense square matrix applied column-wise
to word vectors. The model's one computation, a document against every
anchor, is in two steps: :func:`anchor_cost_rows` embeds raw word vectors
and costs each against every anchor column, and :func:`transport_cost_rows`
solves documents' cost rows against every class anchor as one Sinkhorn
stack padded to the longest document. Training, nearest-anchor
classification and interpretation all call the first step, and the first
two solve with the second. Training costs each distinct word of a batch
once (:class:`DistinctWords`) and solves fixed-size stacks of consecutive
documents from those rows, so a document's values depend on the batch and
on document order but never on the worker count; classification solves
each document as a stack of one, with no padding; interpretation reduces
each vocabulary word's cost row to its nearest column of every anchor.
"""

from __future__ import annotations

import json
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .floattext import _join_reprs
from .ot import (
    SinkhornConfig,
    SinkhornResult,
    _squared_norms,
    ground_cost_matrix,
    sinkhorn_stack,
    validate_histogram,
)

__all__ = [
    "DocumentMeasure",
    "DistinctWords",
    "AnchorModel",
    "anchor_columns",
    "anchor_cost_rows",
    "distinct_words",
    "init_anchors",
    "save_checkpoint",
    "load_checkpoint",
    "transport_cost_rows",
]


@dataclass(frozen=True)
class DocumentMeasure:
    """A document as an empirical measure over word vectors.

    ``support`` holds one embedded word vector per column, ``weights`` is the
    normalized word histogram aligned with those columns, and ``word_ids``
    are the vocabulary indices of the words. Instances are value objects:
    the arrays are frozen after construction.
    """

    word_ids: np.ndarray
    support: np.ndarray
    weights: np.ndarray
    label: int | None = None

    def __post_init__(self):
        ids = np.array(self.word_ids, dtype=int)
        support = np.array(self.support, dtype=float)
        weights = validate_histogram(self.weights)
        if support.ndim != 2:
            raise ValueError(f"support must be (d, n), got shape {support.shape}")
        if not (support.shape[1] == weights.size == ids.size):
            raise ValueError(
                f"misaligned document: {support.shape[1]} support columns, "
                f"{weights.size} weights, {ids.size} word ids"
            )
        if not np.all(np.isfinite(support)):
            raise ValueError("support contains non-finite entries")
        for arr in (ids, support, weights):
            arr.setflags(write=False)
        object.__setattr__(self, "word_ids", ids)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.support.shape[0]

    @property
    def size(self) -> int:
        return self.support.shape[1]


@dataclass(frozen=True)
class DistinctWords:
    """The distinct word vectors of a list of documents, one row each.

    ``vectors`` is (V, d); ``rows[i]`` holds the row of ``vectors`` of each
    support column of document i, so ``vectors[rows[i]].T`` equals its
    support. Built by :func:`distinct_words`.
    """

    vectors: np.ndarray
    rows: list[np.ndarray]

    def take(self, indices) -> DistinctWords:
        """The same table for the documents at ``indices``, in that order."""
        return DistinctWords(self.vectors, [self.rows[i] for i in indices])


def distinct_words(docs: list[DocumentMeasure]) -> DistinctWords:
    """One row per distinct ``word_id`` of ``docs``, filled and checked document by document.

    Each id's row is its first column. Every document's support must then
    equal its rows by value; if some id carries two different vectors, every
    support column becomes its own row instead.
    """
    dim = docs[0].dim
    for doc in docs:
        if doc.dim != dim:
            raise ValueError(f"document dimension {doc.dim} does not match the first document's {dim}")
    splits = np.cumsum([doc.size for doc in docs])[:-1]
    ids = np.concatenate([doc.word_ids for doc in docs])
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    is_first = np.zeros(ids.size, dtype=bool)
    is_first[first] = True
    rows = np.split(inverse, splits)
    vectors = np.empty((first.size, dim))
    for doc, doc_rows, doc_first in zip(docs, rows, np.split(is_first, splits)):
        vectors[doc_rows[doc_first]] = doc.support.T[doc_first]
    if not all(np.array_equal(vectors[doc_rows], doc.support.T) for doc, doc_rows in zip(docs, rows)):
        vectors = np.concatenate([doc.support.T for doc in docs])
        rows = np.split(np.arange(ids.size), splits)
    return DistinctWords(vectors, rows)


@dataclass(frozen=True)
class AnchorModel:
    """The trained model: transform matrix plus one anchor per class.

    ``transform`` is (d, d); ``anchors`` is (num_classes, d, p) with one
    uniform-measure point cloud per class. Instances are value objects: they
    hold their own read-only copies of the arrays. ``anchors`` is laid out in
    (d, num_classes, p) memory order, so :func:`anchor_columns` of it is a
    view, and ``column_sq_norms`` holds the squared norms of those columns,
    computed once for every ground cost against the anchors.
    """

    transform: np.ndarray
    anchors: np.ndarray
    class_names: list[str]
    vocab_hash: str = ""
    column_sq_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        transform = np.array(self.transform, dtype=float)
        anchors = np.asarray(self.anchors, dtype=float)
        if transform.ndim != 2 or transform.shape[0] != transform.shape[1]:
            raise ValueError(f"transform must be square, got shape {transform.shape}")
        if anchors.ndim != 3 or anchors.shape[2] < 1:
            raise ValueError(f"anchors must be (num_classes, d, p >= 1), got shape {anchors.shape}")
        if anchors.shape[1] != transform.shape[0]:
            raise ValueError(
                f"anchor dimension {anchors.shape[1]} does not match "
                f"transform dimension {transform.shape[0]}"
            )
        if len(self.class_names) != anchors.shape[0]:
            raise ValueError("one class name per anchor required")
        if len(set(self.class_names)) != len(self.class_names):
            raise ValueError(f"class names must be distinct, got {list(self.class_names)}")
        if not (np.all(np.isfinite(transform)) and np.all(np.isfinite(anchors))):
            raise ValueError("model parameters must be finite")
        columns = np.array(anchors.transpose(1, 0, 2), order="C")
        transform.setflags(write=False)
        columns.setflags(write=False)
        anchors = columns.transpose(1, 0, 2)
        # an overflow leaves inf norms for the solver's cost check to report once
        with np.errstate(over="ignore"):
            sq_norms = _squared_norms(anchor_columns(anchors))
        sq_norms.setflags(write=False)
        object.__setattr__(self, "transform", transform)
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "class_names", list(self.class_names))
        object.__setattr__(self, "column_sq_norms", sq_norms)

    @property
    def dim(self) -> int:
        return self.transform.shape[0]

    @property
    def num_classes(self) -> int:
        return self.anchors.shape[0]

    @property
    def num_support_points(self) -> int:
        return self.anchors.shape[2]

    def embed(self, points: np.ndarray) -> np.ndarray:
        """``transform @ points`` for (d, N) word vectors; a product that overflows is a ``ValueError``."""
        with np.errstate(over="ignore", invalid="ignore"):
            embedded = self.transform @ points
        if not np.isfinite(embedded).all():
            raise ValueError("transformed word vectors are not finite: the word vectors or the model are too large")
        return embedded


def anchor_columns(anchors: np.ndarray) -> np.ndarray:
    """(Y, d, p) anchors as one (d, Y * p) matrix, class-major: anchor k is columns k*p to (k+1)*p."""
    num_classes, dim, p = anchors.shape
    return anchors.transpose(1, 0, 2).reshape(dim, num_classes * p)


def anchor_cost_rows(model: AnchorModel, points: np.ndarray) -> np.ndarray:
    """Embed (d, N) raw word vectors and cost each against every anchor column.

    Returns their (N, Y * p) cost rows: the squared distances from
    ``model.transform @ points`` to all anchor columns, in
    :func:`anchor_columns` order, with the model's column norms. Points whose
    dimension is not the model's are a ``ValueError``, as is an embedding
    that overflows (:meth:`AnchorModel.embed`).
    """
    if points.shape[0] != model.dim:
        raise ValueError(f"word vector dimension {points.shape[0]} does not match model dimension {model.dim}")
    return ground_cost_matrix(model.embed(points), anchor_columns(model.anchors), model.column_sq_norms)


def transport_cost_rows(
    model: AnchorModel, costs: list[np.ndarray], weights: list[np.ndarray], config: SinkhornConfig | None = None
) -> SinkhornResult:
    """Solve documents against every class anchor from their cost rows, as one padded stack.

    ``costs[i]`` is document i's (n_i, Y * p) rows from
    :func:`anchor_cost_rows` and ``weights[i]`` its histogram. Each
    document's rows are copied into its Y (n_i, p) class slices, with zeros
    after them, and all are solved as one stack padded to the longest
    document, under the uniform measure 1/p on each anchor's columns. A
    stack of one document has no padding and passes its histogram once.

    Returns one stacked :class:`SinkhornResult` over the ``len(costs) * Y``
    problems, document-major: problem ``i * Y + k`` is document i against
    anchor k. Its plans are (len(costs) * Y, n_max, p): a plan's rows past
    its document's n_i are 0, and a document's values depend in their last
    bits on n_max. Training ranks classes by ``reg_distance`` (the value its
    gradient differentiates); nearest-anchor classification takes the argmin
    of ``distance``, which is the rule that ranks under relative epsilon,
    where the entropy term of ``reg_distance`` grows with epsilon and
    favours far anchors.
    """
    num_docs, num_classes, p = len(costs), model.num_classes, model.num_support_points
    n_max = max(len(rows) for rows in costs)
    stack = np.empty((num_docs, num_classes, n_max, p))
    source = np.zeros((num_docs, n_max))
    for i, (rows, doc_weights) in enumerate(zip(costs, weights)):
        size = len(rows)
        stack[i, :, :size] = rows.reshape(size, num_classes, p).transpose(1, 0, 2)
        stack[i, :, size:] = 0.0
        source[i, :size] = doc_weights
    source = weights[0] if num_docs == 1 else np.repeat(source, num_classes, axis=0)
    return sinkhorn_stack(stack.reshape(-1, n_max, p), source, np.full(p, 1.0 / p), config)


def _stack_rows(sizes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """For documents of ``sizes`` words side by side, each word's document and its row in the padded stack."""
    doc = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.cumsum(sizes) - sizes
    return doc, np.arange(doc.size) - starts[doc]


def _ordered_map(fn, items: list, threads: int) -> list:
    """``[fn(item) for item in items]``, spread over up to ``threads`` workers.

    Results come back in input order whatever the worker count, so callers
    that reduce them in that order get identical sums at any thread count.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if threads == 1 or len(items) < 2:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


def _distinct_rows(points: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(points, axis=0)`` and how many rows of ``points`` equal each.

    Row i of ``points`` stands for ``counts[i]`` rows, and the counts of
    equal rows are summed. One lexicographic sort on a prefix of the
    columns, one column first and doubled until rows that tie on the prefix
    are equal in full: then the prefix order is the full row order, and
    equal rows are neighbours.
    """
    dim = points.shape[1]
    width = 1
    while True:
        # np.lexsort sorts by its last key first
        order = np.lexsort(points[:, width - 1 :: -1].T)
        prefix = points[order, :width]
        tied = (prefix[1:] == prefix[:-1]).all(axis=1)
        if width == dim or np.array_equal(points[order[1:][tied]], points[order[:-1][tied]]):
            break
        width = min(2 * width, dim)
    starts = np.flatnonzero(np.concatenate(([True], ~tied)))
    # -0.0 sorts and compares equal to 0.0; as 0.0 a group's row holds np.unique's bytes
    return points[order[starts]] + 0.0, np.add.reduceat(counts[order], starts)


_KMEANS_MAX_ITERS = 50


def _kmeans_centroids(points: np.ndarray, k: int, rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
    """Lloyd's algorithm over row vectors, seeded and deterministic.

    Row i of ``points`` stands for ``counts[i]`` rows. Runs over the
    distinct rows, each weighted by how often it occurs, which gives the
    same clusters as Lloyd over every row, for at most
    ``_KMEANS_MAX_ITERS`` iterations. Initial centroids are distinct
    rows drawn without replacement; if fewer than ``k`` distinct rows exist,
    centroids are duplicated with a small seeded jitter. Empty clusters
    restart at the row currently farthest from its centroid.
    """
    distinct, counts = _distinct_rows(points, counts)
    num_distinct = distinct.shape[0]
    if num_distinct < k:
        reps = -(-k // num_distinct)  # ceil
        base = np.tile(distinct, (reps, 1))[:k]
        return base + 1e-4 * rng.standard_normal(base.shape)

    start = rng.choice(num_distinct, size=k, replace=False)
    centroids = distinct[start].copy()
    # an overflow leaves NaN distances; the anchors' first solve reports it once
    with np.errstate(over="ignore", invalid="ignore"):
        sq_pts = np.einsum("nd,nd->n", distinct, distinct)
    rows = np.arange(num_distinct)
    for _ in range(_KMEANS_MAX_ITERS):
        with np.errstate(over="ignore", invalid="ignore"):
            sq_cent = np.einsum("kd,kd->k", centroids, centroids)
            dist2 = sq_pts[:, None] + sq_cent[None, :] - 2.0 * (distinct @ centroids.T)
        assign = dist2.argmin(axis=1)
        sizes = np.bincount(assign, weights=counts, minlength=k)
        weights = np.zeros((k, num_distinct))
        weights[assign, rows] = counts / sizes[assign]
        new_centroids = weights @ distinct
        empty = sizes == 0
        if empty.any():
            new_centroids[empty] = distinct[dist2[rows, assign].argmax()]
        if np.array_equal(new_centroids, centroids):
            break
        centroids = new_centroids
    return centroids


def init_anchors(
    corpus: list[DocumentMeasure], num_classes: int, p: int, seed: int, words: DistinctWords | None = None
) -> np.ndarray:
    """Cluster each class's word vectors into ``p`` anchor support points.

    Runs seeded k-means per class over the multiset of support columns of
    that class's documents: Lloyd iterates over the class's distinct word
    vectors, each weighted by how often it occurs among those columns.
    ``words`` is the corpus's :func:`distinct_words` table, built here when
    not given: a class's rows of it are counted first, and equal vectors
    under different ids are then merged with their counts summed, so the
    centroids are those of the columns themselves, to the bit. Returns a
    (num_classes, d, p) array of centroid columns.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if not corpus:
        raise ValueError("corpus is empty")
    if words is None:
        words = distinct_words(corpus)
    anchors = np.empty((num_classes, words.vectors.shape[1], p))
    for label in range(num_classes):
        rows = [doc_rows for doc, doc_rows in zip(corpus, words.rows) if doc.label == label]
        if not rows:
            raise ValueError(f"class {label} has no documents")
        distinct, counts = np.unique(np.concatenate(rows), return_counts=True)
        rng = np.random.default_rng([seed, label])
        anchors[label] = _kmeans_centroids(words.vectors[distinct], p, rng, counts).T
    return anchors


def save_checkpoint(model: AnchorModel, path: str) -> None:
    """Write the model as a single JSON document, atomically.

    The bytes are ``json.dumps(payload, sort_keys=True)`` of the header,
    names and nested-list arrays, written a field at a time; every float is
    its ``repr``, from :func:`~anchorwmd.floattext._join_reprs`.
    """
    fields = {
        "dim": model.dim,
        "num_classes": model.num_classes,
        "p": model.num_support_points,
        "transform": model.transform,
        "anchors": model.anchors,
        "class_names": list(model.class_names),
        "vocab_hash": model.vocab_hash,
    }
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".checkpoint-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write("{")
            for i, key in enumerate(sorted(fields)):
                fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
                value = fields[key]
                if isinstance(value, np.ndarray):
                    _write_json_array(fh, value)
                else:
                    fh.write(json.dumps(value))
            fh.write("}")
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _write_json_array(fh, values: np.ndarray) -> None:
    """``json.dump(values.tolist(), fh)`` for a float array of at least two dimensions."""
    if values.ndim > 2:
        fh.write("[")
        for i, part in enumerate(values):
            fh.write(", " if i else "")
            _write_json_array(fh, part)
        fh.write("]")
    elif len(values):
        fh.write(f"[[{_join_reprs(values, ', ', '], [')}]]")
    else:
        fh.write("[]")


_CHECKPOINT_KEYS = ("transform", "anchors", "class_names", "num_classes", "dim", "p")


def _checkpoint_array(payload: dict, key: str) -> np.ndarray:
    try:
        values = np.asarray(payload[key])
    except ValueError:  # ragged nesting
        values = None
    if values is None or values.dtype.kind not in "iuf":
        raise ValueError(f"checkpoint {key!r} must be a numeric array")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"checkpoint {key!r} contains non-finite entries")
    return values.astype(float)


def load_checkpoint(path: str) -> AnchorModel:
    """Read a model checkpoint written by :func:`save_checkpoint`.

    Raises ``ValueError`` naming the offending key when the file lacks a key
    or holds a value of the wrong type.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply to decode
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint must be a JSON object, got a JSON {type(payload).__name__}")
    missing = [key for key in _CHECKPOINT_KEYS if key not in payload]
    if missing:
        raise ValueError(f"checkpoint is missing keys: {missing}")
    for key in ("num_classes", "dim", "p"):
        if type(payload[key]) is not int:
            raise ValueError(f"checkpoint {key!r} must be an integer, got {payload[key]!r}")
    names = payload["class_names"]
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
        raise ValueError("checkpoint 'class_names' must be a list of strings")
    vocab_hash = payload.get("vocab_hash", "")
    if not isinstance(vocab_hash, str):
        raise ValueError("checkpoint 'vocab_hash' must be a string")
    model = AnchorModel(
        transform=_checkpoint_array(payload, "transform"),
        anchors=_checkpoint_array(payload, "anchors"),
        class_names=names,
        vocab_hash=vocab_hash,
    )
    expected = (payload["num_classes"], payload["dim"], payload["p"])
    if model.anchors.shape != expected:
        raise ValueError(
            f"checkpoint anchors shape {model.anchors.shape} does not match header {expected}"
        )
    return model
