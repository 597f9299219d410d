"""Learnable embedding objects: a linear word transform and per-class anchors.

A document is an empirical measure over embedded word vectors; each class is
represented by an anchor, a point cloud of ``p`` support columns carrying a
uniform measure. The transform is a dense square matrix applied column-wise
to word vectors. :func:`anchor_transport` is the model's one computation:
a list of documents' embedded words transported to every class anchor, as
one Sinkhorn stack padded to the longest document. Training and
nearest-anchor classification are two readings of it. Training solves
fixed-size stacks of consecutive documents, so a document's values depend
on document order but never on the worker count; classification solves
each document as a stack of one, with no padding.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ot import (
    SinkhornConfig,
    SinkhornResult,
    ground_cost_matrix,
    sinkhorn_stack,
    validate_histogram,
)

__all__ = [
    "DocumentMeasure",
    "AnchorModel",
    "anchor_columns",
    "anchor_transport",
    "init_anchors",
    "save_checkpoint",
    "load_checkpoint",
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


@dataclass
class AnchorModel:
    """The trained model: transform matrix plus one anchor per class.

    ``transform`` is (d, d); ``anchors`` is (num_classes, d, p) with one
    uniform-measure point cloud per class.
    """

    transform: np.ndarray
    anchors: np.ndarray
    class_names: list[str]
    vocab_hash: str = ""

    def __post_init__(self):
        self.transform = np.asarray(self.transform, dtype=float)
        self.anchors = np.asarray(self.anchors, dtype=float)
        if self.transform.ndim != 2 or self.transform.shape[0] != self.transform.shape[1]:
            raise ValueError(f"transform must be square, got shape {self.transform.shape}")
        if self.anchors.ndim != 3 or self.anchors.shape[2] < 1:
            raise ValueError(f"anchors must be (num_classes, d, p >= 1), got shape {self.anchors.shape}")
        if self.anchors.shape[1] != self.transform.shape[0]:
            raise ValueError(
                f"anchor dimension {self.anchors.shape[1]} does not match "
                f"transform dimension {self.transform.shape[0]}"
            )
        if len(self.class_names) != self.anchors.shape[0]:
            raise ValueError("one class name per anchor required")
        if len(set(self.class_names)) != len(self.class_names):
            raise ValueError(f"class names must be distinct, got {list(self.class_names)}")
        if not (np.all(np.isfinite(self.transform)) and np.all(np.isfinite(self.anchors))):
            raise ValueError("model parameters must be finite")

    @property
    def dim(self) -> int:
        return self.transform.shape[0]

    @property
    def num_classes(self) -> int:
        return self.anchors.shape[0]

    @property
    def num_support_points(self) -> int:
        return self.anchors.shape[2]


def anchor_columns(anchors: np.ndarray) -> np.ndarray:
    """(Y, d, p) anchors as one (d, Y * p) matrix, class-major: anchor k is columns k*p to (k+1)*p."""
    num_classes, dim, p = anchors.shape
    return anchors.transpose(1, 0, 2).reshape(dim, num_classes * p)


def anchor_transport(
    model: AnchorModel, docs: list[DocumentMeasure], config: SinkhornConfig | None = None
) -> tuple[np.ndarray, SinkhornResult]:
    """Transport raw documents' embedded words to every class anchor, as one padded stack.

    Returns the embedded supports ``model.transform @ support`` of all
    documents side by side, a (d, N) matrix with document i's n_i columns
    after those of the documents before it, and one stacked
    :class:`SinkhornResult` over the ``len(docs) * Y`` problems,
    document-major: problem ``i * Y + k`` is document i against anchor k,
    under the uniform measure 1/p on that anchor's columns. Its values are
    (len(docs) * Y,) and its plans (len(docs) * Y, n_max, p), padded to the
    longest document: a plan's rows past its document's n_i are 0. One
    embedding product runs over the concatenated supports and one ground
    cost against all Y * p anchor columns in :func:`anchor_columns` order;
    :func:`_stack_rows` places its rows in each document's Y (n_i, p) class
    slices, solved as one stack. A document's values depend in their last
    bits on n_max; a stack of one document has no padding. Training ranks
    classes by ``reg_distance`` (the value its gradient differentiates);
    nearest-anchor classification takes the argmin of ``distance``, which is
    the rule that ranks under relative epsilon, where the entropy term of
    ``reg_distance`` grows with epsilon and favours far anchors.
    """
    if not docs:
        raise ValueError("no documents to transport")
    for doc in docs:
        if doc.dim != model.dim:
            raise ValueError(f"document dimension {doc.dim} does not match model dimension {model.dim}")
    num_docs, num_classes, p = len(docs), model.num_classes, model.num_support_points
    sizes = [doc.size for doc in docs]
    n_max = max(sizes)
    target = np.full(p, 1.0 / p)
    # the anchor columns are formed after the embedding: in the other order
    # one-document solves measured 20-25% slower (allocation order alone)
    embedded = model.transform @ np.concatenate([doc.support for doc in docs], axis=1)
    cost = ground_cost_matrix(embedded, anchor_columns(model.anchors))
    doc_of_row, row = _stack_rows(sizes)
    stack = np.zeros((num_docs, num_classes, n_max, p))
    stack[doc_of_row, :, row] = cost.reshape(-1, num_classes, p)
    source = np.zeros((num_docs, n_max))
    source[doc_of_row, row] = np.concatenate([doc.weights for doc in docs])
    return embedded, sinkhorn_stack(stack.reshape(-1, n_max, p), np.repeat(source, num_classes, axis=0), target, config)


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


def _distinct_rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(points, axis=0)`` and how many rows of ``points`` equal each.

    Equal rows are merged first by counting their bytes, so the lexicographic
    sort only runs over distinct rows.
    """
    points = points + 0.0  # -0.0 becomes 0.0: finite rows have equal bytes exactly when they compare equal
    counts = Counter(row.tobytes() for row in points)
    rows = np.frombuffer(b"".join(counts), dtype=points.dtype).reshape(len(counts), -1)
    distinct = np.unique(rows, axis=0)
    return distinct, np.array([counts[row.tobytes()] for row in distinct])


_KMEANS_MAX_ITERS = 50


def _kmeans_centroids(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Lloyd's algorithm over row vectors, seeded and deterministic.

    Runs over the distinct rows, each weighted by how often it occurs, which
    gives the same clusters as Lloyd over every row, for at most ``_KMEANS_MAX_ITERS``
    iterations. Initial centroids are distinct rows drawn without replacement;
    if fewer than ``k`` distinct rows exist, centroids are duplicated with a
    small seeded jitter. Empty clusters restart at the row currently farthest
    from its centroid.
    """
    distinct, counts = _distinct_rows(points)
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
    corpus: list[DocumentMeasure], num_classes: int, p: int, seed: int
) -> np.ndarray:
    """Cluster each class's word vectors into ``p`` anchor support points.

    Runs seeded k-means per class over the multiset of support columns of
    that class's documents: Lloyd iterates over the class's distinct word
    vectors, each weighted by how often it occurs among those columns.
    Returns a (num_classes, d, p) array of centroid columns.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if not corpus:
        raise ValueError("corpus is empty")
    dim = corpus[0].dim
    anchors = np.empty((num_classes, dim, p))
    for label in range(num_classes):
        columns = [doc.support for doc in corpus if doc.label == label]
        if not columns:
            raise ValueError(f"class {label} has no documents")
        points = np.concatenate(columns, axis=1).T  # rows = word vectors
        rng = np.random.default_rng([seed, label])
        anchors[label] = _kmeans_centroids(points, p, rng).T
    return anchors


def save_checkpoint(model: AnchorModel, path: str) -> None:
    """Write the model as a single JSON document, atomically."""
    payload = {
        "dim": model.dim,
        "num_classes": model.num_classes,
        "p": model.num_support_points,
        "transform": model.transform.tolist(),
        "anchors": model.anchors.tolist(),
        "class_names": list(model.class_names),
        "vocab_hash": model.vocab_hash,
    }
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".checkpoint-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # json.dumps encodes in C in one pass; json.dump streams through the Python encoder
            fh.write(json.dumps(payload, sort_keys=True))
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


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
    except ValueError as exc:  # not UTF-8, or not JSON
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
