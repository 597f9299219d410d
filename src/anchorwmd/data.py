"""Corpus ingestion, word vectors, bag-of-words measures, and splitting.

Two corpus formats are supported: a UTF-8 text file with one
``<label><TAB><raw text>`` document per line, and a directory with one
subdirectory per class holding one ``.txt`` file per document. Word vectors
use the plain text format of one token followed by its coordinates per line.
Every reader drops a leading UTF-8 byte-order mark.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import os
import re
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .model import DocumentMeasure

__all__ = [
    "ParseError",
    "EmptyDocumentError",
    "Document",
    "Corpus",
    "WordVectorTable",
    "SplitSpec",
    "tokenize",
    "load_corpus",
    "load_word_vectors",
    "save_corpus_lines",
    "save_word_vectors",
    "to_measure",
    "corpus_to_measures",
    "split",
    "remap_labels",
]

logger = logging.getLogger(__name__)


class ParseError(ValueError):
    """Malformed input file; the message carries file and line context."""


class EmptyDocumentError(ValueError):
    """A document lost all of its tokens to filtering or vocabulary lookup."""


@contextmanager
def _open_text(path: str):
    """``path`` opened as UTF-8 text with a leading byte-order mark dropped; a decode error names the file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


_TOKEN = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs.

    Pure-number tokens and tokens shorter than two characters are dropped.
    """
    return [t for t in _TOKEN.findall(text.lower()) if len(t) >= 2 and not t.isdigit()]


@dataclass(frozen=True)
class Document:
    """One document: an id, an integer label, and token counts."""

    doc_id: str
    label: int
    counts: dict[str, int]


@dataclass
class Corpus:
    """A labeled document collection."""

    documents: list[Document]
    class_names: list[str]

    def __len__(self) -> int:
        return len(self.documents)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def vocabulary(self) -> list[str]:
        """Sorted union of every document's tokens."""
        seen = set()
        for doc in self.documents:
            seen.update(doc.counts)
        return sorted(seen)

    def class_token_counts(self) -> list[Counter]:
        """Per class, every token's count summed over the class's documents."""
        counts = [Counter() for _ in range(self.num_classes)]
        for doc in self.documents:
            counts[doc.label].update(doc.counts)
        return counts


def load_corpus(path: str, fmt: str = "auto") -> Corpus:
    """Read a corpus in ``lines`` or ``dirs`` format (``auto`` picks by path type)."""
    if fmt == "auto":
        fmt = "dirs" if os.path.isdir(path) else "lines"
    if fmt == "lines":
        raw = _read_lines_corpus(path)
    elif fmt == "dirs":
        raw = _read_dirs_corpus(path)
    else:
        raise ValueError(f"unknown corpus format {fmt!r}; expected 'lines', 'dirs', or 'auto'")

    class_names = sorted({label for label, _, _ in raw})
    label_index = {name: i for i, name in enumerate(class_names)}
    documents = []
    dropped = 0
    for label, doc_id, text in raw:
        counts = Counter(tokenize(text))
        if not counts:
            dropped += 1
            logger.warning("dropping %s: no tokens survive filtering", doc_id)
            continue
        documents.append(Document(doc_id=doc_id, label=label_index[label], counts=dict(counts)))
    if dropped:
        logger.warning("dropped %d empty documents from %s", dropped, path)
    if not documents:
        raise ParseError(f"{path}: corpus contains no non-empty documents")
    return Corpus(documents=documents, class_names=class_names)


def _read_lines_corpus(path: str) -> list[tuple[str, str, str]]:
    rows = []
    base = os.path.basename(path)
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise ParseError(f"{path}:{lineno}: expected '<label><TAB><text>'")
            label, text = line.split("\t", 1)
            label = label.strip()
            if not label:
                raise ParseError(f"{path}:{lineno}: empty label")
            rows.append((label, f"{base}:{lineno}", text))
    return rows


def _read_dirs_corpus(root: str) -> list[tuple[str, str, str]]:
    rows = []
    class_dirs = sorted(
        name for name in os.listdir(root) if os.path.isdir(os.path.join(root, name))
    )
    if not class_dirs:
        raise ParseError(f"{root}: no class subdirectories found")
    for class_name in class_dirs:
        class_path = os.path.join(root, class_name)
        files = sorted(name for name in os.listdir(class_path) if name.endswith(".txt"))
        for fname in files:
            with _open_text(os.path.join(class_path, fname)) as fh:
                rows.append((class_name, f"{class_name}/{fname}", fh.read()))
    return rows


def save_corpus_lines(corpus: Corpus, path: str) -> None:
    """Write a corpus in ``lines`` format, repeating tokens by their counts."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in corpus.documents:
            words = []
            for token in sorted(doc.counts):
                words.extend([token] * doc.counts[token])
            fh.write(f"{corpus.class_names[doc.label]}\t{' '.join(words)}\n")


@dataclass
class WordVectorTable:
    """Token-to-vector lookup backed by a dense (V, d) matrix."""

    index: dict[str, int]
    matrix: np.ndarray
    vocab_hash: str = ""

    @property
    def dimension(self) -> int:
        if not self.index:
            raise ValueError("word vector table is empty; dimension is undefined")
        return self.matrix.shape[1]

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def __len__(self) -> int:
        return len(self.index)

    def vector(self, token: str) -> np.ndarray:
        return self.matrix[self.index[token]]

    @classmethod
    def from_dict(cls, vectors: dict[str, np.ndarray]) -> "WordVectorTable":
        tokens = list(vectors)
        matrix = np.vstack([np.asarray(vectors[t], dtype=float).ravel() for t in tokens])
        index = {t: i for i, t in enumerate(tokens)}
        return cls(index=index, matrix=matrix, vocab_hash=_vocab_digest(tokens, matrix.shape[1]))


def _vocab_digest(tokens: list[str], dim: int) -> str:
    digest = hashlib.sha256()
    digest.update(f"dim={dim}\n".encode())
    for token in sorted(tokens):
        digest.update(token.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def load_word_vectors(path: str) -> WordVectorTable:
    """Parse a text embedding file: one token plus d floats per line.

    The first line fixes the dimension; later lines with a different count
    raise :class:`ParseError` with the offending line number. Duplicate
    tokens keep their first occurrence. Fields are split on any Unicode
    whitespace, blank lines are skipped and a leading byte-order mark is
    dropped.

    One Python pass collects the tokens; numpy's C text reader parses the
    values of every line, the token column included, so a line with too
    many or too few fields fails rather than being cut to size. Values
    follow that reader's grammar: ``float``'s, without ``_`` digit
    separators or non-ASCII digits.
    """
    with _open_text(path) as fh:
        tokens = [parts[0] for parts in (line.split(None, 1) for line in fh) if parts]
        if not tokens:
            return WordVectorTable(index={}, matrix=np.zeros((0, 0)), vocab_hash=_vocab_digest([], 0))
        fh.seek(0)
        # both passes skip the same blank lines, so max_rows covers every line; with
        # it the reader allocates the table once, at its final size, instead of growing it
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "Input line .* contained no data", UserWarning)
                values = np.loadtxt(
                    fh, dtype=float, comments=None, ndmin=2, converters={0: lambda _: 0.0}, max_rows=len(tokens)
                )
        except ValueError as exc:
            raise _first_bad_line(path, str(exc)) from None
    if values.shape[0] != len(tokens) or values.shape[1] < 2:
        raise _first_bad_line(path, f"parsed {values.shape[0]} rows of {values.shape[1] - 1} values")

    index: dict[str, int] = {}
    first_rows: list[int] = []
    for row, token in enumerate(tokens):
        if token not in index:
            index[token] = len(first_rows)
            first_rows.append(row)
    duplicates = len(tokens) - len(first_rows)
    if duplicates:
        logger.warning("%s: ignored %d duplicate tokens (first occurrence kept)", path, duplicates)
    return WordVectorTable(
        index=index,
        matrix=_compact_rows(values, np.asarray(first_rows)),
        vocab_hash=_vocab_digest(list(index), values.shape[1] - 1),
    )


_COMPACT_BLOCK_ROWS = 256


def _compact_rows(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``values[rows, 1:]`` as a C-order matrix in the front of ``values``'s own buffer.

    No second copy of the table: block by block, the selected rows move
    down over the token column and the dropped rows. Output row j lands
    before input row ``rows[j] >= j`` starts, so no block overwrites a row
    a later block still reads.
    """
    width = values.shape[1] - 1
    matrix = values.reshape(-1)[: rows.size * width].reshape(rows.size, width)
    for start in range(0, rows.size, _COMPACT_BLOCK_ROWS):
        block = rows[start : start + _COMPACT_BLOCK_ROWS]
        matrix[start : start + block.size] = values[block, 1:]
    return matrix


def _first_bad_line(path: str, reason: str) -> ParseError:
    """The error for the first malformed line of a vector file numpy's reader rejected.

    Checks line by line for a first line without values, a line with a
    different value count, or a value outside the reader's grammar:
    ``float``'s, without ``_`` separators or non-ASCII characters.
    ``reason`` is the fallback message should every line pass.
    """
    dim = None
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if dim is None:
                dim = len(parts) - 1
                if dim < 1:
                    return ParseError(f"{path}:{lineno}: no vector values on first line")
            elif len(parts) - 1 != dim:
                return ParseError(f"{path}:{lineno}: expected {dim} values, got {len(parts) - 1}")
            for text in parts[1:]:
                if not text.isascii() or "_" in text:
                    return ParseError(f"{path}:{lineno}: could not convert string to float: {text!r}")
                try:
                    float(text)
                except ValueError as exc:
                    return ParseError(f"{path}:{lineno}: {exc}")
    return ParseError(f"{path}: {reason}")


def save_word_vectors(vectors: dict[str, np.ndarray], path: str) -> None:
    """Write vectors in the text embedding format, full float precision."""
    with open(path, "w", encoding="utf-8") as fh:
        for token, vec in vectors.items():
            coords = " ".join(repr(float(x)) for x in np.asarray(vec).ravel())
            fh.write(f"{token} {coords}\n")


class _RecordsEndingInNewline:
    """A text file's ``write`` for ``csv.writer`` records ended by ``\\r\\n``: each is written ending in ``\\n``.

    The writer quotes a field holding any character of its line terminator,
    so with ``\\r\\n`` it quotes a lone ``\\r`` as it quotes ``\\n``; it writes
    each record, terminator last, with one ``write`` call.
    """

    def __init__(self, fh):
        self._write = fh.write

    def write(self, record: str) -> int:
        return self._write(record[:-2] + "\n")


def _write_table(path: str, header: list[str], rows, delimiter: str = ",") -> None:
    """Write a header and rows as a CSV table (a TSV one with ``delimiter="\\t"``).

    UTF-8, lines end in ``\\n``, and a field is quoted only when it holds the
    delimiter, a quote, a ``\\n`` or a ``\\r``; a float is written as
    ``str``, its shortest round-trip ``repr``.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(_RecordsEndingInNewline(fh), delimiter=delimiter, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


def to_measure(
    counts: dict[str, int], vectors: WordVectorTable, label: int | None = None
) -> DocumentMeasure:
    """Turn token counts into a document measure over known word vectors.

    Tokens missing from the table are dropped and the remaining counts
    renormalized; support columns follow sorted token order so the measure
    does not depend on insertion order. The float rounding residual of the
    normalization is absorbed into the largest weight. A word whose vector
    is not finite is a ``ValueError`` that names it.
    """
    kept = sorted(t for t, c in counts.items() if c > 0 and t in vectors)
    if not kept:
        raise EmptyDocumentError("no tokens with known word vectors")
    totals = np.array([counts[t] for t in kept], dtype=float)
    weights = totals / totals.sum()
    weights[np.argmax(weights)] += 1.0 - weights.sum()
    ids = np.array([vectors.index[t] for t in kept], dtype=int)
    support = vectors.matrix[ids].T
    try:
        return DocumentMeasure(word_ids=ids, support=support, weights=weights, label=label)
    except ValueError:
        finite = np.isfinite(support).all(axis=0)
        if finite.all():
            raise
        raise ValueError(f"word {kept[int(np.argmin(finite))]!r} has a non-finite vector") from None


def corpus_to_measures(
    corpus: Corpus, vectors: WordVectorTable
) -> tuple[list[DocumentMeasure], list[str]]:
    """Convert every document; out-of-vocabulary-only documents are dropped.

    Any other document that cannot be converted is a ``ValueError`` that names it.
    """
    measures = []
    kept_ids = []
    dropped = 0
    for doc in corpus.documents:
        try:
            measures.append(to_measure(doc.counts, vectors, label=doc.label))
        except EmptyDocumentError:
            dropped += 1
            logger.warning("dropping %s: no tokens with word vectors", doc.doc_id)
            continue
        except ValueError as exc:
            raise ValueError(f"{doc.doc_id}: {exc}") from None
        kept_ids.append(doc.doc_id)
    if dropped:
        logger.warning("dropped %d documents without any known word vectors", dropped)
    if not measures:
        raise EmptyDocumentError("no document has tokens with known word vectors")
    return measures, kept_ids


@dataclass(frozen=True)
class SplitSpec:
    """Seeded stratified split by train fraction.

    For pre-split data load the two corpora separately and skip this;
    :func:`remap_labels` aligns the test corpus to the training class names.
    """

    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise ValueError("train_fraction must lie strictly between 0 and 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def _apportion_train_counts(sizes: list[int], fraction: float) -> list[int]:
    """Per-class train counts by largest remainder, clamped so both sides stay non-empty."""
    raw = [fraction * n for n in sizes]
    counts = [int(x) for x in raw]
    target_total = int(fraction * sum(sizes) + 0.5)
    leftover = target_total - sum(counts)
    order = sorted(range(len(sizes)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[: max(leftover, 0)]:
        counts[i] += 1
    return [min(max(c, 1), n - 1) for c, n in zip(counts, sizes)]


def split(corpus: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus]:
    """Stratified split preserving class proportions within one document."""
    by_class: dict[int, list[int]] = {}
    for i, doc in enumerate(corpus.documents):
        by_class.setdefault(doc.label, []).append(i)
    labels = sorted(by_class)
    for label in labels:
        if len(by_class[label]) < 2:
            raise ValueError(
                f"class {corpus.class_names[label]!r} has {len(by_class[label])} document(s); "
                "need at least 2 for a fraction split"
            )
    counts = _apportion_train_counts([len(by_class[label]) for label in labels], spec.train_fraction)
    rng = np.random.default_rng(spec.seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label, n_train in zip(labels, counts):
        members = by_class[label]
        order = rng.permutation(len(members))
        chosen = {members[j] for j in order[:n_train]}
        train_idx.extend(i for i in members if i in chosen)
        test_idx.extend(i for i in members if i not in chosen)
    train_idx.sort()
    test_idx.sort()
    return (
        Corpus([corpus.documents[i] for i in train_idx], list(corpus.class_names)),
        Corpus([corpus.documents[i] for i in test_idx], list(corpus.class_names)),
    )


def remap_labels(corpus: Corpus, class_names: list[str]) -> Corpus:
    """Re-index a corpus's labels onto a given class-name list."""
    mapping = {}
    for name in corpus.class_names:
        if name not in class_names:
            raise ValueError(f"class {name!r} not present in target class names")
        mapping[corpus.class_names.index(name)] = class_names.index(name)
    documents = [
        Document(doc.doc_id, mapping[doc.label], dict(doc.counts)) for doc in corpus.documents
    ]
    return Corpus(documents=documents, class_names=list(class_names))
