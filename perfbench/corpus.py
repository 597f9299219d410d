"""Seeded Y-class planted corpora of paper shape for the benchmark.

Each class owns a pool of exclusive ("planted") words whose vectors sit in a
class-specific Gaussian cluster; a pool of common words sits around the
origin. A document draws a fixed share of its tokens from the class pools and
the rest from the common pool. Its class tokens are split between its own pool
and one confuser class, with the own-class share ``rho`` taken from a
stratified grid: a fixed fraction of documents is dominated by its confuser
(``rho`` below one half). That keeps the nearest-anchor and k-NN error rates
away from both 0 and chance, and nearly constant across seeds, because which
documents are ambiguous is decided by the grid rather than by sampling noise.

The generator writes the files the timed phases parse (vector file and
``lines`` corpora) with its own writer, so a change to the program's parsers
or writers cannot change the inputs. Only numpy is used for the inputs; the
ground-truth checkpoint of the eval workload is saved through the program's
public checkpoint API.

Run as a script (``run.py`` does, in a child process) to write one
workload's inputs::

    python3 perfbench/corpus.py --shape-json '{"num_classes": 5, ...}' --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

DIM = 300


@dataclass(frozen=True)
class Shape:
    """Size and difficulty of one planted corpus."""

    num_classes: int
    exclusive_per_class: int
    common_words: int
    train_docs_per_class: int
    test_docs_per_class: int
    tokens_per_doc: int
    class_share: float = 0.5  # share of a document's tokens drawn from class pools
    confused_fraction: float = 0.2  # share of test documents dominated by their confuser
    center_norm: float = 4.5  # distance of each class center from the origin
    word_noise: float = 0.4  # per-coordinate standard deviation of word vectors
    dim: int = DIM


@dataclass
class PlantedCorpus:
    class_names: list[str]
    words: list[str]  # vector-file order
    vectors: np.ndarray  # (len(words), dim)
    train: list[tuple[int, dict[str, int]]]  # (label, token counts)
    test: list[tuple[int, dict[str, int]]]
    planted: dict[str, list[str]]  # class name -> exclusive words


def _own_shares(count: int, confused_fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Stratified own-class shares, a ``confused_fraction`` of them below one half.

    Confused documents take evenly spaced shares in [0.1, 0.3], clear ones in
    [0.7, 1.0]; the wide gap around one half keeps every document decidable
    from its token counts. The order is a seeded permutation.
    """
    confused = int(round(confused_fraction * count))
    clear = count - confused
    shares = np.concatenate(
        [
            0.1 + 0.2 * (np.arange(confused) + 0.5) / max(confused, 1),
            0.7 + 0.3 * (np.arange(clear) + 0.5) / max(clear, 1),
        ]
    )
    return shares[rng.permutation(count)]


def generate(shape: Shape, seed: int) -> PlantedCorpus:
    """Build vectors, train and test documents, and planted keywords."""
    rng = np.random.default_rng([seed, shape.num_classes, shape.tokens_per_doc])
    y, d = shape.num_classes, shape.dim
    class_names = [f"class{k:02d}" for k in range(y)]
    directions = rng.standard_normal((y, d))
    centers = shape.center_norm * directions / np.linalg.norm(directions, axis=1, keepdims=True)

    planted = {
        name: [f"{name}w{i:04d}" for i in range(shape.exclusive_per_class)] for name in class_names
    }
    common = [f"common{i:05d}" for i in range(shape.common_words)]
    words = [w for name in class_names for w in planted[name]] + common
    noise = shape.word_noise * rng.standard_normal((len(words), d))
    offsets = np.concatenate(
        [np.repeat(centers, shape.exclusive_per_class, axis=0), np.zeros((shape.common_words, d))]
    )
    vectors = offsets + noise

    pools = [np.arange(k * shape.exclusive_per_class, (k + 1) * shape.exclusive_per_class) for k in range(y)]
    common_pool = np.arange(y * shape.exclusive_per_class, len(words))
    class_tokens = int(round(shape.class_share * shape.tokens_per_doc))
    common_tokens = shape.tokens_per_doc - class_tokens

    def sample(per_class: int, confused_fraction: float) -> list[tuple[int, dict[str, int]]]:
        docs = []
        # stratified over the whole corpus, so even a few documents per class
        # keep the confused share
        shares = _own_shares(per_class * y, confused_fraction, rng)
        for doc, rho in enumerate(shares):
            label = doc // per_class
            confuser = (label + 1 + rng.integers(y - 1)) % y
            own = int(round(rho * class_tokens))
            ids = np.concatenate(
                [
                    rng.choice(pools[label], own),
                    rng.choice(pools[confuser], class_tokens - own),
                    rng.choice(common_pool, common_tokens),
                ]
            )
            uniq, counts = np.unique(ids, return_counts=True)
            docs.append((label, {words[i]: int(c) for i, c in zip(uniq, counts)}))
        return docs

    # Training documents are all clear: confused ones act like label noise,
    # which the triplet and InfoNCE gradients chase from epoch to epoch.
    train = sample(shape.train_docs_per_class, 0.0)
    test = sample(shape.test_docs_per_class, shape.confused_fraction)
    return PlantedCorpus(class_names, words, vectors, train, test, planted)


def write_vectors(words: list[str], vectors: np.ndarray, path: str) -> None:
    """Text embedding format with five decimals, as common pre-trained files use."""
    with open(path, "w", encoding="utf-8") as fh:
        for word, row in zip(words, vectors):
            fh.write(word + " " + " ".join(f"{x:.5f}" for x in row) + "\n")


def write_lines_corpus(docs, class_names: list[str], path: str) -> None:
    """``<label><TAB><tokens>`` per document, tokens repeated by count."""
    with open(path, "w", encoding="utf-8") as fh:
        for label, counts in docs:
            tokens = " ".join(" ".join([w] * c) for w, c in sorted(counts.items()))
            fh.write(f"{class_names[label]}\t{tokens}\n")


def write_inputs(shape: Shape, seed: int, out_dir: str) -> PlantedCorpus:
    """Write vectors.txt, train.tsv, test.tsv, planted.json and the shape."""
    os.makedirs(out_dir, exist_ok=True)
    corpus = generate(shape, seed)
    write_vectors(corpus.words, corpus.vectors, os.path.join(out_dir, "vectors.txt"))
    write_lines_corpus(corpus.train, corpus.class_names, os.path.join(out_dir, "train.tsv"))
    write_lines_corpus(corpus.test, corpus.class_names, os.path.join(out_dir, "test.tsv"))
    with open(os.path.join(out_dir, "planted.json"), "w", encoding="utf-8") as fh:
        json.dump({"shape": asdict(shape), "seed": seed, "planted": corpus.planted}, fh, sort_keys=True)
    return corpus


def ground_truth_model(corpus: PlantedCorpus, p: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A near-identity transform and anchors sampled around each class's planted vectors.

    Each anchor column is the mean of eight random planted vectors of its
    class, so the model encodes the generator's truth and owes nothing to
    the training code.
    """
    rng = np.random.default_rng([seed, 7])
    d = corpus.vectors.shape[1]
    transform = np.eye(d) + 0.01 * rng.standard_normal((d, d)) / np.sqrt(d)
    index = {w: i for i, w in enumerate(corpus.words)}
    anchors = np.empty((len(corpus.class_names), d, p))
    for k, name in enumerate(corpus.class_names):
        rows = np.array([index[w] for w in corpus.planted[name]])
        for j in range(p):
            anchors[k, :, j] = corpus.vectors[rng.choice(rows, 8, replace=False)].mean(axis=0)
    return transform, anchors


def write_checkpoint(corpus: PlantedCorpus, p: int, seed: int, path: str) -> None:
    """Save the ground-truth model through the program's public checkpoint API."""
    from anchorwmd import data, model  # noqa: PLC0415 - needs the program on PYTHONPATH

    transform, anchors = ground_truth_model(corpus, p, seed)
    table = data.WordVectorTable.from_dict(dict(zip(corpus.words, corpus.vectors)))
    model.save_checkpoint(model.AnchorModel(transform, anchors, corpus.class_names, table.vocab_hash), path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape-json", required=True, help="Shape fields as a JSON object")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--checkpoint-p", type=int, help="also write a ground-truth checkpoint with p points")
    args = parser.parse_args(argv)
    corpus = write_inputs(Shape(**json.loads(args.shape_json)), args.seed, args.out)
    if args.checkpoint_p:
        write_checkpoint(corpus, args.checkpoint_p, args.seed, os.path.join(args.out, "checkpoint.json"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
