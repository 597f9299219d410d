"""Command-line pipeline: train, eval, interpret, baseline.

Option precedence is CLI flag over config-file value over built-in default;
the merged configuration is echoed to the output directory as JSON so every
run is reproducible from its artifacts. Defaults come from ``TrainConfig`` and
``SinkhornConfig``. Every command runs in one order: load and check its
inputs, compute its results, then create the output directory and write, so
a run that fails leaves nothing behind.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys

from . import classify, data, interpret, model as model_mod, training
from .ot import SinkhornConfig

logger = logging.getLogger(__name__)

# option key -> config field; ``absolute_epsilon`` is ``not SinkhornConfig.relative``
TRAIN_KEYS = dict(loss="loss_kind", margin="margin", tau="temperature", lr="learning_rate", l2="l2_coeff",
                  epochs="epochs", batch_size="batch_size", seed="seed", p="anchor_points", threads="threads")
SINKHORN_KEYS = dict(epsilon="epsilon", absolute_epsilon="relative", sinkhorn_iters="max_iters",
                     sinkhorn_tol="tolerance")


def _convert(key: str, value):
    """An option value as its config field holds it, or back (the one conversion is a negation)."""
    return not value if key == "absolute_epsilon" else value


def _config_from(opts: dict, cls, keys: dict, **fields):
    return cls(**{field: _convert(key, opts[key]) for key, field in keys.items()}, **fields)


DEFAULTS = {
    **{key: _convert(key, getattr(config, field))
       for config, keys in ((training.TrainConfig(), TRAIN_KEYS), (SinkhornConfig(), SINKHORN_KEYS))
       for key, field in keys.items()},
    "train_fraction": None, "k": 7, "k_sweep": None, "top_k": 30,
    "vectors": None, "corpus": None, "test_corpus": None, "checkpoint": None, "out": None,
}


def _option_type(key: str) -> type:
    """The type an option's value takes, as a flag and in a config file."""
    default = DEFAULTS[key]
    if default is None:
        return float if key == "train_fraction" else str
    return type(default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchorwmd",
        description="Supervised Wasserstein document embeddings with class anchors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def option(p, key, help=None, **kwargs):
        kind = _option_type(key)
        typed = {"action": "store_true", "default": None} if kind is bool else {"type": kind}
        p.add_argument("--" + key.replace("_", "-"), help=help, **typed, **kwargs)

    def add_io(p, checkpoint=False, test_corpus=False):
        option(p, "vectors", "word-vector text file")
        option(p, "corpus", "corpus path (a class directory, else a lines file)")
        if test_corpus:
            option(p, "test_corpus", "held-out corpus path")
            option(p, "train_fraction", "stratified split fraction when no test corpus is given")
        if checkpoint:
            option(p, "checkpoint", "model checkpoint JSON")
        option(p, "out", "output directory")
        p.add_argument("--config", help="JSON config file (lower precedence than flags)")

    def add_solver(p):
        option(p, "threads", "worker threads for transport solves")
        option(p, "epsilon", "Sinkhorn regularization strength")
        option(p, "absolute_epsilon", "treat --epsilon as an absolute value instead of a cost-mean multiple")
        option(p, "sinkhorn_iters", "solver iteration cap")
        option(p, "sinkhorn_tol", "L1 marginal stop tolerance")

    p_train = sub.add_parser("train", help="fit the transform and anchors")
    add_io(p_train, test_corpus=True)
    add_solver(p_train)
    option(p_train, "loss", "contrastive loss kind", choices=training.LOSS_KINDS)
    option(p_train, "margin", "triplet margin")
    option(p_train, "tau", "InfoNCE temperature")
    option(p_train, "lr", "Adam learning rate")
    option(p_train, "l2", "L2 coefficient on the transform")
    option(p_train, "epochs")
    option(p_train, "batch_size")
    option(p_train, "seed")
    option(p_train, "p", "support points per anchor")

    p_eval = sub.add_parser("eval", help="error rate of a checkpoint on a corpus")
    add_io(p_eval, checkpoint=True)
    add_solver(p_eval)

    p_int = sub.add_parser("interpret", help="importance scores, top words, projection")
    add_io(p_int, checkpoint=True)
    option(p_int, "top_k", "words per class in rankings")

    p_base = sub.add_parser("baseline", help="raw-WMD KNN and TF-IDF baselines")
    add_io(p_base, test_corpus=True)
    add_solver(p_base)
    option(p_base, "k", "KNN neighbour count")
    option(p_base, "k_sweep", "comma-separated k values to sweep")
    option(p_base, "top_k", "TF-IDF words per class")
    option(p_base, "seed")

    return parser


def _fits_default(key: str, value) -> bool:
    """Whether a config-file value has the type the option takes on the command line."""
    if value is None and DEFAULTS[key] is None:
        return True
    expected = _option_type(key)
    if isinstance(value, bool) or expected is bool:  # bool is an int subclass
        return type(value) is expected
    if expected is float:
        return isinstance(value, (int, float))
    return isinstance(value, expected)


def _merge_options(args: argparse.Namespace) -> dict:
    """Apply precedence: CLI flag > config file > default."""
    merged = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply to decode
            raise ValueError(f"{config_path}: {exc}") from None
        if not isinstance(file_values, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_values) - set(DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_values.items():
            if not _fits_default(key, value):
                raise ValueError(f"config key {key!r} has a value of the wrong type: {value!r}")
        merged.update(file_values)
    for key, value in vars(args).items():
        if key in merged and value is not None:
            merged[key] = value
    if merged["threads"] < 1:
        raise ValueError(f"threads must be at least 1, got {merged['threads']}")
    if merged["top_k"] < 1:
        raise ValueError(f"top_k must be at least 1, got {merged['top_k']}")
    if merged["seed"] < 0:
        raise ValueError(f"seed must be non-negative, got {merged['seed']}")
    return merged


def _require(opts: dict, *keys: str) -> None:
    for key in keys:
        if not opts.get(key):
            raise ValueError(f"--{key.replace('_', '-')} is required")


def _sinkhorn_config(opts: dict) -> SinkhornConfig:
    return _config_from(opts, SinkhornConfig, SINKHORN_KEYS)


def _split_spec(opts: dict) -> data.SplitSpec | None:
    """The stratified split to apply, or None when no fraction is given."""
    if opts["train_fraction"] is None:
        return None
    if opts["test_corpus"]:
        raise ValueError("train_fraction and test_corpus exclude each other; give one of them")
    return data.SplitSpec(train_fraction=opts["train_fraction"], seed=opts["seed"])


def _k_values(opts: dict) -> list[int]:
    """``k`` and the ``k_sweep`` values, sorted and distinct."""
    sweep = [x for x in (opts["k_sweep"] or "").split(",") if x.strip()]
    try:
        ks = sorted({opts["k"], *(int(x) for x in sweep)})
    except ValueError:
        raise ValueError(f"k_sweep must be comma-separated integers, got {opts['k_sweep']!r}") from None
    classify.check_k_values(ks)
    return ks


def _prepare_out(opts: dict, command: str) -> str:
    out = opts["out"]
    os.makedirs(out, exist_ok=True)
    echo = {"command": command, **{k: opts[k] for k in sorted(opts)}}
    with open(os.path.join(out, "effective_config.json"), "w", encoding="utf-8") as fh:
        json.dump(echo, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return out


def _ranking_stems(class_names: list[str]) -> list[str]:
    """Each class's name as its ranking file names it; two classes may not share one."""
    stems = [re.sub(r"[^A-Za-z0-9_-]+", "_", name) for name in class_names]
    for i, stem in enumerate(stems):
        if stem in stems[:i]:
            first = class_names[stems.index(stem)]
            raise ValueError(f"classes {first!r} and {class_names[i]!r} would write the same ranking file (*_{stem}.tsv)")
    return stems


def _write_ranking(path: str, ranked: list[tuple[str, float]], score_name: str) -> None:
    rows = [(rank, word, score) for rank, (word, score) in enumerate(ranked, 1)]
    data._write_table(path, ["rank", "word", score_name], rows, delimiter="\t")


def _load_train_test(opts: dict, spec: data.SplitSpec | None) -> tuple[data.Corpus, data.Corpus | None]:
    corpus = data.load_corpus(opts["corpus"])
    if opts["test_corpus"]:
        test = data.load_corpus(opts["test_corpus"])
        return corpus, data.remap_labels(test, corpus.class_names)
    if spec is not None:
        return data.split(corpus, spec)
    return corpus, None


def _load_for_checkpoint(opts: dict):
    """The checkpoint, its word vectors and the corpus labelled in the checkpoint's class order."""
    fitted = model_mod.load_checkpoint(opts["checkpoint"])
    table = data.load_word_vectors(opts["vectors"])
    if fitted.vocab_hash and fitted.vocab_hash != table.vocab_hash:
        raise ValueError(
            "word-vector file does not match the checkpoint (vocabulary hash mismatch)"
        )
    corpus = data.remap_labels(data.load_corpus(opts["corpus"]), fitted.class_names)
    return fitted, table, corpus


def cmd_train(opts: dict) -> int:
    _require(opts, "vectors", "corpus", "out")
    cfg = _config_from(opts, training.TrainConfig, TRAIN_KEYS, sinkhorn=_sinkhorn_config(opts))
    spec = _split_spec(opts)
    table = data.load_word_vectors(opts["vectors"])
    train_corpus, held_out = _load_train_test(opts, spec)
    measures, _ = data.corpus_to_measures(train_corpus, table)
    fitted, history = training.train(
        measures, cfg, class_names=train_corpus.class_names, vocab_hash=table.vocab_hash
    )
    predictions = classify.classify_corpus(measures, fitted, cfg.sinkhorn, threads=cfg.threads)
    train_error = classify.error_rate(
        [p.predicted_class for p in predictions], [m.label for m in measures]
    )

    out = _prepare_out(opts, "train")
    model_mod.save_checkpoint(fitted, os.path.join(out, "checkpoint.json"))
    training.write_loss_history(history, os.path.join(out, "loss_history.csv"), cfg.loss_kind)
    if held_out is not None:
        data.save_corpus_lines(held_out, os.path.join(out, "test_split.tsv"))
    print(f"final train loss: {history[-1].mean_loss:.6g}")
    print(f"train error rate: {100.0 * train_error:.1f}")
    return 0


def cmd_eval(opts: dict) -> int:
    _require(opts, "vectors", "corpus", "checkpoint", "out")
    cfg = _sinkhorn_config(opts)
    fitted, table, corpus = _load_for_checkpoint(opts)
    measures, doc_ids = data.corpus_to_measures(corpus, table)
    predictions = classify.classify_corpus(measures, fitted, cfg, threads=opts["threads"])
    err = classify.error_rate([p.predicted_class for p in predictions], [m.label for m in measures])

    out = _prepare_out(opts, "eval")
    classify.write_predictions(
        os.path.join(out, "predictions.csv"), doc_ids, [m.label for m in measures], predictions
    )
    print(f"error rate: {100.0 * err:.1f}")
    return 0


def cmd_interpret(opts: dict) -> int:
    _require(opts, "vectors", "corpus", "checkpoint", "out")
    fitted, word_vectors, corpus = _load_for_checkpoint(opts)
    words = [w for w in corpus.vocabulary() if w in word_vectors]
    if not words:
        raise ValueError("no corpus token has a word vector")
    vectors = word_vectors.matrix[[word_vectors.index[w] for w in words]]
    stems = _ranking_stems(fitted.class_names)
    table = interpret.compute_importance_table(fitted, words, vectors)
    rankings = interpret.importance_rankings(table, opts["top_k"])
    projection = interpret.projection_rows(fitted, table, vectors, rankings)

    out = _prepare_out(opts, "interpret")
    table.write_tsv(os.path.join(out, "importance.tsv"))
    per_class = corpus.class_token_counts()
    for class_id, (class_name, stem, ranked) in enumerate(zip(fitted.class_names, stems, rankings)):
        _write_ranking(os.path.join(out, f"top_words_{stem}.tsv"), ranked, "importance")
        shown = sum(counts[word] for counts in per_class for word, _ in ranked)
        in_class = sum(per_class[class_id][word] for word, _ in ranked)
        share = in_class / shown if shown else 0.0
        print(
            f"{class_name}: top-{len(ranked)} words appear {shown} times in the corpus, "
            f"{in_class} of them in this class (share {share:.2f})"
        )

    interpret.write_projection(projection, os.path.join(out, "projection.tsv"))
    return 0


def cmd_baseline(opts: dict) -> int:
    _require(opts, "vectors", "corpus", "out")
    cfg = _sinkhorn_config(opts)
    spec = _split_spec(opts)
    ks = _k_values(opts)
    table = data.load_word_vectors(opts["vectors"])
    train_corpus, test_corpus = _load_train_test(opts, spec)
    if test_corpus is None:
        test_corpus = train_corpus
        logger.warning("no test corpus or split given; evaluating KNN on the training set")
    train_measures, _ = data.corpus_to_measures(train_corpus, table)
    test_measures, test_ids = data.corpus_to_measures(test_corpus, table)
    stems = _ranking_stems(train_corpus.class_names)
    k_main = opts["k"]
    sweep = classify.knn_predict_corpus(test_measures, train_measures, ks, cfg, threads=opts["threads"])
    truths = [m.label for m in test_measures]
    rankings = interpret.tfidf_rankings(train_corpus, opts["top_k"])

    out = _prepare_out(opts, "baseline")
    knn_header = ["doc_id", "true_label", "predicted_label"]
    data._write_table(os.path.join(out, "knn_predictions.csv"), knn_header, zip(test_ids, truths, sweep[k_main]))
    errors = [(k, classify.error_rate(sweep[k], truths)) for k in ks]
    data._write_table(os.path.join(out, "k_sweep.csv"), ["k", "error_rate"], errors)
    print(f"wmd-knn (k={k_main}) error rate: {100.0 * classify.error_rate(sweep[k_main], truths):.1f}")
    for stem, ranked in zip(stems, rankings):
        _write_ranking(os.path.join(out, f"tfidf_top_words_{stem}.tsv"), ranked, "score")
    return 0


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "interpret": cmd_interpret,
    "baseline": cmd_baseline,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        opts = _merge_options(args)
        return COMMANDS[args.command](opts)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
