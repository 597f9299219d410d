"""Command-line pipeline: train, eval, interpret, baseline, export-viz.

Option precedence is CLI flag over config-file value over built-in default;
the merged configuration is echoed to the output directory as JSON so every
run is reproducible from its artifacts.
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

DEFAULTS = {
    "format": "auto",
    "loss": "triplet",
    "margin": 10.0,
    "tau": 30.0,
    "lr": 0.1,
    "l2": 0.001,
    "epochs": 50,
    "batch_size": 32,
    "seed": 0,
    "p": 16,
    "epsilon": 0.1,
    "absolute_epsilon": False,
    "sinkhorn_iters": 200,
    "sinkhorn_tol": 1e-6,
    "threads": 1,
    "train_fraction": None,
    "k": 7,
    "k_sweep": None,
    "top_k": 30,
    "vectors": None,
    "corpus": None,
    "test_corpus": None,
    "checkpoint": None,
    "out": None,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchorwmd",
        description="Supervised Wasserstein document embeddings with class anchors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, checkpoint=False, test_corpus=False):
        p.add_argument("--vectors", help="word-vector text file")
        p.add_argument("--corpus", help="corpus path (lines file or class directory)")
        p.add_argument("--format", choices=["auto", "lines", "dirs"], help="corpus format")
        if test_corpus:
            p.add_argument("--test-corpus", dest="test_corpus", help="held-out corpus path")
            p.add_argument(
                "--train-fraction",
                dest="train_fraction",
                type=float,
                help="stratified split fraction when no test corpus is given",
            )
        if checkpoint:
            p.add_argument("--checkpoint", help="model checkpoint JSON")
        p.add_argument("--out", help="output directory")
        p.add_argument("--config", help="JSON config file (lower precedence than flags)")
        p.add_argument("--threads", type=int, help="worker threads for transport solves")
        p.add_argument("--epsilon", type=float, help="Sinkhorn regularization strength")
        p.add_argument(
            "--absolute-epsilon",
            dest="absolute_epsilon",
            action="store_true",
            default=None,
            help="treat --epsilon as an absolute value instead of a cost-mean multiple",
        )
        p.add_argument("--sinkhorn-iters", dest="sinkhorn_iters", type=int, help="solver iteration cap")
        p.add_argument("--sinkhorn-tol", dest="sinkhorn_tol", type=float, help="L1 marginal stop tolerance")

    p_train = sub.add_parser("train", help="fit the transform and anchors")
    add_io(p_train, test_corpus=True)
    p_train.add_argument("--loss", choices=["triplet", "infonce"], help="contrastive loss kind")
    p_train.add_argument("--margin", type=float, help="triplet margin")
    p_train.add_argument("--tau", type=float, help="InfoNCE temperature")
    p_train.add_argument("--lr", type=float, help="Adam learning rate")
    p_train.add_argument("--l2", type=float, help="L2 coefficient on the transform")
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--batch-size", dest="batch_size", type=int)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--p", type=int, help="support points per anchor")

    p_eval = sub.add_parser("eval", help="error rate of a checkpoint on a corpus")
    add_io(p_eval, checkpoint=True)

    p_int = sub.add_parser("interpret", help="importance scores, top words, projection")
    add_io(p_int, checkpoint=True)
    p_int.add_argument("--top-k", dest="top_k", type=int, help="words per class in rankings")

    p_base = sub.add_parser("baseline", help="raw-WMD KNN and TF-IDF baselines")
    add_io(p_base, test_corpus=True)
    p_base.add_argument("--k", type=int, help="KNN neighbour count")
    p_base.add_argument("--k-sweep", dest="k_sweep", help="comma-separated k values to sweep")
    p_base.add_argument("--top-k", dest="top_k", type=int, help="TF-IDF words per class")
    p_base.add_argument("--seed", type=int)

    p_viz = sub.add_parser("export-viz", help="2-D projection of anchors and top words")
    add_io(p_viz, checkpoint=True)
    p_viz.add_argument("--top-k", dest="top_k", type=int, help="words per class to project")

    return parser


def _fits_default(key: str, value) -> bool:
    """Whether a config-file value has the type the option takes on the command line."""
    default = DEFAULTS[key]
    if default is None:
        if value is None:
            return True
        expected = float if key == "train_fraction" else str
    else:
        expected = type(default)
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
        with open(config_path, encoding="utf-8") as fh:
            file_values = json.load(fh)
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
    return merged


def _require(opts: dict, *keys: str) -> None:
    for key in keys:
        if not opts.get(key):
            raise ValueError(f"--{key.replace('_', '-')} is required")
        if key in ("vectors", "corpus", "test_corpus", "checkpoint") and not os.path.exists(opts[key]):
            raise ValueError(f"path does not exist: {opts[key]}")


def _sinkhorn_config(opts: dict) -> SinkhornConfig:
    return SinkhornConfig(
        epsilon=opts["epsilon"],
        relative=not opts["absolute_epsilon"],
        max_iters=opts["sinkhorn_iters"],
        tolerance=opts["sinkhorn_tol"],
    )


def _prepare_out(opts: dict, command: str) -> str:
    out = opts["out"]
    os.makedirs(out, exist_ok=True)
    echo = {"command": command, **{k: opts[k] for k in sorted(opts)}}
    with open(os.path.join(out, "effective_config.json"), "w", encoding="utf-8") as fh:
        json.dump(echo, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return out


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_-]+", "_", name)


def _load_train_test(opts: dict) -> tuple[data.Corpus, data.Corpus | None]:
    corpus = data.load_corpus(opts["corpus"], opts["format"])
    if opts.get("test_corpus"):
        test = data.load_corpus(opts["test_corpus"], opts["format"])
        return corpus, data.remap_labels(test, corpus.class_names)
    if opts.get("train_fraction"):
        spec = data.SplitSpec(train_fraction=opts["train_fraction"], seed=opts["seed"])
        return data.split(corpus, spec)
    return corpus, None


def cmd_train(opts: dict) -> int:
    _require(opts, "vectors", "corpus", "out")
    out = _prepare_out(opts, "train")
    table = data.load_word_vectors(opts["vectors"])
    train_corpus, held_out = _load_train_test(opts)
    measures, _ = data.corpus_to_measures(train_corpus, table)

    cfg = training.TrainConfig(
        loss_kind=opts["loss"],
        margin=opts["margin"],
        temperature=opts["tau"],
        learning_rate=opts["lr"],
        l2_coeff=opts["l2"],
        epochs=opts["epochs"],
        batch_size=opts["batch_size"],
        seed=opts["seed"],
        anchor_points=opts["p"],
        threads=opts["threads"],
        sinkhorn=_sinkhorn_config(opts),
    )
    fitted, history = training.train(
        measures, cfg, class_names=train_corpus.class_names, vocab_hash=table.vocab_hash
    )
    model_mod.save_checkpoint(fitted, os.path.join(out, "checkpoint.json"))
    training.write_loss_history(history, os.path.join(out, "loss_history.csv"), cfg.loss_kind)
    if held_out is not None:
        data.save_corpus_lines(held_out, os.path.join(out, "test_split.tsv"))

    predictions = classify.classify_corpus(measures, fitted, cfg.sinkhorn, threads=opts["threads"])
    train_error = classify.error_rate(
        [p.predicted_class for p in predictions], [m.label for m in measures]
    )
    print(f"final train loss: {history[-1].mean_loss:.6g}")
    print(f"train error rate: {100.0 * train_error:.1f}")
    return 0


def cmd_eval(opts: dict) -> int:
    _require(opts, "vectors", "corpus", "checkpoint", "out")
    out = _prepare_out(opts, "eval")
    fitted = model_mod.load_checkpoint(opts["checkpoint"])
    table = data.load_word_vectors(opts["vectors"])
    if fitted.vocab_hash and fitted.vocab_hash != table.vocab_hash:
        raise ValueError(
            "word-vector file does not match the checkpoint (vocabulary hash mismatch)"
        )
    corpus = data.remap_labels(data.load_corpus(opts["corpus"], opts["format"]), fitted.class_names)
    measures, doc_ids = data.corpus_to_measures(corpus, table)
    cfg = _sinkhorn_config(opts)
    predictions = classify.classify_corpus(measures, fitted, cfg, threads=opts["threads"])
    err = classify.error_rate([p.predicted_class for p in predictions], [m.label for m in measures])
    classify.write_predictions(
        os.path.join(out, "predictions.csv"), doc_ids, [m.label for m in measures], predictions
    )
    print(f"error rate: {100.0 * err:.1f}")
    return 0


def _importance_inputs(opts: dict):
    fitted = model_mod.load_checkpoint(opts["checkpoint"])
    table = data.load_word_vectors(opts["vectors"])
    if fitted.vocab_hash and fitted.vocab_hash != table.vocab_hash:
        raise ValueError(
            "word-vector file does not match the checkpoint (vocabulary hash mismatch)"
        )
    corpus = data.remap_labels(
        data.load_corpus(opts["corpus"], opts["format"]), fitted.class_names
    )
    words = [w for w in corpus.vocabulary() if w in table]
    if not words:
        raise ValueError("no corpus token has a word vector")
    vectors = table.matrix[[table.index[w] for w in words]]
    return fitted, corpus, words, vectors


def cmd_interpret(opts: dict) -> int:
    _require(opts, "vectors", "corpus", "checkpoint", "out")
    out = _prepare_out(opts, "interpret")
    fitted, corpus, words, vectors = _importance_inputs(opts)
    table = interpret.compute_importance_table(fitted, words, vectors)
    table.write_tsv(os.path.join(out, "importance.tsv"))

    totals = {}
    per_class: list[dict[str, int]] = [{} for _ in fitted.class_names]
    for doc in corpus.documents:
        for token, count in doc.counts.items():
            totals[token] = totals.get(token, 0) + count
            per_class[doc.label][token] = per_class[doc.label].get(token, 0) + count

    for class_id, class_name in enumerate(fitted.class_names):
        ranked = interpret.top_k_words(table, class_id, opts["top_k"])
        path = os.path.join(out, f"top_words_{_safe_name(class_name)}.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("rank\tword\timportance\n")
            for rank, (word, score) in enumerate(ranked, 1):
                fh.write(f"{rank}\t{word}\t{score!r}\n")
        shown = sum(totals.get(word, 0) for word, _ in ranked)
        in_class = sum(per_class[class_id].get(word, 0) for word, _ in ranked)
        share = in_class / shown if shown else 0.0
        print(
            f"{class_name}: top-{len(ranked)} words appear {shown} times in the corpus, "
            f"{in_class} of them in this class (share {share:.2f})"
        )

    interpret.export_projection(
        fitted, table, vectors, opts["top_k"], os.path.join(out, "projection.tsv")
    )
    return 0


def cmd_baseline(opts: dict) -> int:
    _require(opts, "vectors", "corpus", "out")
    out = _prepare_out(opts, "baseline")
    table = data.load_word_vectors(opts["vectors"])
    train_corpus, test_corpus = _load_train_test(opts)
    if test_corpus is None:
        test_corpus = train_corpus
        logger.warning("no test corpus or split given; evaluating KNN on the training set")
    train_measures, _ = data.corpus_to_measures(train_corpus, table)
    test_measures, test_ids = data.corpus_to_measures(test_corpus, table)
    cfg = _sinkhorn_config(opts)

    k_main = opts["k"]
    ks = {k_main}
    if opts.get("k_sweep"):
        ks.update(int(x) for x in str(opts["k_sweep"]).split(",") if x.strip())
    ks = sorted(ks)
    sweep = classify.knn_predict_corpus(test_measures, train_measures, ks, cfg, threads=opts["threads"])
    truths = [m.label for m in test_measures]
    with open(os.path.join(out, "knn_predictions.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write("doc_id,true_label,predicted_label\n")
        for doc_id, truth, pred in zip(test_ids, truths, sweep[k_main]):
            fh.write(f"{doc_id},{truth},{pred}\n")
    with open(os.path.join(out, "k_sweep.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write("k,error_rate\n")
        for k in ks:
            fh.write(f"{k},{classify.error_rate(sweep[k], truths)!r}\n")
    print(f"wmd-knn (k={k_main}) error rate: {100.0 * classify.error_rate(sweep[k_main], truths):.1f}")

    for class_id, class_name in enumerate(train_corpus.class_names):
        ranked = interpret.tfidf_top_words(train_corpus, class_id, opts["top_k"])
        path = os.path.join(out, f"tfidf_top_words_{_safe_name(class_name)}.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("rank\tword\tscore\n")
            for rank, (word, score) in enumerate(ranked, 1):
                fh.write(f"{rank}\t{word}\t{score!r}\n")
    return 0


def cmd_export_viz(opts: dict) -> int:
    _require(opts, "vectors", "corpus", "checkpoint", "out")
    out = _prepare_out(opts, "export-viz")
    fitted, _, words, vectors = _importance_inputs(opts)
    table = interpret.compute_importance_table(fitted, words, vectors)
    rows = interpret.export_projection(
        fitted, table, vectors, opts["top_k"], os.path.join(out, "projection.tsv")
    )
    print(f"wrote {rows} projection rows")
    return 0


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "interpret": cmd_interpret,
    "baseline": cmd_baseline,
    "export-viz": cmd_export_viz,
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
