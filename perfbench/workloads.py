"""The four benchmark workloads and the command sequences they mirror.

Each workload drives the same public functions, in the same order, as one or
more ``anchorwmd`` CLI commands (``cmd_train``, ``cmd_eval``,
``cmd_interpret``, ``cmd_baseline``). A workload has three parts:

- ``setup``: parse the vector file and the corpora and build the measures
  (plus the checkpoint load for ``eval_interpret``). Timed as ``setup_s``.
- ``round``: the timed work, repeated until the run's time is spent. Its
  main phase gives ``docs_per_s`` and its keyword step ``words_per_s``.
  Both are timed in parts (a call or a few calls each) with the host's
  pace measured around each part (``Laps``), and the keyword step repeats
  within a round; ``run.py`` turns the parts into rates.
  Every round writes the same artifacts as the CLI and hashes them, so the
  rounds of one run are seeded reruns whose digests must match.
- ``final``: quality on held-out documents (``error_pct``) and planted
  keyword recovery (``keyword_precision``), checked against fixed floors.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from corpus import Shape

# CLI defaults that every workload shares
BATCH_SIZE = 32
ANCHOR_POINTS = 16
TOP_K = 30
K = 7
K_SWEEP = (1, 3, 5, 7)

# what EpochStats.stat holds for each loss
STAT_NAME = {"triplet": "hinge_active_fraction", "infonce": "softmax_entropy"}

# The keyword step is repeated within a round until its repetitions have
# taken this long, so that words/s rests on many timed repetitions.
MIN_KEYWORD_STEP_S = 0.25
# Test documents per classify_corpus (eval_interpret) and per
# knn_predict_corpus (knn_baseline) call: each call is one timed part of the
# main phase, about 0.1 s and 1 s long.
EVAL_CHUNK = 10
KNN_CHUNK = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "train", "eval" or "knn"
    shape: Shape
    threads: int
    epsilon: float = 0.1
    loss: str = "triplet"
    epochs: int = 1
    # Quality floors, fixed from seeds 1-10 at the commit that added the
    # benchmark, with a margin; a full-size run outside them is not correct.
    max_error_pct: float = 100.0
    min_keyword_precision: float = 0.0


TRAIN_SHAPE = Shape(
    num_classes=5,
    exclusive_per_class=200,
    common_words=1000,
    train_docs_per_class=25,
    test_docs_per_class=40,
    tokens_per_doc=120,
)
TINY = Shape(
    num_classes=3,
    exclusive_per_class=20,
    common_words=40,
    train_docs_per_class=4,
    test_docs_per_class=4,
    tokens_per_doc=30,
    dim=20,
)

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="train_triplet",
            why="default train config (triplet, relative eps 0.1, 1 thread) plus held-out eval: the plain single-thread baseline",
            kind="train",
            shape=TRAIN_SHAPE,
            threads=1,
            epochs=2,
            max_error_pct=30.0,
            min_keyword_precision=0.7,
        ),
        Workload(
            name="train_infonce_sharp",
            why="InfoNCE at relative eps 0.01: gradient assembly and long Sinkhorn solves dominate training",
            kind="train",
            shape=replace(TRAIN_SHAPE, train_docs_per_class=8, test_docs_per_class=20),
            threads=1,
            epsilon=0.01,
            loss="infonce",
            epochs=2,
            max_error_pct=30.0,
            min_keyword_precision=0.7,
        ),
        Workload(
            name="eval_interpret",
            why="12-class nearest-anchor eval and keyword interpretation over a 10k-word vocabulary from a fixed checkpoint; training idle",
            kind="eval",
            shape=Shape(
                # 12 classes rather than about 20: the importance TSV
                # has words x classes x (classes + 3) fields, and at 20
                # classes one interpret step took 4-8 s, too few repetitions
                # in a run for a steady words/s
                num_classes=12,
                exclusive_per_class=250,
                common_words=7400,
                train_docs_per_class=40,
                test_docs_per_class=10,
                tokens_per_doc=120,
            ),
            threads=1,
            max_error_pct=25.0,
            min_keyword_precision=0.95,
        ),
        Workload(
            name="knn_baseline",
            why="baseline command: raw-WMD k-NN over doc x doc costs plus TF-IDF keywords; no transform or anchors",
            kind="knn",
            shape=replace(TRAIN_SHAPE, train_docs_per_class=8, test_docs_per_class=2),
            threads=1,
            max_error_pct=30.0,
            min_keyword_precision=0.9,
        ),
    ]
}


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _safe_name(name: str) -> str:
    return "".join(c if c.isalnum() or c in "_-" else "_" for c in name)


@dataclass
class Ops:
    """Operations attempted and failed, with the reasons for failures."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        self.problems.append(reason)


@dataclass
class RoundResult:
    main: "Laps"  # the parts of the main phase; the same parts every round
    main_items: int  # documents (or document-epochs) it processed
    keyword_reps: list["Laps"]  # the parts of each repetition of the keyword step
    keyword_words: int  # words ranked by one repetition
    digests: dict[str, str]
    outputs: dict  # objects ``final`` checks; it reads the first round's

    @property
    def main_s(self) -> float:
        return sum(self.main.parts)


# The host's pace: how long a fixed piece of work takes now, relative to
# CALIBRATION_REF_S, the time it took on the 2-vCPU host the benchmark was
# tuned on when that host was quiet. That shared host runs everything up to
# twice as slow for stretches of seconds to minutes. The calibration slows
# more than the program: over the tuning runs a part's time grew with about
# the 0.6th power of the pace (0.5-0.7 for most parts, from the parts'
# times at the top and bottom quartiles of pace). A time divided by
# pace ** PACE_EXPONENT is the time at the reference pace, which a slow
# stretch moves far less than the time itself.
CALIBRATION_REF_S = 0.0027
PACE_EXPONENT = 0.6
_CALIBRATION_KERNEL = np.exp(-np.random.default_rng(0).random((112, 16)) / 0.1)


def calibrate() -> float:
    """Seconds of a fixed piece of work like the program's (small matrix-vector
    products and a dict-counting loop, about 3 ms), the fastest of three tries."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        n, m = _CALIBRATION_KERNEL.shape
        u = np.ones(n)
        for _ in range(500):  # Sinkhorn scaling between uniform marginals
            v = (1.0 / m) / (_CALIBRATION_KERNEL.T @ u)
            u = (1.0 / n) / (_CALIBRATION_KERNEL @ v)
        counts: dict[int, int] = {}
        for i in range(15000):
            counts[i % 97] = counts.get(i % 97, 0) + 1
        times.append(time.perf_counter() - start)
    return min(times)


class Laps:
    """Seconds between successive ``lap()`` calls, with a calibration before
    the first part and after each part (not counted in any part)."""

    def __init__(self):
        self.parts: list[float] = []
        self.calibrations = [calibrate()]
        self._last = time.perf_counter()

    def lap(self) -> None:
        self.parts.append(time.perf_counter() - self._last)
        self.calibrations.append(calibrate())
        self._last = time.perf_counter()

    @property
    def paces(self) -> list[float]:
        """The host's pace during each part: the median of the calibrations
        just before and after it and of their neighbours, over CALIBRATION_REF_S."""
        cal = self.calibrations
        return [statistics.median(cal[max(0, i - 1) : i + 3]) / CALIBRATION_REF_S for i in range(len(self.parts))]

    def at_reference_pace(self) -> list[float]:
        """Each part's seconds divided by the host's pace during it, to the PACE_EXPONENT."""
        return [t / pace**PACE_EXPONENT for t, pace in zip(self.parts, self.paces)]


def _chunks(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


class Context:
    """Paths and program modules for one run of one workload."""

    def __init__(self, pkg, workload: Workload, shape: Shape, inputs: str, out: str):
        self.pkg = pkg
        self.workload = workload
        self.shape = shape
        self.inputs = inputs
        self.out = out
        self.threads = min(workload.threads, os.cpu_count() or 1)

    def path(self, name: str) -> str:
        return os.path.join(self.inputs, name)

    def sinkhorn_config(self):
        return self.pkg.ot.SinkhornConfig(epsilon=self.workload.epsilon)


# --------------------------------------------------------------------------
# set-up: what the CLI commands do before their first transport solve


def setup(ctx: Context) -> dict:
    data, model = ctx.pkg.data, ctx.pkg.model
    w = ctx.workload
    state: dict = {}
    if w.kind == "eval":
        # cmd_eval on the held-out corpus and cmd_interpret on the (larger)
        # training corpus, sharing one checkpoint load and one vector parse
        fitted = model.load_checkpoint(ctx.path("checkpoint.json"))
        table = data.load_word_vectors(ctx.path("vectors.txt"))
        if fitted.vocab_hash and fitted.vocab_hash != table.vocab_hash:
            raise ValueError("word-vector file does not match the checkpoint")
        test = data.remap_labels(data.load_corpus(ctx.path("test.tsv"), "lines"), fitted.class_names)
        measures, doc_ids = data.corpus_to_measures(test, table)
        train = data.remap_labels(data.load_corpus(ctx.path("train.tsv"), "lines"), fitted.class_names)
        state.update(fitted=fitted, table=table, test=test, train=train, test_measures=measures, test_ids=doc_ids)
        return state
    # cmd_train / cmd_baseline with --test-corpus
    table = data.load_word_vectors(ctx.path("vectors.txt"))
    train_corpus = data.load_corpus(ctx.path("train.tsv"), "lines")
    test_corpus = data.remap_labels(data.load_corpus(ctx.path("test.tsv"), "lines"), train_corpus.class_names)
    measures, _ = data.corpus_to_measures(train_corpus, table)
    state.update(table=table, train=train_corpus, test=test_corpus, train_measures=measures)
    if w.kind == "knn":
        test_measures, test_ids = data.corpus_to_measures(test_corpus, table)
        state.update(test_measures=test_measures, test_ids=test_ids)
    return state


# --------------------------------------------------------------------------
# rounds


def run_round(ctx: Context, state: dict, ops: Ops, tracer=None) -> RoundResult:
    kind = ctx.workload.kind
    if kind == "train":
        return _train_round(ctx, state, ops, tracer)
    if kind == "eval":
        return _eval_round(ctx, state, ops, tracer)
    return _knn_round(ctx, state, ops, tracer)


def _set_phase(tracer, phase: str) -> None:
    if tracer is not None:
        tracer.phase = phase


def batches_per_epoch(ctx: Context, state: dict) -> int:
    return math.ceil(len(state["train_measures"]) / BATCH_SIZE)


def _train_round(ctx: Context, state: dict, ops: Ops, tracer) -> RoundResult:
    pkg, w = ctx.pkg, ctx.workload
    measures = state["train_measures"]
    cfg = pkg.training.TrainConfig(
        loss_kind=w.loss,
        epochs=w.epochs,
        batch_size=BATCH_SIZE,
        seed=0,
        anchor_points=ANCHOR_POINTS,
        threads=ctx.threads,
        sinkhorn=ctx.sinkhorn_config(),
    )
    batches = w.epochs * batches_per_epoch(ctx, state)
    ops.attempted += batches
    checkpoint = os.path.join(ctx.out, "checkpoint.json")
    history_path = os.path.join(ctx.out, "loss_history.csv")
    _set_phase(tracer, "train")
    laps = Laps()
    # cmd_train: fit, then checkpoint and loss history on disk
    fitted, history = pkg.training.train(
        measures, cfg, class_names=state["train"].class_names, vocab_hash=state["table"].vocab_hash
    )
    laps.lap()
    pkg.model.save_checkpoint(fitted, checkpoint)
    pkg.training.write_loss_history(history, history_path, cfg.loss_kind)
    laps.lap()
    per_epoch = batches_per_epoch(ctx, state)
    for row in history:
        if not math.isfinite(row.mean_loss):
            ops.fail(per_epoch, f"epoch {row.epoch}: non-finite mean loss {row.mean_loss}")
    digests = {"checkpoint": sha256_file(checkpoint), "loss_history": sha256_file(history_path)}
    keyword_reps, words, table, kd = _interpret_step(ctx, fitted, state["train"], state["table"], tracer)
    digests.update(kd)
    solves = len(measures) * fitted.num_classes * w.epochs
    outputs = {
        "importance": table,
        "nonconverged_share": sum(r.nonconverged for r in history) / solves,
        # EpochStats.stat of the first and last epoch, under the loss's name for it
        STAT_NAME[w.loss]: (history[0].stat, history[-1].stat),
    }
    return RoundResult(laps, len(measures) * w.epochs, keyword_reps, words, digests, outputs)


def _eval_round(ctx: Context, state: dict, ops: Ops, tracer) -> RoundResult:
    fitted = state["fitted"]
    predictions, main, digests = _classify(ctx, fitted, state, ops, tracer)
    keyword_reps, words, table, kd = _interpret_step(ctx, fitted, state["train"], state["table"], tracer)
    digests.update(kd)
    outputs = {"predictions": predictions, "importance": table}
    return RoundResult(main, len(predictions), keyword_reps, words, digests, outputs)


def _classify(ctx: Context, fitted, state: dict, ops: Ops, tracer):
    """cmd_eval after set-up: classify, error rate, predictions.csv."""
    classify = ctx.pkg.classify
    measures = state["test_measures"]
    ops.attempted += len(measures)
    _set_phase(tracer, "eval")
    laps = Laps()
    predictions = []
    for chunk in _chunks(measures, EVAL_CHUNK):
        predictions += classify.classify_corpus(chunk, fitted, ctx.sinkhorn_config(), threads=ctx.threads)
        laps.lap()
    bad = [i for i, p in enumerate(predictions) if not prediction_ok(p, fitted.num_classes)]
    if bad:
        ops.fail(len(bad), f"{len(bad)} predictions with non-finite or inconsistent distances")
    path = os.path.join(ctx.out, "predictions.csv")
    classify.write_predictions(path, state["test_ids"], [m.label for m in measures], predictions)
    return predictions, laps, {"predictions": sha256_file(path)}


def prediction_ok(prediction, num_classes: int) -> bool:
    """Finite distances, one per class, and the prediction is their argmin."""
    dists = np.asarray(prediction.anchor_distances, dtype=float)
    return (
        dists.shape == (num_classes,)
        and bool(np.all(np.isfinite(dists)))
        and prediction.predicted_class == int(np.argmin(dists))
    )


def _repeat_timed(step, tracer):
    """Run ``step(laps)`` until it has taken MIN_KEYWORD_STEP_S.

    Returns the ``Laps`` of each run and the last run's result. A traced
    round runs it once, so that its span counts do not depend on timing.
    """
    reps = []
    while True:
        laps = Laps()
        result = step(laps)
        reps.append(laps)
        if sum(sum(r.parts) for r in reps) >= MIN_KEYWORD_STEP_S or tracer is not None:
            return reps, result


def _interpret_step(ctx: Context, fitted, corpus, vectors_table, tracer):
    """cmd_interpret after set-up: importance.tsv, top words per class, projection.tsv."""
    interpret = ctx.pkg.interpret
    out = os.path.join(ctx.out, "interpret")
    os.makedirs(out, exist_ok=True)
    _set_phase(tracer, "interpret")

    def step(laps):
        words = [w for w in corpus.vocabulary() if w in vectors_table]
        vectors = vectors_table.matrix[[vectors_table.index[w] for w in words]]
        table = interpret.compute_importance_table(fitted, words, vectors)
        laps.lap()
        table.write_tsv(os.path.join(out, "importance.tsv"))
        laps.lap()
        totals: dict[str, int] = {}
        per_class: list[dict[str, int]] = [{} for _ in fitted.class_names]
        for doc in corpus.documents:
            for token, count in doc.counts.items():
                totals[token] = totals.get(token, 0) + count
                per_class[doc.label][token] = per_class[doc.label].get(token, 0) + count
        summary = []  # the per-class lines cmd_interpret prints
        for class_id, class_name in enumerate(fitted.class_names):
            ranked = interpret.top_k_words(table, class_id, TOP_K)
            with open(os.path.join(out, f"top_words_{_safe_name(class_name)}.tsv"), "w", encoding="utf-8") as fh:
                fh.write("rank\tword\timportance\n")
                for rank, (word, score) in enumerate(ranked, 1):
                    fh.write(f"{rank}\t{word}\t{score!r}\n")
            shown = sum(totals.get(word, 0) for word, _ in ranked)
            in_class = sum(per_class[class_id].get(word, 0) for word, _ in ranked)
            summary.append((class_name, shown, in_class))
        laps.lap()
        interpret.export_projection(fitted, table, vectors, TOP_K, os.path.join(out, "projection.tsv"))
        laps.lap()
        return table

    reps, table = _repeat_timed(step, tracer)
    digests = {f"interpret/{name}": sha256_file(os.path.join(out, name)) for name in sorted(os.listdir(out))}
    return reps, len(table.words), table, digests


def _knn_round(ctx: Context, state: dict, ops: Ops, tracer) -> RoundResult:
    """cmd_baseline after set-up: k-NN sweep, its CSVs, TF-IDF keywords."""
    classify, interpret = ctx.pkg.classify, ctx.pkg.interpret
    test, train = state["test_measures"], state["train_measures"]
    ks = sorted({K, *K_SWEEP})
    ops.attempted += len(test)
    _set_phase(tracer, "knn")
    laps = Laps()
    sweep: dict[int, list[int]] = {k: [] for k in ks}
    for chunk in _chunks(test, KNN_CHUNK):
        for k, predicted in classify.knn_predict_corpus(chunk, train, ks, ctx.sinkhorn_config(), threads=ctx.threads).items():
            sweep[k] += predicted
        laps.lap()
    num_classes = state["train"].num_classes
    bad = [i for i in range(len(test)) if not all(0 <= sweep[k][i] < num_classes for k in ks)]
    if bad:
        ops.fail(len(bad), f"{len(bad)} k-NN test docs with invalid predictions")
    truths = [m.label for m in test]
    knn_path = os.path.join(ctx.out, "knn_predictions.csv")
    with open(knn_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("doc_id,true_label,predicted_label\n")
        for doc_id, truth, pred in zip(state["test_ids"], truths, sweep[K]):
            fh.write(f"{doc_id},{truth},{pred}\n")
    sweep_path = os.path.join(ctx.out, "k_sweep.csv")
    with open(sweep_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("k,error_rate\n")
        for k in ks:
            fh.write(f"{k},{classify.error_rate(sweep[k], truths)!r}\n")
    digests = {"knn_predictions": sha256_file(knn_path), "k_sweep": sha256_file(sweep_path)}

    corpus = state["train"]
    out = os.path.join(ctx.out, "tfidf")
    os.makedirs(out, exist_ok=True)
    _set_phase(tracer, "tfidf")

    def step(laps):
        ranked_all = []
        for class_id, class_name in enumerate(corpus.class_names):
            ranked = interpret.tfidf_top_words(corpus, class_id, TOP_K)
            ranked_all.append(ranked)
            with open(os.path.join(out, f"tfidf_top_words_{_safe_name(class_name)}.tsv"), "w", encoding="utf-8") as fh:
                fh.write("rank\tword\tscore\n")
                for rank, (word, score) in enumerate(ranked, 1):
                    fh.write(f"{rank}\t{word}\t{score!r}\n")
        laps.lap()
        return ranked_all

    keyword_reps, ranked_all = _repeat_timed(step, tracer)
    digests.update({f"tfidf/{n}": sha256_file(os.path.join(out, n)) for n in sorted(os.listdir(out))})
    outputs = {"sweep": sweep, "tfidf": ranked_all}
    return RoundResult(laps, len(test), keyword_reps, len(corpus.vocabulary()), digests, outputs)


# --------------------------------------------------------------------------
# final checks and quality


def keyword_precision(rankings: list[list[tuple[str, float]]], class_names, planted) -> float:
    """Share of each class's top-k words that were planted for that class."""
    hits = total = 0
    for class_name, ranked in zip(class_names, rankings):
        own = set(planted[class_name])
        hits += sum(1 for word, _ in ranked if word in own)
        total += len(ranked)
    return hits / total if total else 0.0


def importance_ok(table) -> bool:
    """Finite importances whose per-word sum over classes is zero."""
    imp = np.asarray(table.importances, dtype=float)
    if not np.all(np.isfinite(imp)) or not np.all(np.isfinite(table.min_distances)):
        return False
    scale = max(float(np.abs(table.min_distances).max()), 1.0) * imp.shape[1]
    return bool(np.all(np.abs(imp.sum(axis=1)) <= 1e-9 * scale))


def reference_knn_vote(distances: np.ndarray, labels: list[int], k: int) -> int:
    """Most votes among the k nearest, then the smaller mean distance, then the smaller class id."""
    nearest = np.argsort(distances, kind="stable")[: min(k, distances.size)]
    votes: dict[int, list[float]] = {}
    for idx in nearest:
        votes.setdefault(labels[idx], []).append(float(distances[idx]))
    return min(votes, key=lambda c: (-len(votes[c]), float(np.mean(votes[c])), c))


def quality_problems(w: Workload, quality: dict) -> list[str]:
    """Quality outside the floors fixed for the full-size workload."""
    problems = []
    if quality["error_pct"] > w.max_error_pct:
        problems.append(f"error_pct {quality['error_pct']:.2f} above the ceiling {w.max_error_pct}")
    if quality["keyword_precision"] < w.min_keyword_precision:
        problems.append(f"keyword_precision {quality['keyword_precision']:.3f} below the floor {w.min_keyword_precision}")
    return problems


def final(ctx: Context, state: dict, first: RoundResult, planted: dict, ops: Ops) -> dict:
    """Quality metrics and output checks that need no timing."""
    pkg, w = ctx.pkg, ctx.workload
    result: dict = {}
    if w.kind == "knn":
        sweep = first.outputs["sweep"]
        test, train = state["test_measures"], state["train_measures"]
        truths = [m.label for m in test]
        result["error_pct"] = 100.0 * pkg.classify.error_rate(sweep[K], truths)
        # brute-force reference for the first test document
        cfg = ctx.sinkhorn_config()
        doc = test[0]
        dists = np.array(
            [
                pkg.ot.sinkhorn(pkg.ot.ground_cost_matrix(doc.support, n.support), doc.weights, n.weights, cfg).distance
                for n in train
            ]
        )
        labels = [n.label for n in train]
        if not np.all(np.isfinite(dists)):
            ops.fail(1, "reference k-NN distances are not finite")
        elif any(reference_knn_vote(dists, labels, k) != sweep[k][0] for k in sweep):
            ops.fail(1, "k-NN prediction differs from the brute-force reference")
        result["keyword_precision"] = keyword_precision(first.outputs["tfidf"], state["train"].class_names, planted)
        return result

    table = first.outputs["importance"]
    if not importance_ok(table):
        ops.fail(1, "importance table is non-finite or not zero-sum")
    rankings = [pkg.interpret.top_k_words(table, k, TOP_K) for k in range(len(table.class_names))]
    for ranked in rankings:
        scores = [s for _, s in ranked]
        if scores != sorted(scores, reverse=True):
            ops.fail(1, "top-k words are not in descending importance")
    result["keyword_precision"] = keyword_precision(rankings, table.class_names, planted)

    if w.kind == "eval":
        predictions = first.outputs["predictions"]
    else:
        # cmd_eval on the held-out documents with the trained checkpoint
        fitted = pkg.model.load_checkpoint(os.path.join(ctx.out, "checkpoint.json"))
        measures, ids = pkg.data.corpus_to_measures(state["test"], state["table"])
        state.update(test_measures=measures, test_ids=ids)
        predictions, _, _ = _classify(ctx, fitted, state, ops, None)
        result["nonconverged_share"] = first.outputs["nonconverged_share"]
    truths = [m.label for m in state["test_measures"]]
    result["error_pct"] = 100.0 * pkg.classify.error_rate([p.predicted_class for p in predictions], truths)
    return result
