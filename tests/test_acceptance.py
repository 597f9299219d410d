"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from anchorwmd.classify import classify_corpus, error_rate, knn_predict_corpus
from anchorwmd.cli import main
from anchorwmd.data import corpus_to_measures, load_corpus, load_word_vectors, remap_labels, save_corpus_lines, save_word_vectors
from anchorwmd.interpret import compute_importance_table, tfidf_top_words, top_k_words
from anchorwmd.model import AnchorModel, DocumentMeasure
from anchorwmd.ot import SinkhornConfig, ground_cost_matrix, sinkhorn
from anchorwmd.synthetic import planted_two_cluster_data
from anchorwmd.training import TrainConfig, _infonce_terms, _triplet_terms, batch_gradients, train
from conftest import exact_ot_uniform


def _report(name: str) -> None:
    print(f"\n[ACCEPTANCE] {name}: PASS")


def test_sinkhorn_correctness_against_permutation_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        cost = rng.uniform(size=(n, n))
        weights = np.full(n, 1.0 / n)
        cfg = SinkhornConfig(
            epsilon=0.001 * float(cost.mean()), relative=False, max_iters=2000, tolerance=1e-6
        )
        result = sinkhorn(cost, weights, weights, cfg)
        exact = exact_ot_uniform(cost)
        assert result.distance == pytest.approx(exact, rel=0.02)
        assert np.abs(result.plan.sum(axis=1) - weights).max() <= 1e-6
        assert np.abs(result.plan.sum(axis=0) - weights).max() <= 1e-6
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"sinkhorn oracle run took {elapsed:.1f}s"
    _report("sinkhorn correctness (50 instances, 2% of exact, feasible, <10s)")


def _random_gradient_instance(rng, loss_kind):
    """Small labeled batch, model, and a frozen-epsilon config with the
    triplet hinge active and away from its kink."""
    while True:
        d = int(rng.integers(2, 5))
        p = int(rng.integers(1, 4))
        docs = []
        for label in (0, 1):
            n = int(rng.integers(2, 6))
            w = rng.uniform(0.2, 1.0, n)
            w /= w.sum()
            docs.append(
                DocumentMeasure(np.arange(n), rng.standard_normal((d, n)), w, label=label)
            )
        transform = np.eye(d) + 0.2 * rng.standard_normal((d, d))
        anchors = rng.standard_normal((2, d, p))
        model = AnchorModel(transform, anchors, ["0", "1"])

        pooled = []
        for doc in docs:
            embedded = transform @ doc.support
            for k in range(2):
                pooled.append(ground_cost_matrix(embedded, anchors[k]).mean())
        eps = 0.5 * float(np.mean(pooled))
        sink = SinkhornConfig(epsilon=eps, relative=False, max_iters=5000, tolerance=1e-12)

        # hinge arguments for margin 1: keep them off the kink and one active
        target = np.full(p, 1.0 / p)
        gaps = []
        for doc in docs:
            embedded = transform @ doc.support
            dists = [
                sinkhorn(ground_cost_matrix(embedded, anchors[k]), doc.weights, target, sink).reg_distance
                for k in range(2)
            ]
            gaps.append(dists[doc.label] - dists[1 - doc.label] + 1.0)
        if loss_kind == "triplet" and (min(abs(g) for g in gaps) < 0.05 or not any(g > 0 for g in gaps)):
            continue
        cfg = TrainConfig(loss_kind=loss_kind, margin=1.0, temperature=2.0, l2_coeff=0.001, sinkhorn=sink)
        return docs, model, cfg


def test_gradient_fidelity_against_finite_differences():
    started = time.monotonic()
    rng = np.random.default_rng(7)
    h = 1e-4
    for trial in range(20):
        loss_kind = "triplet" if trial % 2 == 0 else "infonce"
        docs, model, cfg = _random_gradient_instance(rng, loss_kind)
        bundle = batch_gradients(model, docs, cfg)

        def loss_at(transform, anchors):
            return batch_gradients(
                AnchorModel(transform, anchors, model.class_names), docs, cfg
            ).loss_value

        for grad, base, which in (
            (bundle.grad_transform, model.transform, "transform"),
            (bundle.grad_anchors, model.anchors, "anchors"),
        ):
            flat = grad.ravel()
            for idx in range(base.size):
                up = base.ravel().copy()
                up[idx] += h
                down = base.ravel().copy()
                down[idx] -= h
                if which == "transform":
                    fd = (loss_at(up.reshape(base.shape), model.anchors)
                          - loss_at(down.reshape(base.shape), model.anchors)) / (2 * h)
                else:
                    fd = (loss_at(model.transform, up.reshape(base.shape))
                          - loss_at(model.transform, down.reshape(base.shape))) / (2 * h)
                assert flat[idx] == pytest.approx(fd, rel=1e-3, abs=1e-5), (
                    f"trial {trial} ({loss_kind}) {which}[{idx}]"
                )
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"gradient fidelity run took {elapsed:.1f}s"
    _report("gradient fidelity (20 configs, FD within max(1e-3 rel, 1e-5 abs), <60s)")


def test_loss_identities():
    for y in (2, 3, 5):
        dists = np.full(y, 17.3)
        assert _infonce_terms(dists, 0, 30.0)[0] == pytest.approx(np.log(y), abs=1e-9)
    for y in (2, 3, 5):
        beta = 10.0
        dists = np.full(y, 4.0)
        assert _triplet_terms(dists, 0, beta)[0] == pytest.approx((y - 1) * beta, abs=1e-9)
    _report("loss identities (InfoNCE ln Y, triplet tie (Y-1)*beta, 1e-9)")


@dataclass
class SyntheticRun:
    synth: object
    words: list
    vectors: np.ndarray
    models: dict
    train_measures: list
    test_measures: list
    durations: dict


@pytest.fixture(scope="module")
def synthetic_run():
    synth = planted_two_cluster_data(seed=0)
    train_measures, _ = corpus_to_measures(synth.train, synth.vectors)
    test_measures, _ = corpus_to_measures(synth.test, synth.vectors)
    words = [w for w in synth.train.vocabulary() if w in synth.vectors]
    vectors = synth.vectors.matrix[[synth.vectors.index[w] for w in words]]
    models = {}
    durations = {}
    for loss_kind in ("triplet", "infonce"):
        started = time.monotonic()
        cfg = TrainConfig(loss_kind=loss_kind, epochs=30, seed=0)
        model, _ = train(train_measures, cfg, class_names=synth.train.class_names)
        models[loss_kind] = (model, cfg)
        durations[loss_kind] = time.monotonic() - started
    return SyntheticRun(
        synth=synth,
        words=words,
        vectors=vectors,
        models=models,
        train_measures=train_measures,
        test_measures=test_measures,
        durations=durations,
    )


@pytest.mark.parametrize("loss_kind", ["triplet", "infonce"])
def test_synthetic_end_to_end(synthetic_run, loss_kind):
    run = synthetic_run
    started = time.monotonic()
    model, cfg = run.models[loss_kind]
    predictions = classify_corpus(run.test_measures, model, cfg.sinkhorn)
    accuracy = 1.0 - error_rate(
        [p.predicted_class for p in predictions], [m.label for m in run.test_measures]
    )
    assert accuracy >= 0.99, f"{loss_kind} accuracy {accuracy:.3f}"

    table = compute_importance_table(model, run.words, run.vectors)
    for class_id, class_name in enumerate(model.class_names):
        top10 = {w for w, _ in top_k_words(table, class_id, 10)}
        assert top10 == set(run.synth.planted[class_name]), (
            f"{loss_kind}/{class_name}: top-10 {sorted(top10)}"
        )
    elapsed = run.durations[loss_kind] + (time.monotonic() - started)
    assert elapsed < 120.0, f"{loss_kind} end-to-end took {elapsed:.1f}s"
    _report(f"synthetic end-to-end [{loss_kind}] (accuracy >= 99%, planted top-10, <2min)")


def test_importance_zero_sum(synthetic_run):
    run = synthetic_run
    model, _ = run.models["triplet"]
    table = compute_importance_table(model, run.words, run.vectors)
    worst = float(np.abs(table.importances.sum(axis=1)).max())
    assert worst <= 1e-6, f"zero-sum violation {worst:.2e}"
    _report("importance zero-sum (every vocabulary word, 1e-6)")


def test_baseline_sanity(synthetic_run):
    run = synthetic_run
    sweep = knn_predict_corpus(
        run.test_measures,
        run.train_measures,
        ks=[7],
        config=SinkhornConfig(max_iters=100, tolerance=1e-6),
    )
    accuracy = 1.0 - error_rate(sweep[7], [m.label for m in run.test_measures])
    assert accuracy >= 0.95, f"knn accuracy {accuracy:.3f}"

    for class_id, class_name in enumerate(run.synth.train.class_names):
        top10 = {w for w, _ in tfidf_top_words(run.synth.train, class_id, 10)}
        hits = len(top10 & set(run.synth.planted[class_name]))
        assert hits >= 8, f"{class_name}: only {hits}/10 planted words in tf-idf top-10"
    _report("baseline sanity (wmd-knn k=7 >= 95%, tf-idf >= 8/10 planted)")


def test_train_determinism_and_thread_independence(tmp_path):
    synth = planted_two_cluster_data(
        seed=4, train_docs_per_class=8, test_docs_per_class=4, tokens_per_doc=12
    )
    vectors_path = tmp_path / "vectors.txt"
    corpus_path = tmp_path / "train.tsv"
    save_word_vectors({w: synth.vectors.vector(w) for w in synth.vectors.index}, str(vectors_path))
    save_corpus_lines(synth.train, str(corpus_path))

    outputs = {}
    for tag, threads in (("a", "1"), ("b", "1"), ("t8", "8")):
        out = tmp_path / tag
        code = main(
            [
                "train",
                "--vectors", str(vectors_path),
                "--corpus", str(corpus_path),
                "--out", str(out),
                "--epochs", "3",
                "--batch-size", "8",
                "--p", "4",
                "--seed", "0",
                "--threads", threads,
            ]
        )
        assert code == 0
        outputs[tag] = (
            (out / "loss_history.csv").read_bytes(),
            (out / "checkpoint.json").read_bytes(),
        )
    assert outputs["a"] == outputs["b"], "two seeded runs differ"
    assert outputs["a"] == outputs["t8"], "thread count changed the outputs"
    _report("determinism (seeded reruns identical; threads 1 == threads 8)")


_DATA_DIR = os.environ.get("ANCHORWMD_DATA_DIR")
_GLOVE = os.environ.get("ANCHORWMD_GLOVE")


@pytest.mark.skipif(
    not (_DATA_DIR and _GLOVE),
    reason="external data: set ANCHORWMD_DATA_DIR (bbcsport_train.tsv etc.) and ANCHORWMD_GLOVE",
)
@pytest.mark.parametrize(
    "dataset,max_error",
    [("bbcsport", 0.05), ("twitter", 0.30)],
)
def test_paper_scale_reproduction(dataset, max_error):
    """Optional desk-scale check on the public splits (triplet loss defaults)."""
    table = load_word_vectors(_GLOVE)
    train_corpus = load_corpus(os.path.join(_DATA_DIR, f"{dataset}_train.tsv"), "lines")
    test_corpus = remap_labels(
        load_corpus(os.path.join(_DATA_DIR, f"{dataset}_test.tsv"), "lines"),
        train_corpus.class_names,
    )
    train_measures, _ = corpus_to_measures(train_corpus, table)
    test_measures, _ = corpus_to_measures(test_corpus, table)
    cfg = TrainConfig(loss_kind="triplet", epochs=20, seed=0, threads=os.cpu_count() or 1)
    model, _ = train(train_measures, cfg, class_names=train_corpus.class_names)
    predictions = classify_corpus(
        test_measures, model, cfg.sinkhorn, threads=os.cpu_count() or 1
    )
    err = error_rate([p.predicted_class for p in predictions], [m.label for m in test_measures])
    assert err <= max_error, f"{dataset} error {100 * err:.1f}%"
    _report(f"paper-scale reproduction [{dataset}] (error <= {100 * max_error:.0f}%)")
