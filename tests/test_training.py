import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from anchorwmd import training as training_module
from anchorwmd.classify import classify_corpus, error_rate
from anchorwmd.data import Corpus, Document, WordVectorTable, corpus_to_measures
from anchorwmd.model import AnchorModel, DocumentMeasure, anchor_transport, init_anchors
from anchorwmd.ot import SinkhornConfig
from anchorwmd.training import (
    AdamState,
    TrainConfig,
    adam_step,
    batch_gradients,
    train,
    write_loss_history,
)
from anchorwmd.training import _infonce_terms, _triplet_terms


def triplet_value(dists, label, margin):
    """The triplet loss of a distance list."""
    return _triplet_terms(np.asarray(dists, dtype=float), label, margin)[0]


def infonce_value(dists, label, temperature):
    """The InfoNCE loss of a distance list."""
    return _infonce_terms(np.asarray(dists, dtype=float), label, temperature)[0]


def make_doc(support, weights, label=0):
    support = np.asarray(support, dtype=float)
    return DocumentMeasure(np.arange(support.shape[1]), support, weights, label=label)


class TestTripletLoss:
    def test_margin_satisfied(self):
        assert triplet_value([0.0, 20.0], 0, 10.0) == pytest.approx(0.0)

    def test_tie_pays_full_margin(self):
        assert triplet_value([7.0, 7.0], 0, 10.0) == pytest.approx(10.0)

    def test_three_class_hand_value(self):
        assert triplet_value([5.0, 8.0, 20.0], 0, 10.0) == pytest.approx(7.0)

    def test_nonnegative_and_zero_iff_satisfied(self, rng):
        for _ in range(50):
            y = int(rng.integers(2, 6))
            dists = rng.uniform(0, 50, size=y)
            label = int(rng.integers(y))
            margin = float(rng.uniform(0, 15))
            value = triplet_value(dists, label, margin)
            assert value >= 0.0
            satisfied = all(
                dists[label] - dists[k] + margin <= 0 for k in range(y) if k != label
            )
            assert (value == 0.0) == satisfied


class TestInfonceLoss:
    def test_equal_distances_give_log_y(self):
        assert infonce_value([3.0, 3.0], 0, 30.0) == pytest.approx(0.6931471805599453, abs=1e-12)
        for y in (2, 3, 5):
            dists = np.full(y, 12.5)
            assert infonce_value(dists, y - 1, 7.0) == pytest.approx(math.log(y), abs=1e-12)

    def test_dominant_positive_drives_loss_to_zero(self):
        assert infonce_value([0.0, 1e6], 0, 30.0) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        # -log(e^{-1/3} / (e^{-1/3} + e^{-4/3})) = log(1 + e^{-1})
        assert infonce_value([10.0, 40.0], 0, 30.0) == pytest.approx(0.31326168751822286, abs=1e-9)

    def test_temperature_scaling_invariance(self, rng):
        for _ in range(20):
            y = int(rng.integers(2, 6))
            dists = rng.uniform(0, 50, size=y)
            label = int(rng.integers(y))
            c = float(rng.uniform(0.1, 10))
            assert infonce_value(c * dists, label, 30.0 * c) == pytest.approx(
                infonce_value(dists, label, 30.0), abs=1e-12
            )


class TestLossCoefficients:
    def test_infonce_uniform_softmax(self):
        for y in (2, 3, 5):
            dists = np.full(y, 4.0)
            _, coeffs, _ = _infonce_terms(dists, 0, 30.0)
            assert coeffs[0] == pytest.approx((y - 1) / (y * 30.0), abs=1e-12)
            for k in range(1, y):
                assert coeffs[k] == pytest.approx(-1.0 / (y * 30.0), abs=1e-12)

    def test_coefficients_match_finite_differences(self, rng):
        h = 1e-6
        for _ in range(10):
            y = int(rng.integers(2, 5))
            dists = rng.uniform(1, 30, size=y)
            label = int(rng.integers(y))
            margin = float(rng.uniform(1, 10))
            while np.any(np.abs(dists[label] - np.delete(dists, label) + margin) < 0.01):
                dists = rng.uniform(1, 30, size=y)
            for loss, coeff_fn in (
                (lambda d: triplet_value(d, label, margin), lambda d: _triplet_terms(d, label, margin)),
                (lambda d: infonce_value(d, label, 30.0), lambda d: _infonce_terms(d, label, 30.0)),
            ):
                _, coeffs, _ = coeff_fn(dists)
                for k in range(y):
                    up = dists.copy()
                    up[k] += h
                    down = dists.copy()
                    down[k] -= h
                    fd = (loss(up) - loss(down)) / (2 * h)
                    assert coeffs[k] == pytest.approx(fd, abs=1e-6)


class TestLossTerms:
    def test_entropy_finite_when_a_probability_underflows(self):
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            loss, coeffs, entropy = _infonce_terms(np.array([0.0, 1e6]), 0, 30.0)
        assert loss == 0.0 and entropy == 0.0
        assert np.all(coeffs == 0.0)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = [np.array([[1.0, -2.0]]), np.ones((2, 2, 2))]
        state = AdamState.zeros_like(params)
        new_params, new_state = adam_step(params, [np.zeros_like(p) for p in params], state, lr=0.1)
        for before, after in zip(params, new_params):
            assert np.array_equal(before, after)
        assert new_state.step_count == 1

    def test_scalar_hand_value(self):
        params = [np.array([0.0])]
        state = AdamState.zeros_like(params)
        new_params, _ = adam_step(params, [np.array([1.0])], state, lr=0.1)
        assert new_params[0][0] == pytest.approx(-0.1 / (1.0 + 1e-8), abs=1e-12)

    def test_first_step_opposes_gradient_sign(self, rng):
        params = [rng.standard_normal((3, 3))]
        grads = [rng.standard_normal((3, 3))]
        state = AdamState.zeros_like(params)
        new_params, _ = adam_step(params, grads, state, lr=0.05)
        delta = new_params[0] - params[0]
        mask = grads[0] != 0
        assert np.all(np.sign(delta[mask]) == -np.sign(grads[0][mask]))


def _tiny_setup(rng, loss_kind, n_docs=2, y=2, d=3, p=2, words=3, l2=0.0):
    """A small labeled batch plus a model and a frozen-epsilon config."""
    docs = []
    for i in range(n_docs):
        n = int(rng.integers(2, words + 1))
        w = rng.uniform(0.2, 1.0, size=n)
        w /= w.sum()
        docs.append(make_doc(rng.standard_normal((d, n)), w, label=i % y))
    transform = np.eye(d) + 0.1 * rng.standard_normal((d, d))
    anchors = rng.standard_normal((y, d, p))
    model = AnchorModel(transform, anchors, [str(k) for k in range(y)])

    from anchorwmd.ot import ground_cost_matrix

    costs = []
    for doc in docs:
        embedded = transform @ doc.support
        for k in range(y):
            costs.append(ground_cost_matrix(embedded, anchors[k]).mean())
    eps = 0.5 * float(np.mean(costs))
    sinkhorn_cfg = SinkhornConfig(epsilon=eps, relative=False, max_iters=5000, tolerance=1e-12)
    cfg = TrainConfig(loss_kind=loss_kind, margin=1.0, temperature=2.0, l2_coeff=l2, sinkhorn=sinkhorn_cfg)
    return docs, model, cfg


def _reference_batch_gradients(model, batch, cfg):
    """Per-document, per-class gradient assembly, each document with its own d x d transform term."""
    grad_transform = 2.0 * cfg.l2_coeff * model.transform
    grad_anchors = np.zeros_like(model.anchors)
    loss = cfg.l2_coeff * float(np.sum(model.transform**2))
    active_docs = 0
    for doc in batch:
        embedded, result = anchor_transport(model, [doc], cfg.sinkhorn)
        dists = result.reg_distance
        if cfg.loss_kind == "triplet":
            loss += triplet_value(dists, doc.label, cfg.margin) / len(batch)
            active = dists[doc.label] - dists + cfg.margin > 0
            active[doc.label] = False
            coeffs = np.where(active, -1.0, 0.0)
            coeffs[doc.label] = active.sum()
        else:
            loss += infonce_value(dists, doc.label, cfg.temperature) / len(batch)
            probs = np.exp(-(dists - dists.min()) / cfg.temperature)
            probs /= probs.sum()
            coeffs = -probs / cfg.temperature
            coeffs[doc.label] += 1.0 / cfg.temperature
        active_docs += bool(np.any(coeffs != 0.0))
        grad_embedded = np.zeros_like(embedded)
        for k, (c, plan) in enumerate(zip(coeffs, result.plan)):
            anchor = model.anchors[k]
            grad_embedded += c * 2.0 * (embedded * plan.sum(axis=1)[None, :] - anchor @ plan.T)
            grad_anchors[k] += c * 2.0 * (anchor * plan.sum(axis=0)[None, :] - embedded @ plan) / len(batch)
        grad_transform += grad_embedded @ doc.support.T / len(batch)
    return grad_transform, grad_anchors, loss, active_docs


def _mixed_batch(rng, y, d=6, p=3, docs_per_class=2):
    """Well-separated classes: documents on their own anchor leave every hinge slack,
    documents drawn from the next class's anchor have active hinges."""
    centers = 20.0 * np.eye(y, d)
    anchors = centers[:, :, None] + 0.3 * rng.standard_normal((y, d, p))
    model = AnchorModel(np.eye(d) + 0.05 * rng.standard_normal((d, d)), anchors, [str(k) for k in range(y)])
    docs = []
    for label in range(y):
        for source in [label] * docs_per_class + [(label + 1) % y]:
            n = int(rng.integers(2, 6))
            w = rng.uniform(0.2, 1.0, size=n)
            support = centers[source][:, None] + 0.3 * rng.standard_normal((d, n))
            docs.append(make_doc(support, w / w.sum(), label=label))
    return docs, model


class TestBatchGradients:
    @pytest.mark.parametrize("y", [3, 5])
    @pytest.mark.parametrize("loss_kind", ["triplet", "infonce"])
    def test_matches_per_class_reference(self, rng, loss_kind, y):
        docs, model = _mixed_batch(rng, y)
        cfg = TrainConfig(loss_kind=loss_kind, margin=10.0, temperature=30.0, l2_coeff=0.001)
        bundle = batch_gradients(model, docs, cfg)
        ref_transform, ref_anchors, ref_loss, active_docs = _reference_batch_gradients(model, docs, cfg)
        if loss_kind == "triplet":
            # both the all-slack early exit and the batch product are exercised
            assert 0 < active_docs < len(docs)
        for got, ref in ((bundle.grad_transform, ref_transform), (bundle.grad_anchors, ref_anchors)):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        assert bundle.loss_value == pytest.approx(ref_loss, rel=1e-12)

    def test_inactive_hinges_leave_only_regularizer(self, rng):
        # doc sits on anchor 0; anchor 1 is far, so every hinge is slack
        q = np.array([[1.0], [0.0]])
        doc = make_doc(q, [1.0], label=0)
        anchors = np.stack([np.tile(q, (1, 2)), np.full((2, 2), 50.0)])
        model = AnchorModel(np.eye(2), anchors, ["a", "b"])
        cfg = TrainConfig(loss_kind="triplet", margin=5.0, l2_coeff=0.01)
        bundle = batch_gradients(model, [doc], cfg)
        assert bundle.grad_anchors == pytest.approx(np.zeros_like(anchors))
        assert bundle.grad_transform == pytest.approx(2 * 0.01 * model.transform)
        assert bundle.stat == pytest.approx(0.0)

    @pytest.mark.parametrize("loss_kind", ["triplet", "infonce"])
    def test_matches_finite_differences(self, rng, loss_kind):
        docs, model, cfg = _tiny_setup(rng, loss_kind, l2=0.001)
        bundle = batch_gradients(model, docs, cfg)
        if loss_kind == "triplet":
            # the check is only meaningful with at least one active hinge
            assert bundle.stat > 0

        def loss_at(transform, anchors):
            trial = AnchorModel(transform, anchors, model.class_names)
            return batch_gradients(trial, docs, cfg).loss_value

        h = 1e-4
        for grad, base, setter in (
            (bundle.grad_transform, model.transform, "transform"),
            (bundle.grad_anchors, model.anchors, "anchors"),
        ):
            flat_grad = grad.ravel()
            for idx in range(base.size):
                up = base.copy().ravel()
                up[idx] += h
                down = base.copy().ravel()
                down[idx] -= h
                if setter == "transform":
                    fd = (
                        loss_at(up.reshape(base.shape), model.anchors)
                        - loss_at(down.reshape(base.shape), model.anchors)
                    ) / (2 * h)
                else:
                    fd = (
                        loss_at(model.transform, up.reshape(base.shape))
                        - loss_at(model.transform, down.reshape(base.shape))
                    ) / (2 * h)
                assert flat_grad[idx] == pytest.approx(
                    fd, rel=1e-3, abs=1e-5
                ), f"{setter}[{idx}] ({loss_kind})"

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: under relative epsilon the gradient misses the d(epsilon)/d(cost) term",
    )
    @pytest.mark.parametrize("loss_kind", ["triplet", "infonce"])
    def test_matches_finite_differences_at_default_solver(self, rng, loss_kind):
        docs, model, cfg = _tiny_setup(rng, loss_kind, n_docs=6, y=3, d=4, p=3, l2=0.001)
        cfg = replace(cfg, sinkhorn=SinkhornConfig())
        bundle = batch_gradients(model, docs, cfg)

        def loss_at(transform):
            return batch_gradients(AnchorModel(transform, model.anchors, model.class_names), docs, cfg).loss_value

        h = 1e-4
        for idx in np.ndindex(model.transform.shape):
            step = np.zeros_like(model.transform)
            step[idx] = h
            fd = (loss_at(model.transform + step) - loss_at(model.transform - step)) / (2 * h)
            assert bundle.grad_transform[idx] == pytest.approx(fd, rel=1e-3, abs=1e-5), f"transform{idx}"

    def test_infonce_uniform_distance_stats(self, rng):
        docs, model, cfg = _tiny_setup(rng, "infonce")
        bundle = batch_gradients(model, docs, cfg)
        entropies = []
        for doc in docs:
            _, result = anchor_transport(model, [doc], cfg.sinkhorn)
            scores = -result.reg_distance / cfg.temperature
            probs = np.exp(scores - scores.max())
            probs /= probs.sum()
            entropies.append(-np.sum(probs * np.log(probs)))
        assert bundle.stat == pytest.approx(np.mean(entropies), rel=1e-12)

    def test_threads_do_not_change_result(self, rng):
        docs, model, cfg = _tiny_setup(rng, "triplet", n_docs=4)
        single = batch_gradients(model, docs, cfg)
        from dataclasses import replace

        threaded = batch_gradients(model, docs, replace(cfg, threads=4))
        assert np.array_equal(single.grad_transform, threaded.grad_transform)
        assert np.array_equal(single.grad_anchors, threaded.grad_anchors)
        assert single.loss_value == threaded.loss_value

    @pytest.mark.parametrize("batch_size", [13, 1])
    @pytest.mark.parametrize("loss_kind", ["triplet", "infonce"])
    def test_stacks_match_reference_at_any_thread_count(self, rng, loss_kind, batch_size):
        # 13 documents are a full stack of 8 and a ragged stack of 5
        docs, model = _mixed_batch(rng, 3, docs_per_class=4)
        docs = docs[:batch_size]
        cfg = TrainConfig(loss_kind=loss_kind, margin=10.0, temperature=30.0, l2_coeff=0.001)
        single = batch_gradients(model, docs, cfg)
        threaded = batch_gradients(model, docs, replace(cfg, threads=4))
        assert np.array_equal(single.grad_transform, threaded.grad_transform)
        assert np.array_equal(single.grad_anchors, threaded.grad_anchors)
        assert (single.loss_value, single.stat) == (threaded.loss_value, threaded.stat)
        assert single.nonconverged_solves == threaded.nonconverged_solves
        ref_transform, ref_anchors, ref_loss, _ = _reference_batch_gradients(model, docs, cfg)
        for got, ref in ((single.grad_transform, ref_transform), (single.grad_anchors, ref_anchors)):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        assert single.loss_value == pytest.approx(ref_loss, rel=1e-12)

    def test_wrong_dimension_document_in_a_stack_rejected(self, rng):
        docs, model, cfg = _tiny_setup(rng, "triplet", n_docs=10)
        docs[9] = make_doc(rng.standard_normal((4, 2)), [0.5, 0.5], label=1)
        with pytest.raises(ValueError, match="document dimension 4 does not match model dimension 3"):
            batch_gradients(model, docs, cfg)

    @pytest.mark.parametrize("label", [5, -1])
    def test_label_outside_the_classes_rejected(self, rng, monkeypatch, label):
        docs, model, cfg = _tiny_setup(rng, "triplet", n_docs=10)
        docs[9] = make_doc(docs[9].support, docs[9].weights, label=label)
        # checked before any stack is solved
        monkeypatch.setattr(training_module, "anchor_transport", lambda *args: pytest.fail("solved a stack"))
        with pytest.raises(ValueError, match=f"label {label} out of range for 2 classes"):
            batch_gradients(model, docs, cfg)

    def test_empty_batch_rejected(self, rng):
        _, model, cfg = _tiny_setup(rng, "triplet")
        with pytest.raises(ValueError):
            batch_gradients(model, [], cfg)


class TestL2Shrinkage:
    def test_transform_norm_decreases_when_hinges_inactive(self):
        q = np.array([[1.0], [0.0]])
        doc = make_doc(q, [1.0], label=0)
        anchors = np.stack([np.tile(q, (1, 2)), np.full((2, 2), 50.0)])
        transform = np.eye(2)
        cfg = TrainConfig(loss_kind="triplet", margin=5.0, l2_coeff=0.01, learning_rate=0.01)
        state = AdamState.zeros_like([transform, anchors])
        norms = [np.linalg.norm(transform)]
        for _ in range(5):
            model = AnchorModel(transform, anchors, ["a", "b"])
            bundle = batch_gradients(model, [doc], cfg)
            (transform, anchors), state = adam_step(
                [transform, anchors], [bundle.grad_transform, bundle.grad_anchors], state, cfg.learning_rate
            )
            norms.append(np.linalg.norm(transform))
        assert all(b < a for a, b in zip(norms, norms[1:]))


def _toy_corpus(rng, docs_per_class=6):
    docs = []
    centers = [np.array([-2.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0])]
    for label in (0, 1):
        for _ in range(docs_per_class):
            n = int(rng.integers(2, 5))
            support = centers[label][:, None] + 0.3 * rng.standard_normal((3, n))
            w = np.full(n, 1.0 / n)
            docs.append(make_doc(support, w, label=label))
    return docs


class TestTrain:
    def test_zero_learning_rate_keeps_initialization(self, rng):
        corpus = _toy_corpus(rng)
        cfg = TrainConfig(epochs=1, learning_rate=0.0, batch_size=4, seed=7, anchor_points=2)
        model, history = train(corpus, cfg)
        from anchorwmd.model import init_anchors

        assert np.array_equal(model.transform, np.eye(3))
        assert np.array_equal(model.anchors, init_anchors(corpus, 2, 2, seed=7))
        assert len(history) == 1

    def test_loss_decreases_on_separable_corpus(self, rng):
        corpus = _toy_corpus(rng)
        cfg = TrainConfig(epochs=8, batch_size=4, seed=3, anchor_points=2, margin=2.0)
        _, history = train(corpus, cfg)
        assert history[-1].mean_loss < history[0].mean_loss

    def test_seeded_runs_are_bitwise_identical(self, rng):
        corpus = _toy_corpus(rng, docs_per_class=4)
        cfg = TrainConfig(epochs=3, batch_size=4, seed=11, anchor_points=2)
        model_a, history_a = train(corpus, cfg)
        model_b, history_b = train(corpus, cfg)
        assert np.array_equal(model_a.transform, model_b.transform)
        assert np.array_equal(model_a.anchors, model_b.anchors)
        assert [h.mean_loss for h in history_a] == [h.mean_loss for h in history_b]

    def test_negative_label_rejected(self, rng):
        corpus = _toy_corpus(rng, docs_per_class=3)
        corpus.append(make_doc(corpus[0].support, corpus[0].weights, label=-1))
        with pytest.raises(ValueError, match="label -1 out of range for 2 classes"):
            train(corpus, TrainConfig(epochs=1, batch_size=4, anchor_points=2), class_names=["a", "b"])

    def test_single_class_rejected(self, rng):
        docs = [make_doc(rng.standard_normal((2, 2)), [0.5, 0.5], label=0)]
        with pytest.raises(ValueError):
            train(docs, TrainConfig(epochs=1))


def planted_nuisance_measures(seed, dim=20, pool=20, tokens=12, docs_per_class=40, noise=2.0):
    """Train and test measures of two classes that differ only along axis 0.

    Each class owns ``pool`` words at -1 or +1 on axis 0, and ``pool`` common
    words sit at 0; every word gets N(0, noise^2) on the other axes, so raw
    distances are dominated by nuisance directions. Each of a document's
    ``tokens`` tokens is a fair coin between its class's words and the common words.
    """
    rng = np.random.default_rng(seed)
    pools = {name: [f"{name}{i:02d}" for i in range(pool)] for name in ("minus", "plus", "common")}
    vectors = {}
    for name, axis0 in (("minus", -1.0), ("plus", 1.0), ("common", 0.0)):
        for word in pools[name]:
            vectors[word] = np.concatenate([[axis0], noise * rng.standard_normal(dim - 1)])
    table = WordVectorTable.from_dict(vectors)

    def measures(tag):
        docs = []
        for label, name in enumerate(("minus", "plus")):
            for i in range(docs_per_class):
                counts = Counter()
                for _ in range(tokens):
                    words = pools[name] if rng.random() < 0.5 else pools["common"]
                    counts[words[rng.integers(pool)]] += 1
                docs.append(Document(f"{name}-{tag}-{i}", label, dict(counts)))
        return corpus_to_measures(Corpus(docs, ["minus", "plus"]), table)[0]

    return measures("train"), measures("test")


def _accuracy(model, docs):
    predicted = [p.predicted_class for p in classify_corpus(docs, model)]
    return 1.0 - error_rate(predicted, [doc.label for doc in docs])


class TestTrainingLearns:
    """Training beats the untrained model (identity transform, k-means anchors) on a corpus whose raw geometry misleads.

    Thresholds leave a margin below a sweep of generator seeds 0-11 at the
    defaults: the last epoch's loss was at most 0.11x the first (triplet)
    and 0.15x (InfoNCE); the axis-0 column ratio was 1.70-2.03 (triplet) and
    3.43-4.56 (InfoNCE); trained accuracy was never below untrained.
    """

    @pytest.mark.parametrize(
        "loss_kind, min_column_ratio",
        [pytest.param("triplet", 1.3, id="triplet"), pytest.param("infonce", 2.5, id="infonce")],
    )
    def test_loss_falls_and_class_axis_grows(self, loss_kind, min_column_ratio):
        train_docs, test_docs = planted_nuisance_measures(seed=0)
        cfg = TrainConfig(loss_kind=loss_kind, epochs=30)
        model, history = train(train_docs, cfg, class_names=["minus", "plus"])
        assert history[-1].mean_loss < 0.3 * history[0].mean_loss
        # the untrained identity gives every column norm 1
        norms = np.linalg.norm(model.transform, axis=0)
        assert norms[0] / norms[1:].mean() > min_column_ratio
        untrained = AnchorModel(np.eye(20), init_anchors(train_docs, 2, cfg.anchor_points, cfg.seed), ["minus", "plus"])
        assert _accuracy(model, test_docs) >= _accuracy(untrained, test_docs)


class TestLossHistoryFile:
    def test_csv_round_trip(self, tmp_path, rng):
        corpus = _toy_corpus(rng, docs_per_class=3)
        cfg = TrainConfig(epochs=2, batch_size=3, seed=0, anchor_points=2)
        _, history = train(corpus, cfg)
        path = tmp_path / "history.csv"
        write_loss_history(history, str(path), cfg.loss_kind)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,mean_loss,hinge_active_fraction,sinkhorn_nonconverged_count"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[1]) == history[0].mean_loss


class TestTrainConfig:
    def test_rejects_unknown_loss(self):
        with pytest.raises(ValueError):
            TrainConfig(loss_kind="contrastive")

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            TrainConfig(temperature=0.0)
        with pytest.raises(ValueError):
            TrainConfig(l2_coeff=-1e-3)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
