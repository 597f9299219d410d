from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anchorwmd import classify, ot
from anchorwmd.classify import anchor_nn_classify, classify_corpus, error_rate, knn_predict_corpus, write_predictions
from anchorwmd.model import AnchorModel, DocumentMeasure, anchor_cost_rows, transport_cost_rows
from anchorwmd.ot import SinkhornConfig, ground_cost_matrix, sinkhorn
from anchorwmd.training import TrainConfig, train


def make_doc(support, weights, label=None):
    support = np.asarray(support, dtype=float)
    return DocumentMeasure(np.arange(support.shape[1]), support, weights, label=label)


def two_anchor_model(rng=None, far=6.0):
    anchors = np.stack(
        [
            np.array([[-far, -far], [0.0, 1.0]]),
            np.array([[far, far], [0.0, 1.0]]),
        ]
    )
    return AnchorModel(np.eye(2), anchors, ["left", "right"])


class TestAnchorNN:
    def test_coincident_support_wins(self):
        model = two_anchor_model()
        doc = make_doc(model.anchors[1], [0.5, 0.5])
        pred = anchor_nn_classify(doc, model)
        assert pred.predicted_class == 1
        assert pred.anchor_distances[1] == pytest.approx(0.0, abs=1e-6)
        assert pred.anchor_distances[0] > pred.anchor_distances[1]

    def test_tie_breaks_to_first_index(self):
        anchors = np.stack([np.ones((2, 2)), np.ones((2, 2))])
        model = AnchorModel(np.eye(2), anchors, ["a", "b"])
        doc = make_doc(np.zeros((2, 1)), [1.0])
        assert anchor_nn_classify(doc, model).predicted_class == 0

    def test_invariant_to_word_duplication(self, rng):
        # duplicating an atom and renormalizing leaves the measure unchanged;
        # epsilon is held absolute so both representations solve the same problem
        model = two_anchor_model()
        support = rng.standard_normal((2, 3))
        cfg = SinkhornConfig(epsilon=2.0, relative=False, max_iters=2000, tolerance=1e-10)
        base = anchor_nn_classify(make_doc(support, [0.5, 0.25, 0.25]), model, cfg)
        doubled = np.concatenate([support, support[:, :1]], axis=1)
        dup = anchor_nn_classify(make_doc(doubled, [0.25, 0.25, 0.25, 0.25]), model, cfg)
        assert dup.predicted_class == base.predicted_class
        assert dup.anchor_distances == pytest.approx(base.anchor_distances, abs=1e-6)

    def test_class_permutation_permutes_distances(self, rng):
        model = two_anchor_model()
        flipped = AnchorModel(model.transform, model.anchors[::-1].copy(), ["right", "left"])
        doc = make_doc(rng.standard_normal((2, 3)), np.full(3, 1 / 3))
        cfg = SinkhornConfig(max_iters=2000, tolerance=1e-10)
        pred = anchor_nn_classify(doc, model, cfg)
        pred_flipped = anchor_nn_classify(doc, flipped, cfg)
        assert pred_flipped.anchor_distances == pytest.approx(
            pred.anchor_distances[::-1], abs=1e-9
        )
        assert pred_flipped.predicted_class == 1 - pred.predicted_class


def ragged_docs(rng, count, dim=4):
    """``count`` documents of 1 to 9 words each, spread around the two-anchor model's clusters."""
    docs = []
    for i in range(count):
        n = int(rng.integers(1, 10))
        weights = rng.uniform(0.2, 1.0, n)
        support = 3.0 * rng.standard_normal((dim, 1)) + rng.standard_normal((dim, n))
        docs.append(make_doc(support, weights / weights.sum(), label=i % 3))
    return docs


class TestClassifyCorpus:
    @pytest.mark.parametrize("count", [13, 1])
    def test_matches_solo_classification_at_any_thread_count(self, rng, count):
        model = AnchorModel(np.eye(4) + 0.1 * rng.standard_normal((4, 4)), rng.standard_normal((3, 4, 5)), list("abc"))
        docs = ragged_docs(rng, count)
        single = classify_corpus(docs, model)
        threaded = classify_corpus(docs, model, threads=4)
        assert len(single) == count
        for one, many, doc in zip(single, threaded, docs):
            assert one.predicted_class == many.predicted_class
            assert np.array_equal(one.anchor_distances, many.anchor_distances)
            alone = anchor_nn_classify(doc, model)
            assert one.predicted_class == alone.predicted_class
            assert np.array_equal(one.anchor_distances, alone.anchor_distances)

    def test_wrong_dimension_document_rejected(self, rng):
        model = AnchorModel(np.eye(4), rng.standard_normal((3, 4, 5)), list("abc"))
        docs = ragged_docs(rng, 10)
        docs[6] = make_doc(np.zeros((2, 1)), [1.0])
        with pytest.raises(ValueError, match="word vector dimension 2 does not match model dimension 4"):
            classify_corpus(docs, model)

    def test_empty_corpus(self):
        assert classify_corpus([], two_anchor_model()) == []


def planted_measures(seed, classes=4, dim=12, own_words=15, common_words=30, docs_per_class=50, tokens=25):
    """A seeded planted corpus: each class draws half its tokens from its own words,
    clustered 1.5 noise units out along the class's axis, and half from shared words."""
    g = np.random.default_rng(seed)
    own = [1.5 * np.eye(classes, dim)[c][:, None] + g.standard_normal((dim, own_words)) for c in range(classes)]
    common = g.standard_normal((dim, common_words))
    docs = []
    for _ in range(docs_per_class):
        for c in range(classes):
            own_picks = own[c][:, g.integers(own_words, size=tokens // 2)]
            common_picks = common[:, g.integers(common_words, size=tokens - tokens // 2)]
            picks = np.concatenate([own_picks, common_picks], axis=1)
            words, counts = np.unique(picks, axis=1, return_counts=True)
            docs.append(make_doc(words, counts / counts.sum(), label=c))
    return docs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_training_and_eval_rules_agree_at_the_default_epsilon(seed):
    # training ranks classes by reg_distance, eval by distance: at the default
    # relative epsilon 0.1 they pick the same class on held-out documents
    docs = planted_measures(seed)
    held_out = docs[len(docs) // 2 :]
    model, _ = train(docs[: len(docs) // 2], TrainConfig(epochs=5, anchor_points=4, seed=seed))
    assert TrainConfig().sinkhorn == SinkhornConfig(epsilon=0.1, relative=True)
    agree = []
    for doc in held_out:
        result = transport_cost_rows(model, [anchor_cost_rows(model, doc.support)], [doc.weights])
        agree.append(result.distance.argmin() == result.reg_distance.argmin())
    assert np.mean(agree) >= 0.95


def knn_label(test_doc, train, k):
    return knn_predict_corpus([test_doc], train, [k])[k][0]


class TestWmdKnn:
    def test_k1_returns_identical_doc_label(self, rng):
        train = [
            make_doc(rng.standard_normal((2, 3)), np.full(3, 1 / 3), label=0),
            make_doc(rng.standard_normal((2, 2)), [0.5, 0.5], label=1),
        ]
        test = make_doc(train[1].support, train[1].weights)
        assert knn_label(test, train, k=1) == 1

    def test_k_equals_corpus_size_single_class(self, rng):
        train = [
            make_doc(rng.standard_normal((2, 2)), [0.5, 0.5], label=3) for _ in range(4)
        ]
        test = make_doc(rng.standard_normal((2, 2)), [0.5, 0.5])
        assert knn_label(test, train, k=4) == 3

    def test_three_doc_hand_case(self):
        # single-word docs: WMD is the squared point distance
        train = [
            make_doc([[0.0]], [1.0], label=0),
            make_doc([[1.0]], [1.0], label=1),
            make_doc([[5.0]], [1.0], label=2),
        ]
        test = make_doc([[1.2]], [1.0])
        assert knn_label(test, train, k=1) == 1

    def test_vote_tie_breaks_by_mean_distance(self):
        train = [
            make_doc([[0.0]], [1.0], label=0),
            make_doc([[2.0]], [1.0], label=0),
            make_doc([[0.9]], [1.0], label=1),
            make_doc([[1.4]], [1.0], label=1),
        ]
        # test at 1.0: neighbours 0.9 (1), 1.4 (1), 0.0 (0), 2.0 (0) -> 2-2 tie,
        # class 1 mean (0.01+0.16)/2 beats class 0 mean (1+1)/2
        assert knn_label(make_doc([[1.0]], [1.0]), train, k=4) == 1

    def test_self_classification_has_zero_error(self, rng):
        train = [
            make_doc(rng.standard_normal((2, 3)) + offset, np.full(3, 1 / 3), label=label)
            for label, offset in ((0, -3.0), (1, 3.0))
            for _ in range(3)
        ]
        sweep = knn_predict_corpus(train, train, ks=[1])
        assert error_rate(sweep[1], [doc.label for doc in train]) == 0.0

    def test_invalid_k_rejected(self, rng):
        train = [make_doc(rng.standard_normal((2, 2)), [0.5, 0.5], label=0)]
        with pytest.raises(ValueError):
            knn_predict_corpus([train[0]], train, [0])

    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 12), min_size=1, max_size=6),
        test_size=st.integers(1, 12),
        d=st.sampled_from([1, 2, 3, 30, 300]),
        fortran=st.lists(st.booleans(), min_size=7, max_size=7),
        block_values=st.sampled_from([1, 40, classify._KNN_BLOCK_VALUES]),
        epsilon=st.sampled_from([(0.1, True), (0.01, True), (5.0, False)]),
    )
    def test_property_distances_match_per_pair_solves(self, seed, sizes, test_size, d, fortran, block_values, epsilon):
        # ragged documents whose supports are C- or Fortran-ordered, in blocks
        # of one document, of a few, or all in one: each pair's columns of its
        # block's product are its own ground cost up to the product's rounding
        # (to the bit in a block of one), and each distance is the solve on them
        rng = np.random.default_rng(seed)

        def doc(size, layout):
            support = rng.standard_normal((size, d)).T  # Fortran order
            return make_doc(support if layout else np.ascontiguousarray(support), rng.dirichlet(np.ones(size)))

        test = doc(test_size, fortran[-1])
        train = [doc(size, layout) for size, layout in zip(sizes, fortran)]
        config = SinkhornConfig(epsilon=epsilon[0], relative=epsilon[1])
        with mock.patch.object(classify, "_KNN_BLOCK_VALUES", block_values):
            blocks = classify._blocks(train)
            [distances] = classify._knn_distances([test], train, config, threads=1)
        assert [neighbour for block in blocks for neighbour in block] == train
        sq_test = ot._squared_norms(test.support)
        k = 0
        for block in blocks:
            points = np.concatenate([neighbour.support for neighbour in block], axis=1)
            norms = np.concatenate([ot._squared_norms(neighbour.support) for neighbour in block])
            cost = ground_cost_matrix(test.support, points, norms)
            start = 0
            for neighbour in block:
                columns = cost[:, start : start + neighbour.size]
                start += neighbour.size
                own = ground_cost_matrix(test.support, neighbour.support)
                scale = sq_test[:, None] + ot._squared_norms(neighbour.support)[None, :]
                assert np.all(np.abs(columns - own) <= 1e-12 * scale)
                assert distances[k] == sinkhorn(columns, test.weights, neighbour.weights, config).distance
                if len(block) == 1 or np.array_equal(columns, own):
                    assert distances[k] == sinkhorn(own, test.weights, neighbour.weights, config).distance
                k += 1


class TestErrorRate:
    def test_all_correct(self):
        assert error_rate([1, 0, 2], [1, 0, 2]) == 0.0

    def test_all_wrong(self):
        assert error_rate([1, 1], [0, 0]) == 1.0

    def test_one_of_four(self):
        assert error_rate([0, 0, 0, 1], [0, 0, 0, 0]) == 0.25

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            error_rate([0], [0, 1])


class TestPredictionsFile:
    def test_csv_format(self, tmp_path, rng):
        model = two_anchor_model()
        docs = [make_doc(rng.standard_normal((2, 2)), [0.5, 0.5], label=i % 2) for i in range(3)]
        preds = [anchor_nn_classify(d, model) for d in docs]
        path = tmp_path / "predictions.csv"
        write_predictions(str(path), [f"doc{i}" for i in range(3)], [d.label for d in docs], preds)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "doc_id,true_label,predicted_label,dist_class_0,dist_class_1"
        assert len(lines) == 4
        cells = lines[1].split(",")
        assert cells[0] == "doc0"
        assert float(cells[3]) == pytest.approx(preds[0].anchor_distances[0])
