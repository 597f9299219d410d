import dataclasses
import json
import os
import re
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anchorwmd import model as model_module
from anchorwmd.data import WordVectorTable, to_measure
from anchorwmd.model import (
    AnchorModel,
    DocumentMeasure,
    anchor_columns,
    anchor_cost_rows,
    distinct_words,
    init_anchors,
    load_checkpoint,
    save_checkpoint,
    transport_cost_rows,
)
from anchorwmd.ot import SinkhornConfig, ground_cost_matrix
from conftest import lp_transport_value, multiset_kmeans_centroids, reference_anchor_transport


def repeated_cloud(seed, dim, pool_size, num_points):
    """Rows drawn with repetition from a pool of vectors at mixed scales, skewed multiplicities."""
    g = np.random.default_rng(seed)
    pool = g.standard_normal((pool_size, dim)) * g.choice([0.1, 1.0, 5.0], size=(pool_size, 1))
    return pool[g.choice(pool_size, size=num_points, p=g.dirichlet(np.full(pool_size, 0.3)))]


def split_into_docs(points, label, parts=3):
    """The rows of ``points`` as the support columns of ``parts`` documents of one class."""
    return [make_doc(chunk.T, np.full(len(chunk), 1 / len(chunk)), label=label)
            for chunk in np.array_split(points, parts)]


def oracle_anchors(docs, num_classes, p, seed):
    """``init_anchors`` through the multiset Lloyd oracle."""
    return np.stack([
        multiset_kmeans_centroids(
            np.concatenate([doc.support for doc in docs if doc.label == label], axis=1).T,
            p, np.random.default_rng([seed, label]),
        ).T
        for label in range(num_classes)
    ])


def column_anchors(docs, num_classes, p, seed):
    """``init_anchors`` without a word table: k-means over each class's concatenated support columns."""
    anchors = []
    for label in range(num_classes):
        points = np.concatenate([doc.support for doc in docs if doc.label == label], axis=1).T
        rng = np.random.default_rng([seed, label])
        anchors.append(model_module._kmeans_centroids(points, p, rng, np.ones(len(points), dtype=int)).T)
    return np.stack(anchors)


def make_doc(support, weights, label=None):
    support = np.asarray(support, dtype=float)
    return DocumentMeasure(
        word_ids=np.arange(support.shape[1]),
        support=support,
        weights=weights,
        label=label,
    )


class TestDocumentMeasure:
    def test_misaligned_shapes_rejected(self):
        with pytest.raises(ValueError):
            DocumentMeasure(word_ids=[0], support=np.zeros((2, 2)), weights=[0.5, 0.5])

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            make_doc(np.zeros((2, 2)), [0.5, 0.6])

    def test_arrays_frozen(self):
        doc = make_doc(np.zeros((2, 2)), [0.5, 0.5])
        with pytest.raises(ValueError):
            doc.support[0, 0] = 1.0

    def test_holds_copies_of_the_callers_arrays(self):
        base = np.array([0.25, 0.25, 0.5, 0.0])
        ids, support, weights = np.arange(3), np.zeros((2, 3)), base[:3]
        doc = DocumentMeasure(ids, support, weights)
        for given in (ids, support, weights):
            assert given.flags.writeable
        base[0] = 0.9
        ids[0] = 7
        support[0, 0] = 1.0
        assert doc.weights.tolist() == [0.25, 0.25, 0.5]
        assert doc.word_ids.tolist() == [0, 1, 2] and not doc.support.any()


class TestAnchorModel:
    def test_arrays_read_only_and_own(self, rng):
        transform, anchors = rng.standard_normal((3, 3)), rng.standard_normal((4, 3, 2))
        model = AnchorModel(transform, anchors, list("abcd"))
        for arr in (model.transform, model.anchors, model.column_sq_norms, anchor_columns(model.anchors)):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            model.anchors[0, 0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.transform = np.eye(3)
        # the model copies its inputs: changing them later leaves it as it was
        transform[0, 0] += 1.0
        anchors[0, 0, 0] += 1.0
        assert model.transform[0, 0] != transform[0, 0]
        assert model.anchors[0, 0, 0] != anchors[0, 0, 0]

    def test_anchor_columns_are_a_view_with_cached_norms(self, rng):
        anchors = rng.standard_normal((4, 3, 2))
        model = AnchorModel(np.eye(3), anchors, list("abcd"))
        columns = anchor_columns(model.anchors)
        assert np.shares_memory(columns, model.anchors)
        assert np.array_equal(model.anchors, anchors)
        copied = anchor_columns(anchors)
        assert np.array_equal(columns, copied)
        assert np.array_equal(model.column_sq_norms, np.einsum("dj,dj->j", copied, copied))

    def test_overflowing_embedding_is_one_error(self, rng):
        model = AnchorModel(np.full((3, 3), 1e308), rng.standard_normal((2, 3, 2)), ["a", "b"])
        doc = make_doc(np.ones((3, 2)), [0.5, 0.5])
        with pytest.raises(ValueError, match="transformed word vectors are not finite"):
            anchor_cost_rows(model, doc.support)

    @pytest.mark.parametrize(
        "transform, anchors, class_names, vocab_hash, message",
        [
            pytest.param(np.zeros((0, 0)), np.zeros((1, 0, 2)), ["a"], "", "d >= 1", id="dimension_0"),
            pytest.param(np.eye(2), np.zeros((0, 2, 3)), [], "", "num_classes >= 1", id="no_classes"),
            pytest.param(np.eye(2), np.zeros((2, 2, 3)), ["a", 1], "", "class names must be strings", id="non_string_name"),
            pytest.param(np.eye(2), np.zeros((1, 2, 3)), ["a"], 7, "vocab_hash must be a string", id="non_string_hash"),
        ],
    )
    def test_models_a_checkpoint_cannot_hold_rejected(self, transform, anchors, class_names, vocab_hash, message):
        # a checkpoint cannot hold any of these models
        with pytest.raises(ValueError, match=re.escape(message)):
            AnchorModel(transform, anchors, class_names, vocab_hash)


def kernel(model, docs, config=None):
    """The two-step kernel over documents: one cost of their supports side by side, then one padded stack."""
    cost = anchor_cost_rows(model, np.concatenate([doc.support for doc in docs], axis=1))
    costs = np.split(cost, np.cumsum([doc.size for doc in docs])[:-1])
    return transport_cost_rows(model, costs, [doc.weights for doc in docs], config)


class TestAnchorKernelMatchesReference:
    """``anchor_cost_rows`` then ``transport_cost_rows`` against the fancy-index scatter of ``reference_anchor_transport``."""

    @pytest.mark.thorough
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 12), min_size=1, max_size=9),
        num_classes=st.integers(1, 4),
        p=st.integers(1, 5),
        d=st.sampled_from([1, 3, 30]),
        relative=st.booleans(),
    )
    def test_property_bit_equal(self, seed, sizes, num_classes, p, d, relative):
        g = np.random.default_rng(seed)
        model = AnchorModel(
            np.eye(d) + 0.3 * g.standard_normal((d, d)), g.standard_normal((num_classes, d, p)),
            [str(k) for k in range(num_classes)],
        )
        docs = [make_doc(g.standard_normal((d, n)), g.dirichlet(np.ones(n))) for n in sizes]
        config = SinkhornConfig(epsilon=0.1 if relative else 2.0, relative=relative)
        result = kernel(model, docs, config)
        ref, ref_reg_distance = reference_anchor_transport(model, docs, config)
        assert np.array_equal(result.plan, ref.plan)
        for name in ("distance", "iterations_used", "converged", "epsilon"):
            assert np.array_equal(getattr(result, name), getattr(ref, name))
        assert np.array_equal(result.reg_distance, ref_reg_distance)


def embed(doc, transform, num_classes=2, p=2):
    """``model.embed`` of a document's support, for a given transform, and its cost rows to all-zero anchors."""
    model = AnchorModel(transform, np.zeros((num_classes, doc.dim, p)), [str(k) for k in range(num_classes)])
    embedded = model.embed(doc.support)
    cost = anchor_cost_rows(model, doc.support)
    # every anchor column is 0, so each word's row repeats its embedded squared norm
    assert np.array_equal(cost, ground_cost_matrix(embedded, np.zeros((doc.dim, num_classes * p))))
    return embedded, model, cost


def transport_to(doc, anchor, config=None):
    """The kernel's single result for an identity-transform one-class model."""
    anchor = np.asarray(anchor, dtype=float)
    model = AnchorModel(np.eye(anchor.shape[0]), anchor[None], ["only"])
    return kernel(model, [doc], config)[0]


class TestEmbedDocument:
    def test_identity_transform(self, rng):
        doc = make_doc(rng.standard_normal((3, 4)), np.full(4, 0.25))
        embedded, model, cost = embed(doc, np.eye(3))
        assert embedded == pytest.approx(doc.support)
        result = transport_cost_rows(model, [cost], [doc.weights])
        assert result.plan.shape == (2, doc.size, 2)
        # the document's weights are the source marginal of every solve
        for plan in result.plan:
            assert plan.sum(axis=1) == pytest.approx(doc.weights)

    def test_scalar_matrix(self):
        doc = make_doc(np.array([[1.0], [-1.0]]), [1.0])
        embedded, _, cost = embed(doc, 2.0 * np.eye(2))
        assert embedded[:, 0] == pytest.approx([2.0, -2.0])
        assert cost == pytest.approx(np.full((1, 4), 8.0))

    def test_basis_vector_selects_column(self, rng):
        a = rng.standard_normal((3, 3))
        doc = make_doc(np.array([[0.0], [1.0], [0.0]]), [1.0])
        embedded, _, _ = embed(doc, a)
        assert embedded[:, 0] == pytest.approx(a[:, 1])

    def test_linearity(self, rng):
        a = rng.standard_normal((4, 4))
        x = rng.standard_normal((4, 3))
        y = rng.standard_normal((4, 3))
        alpha, beta = 0.7, -1.3
        combo, _, _ = embed(make_doc(alpha * x + beta * y, np.full(3, 1 / 3)), a)
        separate = alpha * (a @ x) + beta * (a @ y)
        assert combo == pytest.approx(separate, abs=1e-9)

    def test_dimension_mismatch(self):
        doc = make_doc(np.zeros((3, 1)), [1.0])
        model = AnchorModel(np.eye(2), np.zeros((2, 2, 2)), ["a", "b"])
        with pytest.raises(ValueError, match="word vector dimension 3 does not match model dimension 2"):
            anchor_cost_rows(model, doc.support)

    def test_one_ground_cost_per_document(self, rng, monkeypatch):
        calls = []

        def counting_ground_cost(*args):
            calls.append(args)
            return ground_cost_matrix(*args)

        monkeypatch.setattr(model_module, "ground_cost_matrix", counting_ground_cost)
        model = AnchorModel(np.eye(3), rng.standard_normal((4, 3, 2)), ["a", "b", "c", "d"])
        result = kernel(model, [make_doc(rng.standard_normal((3, 5)), np.full(5, 0.2))])
        assert len(calls) == 1
        assert result.distance.shape == (4,)

    def test_one_ground_cost_per_stack(self, rng, monkeypatch):
        calls = []

        def counting_ground_cost(*args):
            calls.append(args)
            return ground_cost_matrix(*args)

        monkeypatch.setattr(model_module, "ground_cost_matrix", counting_ground_cost)
        model = AnchorModel(np.eye(3) + 0.1 * rng.standard_normal((3, 3)), rng.standard_normal((4, 3, 2)), list("abcd"))
        docs = [make_doc(rng.standard_normal((3, n)), rng.dirichlet(np.ones(n))) for n in (5, 2, 7)]
        result = kernel(model, docs)
        assert len(calls) == 1
        # document-major problems, plans padded to the longest document
        assert result.plan.shape == (3 * 4, 7, 2)
        monkeypatch.undo()
        for i, doc in enumerate(docs):
            alone = kernel(model, [doc])
            for k in range(4):
                res = result[4 * i + k]
                assert res.epsilon == alone[k].epsilon
                assert res.iterations_used == alone[k].iterations_used
                assert res.distance == pytest.approx(alone[k].distance, rel=1e-12)
                assert res.reg_distance == pytest.approx(alone[k].reg_distance, rel=1e-12)
                assert np.all(res.plan[doc.size :] == 0.0)

    def test_anchor_columns_are_class_major(self, rng):
        anchors = rng.standard_normal((4, 3, 2))
        columns = anchor_columns(anchors)
        assert columns.shape == (3, 8)
        for k in range(4):
            assert np.array_equal(columns[:, 2 * k : 2 * k + 2], anchors[k])


class TestDocAnchorDistance:
    def test_coincident_supports(self):
        q = np.array([1.5, -2.0])
        doc = make_doc(q.reshape(2, 1), [1.0])
        anchor = np.tile(q.reshape(2, 1), (1, 4))
        res = transport_to(doc, anchor)
        assert res.distance == pytest.approx(0.0, abs=1e-12)

    def test_single_support_point_forces_plan(self, rng):
        z = rng.standard_normal((3, 4))
        w = np.array([0.1, 0.2, 0.3, 0.4])
        q = rng.standard_normal((3, 1))
        res = transport_to(make_doc(z, w), q)
        expected = sum(w[i] * np.sum((z[:, i] - q[:, 0]) ** 2) for i in range(4))
        assert res.distance == pytest.approx(expected, rel=1e-9)

    def test_matches_lp_oracle(self, rng):
        z = rng.standard_normal((3, 4))
        w = np.array([2.0, 4.0, 5.0, 1.0]) / 12.0
        anchor = rng.standard_normal((3, 3))
        cost = ground_cost_matrix(z, anchor)
        cfg = SinkhornConfig(
            epsilon=0.001 * float(cost.mean()), relative=False, max_iters=5000, tolerance=1e-9
        )
        res = transport_to(make_doc(z, w), anchor, cfg)
        exact = lp_transport_value(cost, w, np.full(3, 1 / 3))
        assert res.distance == pytest.approx(exact, rel=0.01)

    def test_invariant_to_anchor_column_permutation(self, rng):
        z = rng.standard_normal((3, 5))
        w = np.full(5, 0.2)
        anchor = rng.standard_normal((3, 4))
        cfg = SinkhornConfig(max_iters=2000, tolerance=1e-10)
        base = transport_to(make_doc(z, w), anchor, cfg)
        shuffled = transport_to(make_doc(z, w), anchor[:, [2, 0, 3, 1]], cfg)
        assert base.distance == pytest.approx(shuffled.distance, abs=1e-6)


class TestInitAnchors:
    def test_single_support_point_is_mean(self, rng):
        support = rng.standard_normal((3, 7))
        docs = [
            make_doc(support[:, :4], np.full(4, 0.25), label=0),
            make_doc(support[:, 4:], np.full(3, 1 / 3), label=0),
            make_doc(rng.standard_normal((3, 2)), [0.5, 0.5], label=1),
        ]
        anchors = init_anchors(docs, 2, p=1, seed=0)
        assert anchors[0][:, 0] == pytest.approx(support.mean(axis=1))

    def test_identical_vectors_duplicated_with_jitter(self):
        col = np.array([[2.0], [1.0]])
        docs = [
            make_doc(np.tile(col, (1, 3)), np.full(3, 1 / 3), label=0),
            make_doc(np.zeros((2, 1)), [1.0], label=1),
        ]
        anchors = init_anchors(docs, 2, p=4, seed=3)
        spread = np.abs(anchors[0] - col)
        assert spread.max() < 1e-3
        assert spread.max() > 0.0

    def test_recovers_planted_clusters(self, rng):
        centers = np.array([[0.0, 10.0], [0.0, 0.0]])
        pts = []
        for j in range(2):
            pts.append(centers[:, [j]] + 0.01 * rng.standard_normal((2, 30)))
        cloud = np.concatenate(pts, axis=1)
        docs = [
            make_doc(cloud, np.full(60, 1 / 60), label=0),
            make_doc(rng.standard_normal((2, 2)), [0.5, 0.5], label=1),
        ]
        anchors = init_anchors(docs, 2, p=2, seed=1)
        got = sorted(anchors[0].T.tolist())
        want = sorted([pts[0].mean(axis=1).tolist(), pts[1].mean(axis=1).tolist()])
        assert np.asarray(got) == pytest.approx(np.asarray(want), abs=1e-2)

    def test_deterministic_given_seed(self, rng):
        docs = [
            make_doc(rng.standard_normal((3, 8)), np.full(8, 0.125), label=0),
            make_doc(rng.standard_normal((3, 6)), np.full(6, 1 / 6), label=1),
        ]
        first = init_anchors(docs, 2, p=3, seed=9)
        second = init_anchors(docs, 2, p=3, seed=9)
        assert np.array_equal(first, second)

    def test_empty_class_rejected(self, rng):
        docs = [make_doc(rng.standard_normal((3, 2)), [0.5, 0.5], label=0)]
        with pytest.raises(ValueError):
            init_anchors(docs, 2, p=2, seed=0)

    @pytest.mark.parametrize("case", range(8))
    def test_matches_multiset_lloyd_oracle(self, case):
        g = np.random.default_rng(100 + case)
        dim, p = int(g.integers(2, 40)), int(g.integers(2, 9))
        docs = [doc for label in range(3) for doc in split_into_docs(
            repeated_cloud([case, label], dim, int(g.integers(p, 60)), int(g.integers(60, 300))), label)]
        got = init_anchors(docs, 3, p, seed=case)
        assert np.abs(got - oracle_anchors(docs, 3, p, seed=case)).max() <= 1e-12

    def test_same_initial_centroids_as_oracle(self, monkeypatch):
        monkeypatch.setattr(model_module, "_KMEANS_MAX_ITERS", 0)
        points = repeated_cloud(7, 30, 40, 200)
        for seed in range(5):
            start = model_module._kmeans_centroids(points, 6, np.random.default_rng(seed), np.ones(len(points), dtype=int))
            want = multiset_kmeans_centroids(points, 6, np.random.default_rng(seed), max_iters=0)
            assert np.array_equal(start, want)

    @pytest.mark.parametrize("seed, pool_size, num_points, k", [(74, 25, 100, 6), (208, 12, 60, 5)])
    def test_empty_cluster_restart_matches_oracle(self, seed, pool_size, num_points, k):
        points = repeated_cloud(seed, 3, pool_size, num_points)
        restarts = []
        want = multiset_kmeans_centroids(points, k, np.random.default_rng(seed), restarts=restarts)
        assert restarts  # these points empty a cluster on the way
        got = model_module._kmeans_centroids(points, k, np.random.default_rng(seed), np.ones(len(points), dtype=int))
        assert np.abs(got - want).max() <= 1e-12

    def test_jitter_path_bit_identical_to_oracle(self, rng):
        pool = rng.standard_normal((4, 3))
        docs = [
            *split_into_docs(pool[[0, 1, 2, 1, 0, 0, 2]], label=0),
            *split_into_docs(pool[[3, 3, 3]], label=1, parts=1),
        ]
        assert np.array_equal(init_anchors(docs, 2, p=5, seed=4), oracle_anchors(docs, 2, p=5, seed=4))

    def test_signed_zeros_are_one_row(self):
        # np.unique compares -0.0 equal to 0.0, so (0, 1) and (-0, 1) are one row of weight two
        support = np.array([[0.0, -0.0, 2.0, 10.0], [1.0, 1.0, 3.0, 10.0]])
        docs = [make_doc(support, np.full(4, 0.25), label=0), make_doc(np.ones((2, 1)), [1.0], label=1)]
        anchors = init_anchors(docs, 2, p=2, seed=5)
        assert np.abs(anchors - oracle_anchors(docs, 2, p=2, seed=5)).max() <= 1e-12
        assert np.asarray(sorted(anchors[0].T.tolist())) == pytest.approx(np.array([[2 / 3, 5 / 3], [10.0, 10.0]]))

    def test_dedupes_by_value_not_word_id(self, rng):
        pool = rng.standard_normal((3, 2))
        # one class: two distinct vectors under six word ids, so only value dedupe sees fewer than p
        by_value = [DocumentMeasure(word_ids=[0, 1, 2], support=pool[[0, 1, 0]].T, weights=np.full(3, 1 / 3), label=0),
                    DocumentMeasure(word_ids=[3, 4, 5], support=pool[[1, 0, 1]].T, weights=np.full(3, 1 / 3), label=0)]
        # the other: four distinct vectors under the same two word ids, so only id dedupe sees fewer than p
        shared_ids = [make_doc(rng.standard_normal((2, 2)), [0.5, 0.5], label=1) for _ in range(2)]
        docs = by_value + shared_ids
        anchors = init_anchors(docs, 2, p=3, seed=2)
        assert np.array_equal(anchors, oracle_anchors(docs, 2, p=3, seed=2))
        nearest = np.abs(anchors[0][:, :, None] - pool[:2].T[:, None, :]).max(axis=0).min(axis=1)
        assert np.all(nearest < 1e-3)  # every class-0 anchor point is a jittered copy of one of its two vectors

    @pytest.mark.parametrize("seed", range(6))
    def test_shared_vocabulary_with_signed_zeros_equals_oracle(self, seed):
        # dyadic vectors in clusters of 2 and 4 columns: every cluster mean is exact, so
        # the table's weighted Lloyd and the oracle's Lloyd over every column agree to the bit
        vectors = {
            "a0": [0.0, 1.0, 0.25], "a1": [-0.0, 1.0, 0.25], "a2": [0.5, 1.0, 0.25],
            "b0": [8.0, -2.0, 1.0], "b1": [8.5, -2.0, 1.0], "c0": [0.0, -6.0, 4.0], "c1": [0.25, -6.0, 4.0],
        }
        table = WordVectorTable.from_dict({token: np.array(v) for token, v in vectors.items()})
        classes = [[("a0", "a2", "b0"), ("a0", "a1", "b1")], [("b0", "b1", "c0"), ("b0", "b1", "c1")]]
        docs = [to_measure(Counter(tokens), table, label=label) for label, texts in enumerate(classes) for tokens in texts]
        assert distinct_words(docs).vectors.shape[0] == 7  # a0 and a1 are two ids with one vector
        anchors = init_anchors(docs, 2, p=2, seed=seed)
        assert np.array_equal(anchors, oracle_anchors(docs, 2, p=2, seed=seed))
        assert sorted(anchors[0].T.tolist()) == [[0.125, 1.0, 0.25], [8.25, -2.0, 1.0]]
        assert sorted(anchors[1].T.tolist()) == [[0.125, -6.0, 4.0], [8.25, -2.0, 1.0]]

    @pytest.mark.thorough
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_classes=st.integers(2, 4),
        p=st.integers(1, 6),
        dim=st.sampled_from([2, 5, 30]),
        pool_size=st.integers(3, 20),
        docs_per_class=st.integers(1, 5),
    )
    def test_property_table_equals_columns(self, seed, num_classes, p, dim, pool_size, docs_per_class):
        # one vocabulary shared by every class, with a -0.0/0.0 pair of vectors and
        # two ids of one vector: through the table, init_anchors is the k-means of the columns
        g = np.random.default_rng(seed)
        pool = g.standard_normal((pool_size, dim)) * g.choice([0.1, 1.0, 5.0], size=(pool_size, 1))
        signed = g.standard_normal(dim)
        signed[0] = 0.0
        vectors = {f"w{i}": row for i, row in enumerate(pool)}
        vectors.update(zero=signed, negzero=signed * np.r_[-1.0, np.ones(dim - 1)], twin=pool[0].copy())
        table = WordVectorTable.from_dict(vectors)
        tokens = list(vectors)
        docs = [to_measure(Counter(["zero", "negzero", "twin", "w0"]), table, label=0)] + [
            to_measure(Counter(g.choice(tokens, size=int(g.integers(1, 12)))), table, label=label)
            for label in range(num_classes) for _ in range(docs_per_class)
        ]
        assert np.signbit(docs[0].support[0, list(docs[0].word_ids).index(table.index["negzero"])])
        got = init_anchors(docs, num_classes, p, seed)
        assert np.array_equal(got, column_anchors(docs, num_classes, p, seed))
        assert np.array_equal(got, init_anchors(docs, num_classes, p, seed, distinct_words(docs[::-1]).take(range(len(docs))[::-1])))


class TestDistinctRows:
    @given(
        data=st.data(),
        num_rows=st.integers(1, 40),
        dim=st.integers(1, 6),
        pool_size=st.integers(1, 6),
    )
    def test_property_matches_np_unique(self, data, num_rows, dim, pool_size):
        # a few values, signed zeros among them, so rows repeat, tie on a prefix and differ later
        value = st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.5e-300, 7.0])
        pool = np.array(data.draw(st.lists(st.lists(value, min_size=dim, max_size=dim), min_size=pool_size, max_size=pool_size)))
        points = pool[data.draw(st.lists(st.integers(0, pool_size - 1), min_size=num_rows, max_size=num_rows))]
        distinct, counts = model_module._distinct_rows(points, np.ones(len(points), dtype=int))
        want, want_counts = np.unique(points, axis=0, return_counts=True)
        assert np.array_equal(distinct, want)
        assert np.array_equal(counts, want_counts)
        assert not np.signbit(distinct[distinct == 0.0]).any()

    def test_rows_equal_on_a_long_prefix(self):
        points = np.zeros((5, 9))
        points[[1, 3], 8] = 1.0
        points[4, 5] = -2.0
        distinct, counts = model_module._distinct_rows(points, np.ones(len(points), dtype=int))
        want, want_counts = np.unique(points, axis=0, return_counts=True)
        assert np.array_equal(distinct, want) and np.array_equal(counts, want_counts)
        assert counts.tolist() == [1, 2, 2]


# zeros of both signs and finite magnitudes from 1e-300 to 1e300 of both signs
_PARAMETER_VALUES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300))
# quotes, backslashes, tabs, line breaks and non-ASCII text among any other characters
_NAME_TEXT = st.text(st.one_of(st.sampled_from('"\\\t\n\r\u00e9\u65e5\U0001f600'), st.characters()), max_size=6)


class TestCheckpoint:
    @pytest.mark.thorough
    @given(dim=st.integers(1, 4), num_classes=st.integers(1, 3), p=st.integers(1, 3), data=st.data())
    def test_property_every_model_round_trips(self, dim, num_classes, p, data):
        transform = data.draw(arrays(float, (dim, dim), elements=_PARAMETER_VALUES))
        anchors = data.draw(arrays(float, (num_classes, dim, p), elements=_PARAMETER_VALUES))
        names = data.draw(st.lists(_NAME_TEXT, min_size=num_classes, max_size=num_classes, unique=True))
        model = AnchorModel(transform, anchors, names, data.draw(_NAME_TEXT))
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "model.json")
            save_checkpoint(model, path)
            with open(path, "rb") as fh:
                first = fh.read()
            save_checkpoint(model, path)
            with open(path, "rb") as fh:
                assert fh.read() == first
            loaded = load_checkpoint(path)
        for name in ("transform", "anchors"):
            ours, theirs = getattr(loaded, name), getattr(model, name)
            assert np.array_equal(ours, theirs) and np.array_equal(np.signbit(ours), np.signbit(theirs))
        assert loaded.class_names == model.class_names
        assert loaded.vocab_hash == model.vocab_hash

    def test_round_trip(self, tmp_path, rng):
        model = AnchorModel(
            transform=rng.standard_normal((3, 3)),
            anchors=rng.standard_normal((2, 3, 4)),
            class_names=["alpha", "beta"],
            vocab_hash="cafe",
        )
        path = os.path.join(tmp_path, "model.json")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.transform, model.transform)
        assert np.array_equal(loaded.anchors, model.anchors)
        assert loaded.class_names == model.class_names
        assert loaded.vocab_hash == "cafe"
        # no stray temp files left behind
        assert sorted(os.listdir(tmp_path)) == ["model.json"]

    def test_duplicate_class_names_rejected(self, tmp_path, rng):
        path = tmp_path / "model.json"
        save_checkpoint(AnchorModel(np.eye(2), rng.standard_normal((2, 2, 3)), ["a b", "c"]), str(path))
        path.write_text(path.read_text().replace('"c"', '"a b"'))
        with pytest.raises(ValueError, match=r"class names must be distinct, got \['a b', 'a b'\]"):
            load_checkpoint(str(path))

    def test_bytes_equal_streamed_json_dump(self, tmp_path, rng):
        model = AnchorModel(
            transform=rng.standard_normal((300, 300)),
            anchors=rng.standard_normal((3, 300, 4)) * 10.0 ** rng.integers(-300, 300, size=(3, 300, 4)),
            class_names=["alpha", "beta", "gamma"],
            vocab_hash="cafe",
        )
        path = tmp_path / "model.json"
        save_checkpoint(model, str(path))
        payload = {
            "dim": 300,
            "num_classes": 3,
            "p": 4,
            "transform": model.transform.tolist(),
            "anchors": model.anchors.tolist(),
            "class_names": ["alpha", "beta", "gamma"],
            "vocab_hash": "cafe",
        }
        with open(tmp_path / "streamed.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
        assert path.read_bytes() == (tmp_path / "streamed.json").read_bytes()
        # special values: exact zeros of an identity transform, -0.0, a subnormal, powers of two, non-ASCII text
        anchors = rng.standard_normal((2, 5, 3))
        anchors.flat[:6] = [-0.0, 5e-324, 2.0**-13, -(2.0**53), 0.5, 1e16]
        special = AnchorModel(np.eye(5), anchors, ["caf\u00e9", "\u65e5\u672c"], vocab_hash="h\u00e4sh")
        save_checkpoint(special, str(path))
        payload = {
            "dim": 5,
            "num_classes": 2,
            "p": 3,
            "transform": np.eye(5).tolist(),
            "anchors": anchors.tolist(),
            "class_names": ["caf\u00e9", "\u65e5\u672c"],
            "vocab_hash": "h\u00e4sh",
        }
        with open(tmp_path / "streamed.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
        assert path.read_bytes() == (tmp_path / "streamed.json").read_bytes()

    def test_checkpoint_fields(self, tmp_path, rng):
        model = AnchorModel(
            transform=np.eye(2),
            anchors=rng.standard_normal((2, 2, 3)),
            class_names=["a", "b"],
        )
        path = os.path.join(tmp_path, "model.json")
        save_checkpoint(model, path)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["dim"] == 2
        assert payload["num_classes"] == 2
        assert payload["p"] == 3
        assert len(payload["transform"]) == 2
        assert len(payload["anchors"]) == 2
