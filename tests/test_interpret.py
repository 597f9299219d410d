import numpy as np
import pytest

from anchorwmd.data import Corpus, Document
from anchorwmd.interpret import (
    compute_importance_table,
    export_projection,
    pca_2d,
    tfidf_top_words,
    top_k_words,
)
from anchorwmd.model import AnchorModel


def brute_force_scores(z, anchors):
    """Reference min anchor distances and importances of one transformed word."""
    dists = np.array(
        [min(float(np.sum((z - anchor[:, j]) ** 2)) for j in range(anchor.shape[1])) for anchor in anchors]
    )
    return dists, dists.sum() - len(anchors) * dists


def word_scores(z, anchors):
    """Min anchor distances and importances of one word from a one-word table."""
    anchors = np.asarray(anchors, dtype=float)
    model = AnchorModel(np.eye(anchors.shape[1]), anchors, [str(k) for k in range(anchors.shape[0])])
    table = compute_importance_table(model, ["w"], np.asarray(z, dtype=float).reshape(1, -1))
    return table.min_distances[0], table.importances[0]


def word_anchor_distance(z, anchor):
    """Min squared distance from one word to one anchor, via a one-class table."""
    return float(word_scores(z, np.asarray(anchor, dtype=float)[None])[0][0])


def importance(z, anchors, class_id):
    """Importance of one word for one class, via a one-word table."""
    return float(word_scores(z, anchors)[1][class_id])


class TestWordAnchorDistance:
    def test_word_on_anchor_column(self, rng):
        anchor = rng.standard_normal((3, 4))
        assert word_anchor_distance(anchor[:, 2], anchor) == pytest.approx(0.0)

    def test_single_support_point(self):
        z = np.array([1.0, 2.0])
        q = np.array([[4.0], [6.0]])
        assert word_anchor_distance(z, q) == pytest.approx(9.0 + 16.0)

    def test_takes_the_minimum(self):
        z = np.zeros(1)
        anchor = np.array([[2.0, 1.0, 3.0]])  # squared distances 4, 1, 9
        assert word_anchor_distance(z, anchor) == pytest.approx(1.0)


class TestImportance:
    def test_equidistant_word_scores_zero(self):
        anchors = np.stack([np.array([[1.0], [0.0]]), np.array([[-1.0], [0.0]])])
        assert importance(np.array([0.0, 5.0]), anchors, 0) == pytest.approx(0.0)

    def test_two_class_specialization(self, rng):
        anchors = rng.standard_normal((2, 3, 2))
        z = rng.standard_normal(3)
        d0 = word_anchor_distance(z, anchors[0])
        d1 = word_anchor_distance(z, anchors[1])
        assert importance(z, anchors, 0) == pytest.approx(d1 - d0)

    def test_three_class_hand_value(self):
        # distances 1, 4, 7 -> importance for class 0 is (4 + 7) - 2 * 1 = 9
        anchors = np.stack(
            [np.array([[1.0]]), np.array([[2.0]]), np.array([[np.sqrt(7)]])]
        )
        z = np.zeros(1)
        assert importance(z, anchors, 0) == pytest.approx(9.0)

    def test_zero_sum_over_classes(self, rng):
        anchors = rng.standard_normal((4, 3, 5))
        for _ in range(20):
            z = rng.standard_normal(3)
            total = sum(importance(z, anchors, y) for y in range(4))
            assert total == pytest.approx(0.0, abs=1e-6)

    def test_smaller_own_distance_strictly_increases_importance(self, rng):
        # pull one column of anchor 1 toward z: only D(z, anchor_1) changes
        anchors = rng.standard_normal((3, 2, 2))
        z = rng.standard_normal(2)
        base = importance(z, anchors, 1)
        pulled = anchors.copy()
        pulled[1][:, 0] = z + 0.01 * (pulled[1][:, 0] - z)
        assert word_anchor_distance(z, pulled[1]) < word_anchor_distance(z, anchors[1])
        for other in (0, 2):
            assert word_anchor_distance(z, pulled[other]) == word_anchor_distance(z, anchors[other])
        assert importance(z, pulled, 1) > base


class TestImportanceTable:
    def make_model(self, rng):
        return AnchorModel(
            transform=np.eye(2) + 0.1 * rng.standard_normal((2, 2)),
            anchors=rng.standard_normal((3, 2, 2)),
            class_names=["a", "b", "c"],
        )

    def test_rows_match_scalar_ops(self, rng):
        model = self.make_model(rng)
        words = ["w0", "w1", "w2", "w3"]
        vectors = rng.standard_normal((4, 2))
        table = compute_importance_table(model, words, vectors)
        for i in range(4):
            single = compute_importance_table(model, [words[i]], vectors[i : i + 1])
            assert table.min_distances[i] == pytest.approx(single.min_distances[0])
            assert table.importances[i] == pytest.approx(single.importances[0])
            dists, scores = brute_force_scores(model.transform @ vectors[i], model.anchors)
            assert table.min_distances[i] == pytest.approx(dists)
            assert table.importances[i] == pytest.approx(scores)

    def test_zero_sum_invariant(self, rng):
        model = self.make_model(rng)
        vectors = rng.standard_normal((10, 2))
        table = compute_importance_table(model, [f"w{i}" for i in range(10)], vectors)
        assert np.abs(table.importances.sum(axis=1)).max() < 1e-6

    def test_tsv_output(self, tmp_path, rng):
        model = self.make_model(rng)
        table = compute_importance_table(model, ["w0", "w1"], rng.standard_normal((2, 2)))
        path = tmp_path / "importance.tsv"
        table.write_tsv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "word\tclass\timportance\tD_0\tD_1\tD_2"
        assert len(lines) == 1 + 2 * 3


class TestTopKWords:
    def test_full_vocabulary_is_permutation(self, rng):
        model = AnchorModel(np.eye(2), rng.standard_normal((2, 2, 3)), ["a", "b"])
        words = [f"w{i}" for i in range(6)]
        table = compute_importance_table(model, words, rng.standard_normal((6, 2)))
        ranked = top_k_words(table, 0, 6)
        assert sorted(w for w, _ in ranked) == sorted(words)

    def test_sorted_descending_with_alphabetical_ties(self):
        table_importances = np.array([[1.0], [3.0], [3.0], [-2.0]])
        from anchorwmd.interpret import ImportanceTable

        table = ImportanceTable(
            words=["zeta", "beta", "alpha", "mu"],
            class_names=["only"],
            min_distances=np.zeros((4, 1)),
            importances=table_importances,
        )
        ranked = top_k_words(table, 0, 4)
        assert [w for w, _ in ranked] == ["alpha", "beta", "zeta", "mu"]
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_oversized_k_warns_and_returns_all(self, rng):
        model = AnchorModel(np.eye(2), rng.standard_normal((2, 2, 2)), ["a", "b"])
        table = compute_importance_table(model, ["w0", "w1"], rng.standard_normal((2, 2)))
        with pytest.warns(UserWarning):
            ranked = top_k_words(table, 0, 10)
        assert len(ranked) == 2


def toy_corpus():
    docs = [
        Document("d0", 0, {"shared": 2, "apple": 3}),
        Document("d1", 0, {"shared": 1, "apricot": 1}),
        Document("d2", 1, {"shared": 3, "banana": 2}),
    ]
    return Corpus(documents=docs, class_names=["fruit_a", "fruit_b"])


class TestTfidf:
    def test_exclusive_term_gets_top_idf(self):
        ranked = dict(tfidf_top_words(toy_corpus(), 0, 10))
        # class 0 totals: shared 3, apple 3, apricot 1 over 7 tokens
        idf_exclusive = np.log(2 / 2) + 1
        idf_shared = np.log(2 / 3) + 1
        assert ranked["apple"] == pytest.approx(3 / 7 * idf_exclusive)
        assert ranked["shared"] == pytest.approx(3 / 7 * idf_shared)
        assert ranked["apple"] > ranked["shared"]

    def test_term_in_every_class_scores_equally(self):
        corpus = Corpus(
            documents=[
                Document("d0", 0, {"shared": 2, "left": 2}),
                Document("d1", 1, {"shared": 2, "right": 2}),
            ],
            class_names=["l", "r"],
        )
        a = dict(tfidf_top_words(corpus, 0, 10))["shared"]
        b = dict(tfidf_top_words(corpus, 1, 10))["shared"]
        assert a == pytest.approx(b)

    def test_hand_ranking(self):
        ranked = [w for w, _ in tfidf_top_words(toy_corpus(), 0, 3)]
        assert ranked[0] == "apple"
        assert set(ranked) == {"apple", "shared", "apricot"}

    def test_absent_term_never_outranks_present(self):
        ranked = [w for w, _ in tfidf_top_words(toy_corpus(), 1, 10)]
        assert "apple" not in ranked
        assert "banana" in ranked


class TestPca:
    def test_axis_aligned_2d_identity(self):
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [8.0, 0.0], [4.0, 1.0], [4.0, -1.0]])
        proj, components = pca_2d(pts)
        centered = pts - pts.mean(axis=0)
        assert np.abs(np.abs(proj) - np.abs(centered)).max() < 1e-9

    def test_identical_points_project_to_origin(self):
        pts = np.ones((4, 3))
        with pytest.warns(UserWarning):
            proj, _ = pca_2d(pts)
        assert proj == pytest.approx(np.zeros((4, 2)))

    def test_matches_eigendecomposition_oracle(self, rng):
        pts = rng.standard_normal((5, 3))
        proj, components = pca_2d(pts)
        centered = pts - pts.mean(axis=0)
        cov = centered.T @ centered / 5.0
        eigvals, eigvecs = np.linalg.eigh(cov)
        top2 = eigvecs[:, ::-1][:, :2].T
        for row in range(2):
            dot = abs(float(np.dot(components[row], top2[row])))
            assert dot == pytest.approx(1.0, abs=1e-8)


class TestExportProjection:
    def test_writes_anchor_and_word_rows(self, tmp_path, rng):
        model = AnchorModel(np.eye(3), rng.standard_normal((2, 3, 2)), ["a", "b"])
        words = [f"w{i}" for i in range(5)]
        vectors = rng.standard_normal((5, 3))
        table = compute_importance_table(model, words, vectors)
        path = tmp_path / "projection.tsv"
        rows = export_projection(model, table, vectors, top_words_per_class=2, path=str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "kind\tclass\tlabel\tpc1\tpc2\timportance"
        assert rows == len(lines) - 1
        kinds = [line.split("\t")[0] for line in lines[1:]]
        assert kinds.count("anchor") == 4  # 2 classes x p=2
        assert kinds.count("word") == 4  # 2 classes x top-2

    def test_anchor_rows_score_each_column_for_its_class(self, tmp_path, rng):
        model = AnchorModel(np.eye(3), rng.standard_normal((3, 3, 2)), ["a", "b", "c"])
        vectors = rng.standard_normal((4, 3))
        table = compute_importance_table(model, [f"w{i}" for i in range(4)], vectors)
        path = tmp_path / "projection.tsv"
        export_projection(model, table, vectors, top_words_per_class=1, path=str(path))
        anchor_rows = [line.split("\t") for line in path.read_text().splitlines()[1:] if line.startswith("anchor")]
        assert len(anchor_rows) == 3 * 2
        for row in anchor_rows:
            k = model.class_names.index(row[1])
            j = int(row[2].removeprefix("anchor"))
            _, scores = brute_force_scores(model.anchors[k][:, j], model.anchors)
            assert float(row[5]) == pytest.approx(scores[k])
