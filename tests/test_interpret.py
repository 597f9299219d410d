import tracemalloc
import warnings

import numpy as np
import pytest

from anchorwmd import interpret
from anchorwmd.data import Corpus, Document
from anchorwmd.interpret import (
    ImportanceTable,
    compute_importance_table,
    export_projection,
    pca_2d,
    tfidf_rankings,
    tfidf_top_words,
    top_k_words,
)
from anchorwmd.model import AnchorModel
from anchorwmd.ot import ground_cost_matrix


def brute_force_scores(z, anchors):
    """Reference min anchor distances and importances of one transformed word."""
    dists = np.array(
        [min(float(np.sum((z - anchor[:, j]) ** 2)) for j in range(anchor.shape[1])) for anchor in anchors]
    )
    return dists, dists.sum() - len(anchors) * dists


def per_anchor_scores(points, anchors):
    """Reference ``_anchor_scores``: one ground cost per anchor, stacked by class."""
    min_dists = np.stack([ground_cost_matrix(points, anchor).min(axis=1) for anchor in anchors], axis=1)
    return min_dists, min_dists.sum(axis=1, keepdims=True) - len(anchors) * min_dists


def reference_write_tsv(table, path):
    """Reference ``ImportanceTable.write_tsv``: every field formatted row by row."""
    num_classes = len(table.class_names)
    with open(path, "w", encoding="utf-8") as fh:
        header = ["word"] + [f"I_{k}" for k in range(num_classes)] + [f"D_{k}" for k in range(num_classes)]
        fh.write("\t".join(header) + "\n")
        for i, word in enumerate(table.words):
            row = [word] + [repr(float(x)) for x in table.importances[i]]
            row += [repr(float(d)) for d in table.min_distances[i]]
            fh.write("\t".join(row) + "\n")


def reference_top_k_words(table, class_id, k):
    """Reference ``top_k_words``: a full sort of the vocabulary by (-score, word)."""
    scored = sorted(zip(table.words, table.importances[:, class_id]), key=lambda pair: (-pair[1], pair[0]))
    return [(word, float(score)) for word, score in scored[:k]]


def direct_pca(points):
    """Reference ``pca_2d``: SVD of the centered data itself, same sign rule."""
    centered = points - points.mean(axis=0, keepdims=True)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:2].copy()
    for row in range(2):
        if components[row, np.argmax(np.abs(components[row]))] < 0:
            components[row] = -components[row]
    return centered @ components.T, components


def random_table(rng, num_words, num_classes, levels=None):
    """A random table; with ``levels`` every score is one of that many values (heavy ties)."""
    words = [f"w{i:04d}" for i in rng.permutation(num_words)]
    if levels is None:
        importances = rng.standard_normal((num_words, num_classes)) * 10.0 ** rng.integers(-3, 4, (num_words, 1))
    else:
        importances = rng.integers(0, levels, (num_words, num_classes)) * 0.25 - 1.0
    return ImportanceTable(
        words=words,
        class_names=[f"c{k}" for k in range(num_classes)],
        min_distances=np.abs(rng.standard_normal((num_words, num_classes))) * 1e3,
        importances=importances,
    )


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

    def test_anchor_scores_equal_per_anchor_loop(self, rng, monkeypatch):
        points = rng.standard_normal((5, 40))
        anchors = rng.standard_normal((4, 5, 3))
        calls = []

        def counting_ground_cost(*args):
            calls.append(args)
            return ground_cost_matrix(*args)

        monkeypatch.setattr(interpret, "ground_cost_matrix", counting_ground_cost)
        min_dists, importances = interpret._anchor_scores(points, anchors)
        assert len(calls) == 1
        ref_dists, ref_importances = per_anchor_scores(points, anchors)
        assert np.array_equal(min_dists, ref_dists)
        assert np.array_equal(importances, ref_importances)

    def test_tsv_output(self, tmp_path, rng):
        model = self.make_model(rng)
        table = compute_importance_table(model, ["w0", "w1"], rng.standard_normal((2, 2)))
        path = tmp_path / "importance.tsv"
        table.write_tsv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "word\tI_0\tI_1\tI_2\tD_0\tD_1\tD_2"
        assert len(lines) == 1 + 2
        for i, line in enumerate(lines[1:]):
            fields = line.split("\t")
            assert fields[0] == table.words[i]
            assert [float(x) for x in fields[1:4]] == table.importances[i].tolist()
            assert [float(x) for x in fields[4:]] == table.min_distances[i].tolist()

    @pytest.mark.parametrize("scale", [1e200, np.inf], ids=["overflow", "inf"])
    def test_non_finite_distances_rejected(self, rng, scale):
        model = self.make_model(rng)
        vectors = rng.standard_normal((3, 2))
        vectors[1] = scale
        with pytest.raises(ValueError, match="finite"):
            compute_importance_table(model, ["w0", "w1", "w2"], vectors)


class TestWriteTsvOracle:
    @pytest.mark.parametrize(
        "num_words, num_classes, levels",
        [(50, 4, None), (30, 1, None), (40, 3, 3)],
        ids=["random", "one_class", "ties"],
    )
    def test_bytes_equal_reference(self, tmp_path, rng, num_words, num_classes, levels):
        table = random_table(rng, num_words, num_classes, levels)
        table.importances[0, 0] = -0.0
        table.write_tsv(str(tmp_path / "new.tsv"))
        reference_write_tsv(table, str(tmp_path / "ref.tsv"))
        assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "ref.tsv").read_bytes()

    def test_int_valued_table_prints_floats(self, tmp_path, rng):
        table = ImportanceTable(
            words=["a", "b", "c"],
            class_names=["x", "y"],
            min_distances=rng.integers(0, 5, (3, 2)),
            importances=rng.integers(-5, 5, (3, 2)),
        )
        table.write_tsv(str(tmp_path / "new.tsv"))
        reference_write_tsv(table, str(tmp_path / "ref.tsv"))
        written = (tmp_path / "new.tsv").read_bytes()
        assert written == (tmp_path / "ref.tsv").read_bytes()
        assert all("." in field for field in written.decode().splitlines()[1].split("\t")[1:])

    def test_no_words_writes_the_header_alone(self, tmp_path):
        table = ImportanceTable([], ["x"], np.zeros((0, 1)), np.zeros((0, 1)))
        table.write_tsv(str(tmp_path / "new.tsv"))
        assert (tmp_path / "new.tsv").read_text() == "word\tI_0\tD_0\n"

    @pytest.mark.parametrize("num_words", [1, 6, 7, 8, 20])
    def test_chunk_boundaries(self, tmp_path, rng, monkeypatch, num_words):
        monkeypatch.setattr(interpret, "_TSV_CHUNK_ROWS", 7)
        table = random_table(rng, num_words, 2)
        table.write_tsv(str(tmp_path / "new.tsv"))
        reference_write_tsv(table, str(tmp_path / "ref.tsv"))
        assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "ref.tsv").read_bytes()

    def test_non_finite_value_is_an_error(self, tmp_path, rng):
        table = random_table(rng, 5, 2)
        table.min_distances[3, 1] = np.nan
        with pytest.raises(ValueError):
            table.write_tsv(str(tmp_path / "new.tsv"))


class TestTopKOracle:
    @pytest.mark.parametrize("levels", [None, 2, 5], ids=["random", "two_levels", "five_levels"])
    def test_equals_full_sort(self, rng, levels):
        table = random_table(rng, 60, 3, levels)
        for class_id in range(3):
            for k in (1, 2, 7, 30, 59, 60):
                assert top_k_words(table, class_id, k) == reference_top_k_words(table, class_id, k)

    def test_ties_exactly_at_kth_score(self):
        # scores 5 > 4 = 4 = 4 = 4 > 1: every k from 2 to 5 cuts through the tie
        table = ImportanceTable(
            words=["f", "a", "e", "c", "b", "d"],
            class_names=["only"],
            min_distances=np.zeros((6, 1)),
            importances=np.array([[4.0], [1.0], [4.0], [5.0], [4.0], [4.0]]),
        )
        for k in range(1, 7):
            assert top_k_words(table, 0, k) == reference_top_k_words(table, 0, k)
        assert [w for w, _ in top_k_words(table, 0, 3)] == ["c", "b", "d"]

    def test_oversized_k_warns_and_equals_full_sort(self, rng):
        table = random_table(rng, 20, 2, 3)
        with pytest.warns(UserWarning, match="returning all"):
            ranked = top_k_words(table, 1, 21)
        assert ranked == reference_top_k_words(table, 1, 20)

    def test_k_equal_vocabulary_does_not_warn(self, rng):
        table = random_table(rng, 20, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert top_k_words(table, 0, 20) == reference_top_k_words(table, 0, 20)

    def test_int_valued_table(self, rng):
        table = ImportanceTable(
            words=[f"w{i}" for i in range(30)],
            class_names=["x", "y"],
            min_distances=np.zeros((30, 2), dtype=int),
            importances=rng.integers(-3, 3, (30, 2)),
        )
        for k in (1, 5, 29, 30):
            ranked = top_k_words(table, 1, k)
            assert ranked == reference_top_k_words(table, 1, k)
            assert all(type(score) is float for _, score in ranked)


class TestTopKWords:
    def test_full_vocabulary_is_permutation(self, rng):
        model = AnchorModel(np.eye(2), rng.standard_normal((2, 2, 3)), ["a", "b"])
        words = [f"w{i}" for i in range(6)]
        table = compute_importance_table(model, words, rng.standard_normal((6, 2)))
        ranked = top_k_words(table, 0, 6)
        assert sorted(w for w, _ in ranked) == sorted(words)

    def test_sorted_descending_with_alphabetical_ties(self):
        table_importances = np.array([[1.0], [3.0], [3.0], [-2.0]])
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

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="k must be at least 1"):
            tfidf_top_words(toy_corpus(), 0, k)

    def test_rankings_equal_per_class_calls(self):
        corpus = toy_corpus()
        assert tfidf_rankings(corpus, 2) == [tfidf_top_words(corpus, c, 2) for c in range(corpus.num_classes)]
        assert tfidf_rankings(corpus, 2, [1]) == [tfidf_top_words(corpus, 1, 2)]
        with pytest.raises(ValueError, match="out of range"):
            tfidf_top_words(corpus, 2, 2)

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


    @pytest.mark.parametrize("shape", [(60, 6), (6, 6), (4, 9)], ids=["tall", "square", "wide"])
    def test_matches_direct_svd(self, rng, shape):
        pts = rng.standard_normal(shape) * np.linspace(3.0, 0.5, shape[1])
        proj, components = pca_2d(pts)
        ref_proj, ref_components = direct_pca(pts)
        for row in range(2):
            assert abs(float(np.dot(components[row], ref_components[row])) - 1.0) < 1e-12
        assert np.abs(proj - ref_proj).max() < 1e-9

    def test_rank_one_tall_input_warns_and_pads(self, rng):
        direction = rng.standard_normal(5)
        pts = np.outer(rng.standard_normal(30), direction) + 2.0
        with pytest.warns(UserWarning, match="rank 1"):
            proj, components = pca_2d(pts)
        assert np.all(components[1] == 0.0) and np.all(proj[:, 1] == 0.0)
        centered = pts - pts.mean(axis=0)
        assert np.abs(np.abs(proj[:, 0]) - np.linalg.norm(centered, axis=1)).max() < 1e-9

    @pytest.mark.parametrize("shape", [(2000, 50), (400, 120)], ids=["very_tall", "tall"])
    def test_tall_spread_spectrum_matches_direct_svd(self, rng, shape):
        pts = rng.standard_normal(shape) * np.geomspace(100.0, 0.01, shape[1]) + 3.0
        proj, components = pca_2d(pts)
        ref_proj, ref_components = direct_pca(pts)
        assert np.abs(components - ref_components).max() < 1e-12
        assert np.abs(proj - ref_proj).max() < 1e-12 * np.abs(ref_proj).max()

    @pytest.mark.parametrize("ratio, rank", [(1e-9, 1), (1e-4, 2)])
    def test_rank_cutoff(self, rng, ratio, rank):
        """Centered data with singular values (1, ratio): rank 1 below the cutoff, rank 2 above it."""
        left = rng.standard_normal((200, 2))
        left, _ = np.linalg.qr(left - left.mean(axis=0))  # orthonormal, centered columns
        right, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        pts = left @ np.diag([1.0, ratio]) @ right.T + 2.0
        if rank == 1:
            with pytest.warns(UserWarning, match="rank 1"):
                _, components = pca_2d(pts)
            assert np.all(components[1] == 0.0)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, components = pca_2d(pts)
            assert abs(float(components[1] @ right[:, 1])) == pytest.approx(1.0, abs=1e-6)
        assert abs(float(components[0] @ right[:, 0])) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("value", [1e200, 1e307, np.nan], ids=["scatter_overflow", "mean_overflow", "nan"])
    def test_non_finite_scatter_rejected(self, rng, value):
        pts = rng.standard_normal((2000, 3))
        pts[::2, 0] = value
        with pytest.raises(ValueError, match="scatter matrix is not finite"):
            pca_2d(pts)

    @pytest.mark.parametrize("shape", [(500, 40), (40, 40), (12, 40)], ids=["tall", "square", "wide"])
    def test_memory_layout_does_not_change_bits(self, rng, shape):
        pts = rng.standard_normal(shape)
        proj, components = pca_2d(pts)
        for other in (np.asfortranarray(pts), np.hstack([pts, pts])[:, : shape[1]]):
            other_proj, other_components = pca_2d(other)
            assert np.array_equal(other_proj, proj) and np.array_equal(other_components, components)


    @pytest.mark.parametrize("order", ["C", "F"])
    def test_input_is_left_unchanged(self, rng, order):
        pts = np.array(rng.standard_normal((30, 4)) + 5.0, order=order)
        before = pts.copy()
        pca_2d(pts)
        assert np.array_equal(pts, before)


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

    def test_coordinates_parse_as_the_projection(self, tmp_path, rng):
        model = AnchorModel(rng.standard_normal((3, 3)), rng.standard_normal((2, 3, 2)), ["a", "b"])
        words = [f"w{i}" for i in range(5)]
        vectors = rng.standard_normal((5, 3))
        table = compute_importance_table(model, words, vectors)
        path = tmp_path / "projection.tsv"
        export_projection(model, table, vectors, top_words_per_class=2, path=str(path))
        anchor_cols = np.concatenate([model.anchors[k].T for k in range(2)])
        proj, _ = pca_2d(np.concatenate([(model.transform @ vectors.T).T, anchor_cols]))
        rows = [line.split("\t") for line in path.read_text().splitlines()[1:]]
        for kind, class_name, label, pc1, pc2, _ in rows:
            if kind == "anchor":
                expected = proj[len(words) + 2 * model.class_names.index(class_name) + int(label[len("anchor"):])]
            else:
                expected = proj[words.index(label)]
            assert [float(pc1), float(pc2)] == expected.tolist()

    def test_peak_memory_is_one_pca_input(self, tmp_path, rng):
        num_words, dim, num_classes, p = 3000, 100, 4, 8
        model = AnchorModel(
            rng.standard_normal((dim, dim)), rng.standard_normal((num_classes, dim, p)), ["a", "b", "c", "d"]
        )
        vectors = rng.standard_normal((num_words, dim))
        table = compute_importance_table(model, [f"w{i}" for i in range(num_words)], vectors)
        tracemalloc.start()
        try:
            export_projection(model, table, vectors, top_words_per_class=5, path=str(tmp_path / "projection.tsv"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the (V + Y p, d) PCA input is built once; a second copy of it (a transformed-words
        # temporary, a factorisation's copy) would double the peak
        assert peak < 1.5 * (num_words + num_classes * p) * dim * 8

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
