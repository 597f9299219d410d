import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorwmd.data import (
    Corpus,
    Document,
    EmptyDocumentError,
    ParseError,
    SplitSpec,
    WordVectorTable,
    corpus_to_measures,
    load_corpus,
    load_word_vectors,
    remap_labels,
    save_corpus_lines,
    save_word_vectors,
    split,
    to_measure,
    tokenize,
)


class TestTokenize:
    def test_basic_sentence(self):
        assert tokenize("The match was won") == ["the", "match", "was", "won"]

    def test_short_and_numeric_tokens_dropped(self):
        assert tokenize("A a A.") == []
        assert tokenize("room 101 has 2 beds") == ["room", "has", "beds"]

    def test_mixed_alphanumerics_kept(self):
        assert tokenize("3d-printed MP3s") == ["3d", "printed", "mp3s"]

    def test_punctuation_splits(self):
        assert tokenize("end-to-end, really!") == ["end", "to", "end", "really"]


class TestLoadCorpusLines:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("sports\tThe match was won\n")
        corpus = load_corpus(str(path))
        assert corpus.class_names == ["sports"]
        assert corpus.documents[0].counts == {"the": 1, "match": 1, "was": 1, "won": 1}

    def test_empty_document_dropped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\tgood words here\nb\tA a A.\nb\tmore good words\n")
        with caplog.at_level("WARNING"):
            corpus = load_corpus(str(path))
        assert len(corpus) == 2
        assert "no tokens survive" in caplog.text

    def test_missing_tab_is_parse_error_with_line(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\tfine line\nbroken line without tab\n")
        with pytest.raises(ParseError, match=":2"):
            load_corpus(str(path))

    def test_counts_accumulate(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("y\tcat cat dog Cat\n")
        corpus = load_corpus(str(path))
        assert corpus.documents[0].counts == {"cat": 3, "dog": 1}

    def test_class_names_sorted(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("zebra\tsome words\napple\tother words\n")
        corpus = load_corpus(str(path))
        assert corpus.class_names == ["apple", "zebra"]
        assert corpus.documents[0].label == 1  # zebra line


class TestLoadCorpusDirs:
    def test_directory_per_class(self, tmp_path):
        for cls, text in (("red", "crimson scarlet"), ("blue", "navy azure")):
            d = tmp_path / cls
            d.mkdir()
            (d / "doc1.txt").write_text(text)
        corpus = load_corpus(str(tmp_path))
        assert corpus.class_names == ["blue", "red"]
        assert len(corpus) == 2
        assert corpus.documents[0].doc_id == "blue/doc1.txt"

    def test_no_class_dirs_is_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_corpus(str(tmp_path), fmt="dirs")


class TestWordVectors:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 0.1 0.2\n")
        table = load_word_vectors(str(path))
        assert table.vector("cat") == pytest.approx([0.1, 0.2])
        assert table.dimension == 2

    def test_empty_file_dimension_undefined(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("")
        table = load_word_vectors(str(path))
        assert len(table) == 0
        with pytest.raises(ValueError):
            table.dimension

    def test_write_then_read_round_trip(self, tmp_path, rng):
        vectors = {f"w{i}": rng.standard_normal(4) for i in range(3)}
        path = tmp_path / "vec.txt"
        save_word_vectors(vectors, str(path))
        table = load_word_vectors(str(path))
        for token, vec in vectors.items():
            assert np.array_equal(table.vector(token), vec)

    def test_inconsistent_dimension_is_parse_error(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 0.1 0.2\ndog 0.3\n")
        with pytest.raises(ParseError, match=":2"):
            load_word_vectors(str(path))

    def test_duplicates_keep_first(self, tmp_path, caplog):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.0\ncat 2.0\n")
        with caplog.at_level("WARNING"):
            table = load_word_vectors(str(path))
        assert table.vector("cat") == pytest.approx([1.0])
        assert "duplicate" in caplog.text

    def test_hash_tracks_vocabulary(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("cat 1.0 0.0\ndog 0.0 1.0\n")
        b.write_text("dog 9.0 9.0\ncat 5.0 5.0\n")  # same tokens, any order
        c = tmp_path / "c.txt"
        c.write_text("cat 1.0 0.0\nfish 0.0 1.0\n")
        assert load_word_vectors(str(a)).vocab_hash == load_word_vectors(str(b)).vocab_hash
        assert load_word_vectors(str(a)).vocab_hash != load_word_vectors(str(c)).vocab_hash


class TestToMeasure:
    def table(self):
        return WordVectorTable.from_dict(
            {"aa": np.array([1.0, 0.0]), "bb": np.array([0.0, 1.0]), "cc": np.array([1.0, 1.0])}
        )

    def test_weights_from_counts(self):
        doc = to_measure({"aa": 1, "bb": 3}, self.table())
        assert doc.weights == pytest.approx([0.25, 0.75])

    def test_out_of_vocabulary_renormalized(self):
        doc = to_measure({"aa": 2, "zzz": 5}, self.table())
        assert doc.weights == pytest.approx([1.0])
        assert doc.support[:, 0] == pytest.approx([1.0, 0.0])

    def test_all_oov_is_error(self):
        with pytest.raises(EmptyDocumentError):
            to_measure({"zzz": 5}, self.table())

    def test_five_token_hand_weights(self):
        doc = to_measure({"aa": 2, "bb": 1, "cc": 2}, self.table())
        assert doc.weights == pytest.approx([0.4, 0.2, 0.4])
        assert doc.weights.sum() == 1.0

    def test_weights_sum_within_one_ulp(self, rng):
        table = WordVectorTable.from_dict(
            {f"w{i}": rng.standard_normal(3) for i in range(7)}
        )
        for _ in range(50):
            counts = {f"w{i}": int(rng.integers(1, 50)) for i in range(7)}
            doc = to_measure(counts, table)
            assert abs(float(doc.weights.sum()) - 1.0) < 1e-15

    @settings(derandomize=True, database=None, deadline=None)
    @given(counts=st.dictionaries(st.sampled_from(["aa", "bb", "cc", "xx", "yy"]), st.integers(0, 10**6), min_size=1))
    def test_property_positive_weights_summing_to_one(self, counts):
        # the solver's input contract: strictly positive weights summing to 1,
        # aligned with word_ids and the support columns (xx, yy have no vectors)
        table = self.table()
        kept = sorted(t for t, c in counts.items() if c > 0 and t in table)
        if not kept:
            with pytest.raises(EmptyDocumentError):
                to_measure(counts, table)
            return
        doc = to_measure(counts, table)
        assert np.all(doc.weights > 0)
        assert abs(float(doc.weights.sum()) - 1.0) <= 1e-9
        assert doc.word_ids.tolist() == [table.index[t] for t in kept]
        assert np.array_equal(doc.support, table.matrix[doc.word_ids].T)
        total = sum(counts[t] for t in kept)
        assert doc.weights == pytest.approx([counts[t] / total for t in kept], rel=1e-12)

    def test_insertion_order_irrelevant(self):
        a = to_measure({"aa": 1, "bb": 2, "cc": 3}, self.table())
        b = to_measure({"cc": 3, "aa": 1, "bb": 2}, self.table())
        assert np.array_equal(a.support, b.support)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.word_ids, b.word_ids)

    def test_corpus_conversion_drops_oov_only_docs(self, caplog):
        corpus = Corpus(
            documents=[
                Document("d0", 0, {"aa": 1}),
                Document("d1", 1, {"zzz": 1}),
                Document("d2", 1, {"bb": 2}),
            ],
            class_names=["x", "y"],
        )
        with caplog.at_level("WARNING"):
            measures, kept = corpus_to_measures(corpus, self.table())
        assert kept == ["d0", "d2"]
        assert [m.label for m in measures] == [0, 1]


class TestSplit:
    def corpus(self, per_class=(5, 5)):
        docs = []
        for label, n in enumerate(per_class):
            for i in range(n):
                docs.append(Document(f"c{label}d{i}", label, {"tok": 1}))
        return Corpus(documents=docs, class_names=[f"c{k}" for k in range(len(per_class))])

    def test_stratified_half_split(self):
        train, test = split(self.corpus(), SplitSpec(train_fraction=0.5, seed=0))
        assert len(train) == 5 and len(test) == 5
        for corpus_part in (train, test):
            for size in corpus_part.class_sizes():
                assert abs(size - 2.5) <= 0.5  # 2 or 3 per class

    def test_union_is_disjoint_partition(self):
        corpus = self.corpus((6, 4))
        train, test = split(corpus, SplitSpec(train_fraction=0.7, seed=3))
        train_ids = {d.doc_id for d in train.documents}
        test_ids = {d.doc_id for d in test.documents}
        assert not (train_ids & test_ids)
        assert train_ids | test_ids == {d.doc_id for d in corpus.documents}

    def test_proportions_within_one_doc(self):
        corpus = self.corpus((10, 20))
        train, test = split(corpus, SplitSpec(train_fraction=0.8, seed=1))
        assert abs(train.class_sizes()[0] - 8) <= 1
        assert abs(train.class_sizes()[1] - 16) <= 1

    def test_seeded_determinism(self):
        corpus = self.corpus((7, 9))
        first = split(corpus, SplitSpec(train_fraction=0.6, seed=5))
        second = split(corpus, SplitSpec(train_fraction=0.6, seed=5))
        assert [d.doc_id for d in first[0].documents] == [d.doc_id for d in second[0].documents]

    def test_small_class_rejected(self):
        corpus = self.corpus((1, 5))
        with pytest.raises(ValueError):
            split(corpus, SplitSpec(train_fraction=0.5, seed=0))

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=1.0)


class TestCorpusRoundTrip:
    def test_save_then_load_lines(self, tmp_path):
        corpus = Corpus(
            documents=[
                Document("d0", 0, {"cat": 2, "dog": 1}),
                Document("d1", 1, {"fish": 3}),
            ],
            class_names=["pets", "sea"],
        )
        path = tmp_path / "corpus.tsv"
        save_corpus_lines(corpus, str(path))
        loaded = load_corpus(str(path))
        assert loaded.class_names == corpus.class_names
        assert [d.counts for d in loaded.documents] == [d.counts for d in corpus.documents]


class TestRemapLabels:
    def test_remaps_onto_target_order(self):
        corpus = Corpus(
            documents=[Document("d0", 0, {"tok": 1}), Document("d1", 1, {"tok": 1})],
            class_names=["b", "a"],
        )
        remapped = remap_labels(corpus, ["a", "b"])
        assert remapped.documents[0].label == 1
        assert remapped.documents[1].label == 0

    def test_unknown_class_rejected(self):
        corpus = Corpus(documents=[Document("d0", 0, {"tok": 1})], class_names=["weird"])
        with pytest.raises(ValueError):
            remap_labels(corpus, ["a", "b"])


class TestVocabulary:
    def test_union_of_token_sets(self):
        corpus = Corpus(
            documents=[Document("d0", 0, {"b": 1, "a": 2}), Document("d1", 0, {"c": 1, "a": 1})],
            class_names=["only"],
        )
        assert corpus.vocabulary() == ["a", "b", "c"]


class TestClassTokenCounts:
    def test_sums_counts_within_each_class(self):
        corpus = Corpus(
            documents=[
                Document("d0", 1, {"b": 1, "a": 2}),
                Document("d1", 0, {"c": 3}),
                Document("d2", 1, {"a": 1}),
            ],
            class_names=["x", "y", "empty"],
        )
        assert corpus.class_token_counts() == [{"c": 3}, {"a": 3, "b": 1}, {}]
