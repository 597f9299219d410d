import logging
import os
import re
import tempfile

import numpy as np
import pytest
from conftest import reference_load_corpus, reference_load_word_vectors
from hypothesis import given
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

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("pos\tgood fun\nneg\tbad dull\npos\tgreat fun\n", encoding="utf-8-sig")
        corpus = load_corpus(str(path))
        assert corpus.class_names == ["neg", "pos"]
        assert [doc.label for doc in corpus.documents] == [1, 0, 1]


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


class TestCorpusErrors:
    """Each malformed corpus is one ``ParseError`` line naming the file, and the line where there is one."""

    def test_missing_tab(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\tfine line\n\nno tab here\n")
        with pytest.raises(ParseError) as info:
            load_corpus(str(path), "lines")
        assert str(info.value) == f"{path}:3: expected '<label><TAB><text>'"

    def test_empty_label(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\tfine line\n \t words without a label\n")
        with pytest.raises(ParseError) as info:
            load_corpus(str(path), "lines")
        assert str(info.value) == f"{path}:2: empty label"

    def test_no_class_subdirectories(self, tmp_path):
        (tmp_path / "stray.txt").write_text("words at the top level")
        with pytest.raises(ParseError) as info:
            load_corpus(str(tmp_path), "dirs")
        assert str(info.value) == f"{tmp_path}: no class subdirectories found"

    @pytest.mark.parametrize("fmt", ["lines", "dirs"])
    def test_non_utf8_file_named_by_path(self, tmp_path, fmt):
        (tmp_path / "red").mkdir()
        (tmp_path / "red" / "good.txt").write_text("crimson scarlet")
        bad = tmp_path / "red" / "latin1.txt"
        bad.write_bytes(b"red\tcaf\xe9 words\n")
        with pytest.raises(ParseError) as info:
            load_corpus(str(bad if fmt == "lines" else tmp_path), fmt)
        reason = "'utf-8' codec can't decode byte 0xe9 in position 7: invalid continuation byte"
        assert str(info.value) == f"{bad}: {reason}"


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

    def test_awkward_tokens_round_trip_byte_for_byte(self, tmp_path, rng):
        tokens = ["naïve", "日本語", "can't", "#tag", "a,b", '"q"', "x=1.5", "\\", "e\u0301"]
        vectors = {token: rng.standard_normal(3) * 10.0 ** rng.integers(-6, 18) for token in tokens}
        vectors["zeros"] = np.array([0.0, -0.0, 1e-300])
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        save_word_vectors(vectors, str(first))
        expected = "".join(f"{t} {' '.join(repr(float(x)) for x in v)}\n" for t, v in vectors.items())
        assert first.read_bytes() == expected.encode("utf-8")
        table = load_word_vectors(str(first))
        save_word_vectors({token: table.vector(token) for token in table.index}, str(second))
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize(
        "vectors, token",
        [
            ({"": [1.0, 2.0]}, ""),
            ({"ok": [1.0, 2.0], "a b": [1.0, 2.0]}, "a b"),
            ({"a\tb": [1.0]}, "a\tb"),
            ({"a\u2028b": [1.0]}, "a\u2028b"),
            ({" a": [1.0]}, " a"),
            ({"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0]}, "b"),
            ({"a": [1.0], "b": [1.0, 2.0]}, "b"),
            ({"a": []}, "a"),
        ],
        ids=["empty", "space", "tab", "line_separator", "edge_space", "shorter", "longer", "no_values"],
    )
    def test_unreadable_vectors_rejected_before_writing(self, tmp_path, vectors, token):
        path = tmp_path / "vec.txt"
        with pytest.raises(ValueError, match=re.escape(f"token {token!r}")):
            save_word_vectors({key: np.asarray(value) for key, value in vectors.items()}, str(path))
        assert not path.exists()

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

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("good 1.0 2.0\nbad 3.0 4.0\n", encoding="utf-8-sig")
        table = load_word_vectors(str(path))
        assert list(table.index) == ["good", "bad"]
        assert table.vocab_hash == load_word_vectors(_write(tmp_path, "good 1 2\nbad 3 4\n", "plain.txt")).vocab_hash

    def test_matrix_is_c_order_float(self, tmp_path):
        table = load_word_vectors(_write(tmp_path, "a 1 2 3\nb 4 5 6\na 7 8 9\nc 1 1 1\n"))
        assert table.matrix.dtype == np.float64 and table.matrix.flags.c_contiguous
        assert table.matrix.tolist() == [[1, 2, 3], [4, 5, 6], [1, 1, 1]]
        assert table.index == {"a": 0, "b": 1, "c": 2}

    def test_duplicates_across_compaction_blocks(self, tmp_path, rng):
        # 700 lines, a third of them repeats spread over the file: several blocks move rows
        tokens = [f"w{i}" for i in rng.integers(0, 470, 700)]
        values = rng.standard_normal((700, 5))
        text = "".join(f"{t} {' '.join(map(repr, row.tolist()))}\n" for t, row in zip(tokens, values))
        path = _write(tmp_path, text)
        ours, reference = load_word_vectors(path), reference_load_word_vectors(path)
        assert list(ours.index.items()) == list(reference.index.items())
        assert ours.matrix.flags.c_contiguous and ours.matrix.tobytes() == reference.matrix.tobytes()

    def test_blank_lines_between_rows_warn_nothing(self, tmp_path, recwarn):
        table = load_word_vectors(_write(tmp_path, "\na 1 2\n\n \nb 3 4\n\n"))
        assert table.matrix.tolist() == [[1, 2], [3, 4]]
        assert not recwarn.list

    def test_blank_lines_only_is_an_empty_table(self, tmp_path):
        table = load_word_vectors(_write(tmp_path, "\n  \n\t\n"))
        assert len(table) == 0 and table.matrix.shape == (0, 0)
        assert table.vocab_hash == load_word_vectors(_write(tmp_path, "", "empty.txt")).vocab_hash

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("cat 0.1 0.2\n\ndog 0.3\n", 3, "expected 2 values, got 1"),
            ("cat 0.1 0.2\ndog 0.3 0.4 0.5\n", 2, "expected 2 values, got 3"),
            ("cat 0.1 0.2\ndog 0.3 0.4\nfish 0.5 abc\n", 3, "could not convert string to float: 'abc'"),
            ("\ncat\ndog 0.3 0.4\n", 2, "no vector values on first line"),
            ("cat\n", 1, "no vector values on first line"),
            ("cat 1.0\ndog 1_000\n", 2, "could not convert string to float: '1_000'"),
            ("cat 1.0\ndog \u0661\n", 2, "could not convert string to float: '\u0661'"),
            # a duplicate token's values are parsed too
            ("cat 1.0\ndog 2.0\ncat x\n", 3, "could not convert string to float: 'x'"),
            ("cat 0.1 0.2\r\ndog 0.3\r\n", 2, "expected 2 values, got 1"),
            ("a 1\nb --1\n", 2, "could not convert string to float: '--1'"),
        ],
        ids=[
            "short", "long", "bad-value", "first-without-values", "token-only",
            "underscore", "non-ascii-digit", "duplicate", "crlf-short", "double-sign",
        ],
    )
    def test_parse_error_names_the_first_bad_line(self, tmp_path, text, line, message):
        path = _write(tmp_path, text)
        with pytest.raises(ParseError) as info:
            load_word_vectors(path)
        assert str(info.value) == f"{path}:{line}: {message}"

    def test_hash_tracks_vocabulary(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("cat 1.0 0.0\ndog 0.0 1.0\n")
        b.write_text("dog 9.0 9.0\ncat 5.0 5.0\n")  # same tokens, any order
        c = tmp_path / "c.txt"
        c.write_text("cat 1.0 0.0\nfish 0.0 1.0\n")
        assert load_word_vectors(str(a)).vocab_hash == load_word_vectors(str(b)).vocab_hash
        assert load_word_vectors(str(a)).vocab_hash != load_word_vectors(str(c)).vocab_hash


def _write(directory, text: str, name: str = "vec.txt") -> str:
    """Write ``text`` as UTF-8 bytes, line endings untranslated; return the path."""
    path = os.path.join(str(directory), name)
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))
    return path


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


_SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t ", "\xa0", "\x1c", "\u3000", "\x0b"])
_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=-1e-300, max_value=1e-300).map(repr),
    st.sampled_from(["nan", "NaN", "-nan", "inf", "-Infinity", "Infinity", "+.5", "-.25e-3", "1E+308", "5e-324", "-0.0", "007"]),
)
_TOKENS = st.sampled_from(["cat", "dog", "nan", "1.5", "#c", '"q"', "\u65e5\u672c", "x\x00y"])


@st.composite
def _vector_files(draw):
    """A vector file's text: random values, separators, line endings, blank lines and duplicate tokens."""
    dim = draw(st.integers(1, 5))
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t", "\xa0"])))
        fields = [draw(_TOKENS)] + [draw(_VALUES) for _ in range(dim)]
        line = fields[0]
        for field in fields[1:]:
            line += draw(_SEPARATORS) + field
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " ", "\xa0"])))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


class TestWordVectorsOracle:
    @given(text=_vector_files())
    def test_property_matches_the_line_by_line_reference(self, text):
        logger = logging.getLogger("anchorwmd.data")
        with tempfile.TemporaryDirectory() as directory:
            path = _write(directory, text)
            warned = []
            for load in (load_word_vectors, reference_load_word_vectors):
                records = _Records()
                logger.addHandler(records)
                try:
                    warned.append((load(path), records.messages))
                finally:
                    logger.removeHandler(records)
        (ours, our_messages), (reference, reference_messages) = warned
        assert list(ours.index.items()) == list(reference.index.items())
        assert ours.matrix.shape == reference.matrix.shape
        assert ours.matrix.tobytes() == reference.matrix.tobytes()
        assert ours.vocab_hash == reference.vocab_hash
        assert our_messages == reference_messages


_LABELS = st.sampled_from(["red", "blue", " red ", "Blue", "\u65e5\u672c", "a b"])
_CORPUS_WORDS = st.sampled_from(
    ["cat", "Dog", "DOG", "a", "42", "x1", "mp3s", "end-to-end", "caf\xe9", "\u0130stanbul", "stra\xdfe", "..", "\u65e5"]
)
_CORPUS_GAPS = st.sampled_from([" ", "  ", "\t", ",", "\xa0", "\x0c", "\x0b", "\x1c", "\x85", "\u2028"])


@st.composite
def _corpus_texts(draw):
    """A document's raw text: words of every kind between separators that are not line breaks."""
    text = ""
    for _ in range(draw(st.integers(0, 5))):
        text += draw(_CORPUS_GAPS) + draw(_CORPUS_WORDS)
    return text + draw(st.sampled_from(["", " ", "\xa0"]))


@st.composite
def _lines_corpora(draw):
    """A ``lines`` corpus file's bytes: labelled lines, blank lines, lines without a tab,
    mixed line endings, an optional byte-order mark and now and then a byte that is not UTF-8."""
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.integers(0, 19))
        if kind < 3:
            lines.append(draw(st.sampled_from(["", " ", "\t", "\xa0", "\x0c"])))
        elif kind == 3:
            lines.append(draw(_corpus_texts()))
        else:
            label = draw(st.sampled_from(["", " ", "\xa0"]) if kind == 4 else _LABELS)
            lines.append(label + "\t" + draw(_corpus_texts()))
    text = ""
    for i, line in enumerate(lines, 1):
        text += line + draw(st.sampled_from(["\n", "\r\n", "\r"] + [""] * (i == len(lines))))
    data = draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode()
    if draw(st.integers(0, 9)) == 0:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from([b"\xff", b"\xe9 ", b"\xc3"])) + data[cut:]
    return data


@st.composite
def _dirs_corpora(draw):
    """A ``dirs`` corpus: class directories, ``.txt`` files and others, stray top-level files."""
    classes = draw(st.lists(st.sampled_from(["red", "blue", "a b", "\u65e5\u672c", "x.txt"]), max_size=3, unique=True))
    tree = {}
    for name in classes:
        names = st.sampled_from(["d1.txt", "d2.txt", "B.txt", "notes.md", "upper.TXT", "\xe9.txt"])
        tree[name] = {
            fname: draw(_corpus_texts()).encode(draw(st.sampled_from(["utf-8", "utf-8-sig"])))
            for fname in draw(st.lists(names, max_size=3, unique=True))
        }
        if tree[name] and draw(st.integers(0, 9)) == 0:
            tree[name][sorted(tree[name])[0]] += b"\xff"
    stray = draw(st.lists(st.sampled_from(["top.txt", "README"]), max_size=2, unique=True))
    return tree, stray


def _parse_both(path: str, fmt: str):
    """``load_corpus`` and the reference on ``path``: each one's corpus or error, and its warnings."""
    logger = logging.getLogger("anchorwmd.data")
    outcomes = []
    for load in (load_corpus, reference_load_corpus):
        records = _Records()
        logger.addHandler(records)
        try:
            outcome = load(path, fmt)
        except ParseError as exc:
            outcome = str(exc)
        finally:
            logger.removeHandler(records)
        outcomes.append((outcome, records.messages))
    return outcomes


class TestCorpusOracle:
    @given(data=_lines_corpora())
    def test_property_lines_match_the_line_by_line_reference(self, data):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "corpus.tsv")
            with open(path, "wb") as fh:
                fh.write(data)
            ours, reference = _parse_both(path, "lines")
        assert ours == reference

    @given(corpus=_dirs_corpora())
    def test_property_dirs_match_the_file_by_file_reference(self, corpus):
        tree, stray = corpus
        with tempfile.TemporaryDirectory() as directory:
            for name, files in tree.items():
                os.mkdir(os.path.join(directory, name))
                for fname, data in files.items():
                    with open(os.path.join(directory, name, fname), "wb") as fh:
                        fh.write(data)
            for fname in stray:
                with open(os.path.join(directory, fname), "w", encoding="utf-8") as fh:
                    fh.write("stray words")
            ours, reference = _parse_both(directory, "dirs")
        assert ours == reference


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


def class_sizes(corpus):
    """The number of documents of each class, in class order."""
    return [sum(doc.label == k for doc in corpus.documents) for k in range(corpus.num_classes)]


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
            for size in class_sizes(corpus_part):
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
        assert abs(class_sizes(train)[0] - 8) <= 1
        assert abs(class_sizes(train)[1] - 16) <= 1

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

    @pytest.mark.parametrize("name", ["north pole", "pôle \"nord\"", "a,b"])
    def test_inner_spaces_and_quotes_read_back(self, tmp_path, name):
        corpus = Corpus([Document("d0", 0, {"cat": 1}), Document("d1", 1, {"dog": 1})], [name, "sea"])
        path = tmp_path / "corpus.tsv"
        save_corpus_lines(corpus, str(path))
        assert load_corpus(str(path)).class_names == sorted([name, "sea"])

    @pytest.mark.parametrize("name", ["north\tpole", "north\npole", "north\rpole", " north", "north ", "north\u2028"])
    def test_class_name_that_cannot_read_back_rejected(self, tmp_path, name):
        corpus = Corpus([Document("d0", 0, {"cat": 1}), Document("d1", 1, {"dog": 1})], ["sea", name])
        path = tmp_path / "corpus.tsv"
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            save_corpus_lines(corpus, str(path))
        assert not path.exists()


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
