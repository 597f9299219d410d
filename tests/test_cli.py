import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from anchorwmd.cli import main
from anchorwmd.data import Corpus, save_corpus_lines, save_word_vectors
from anchorwmd.model import load_checkpoint
from anchorwmd.synthetic import planted_two_cluster_data


@pytest.fixture(scope="module")
def fixture_paths(tmp_path_factory):
    """A small planted corpus written to disk in CLI formats."""
    root = tmp_path_factory.mktemp("fixture")
    synth = planted_two_cluster_data(
        seed=4, train_docs_per_class=8, test_docs_per_class=4, tokens_per_doc=12
    )
    vectors_path = root / "vectors.txt"
    train_path = root / "train.tsv"
    test_path = root / "test.tsv"
    save_word_vectors(
        {w: synth.vectors.vector(w) for w in synth.vectors.index}, str(vectors_path)
    )
    save_corpus_lines(synth.train, str(train_path))
    save_corpus_lines(synth.test, str(test_path))
    return {
        "vectors": str(vectors_path),
        "train": str(train_path),
        "test": str(test_path),
        "synth": synth,
    }


def run_train(paths, out, extra=()):
    return main(
        [
            "train",
            "--vectors", paths["vectors"],
            "--corpus", paths["train"],
            "--out", str(out),
            "--epochs", "3",
            "--batch-size", "8",
            "--p", "4",
            "--seed", "0",
        ]
        + list(extra)
    )


class TestTrainCommand:
    def test_writes_artifacts(self, fixture_paths, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_train(fixture_paths, out) == 0
        captured = capsys.readouterr().out
        assert "final train loss:" in captured
        assert "train error rate:" in captured
        for name in ("checkpoint.json", "loss_history.csv", "effective_config.json"):
            assert (out / name).exists()

    def test_zero_lr_keeps_initialization(self, fixture_paths, tmp_path):
        out = tmp_path / "frozen"
        assert run_train(fixture_paths, out, ["--lr", "0"]) == 0
        model = load_checkpoint(str(out / "checkpoint.json"))
        assert np.array_equal(model.transform, np.eye(10))

    def test_seeded_runs_identical(self, fixture_paths, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_train(fixture_paths, out_a) == 0
        assert run_train(fixture_paths, out_b) == 0
        for name in ("checkpoint.json", "loss_history.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_missing_path_fails_with_nonzero_exit(self, fixture_paths, tmp_path, capsys):
        code = main(
            [
                "train",
                "--vectors", "/nonexistent/vectors.txt",
                "--corpus", fixture_paths["train"],
                "--out", str(tmp_path / "x"),
            ]
        )
        assert_rejected(code, capsys, tmp_path / "x", "/nonexistent/vectors.txt")

    def test_config_file_and_flag_precedence(self, fixture_paths, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epochs": 2, "p": 3, "seed": 9}))
        out = tmp_path / "cfg"
        code = main(
            [
                "train",
                "--vectors", fixture_paths["vectors"],
                "--corpus", fixture_paths["train"],
                "--out", str(out),
                "--config", str(config),
                "--p", "5",  # flag beats config file
            ]
        )
        assert code == 0
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["p"] == 5
        assert effective["epochs"] == 2
        assert effective["seed"] == 9
        model = load_checkpoint(str(out / "checkpoint.json"))
        assert model.num_support_points == 5

    def test_train_fraction_writes_held_out_split(self, fixture_paths, tmp_path):
        out = tmp_path / "split_run"
        code = main(
            [
                "train",
                "--vectors", fixture_paths["vectors"],
                "--corpus", fixture_paths["train"],
                "--out", str(out),
                "--train-fraction", "0.75",
                "--epochs", "1",
                "--batch-size", "8",
                "--p", "3",
                "--seed", "1",
            ]
        )
        assert code == 0
        from anchorwmd.data import load_corpus

        held = load_corpus(str(out / "test_split.tsv"))
        assert len(held) == 4  # 16 docs at 0.75 -> 12 train / 4 held out
        assert held.class_names == ["north", "south"]
        code = main(
            [
                "eval",
                "--vectors", fixture_paths["vectors"],
                "--corpus", str(out / "test_split.tsv"),
                "--checkpoint", str(out / "checkpoint.json"),
                "--out", str(tmp_path / "split_eval"),
            ]
        )
        assert code == 0

    def test_unknown_config_key_rejected(self, fixture_paths, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epoch": 2}))
        code = main(
            [
                "train",
                "--vectors", fixture_paths["vectors"],
                "--corpus", fixture_paths["train"],
                "--out", str(tmp_path / "y"),
                "--config", str(config),
            ]
        )
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [{"epochs": "3"}, {"lr": "0.1"}, {"absolute_epsilon": 1}])
    def test_config_value_of_wrong_type_rejected(self, fixture_paths, tmp_path, capsys, values):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        code = main(
            [
                "train",
                "--vectors", fixture_paths["vectors"],
                "--corpus", fixture_paths["train"],
                "--out", str(tmp_path / "typed"),
                "--config", str(config),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and repr(next(iter(values))) in err[0]


def assert_rejected(code, capsys, out, message):
    """Exit code 1, one ``error:`` line naming the problem, and the run stopped before writing anything."""
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and message in err[0]
    assert not out.exists()


@pytest.fixture(scope="module")
def trained(fixture_paths, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = main(
        [
            "train",
            "--vectors", fixture_paths["vectors"],
            "--corpus", fixture_paths["train"],
            "--out", str(out),
            "--epochs", "6",
            "--batch-size", "8",
            "--p", "4",
            "--seed", "0",
        ]
    )
    assert code == 0
    return str(out / "checkpoint.json")


_VALID_CHECKPOINT = {
    "transform": [[1.0]],
    "anchors": [[[0.5]]],
    "class_names": ["a"],
    "dim": 1,
    "num_classes": 1,
    "p": 1,
}


class TestEvalCommand:
    def test_eval_writes_predictions_and_prints_rate(self, fixture_paths, trained, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main(
            [
                "eval",
                "--vectors", fixture_paths["vectors"],
                "--corpus", fixture_paths["test"],
                "--checkpoint", trained,
                "--out", str(out),
            ]
        )
        assert code == 0
        line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("error rate:")][0]
        rate = float(line.split(":")[1].strip())
        assert 0.0 <= rate <= 100.0
        lines = (out / "predictions.csv").read_text().strip().splitlines()
        assert lines[0] == "doc_id,true_label,predicted_label,dist_class_0,dist_class_1"
        assert len(lines) == 1 + 8  # 4 test docs per class

    def test_vocab_hash_mismatch_is_hard_error(self, fixture_paths, trained, tmp_path, capsys):
        other_vectors = tmp_path / "other.txt"
        save_word_vectors({"unrelated": np.zeros(10)}, str(other_vectors))
        code = main(
            [
                "eval",
                "--vectors", str(other_vectors),
                "--corpus", fixture_paths["test"],
                "--checkpoint", trained,
                "--out", str(tmp_path / "bad"),
            ]
        )
        assert code == 1
        assert "hash mismatch" in capsys.readouterr().err

    def test_threads_do_not_change_outputs(self, fixture_paths, trained, tmp_path):
        outs = []
        for threads in ("1", "8"):
            out = tmp_path / f"threads{threads}"
            code = main(
                [
                    "eval",
                    "--vectors", fixture_paths["vectors"],
                    "--corpus", fixture_paths["test"],
                    "--checkpoint", trained,
                    "--out", str(out),
                    "--threads", threads,
                ]
            )
            assert code == 0
            outs.append((out / "predictions.csv").read_bytes())
        assert outs[0] == outs[1]


    @pytest.mark.parametrize(
        "payload, named",
        [({"transform": [[1.0]], "class_names": ["a"], "dim": 1, "num_classes": 1, "p": 1}, "anchors"), ([1, 2], "list")]
        + [
            pytest.param({**_VALID_CHECKPOINT, key: value}, f"'{key}'", id=case)
            for case, key, value in [
                ("class_names_int", "class_names", 5),
                ("class_names_not_str", "class_names", [1]),
                ("num_classes_str", "num_classes", "1"),
                ("dim_float", "dim", 1.0),
                ("p_bool", "p", True),
                ("transform_str", "transform", [["x"]]),
                ("transform_null", "transform", None),
                ("anchors_nan", "anchors", [[[float("nan")]]]),
                ("anchors_ragged", "anchors", [[[1.0], [1.0, 2.0]]]),
            ]
        ]
        + [pytest.param({**_VALID_CHECKPOINT, "anchors": [[[]]], "p": 0}, "p >= 1", id="anchors_no_points")],
    )
    def test_malformed_checkpoint_is_one_line_error(self, fixture_paths, tmp_path, capsys, payload, named):
        checkpoint = tmp_path / "broken.json"
        checkpoint.write_text(json.dumps(payload))
        code = main(
            [
                "eval",
                "--vectors", fixture_paths["vectors"],
                "--corpus", fixture_paths["test"],
                "--checkpoint", str(checkpoint),
                "--out", str(tmp_path / "broken_eval"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and named in err[0]
        assert not (tmp_path / "broken_eval").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, fixture_paths, trained, tmp_path, capsys, threads):
        code = main(
            [
                "eval",
                "--vectors", fixture_paths["vectors"],
                "--corpus", fixture_paths["test"],
                "--checkpoint", trained,
                "--out", str(tmp_path / "no_threads"),
                "--threads", threads,
            ]
        )
        assert_rejected(code, capsys, tmp_path / "no_threads", "threads must be at least 1")


class TestInterpretCommand:
    def test_writes_all_artifacts(self, fixture_paths, trained, tmp_path, capsys):
        out = tmp_path / "interp"
        code = main(
            [
                "interpret",
                "--vectors", fixture_paths["vectors"],
                "--corpus", fixture_paths["train"],
                "--checkpoint", trained,
                "--out", str(out),
                "--top-k", "10",
            ]
        )
        assert code == 0
        importance_lines = (out / "importance.tsv").read_text().splitlines()
        assert importance_lines[0] == "word\tI_0\tI_1\tD_0\tD_1"
        assert len(importance_lines) == 1 + len(fixture_paths["synth"].train.vocabulary())
        projection_lines = (out / "projection.tsv").read_text().strip().splitlines()
        assert projection_lines[0] == "kind\tclass\tlabel\tpc1\tpc2\timportance"
        # 2 classes x (p=4 anchors + 10 words)
        assert len(projection_lines) == 1 + 2 * (4 + 10)
        assert (out / "top_words_north.tsv").exists()
        assert (out / "top_words_south.tsv").exists()
        stdout = capsys.readouterr().out
        assert "north" in stdout and "share" in stdout
        top_lines = (out / "top_words_north.tsv").read_text().strip().splitlines()
        assert top_lines[0] == "rank\tword\timportance"
        assert len(top_lines) == 11

    def test_oversized_top_k_returns_full_ranking(self, fixture_paths, trained, tmp_path):
        out = tmp_path / "interp_all"
        # each class is ranked once, for its file and its projection rows alike
        with pytest.warns(UserWarning, match="requested top-10000") as caught:
            code = main(
                [
                    "interpret",
                    "--vectors", fixture_paths["vectors"],
                    "--corpus", fixture_paths["train"],
                    "--checkpoint", trained,
                    "--out", str(out),
                    "--top-k", "10000",
                ]
            )
        assert code == 0
        assert len([w for w in caught if "requested top-10000" in str(w.message)]) == 1
        top_lines = (out / "top_words_north.tsv").read_text().strip().splitlines()
        vocab_size = len(fixture_paths["synth"].train.vocabulary())
        assert len(top_lines) == 1 + vocab_size

    @pytest.mark.parametrize("top_k", ["0", "-3"])
    def test_top_k_below_one_rejected(self, fixture_paths, trained, tmp_path, capsys, top_k):
        out = tmp_path / "no_top_k"
        code = main(
            [
                "interpret",
                "--vectors", fixture_paths["vectors"],
                "--corpus", fixture_paths["train"],
                "--checkpoint", trained,
                "--out", str(out),
                "--top-k", top_k,
            ]
        )
        assert_rejected(code, capsys, out, "top_k must be at least 1")

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, fixture_paths, trained, tmp_path, capsys, threads):
        assert_flag_not_taken(fixture_paths, trained, tmp_path, capsys, "interpret", "--threads", threads)


class TestBaselineCommand:
    def test_knn_self_test_and_tfidf(self, fixture_paths, tmp_path, capsys):
        out = tmp_path / "base"
        code = main(
            [
                "baseline",
                "--vectors", fixture_paths["vectors"],
                "--corpus", fixture_paths["train"],
                "--test-corpus", fixture_paths["train"],
                "--out", str(out),
                "--k", "1",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "wmd-knn (k=1) error rate: 0.0" in stdout
        assert (out / "tfidf_top_words_north.tsv").exists()
        sweep = (out / "k_sweep.csv").read_text().strip().splitlines()
        assert sweep[0] == "k,error_rate"
        assert sweep[1].startswith("1,")

    def test_corpus_counted_once(self, fixture_paths, tmp_path, monkeypatch):
        calls = []
        count = Corpus.class_token_counts

        def counting(corpus):
            calls.append(corpus)
            return count(corpus)

        monkeypatch.setattr(Corpus, "class_token_counts", counting)
        code = main(
            [
                "baseline",
                "--vectors", fixture_paths["vectors"],
                "--corpus", fixture_paths["train"],
                "--test-corpus", fixture_paths["test"],
                "--out", str(tmp_path / "counted"),
            ]
        )
        assert code == 0
        assert len(calls) == 1
        assert len(list((tmp_path / "counted").glob("tfidf_top_words_*.tsv"))) == len(calls[0].class_names)

    def test_k_sweep(self, fixture_paths, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "baseline",
                "--vectors", fixture_paths["vectors"],
                "--corpus", fixture_paths["train"],
                "--test-corpus", fixture_paths["test"],
                "--out", str(out),
                "--k", "3",
                "--k-sweep", "1,3,5",
            ]
        )
        assert code == 0
        lines = (out / "k_sweep.csv").read_text().strip().splitlines()
        assert [row.split(",")[0] for row in lines[1:]] == ["1", "3", "5"]


    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, fixture_paths, tmp_path, capsys, threads):
        code = main(
            [
                "baseline",
                "--vectors", fixture_paths["vectors"],
                "--corpus", fixture_paths["train"],
                "--test-corpus", fixture_paths["test"],
                "--out", str(tmp_path / "no_threads"),
                "--threads", threads,
            ]
        )
        assert_rejected(code, capsys, tmp_path / "no_threads", "threads must be at least 1")

    @pytest.mark.parametrize("top_k", ["0", "-3"])
    def test_top_k_below_one_rejected(self, fixture_paths, tmp_path, capsys, top_k):
        out = tmp_path / "no_top_k"
        code = main(
            [
                "baseline",
                "--vectors", fixture_paths["vectors"],
                "--corpus", fixture_paths["train"],
                "--test-corpus", fixture_paths["test"],
                "--out", str(out),
                "--top-k", top_k,
            ]
        )
        assert_rejected(code, capsys, out, "top_k must be at least 1")


@pytest.mark.parametrize(
    "command, flags, message",
    [
        pytest.param(command, [flag, value], message, id=f"{command}{flag}={value}")
        for commands, flag, value, message in [
            (("train", "eval", "baseline"), "--epsilon", "0", "epsilon must be positive"),
            (("train", "eval", "baseline"), "--epsilon", "inf", "epsilon must be positive and finite"),
            (("train", "eval", "baseline"), "--sinkhorn-tol", "inf", "tolerance must be positive and finite"),
            (("train",), "--margin", "nan", "margin must be finite"),
            (("train",), "--margin", "inf", "margin must be finite"),
            (("train",), "--margin", "1e308", "epoch 0: mean loss inf is not finite"),
            (("train",), "--tau", "inf", "temperature must be positive and finite"),
            (("train",), "--lr", "inf", "learning_rate must be non-negative and finite"),
            (("train",), "--l2", "nan", "l2_coeff must be non-negative and finite"),
            (("train", "baseline"), "--seed", "-1", "seed must be non-negative"),
            (("train", "eval", "baseline"), "--sinkhorn-iters", "0", "max_iters must be at least 1"),
            (("train", "eval", "baseline"), "--sinkhorn-tol", "0", "tolerance must be positive"),
            (("train",), "--epochs", "0", "epochs and batch_size must be at least 1"),
            (("train",), "--p", "0", "anchor_points must be at least 1"),
            (("train", "baseline"), "--train-fraction", "0", "train_fraction must lie strictly between"),
            (("train", "baseline"), "--train-fraction", "1.5", "train_fraction must lie strictly between"),
            (("baseline",), "--k", "0", "all k values must be at least 1"),
            (("baseline",), "--k-sweep", "0", "all k values must be at least 1"),
            (("baseline",), "--k-sweep", "1,x", "k_sweep must be comma-separated integers"),
        ]
        for command in commands
    ]
    + [
        pytest.param(
            command,
            ["--test-corpus", "<test corpus>", "--train-fraction", value],
            "train_fraction and test_corpus exclude each other",
            id=f"{command}--train-fraction={value}--test-corpus",
        )
        for command in ("train", "baseline")
        for value in ("0.5", "1.5")
    ]
    + [
        pytest.param(
            "baseline", ["--train-fraction", "0.5", "--seed", "-1"], "seed must be non-negative",
            id="baseline--train-fraction=0.5--seed=-1",
        )
    ]
    + [
        # the first step overflows: the softmax at a tiny temperature, Adam's squared gradient at a huge L2 penalty
        pytest.param(
            "train", flags, f"epoch 0, batch 0: the loss, gradients, parameters or Adam moments are not finite (loss {loss})",
            id=name,
        )
        for name, flags, loss in [
            ("train--loss=infonce--tau=1e-320", ["--loss", "infonce", "--tau", "1e-320"], "nan"),
            ("train--l2=1e300", ["--l2", "1e300"], "1e+301"),
        ]
    ]
    + [
        # the loss is finite, but the updated parameters' squared norms overflow
        pytest.param(
            "train", ["--lr", "1e300"], "epoch 0, batch 0: the loss, gradients, parameters or Adam moments are not finite (loss ",
            id="train--lr=1e300",
        )
    ],
)
def test_invalid_value_rejected_before_writing(fixture_paths, trained, tmp_path, capsys, command, flags, message):
    out = tmp_path / "rejected"
    argv = [command, "--vectors", fixture_paths["vectors"], "--corpus", fixture_paths["train"], "--out", str(out)]
    if command == "eval":
        argv += ["--checkpoint", trained]
    flags = [fixture_paths["test"] if flag == "<test corpus>" else flag for flag in flags]
    assert_rejected(main(argv + flags), capsys, out, message)


@pytest.mark.parametrize("command", ["eval", "interpret"])
@pytest.mark.parametrize(
    "case, message",
    [
        ("missing_key", "checkpoint is missing keys: ['anchors']"),
        ("not_json", "Expecting value"),
        ("no_points", "p >= 1"),
        ("vocab_mismatch", "vocabulary hash mismatch"),
        ("unknown_class", "class 'zzz' not present"),
        ("duplicate_class", "class names must be distinct, got ['a b', 'a b']"),
        ("truncated", "truncated.json: "),
        ("nested", "nested.json: maximum recursion depth exceeded"),
        ("overflowing_model", "transformed word vectors are not finite: the word vectors or the model are too large"),
    ],
)
def test_rejected_checkpoint_inputs_leave_no_output(fixture_paths, trained, tmp_path, capsys, command, case, message):
    """A checkpoint, vector file or corpus the checkpoint rejects stops the run before ``--out`` is made."""
    paths = {"vectors": fixture_paths["vectors"], "corpus": fixture_paths["test"], "checkpoint": trained}
    if case == "missing_key":
        paths["checkpoint"] = tmp_path / "missing.json"
        paths["checkpoint"].write_text(json.dumps({k: v for k, v in _VALID_CHECKPOINT.items() if k != "anchors"}))
    elif case == "not_json":
        paths["checkpoint"] = tmp_path / "garbage.json"
        paths["checkpoint"].write_text("not json")
    elif case == "no_points":
        paths["checkpoint"] = tmp_path / "no_points.json"
        paths["checkpoint"].write_text(json.dumps({**_VALID_CHECKPOINT, "anchors": [[[]]], "p": 0}))
    elif case == "truncated":
        paths["checkpoint"] = tmp_path / "truncated.json"
        text = Path(trained).read_text(encoding="utf-8")
        paths["checkpoint"].write_text(text[: len(text) // 2])
    elif case == "nested":
        paths["checkpoint"] = tmp_path / "nested.json"
        text = Path(trained).read_text(encoding="utf-8")
        payload = json.loads(text)
        # the transform replaced by an array nested deeper than the decoder recurses
        paths["checkpoint"].write_text(text.replace(json.dumps(payload["transform"]), "[" * 200_000 + "]" * 200_000))
    elif case == "overflowing_model":
        paths["checkpoint"] = tmp_path / "overflowing.json"
        payload = json.loads(Path(trained).read_text(encoding="utf-8"))
        payload["transform"] = np.full_like(np.array(payload["transform"]), 1e308).tolist()
        paths["checkpoint"].write_text(json.dumps(payload))
    elif case == "duplicate_class":
        paths["checkpoint"] = tmp_path / "duplicate.json"
        payload = json.loads(Path(trained).read_text(encoding="utf-8"))
        paths["checkpoint"].write_text(json.dumps({**payload, "class_names": ["a b", "a b"]}))
    elif case == "vocab_mismatch":
        paths["vectors"] = tmp_path / "other.txt"
        save_word_vectors({"unrelated": np.zeros(10)}, str(paths["vectors"]))
    else:
        paths["corpus"] = tmp_path / "unknown.tsv"
        paths["corpus"].write_text("zzz\tsome words\n")
    out = tmp_path / "rejected"
    argv = [command] + [f"--{key}={value}" for key, value in paths.items()] + ["--out", str(out)]
    assert_rejected(main(argv), capsys, out, message)


def write_overflowing_vectors(synth, path):
    """The fixture's word vectors with one corpus word's row at 1e200, whose squared distances overflow."""
    vectors = {w: synth.vectors.vector(w) for w in synth.vectors.index}
    word = synth.train.vocabulary()[0]
    vectors[word] = np.full_like(vectors[word], 1e200)
    save_word_vectors(vectors, str(path))
    return str(path)


@pytest.mark.parametrize("value", ["nan", "1e309"])
def test_non_finite_word_vector_names_word_and_document(fixture_paths, tmp_path, capsys, value):
    # the first document's first word, in sorted order, as its measure takes them
    word = sorted(fixture_paths["synth"].train.documents[0].counts)[0]
    lines = Path(fixture_paths["vectors"]).read_text(encoding="utf-8").splitlines()
    bad = tmp_path / "vectors.txt"
    bad.write_text(
        "".join(
            f"{word} {value} {line.split(' ', 2)[2]}\n" if line.split(" ", 1)[0] == word else line + "\n"
            for line in lines
        )
    )
    out = tmp_path / "rejected"
    code = main(["train", "--vectors", str(bad), "--corpus", fixture_paths["train"], "--out", str(out)])
    assert_rejected(code, capsys, out, f"train.tsv:1: word {word!r} has a non-finite vector")


@pytest.mark.parametrize("command", ["interpret"])
def test_overflowing_vectors_leave_no_output(fixture_paths, trained, tmp_path, capsys, command):
    """A vector row too large to score (its squared distances overflow) is an error, not a table of nan."""
    vectors = write_overflowing_vectors(fixture_paths["synth"], tmp_path / "huge.txt")
    out = tmp_path / "rejected"
    code = main(
        [command, "--vectors", vectors, "--corpus", fixture_paths["train"], "--checkpoint", trained, "--out", str(out)]
    )
    assert_rejected(code, capsys, out, "word-to-anchor distances are not finite")


@pytest.mark.parametrize(
    "axis, message",
    [
        pytest.param(0, "the projection's scatter matrix is not finite", id="scatter"),
        pytest.param(2, "the projection's scatter matrix has an eigenvalue that is not finite", id="eigenvalue"),
    ],
)
def test_overflowing_projection_leaves_no_output(fixture_paths, trained, tmp_path, capsys, axis, message):
    """Eight words at 3e153 on one axis score finitely, but their projection overflows: no ``--out``.

    At 7e153 the trained transform already makes their anchor distances overflow.
    """
    vectors = {w: fixture_paths["synth"].vectors.vector(w) for w in fixture_paths["synth"].vectors.index}
    for word in fixture_paths["synth"].train.vocabulary()[:8]:
        vectors[word] = vectors[word].copy()
        vectors[word][axis] = 3e153
    save_word_vectors(vectors, str(tmp_path / "large.txt"))
    out = tmp_path / "rejected"
    argv = ["interpret", "--vectors", str(tmp_path / "large.txt"), "--corpus", fixture_paths["train"]]
    code = main(argv + ["--checkpoint", trained, "--out", str(out)])
    assert_rejected(code, capsys, out, message)


@pytest.mark.parametrize(
    "command, message",
    [
        pytest.param("train", "cost contains NaN", id="train"),
        pytest.param("eval", "cost entries must be finite", id="eval"),
        pytest.param("baseline", "cost entries must be finite", id="baseline"),
    ],
)
def test_overflowing_vectors_in_solves_leave_no_output(fixture_paths, trained, tmp_path, capsys, command, message):
    """An overflowing ground cost is one error line from the solver, without warnings, and ``--out`` is not made."""
    vectors = write_overflowing_vectors(fixture_paths["synth"], tmp_path / "huge.txt")
    out = tmp_path / "rejected"
    argv = [command, "--vectors", vectors, "--corpus", fixture_paths["train"], "--out", str(out)]
    if command == "eval":
        argv += ["--checkpoint", trained]
    assert_rejected(main(argv), capsys, out, message)


def test_failed_training_leaves_no_output(fixture_paths, tmp_path, capsys):
    """Training rejects a one-class corpus after loading it, and the run still writes nothing."""
    lines = Path(fixture_paths["train"]).read_text(encoding="utf-8").splitlines(keepends=True)
    corpus = tmp_path / "north.tsv"
    corpus.write_text("".join(line for line in lines if line.startswith("north\t")), encoding="utf-8")
    out = tmp_path / "rejected"
    code = main(["train", "--vectors", fixture_paths["vectors"], "--corpus", str(corpus), "--out", str(out)])
    assert_rejected(code, capsys, out, "at least 2 classes")


def test_class_whose_documents_were_all_dropped_is_named(fixture_paths, tmp_path, capsys):
    """A label whose only line keeps no token is still a class; training names it rather than its index."""
    corpus = tmp_path / "ghost.tsv"
    corpus.write_text(Path(fixture_paths["train"]).read_text(encoding="utf-8") + "ghost\ta 1 2\n", encoding="utf-8")
    out = tmp_path / "rejected"
    code = main(["train", "--vectors", fixture_paths["vectors"], "--corpus", str(corpus), "--out", str(out)])
    assert_rejected(code, capsys, out, "class 'ghost' has no training documents (each one was dropped")


@pytest.mark.parametrize("command", ["train", "baseline"])
def test_malformed_vectors_leave_no_output(fixture_paths, tmp_path, capsys, command):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("alpha 1.0 2.0\nbeta 1.0\n")
    out = tmp_path / "rejected"
    code = main([command, "--vectors", str(vectors), "--corpus", fixture_paths["train"], "--out", str(out)])
    assert_rejected(code, capsys, out, "vectors.txt:2")


def write_dirs_corpus(root, corpus, names=None):
    """``corpus`` in ``dirs`` format under ``root``; ``names`` maps a document index to its file name."""
    for i, doc in enumerate(corpus.documents):
        class_dir = root / corpus.class_names[doc.label]
        class_dir.mkdir(parents=True, exist_ok=True)
        words = [word for word, count in sorted(doc.counts.items()) for _ in range(count)]
        (class_dir / (names or {}).get(i, f"doc{i}.txt")).write_text(" ".join(words))


@pytest.mark.parametrize("case", ["corpus", "dirs_corpus", "vectors", "config", "nested_config"])
def test_unreadable_input_names_its_file(fixture_paths, tmp_path, capsys, case):
    """A file that is not UTF-8, or a config file that is not JSON or nests too deeply, is named in the one-line error."""
    paths = {"vectors": fixture_paths["vectors"], "corpus": fixture_paths["train"]}
    extra = []
    if case == "corpus":
        bad = tmp_path / "corpus.tsv"
        bad.write_bytes(b"north\tgood words\nsouth\tbad \xff words\n")
        paths["corpus"] = bad
    elif case == "dirs_corpus":
        write_dirs_corpus(tmp_path / "dirs", fixture_paths["synth"].train)
        bad = tmp_path / "dirs" / "south" / "latin1.txt"
        bad.write_bytes(b"caf\xe9 words")
        paths["corpus"] = tmp_path / "dirs"
    elif case == "vectors":
        bad = tmp_path / "vectors.txt"
        bad.write_bytes(b"alpha 1.0 2.0\n\xffbeta 1.0 2.0\n")
        paths["vectors"] = bad
    elif case == "config":
        bad = tmp_path / "config.json"
        bad.write_text('{"epochs": 3, "seed": ')
        extra = ["--config", str(bad)]
    else:
        bad = tmp_path / "config.json"
        bad.write_text('{"epochs": ' + "[" * 200_000 + "]" * 200_000 + "}")
        extra = ["--config", str(bad)]
    out = tmp_path / "rejected"
    argv = ["train"] + [f"--{key}={value}" for key, value in paths.items()] + extra + ["--out", str(out)]
    assert_rejected(main(argv), capsys, out, f"error: {bad}: ")


def test_knn_predictions_quote_ids_with_commas(fixture_paths, tmp_path):
    corpus = tmp_path / "dirs"
    write_dirs_corpus(corpus, fixture_paths["synth"].train, names={0: "a,1.txt"})
    out = tmp_path / "base"
    assert main(["baseline", "--vectors", fixture_paths["vectors"], "--corpus", str(corpus), "--out", str(out)]) == 0
    text = (out / "knn_predictions.csv").read_text(encoding="utf-8")
    with open(out / "knn_predictions.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["doc_id", "true_label", "predicted_label"]
    assert all(len(row) == 3 for row in rows)
    assert "north/a,1.txt" in [row[0] for row in rows[1:]]
    # only the id with a comma is quoted
    quoted = [line for line in text.splitlines() if '"' in line]
    assert len(quoted) == 1 and quoted[0].startswith('"north/a,1.txt",')


def relabelled_lines(path, out_path, names):
    """The ``lines`` corpus at ``path`` with each label replaced by ``names[label]``."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    out_path.write_text("".join(f"{names[label]}\t{text}\n" for label, text in (line.split("\t", 1) for line in lines)))
    return str(out_path)


def test_baseline_rejects_classes_sharing_a_ranking_file(fixture_paths, tmp_path, capsys):
    corpus = relabelled_lines(fixture_paths["train"], tmp_path / "clash.tsv", {"north": "a b", "south": "a_b"})
    out = tmp_path / "rejected"
    code = main(["baseline", "--vectors", fixture_paths["vectors"], "--corpus", corpus, "--out", str(out)])
    assert_rejected(code, capsys, out, "classes 'a b' and 'a_b' would write the same ranking file")


def test_interpret_rejects_classes_sharing_a_ranking_file(fixture_paths, trained, tmp_path, capsys):
    names = {"north": "a b", "south": "a_b"}
    checkpoint = tmp_path / "clash.json"
    payload = json.loads(Path(trained).read_text(encoding="utf-8"))
    checkpoint.write_text(json.dumps({**payload, "class_names": [names[name] for name in payload["class_names"]]}))
    corpus = relabelled_lines(fixture_paths["train"], tmp_path / "clash.tsv", names)
    out = tmp_path / "rejected"
    code = main(
        ["interpret", "--vectors", fixture_paths["vectors"], "--corpus", corpus, "--checkpoint", str(checkpoint),
         "--out", str(out)]
    )
    assert_rejected(code, capsys, out, "classes 'a b' and 'a_b' would write the same ranking file")


def test_table_artifacts_parse_back_with_a_quote_in_a_class_name(fixture_paths, tmp_path):
    # a quote through a lines corpus, and a lone carriage return, which only a
    # dirs corpus can put in a class name
    synth = fixture_paths["synth"].train
    for name, stem in (('"north', "_north"), ("no\rrth", "no_rth")):
        root = tmp_path / stem
        root.mkdir()
        if "\r" in name:
            write_dirs_corpus(root / "dirs", Corpus(synth.documents, [name, "south"]))
            corpus = str(root / "dirs")
        else:
            corpus = relabelled_lines(fixture_paths["train"], root / "quoted.tsv", {"north": name, "south": "south"})
        common = ["--vectors", fixture_paths["vectors"], "--corpus", corpus]
        checkpoint = str(root / "train" / "checkpoint.json")
        runs = {
            "train": ["--epochs", "2", "--p", "2"],
            "eval": ["--checkpoint", checkpoint],
            "interpret": ["--checkpoint", checkpoint, "--top-k", "5"],
            "baseline": [],
        }
        tables = []
        for command, extra in runs.items():
            assert main([command, *common, *extra, "--out", str(root / command)]) == 0
            tables += sorted(path for pattern in ("*.csv", "*.tsv") for path in (root / command).glob(pattern))
        assert {"loss_history.csv", "predictions.csv", "projection.tsv", f"top_words_{stem}.tsv", "k_sweep.csv"} <= {
            path.name for path in tables
        }
        for path in tables:
            with open(path, encoding="utf-8", newline="") as fh:
                header, *records = csv.reader(fh, delimiter="\t" if path.suffix == ".tsv" else ",")
            assert records and all(len(record) == len(header) for record in records), path
            if path.name == "projection.tsv":
                assert {record[1] for record in records} == {name, "south"}


@pytest.mark.parametrize("command", ["train", "baseline"])
def test_config_train_fraction_with_test_corpus_rejected(fixture_paths, tmp_path, capsys, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train_fraction": 0.5}))
    out = tmp_path / "rejected"
    code = main(
        [
            command,
            "--vectors", fixture_paths["vectors"],
            "--corpus", fixture_paths["train"],
            "--test-corpus", fixture_paths["test"],
            "--config", str(config),
            "--out", str(out),
        ]
    )
    assert_rejected(code, capsys, out, "train_fraction and test_corpus exclude each other")


def assert_flag_not_taken(fixture_paths, trained, tmp_path, capsys, command, flag, value):
    """``command`` runs no transport solve, so ``flag`` is a usage error and nothing is written."""
    out = tmp_path / "usage"
    with pytest.raises(SystemExit) as exit_info:
        main(
            [
                command,
                "--vectors", fixture_paths["vectors"],
                "--corpus", fixture_paths["train"],
                "--checkpoint", trained,
                "--out", str(out),
                flag, value,
            ]
        )
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["interpret"])
@pytest.mark.parametrize("flag", ["--epsilon", "--sinkhorn-iters", "--sinkhorn-tol"])
def test_solver_flags_not_taken_without_solves(fixture_paths, trained, tmp_path, capsys, command, flag):
    assert_flag_not_taken(fixture_paths, trained, tmp_path, capsys, command, flag, "1")
