import json
import os

import numpy as np
import pytest

from anchorwmd.cli import main
from anchorwmd.data import save_corpus_lines, save_word_vectors
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
        assert code == 1
        assert "error:" in capsys.readouterr().err

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
        ],
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
        assert (out / "importance.tsv").exists()
        assert (out / "projection.tsv").exists()
        assert (out / "top_words_north.tsv").exists()
        assert (out / "top_words_south.tsv").exists()
        stdout = capsys.readouterr().out
        assert "north" in stdout and "share" in stdout
        top_lines = (out / "top_words_north.tsv").read_text().strip().splitlines()
        assert top_lines[0] == "rank\tword\timportance"
        assert len(top_lines) == 11

    def test_oversized_top_k_returns_full_ranking(self, fixture_paths, trained, tmp_path):
        out = tmp_path / "interp_all"
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


class TestExportVizCommand:
    def test_projection_written(self, fixture_paths, trained, tmp_path, capsys):
        out = tmp_path / "viz"
        code = main(
            [
                "export-viz",
                "--vectors", fixture_paths["vectors"],
                "--corpus", fixture_paths["train"],
                "--checkpoint", trained,
                "--out", str(out),
                "--top-k", "5",
            ]
        )
        assert code == 0
        lines = (out / "projection.tsv").read_text().strip().splitlines()
        assert lines[0] == "kind\tclass\tlabel\tpc1\tpc2\timportance"
        # 2 classes x (p=4 anchors + 5 words)
        assert len(lines) == 1 + 2 * (4 + 5)
        assert "wrote" in capsys.readouterr().out

    @pytest.mark.parametrize("top_k", ["0", "-3"])
    def test_top_k_below_one_rejected(self, fixture_paths, trained, tmp_path, capsys, top_k):
        out = tmp_path / "no_top_k"
        code = main(
            [
                "export-viz",
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
        assert_flag_not_taken(fixture_paths, trained, tmp_path, capsys, "export-viz", "--threads", threads)


@pytest.mark.parametrize(
    "command, flags, message",
    [
        pytest.param(command, [flag, value], message, id=f"{command}{flag}={value}")
        for commands, flag, value, message in [
            (("train", "eval", "baseline"), "--epsilon", "0", "epsilon must be positive"),
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
    ],
)
def test_invalid_value_rejected_before_writing(fixture_paths, trained, tmp_path, capsys, command, flags, message):
    out = tmp_path / "rejected"
    argv = [command, "--vectors", fixture_paths["vectors"], "--corpus", fixture_paths["train"], "--out", str(out)]
    if command == "eval":
        argv += ["--checkpoint", trained]
    assert_rejected(main(argv + flags), capsys, out, message)


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


@pytest.mark.parametrize("command", ["interpret", "export-viz"])
@pytest.mark.parametrize("flag", ["--epsilon", "--sinkhorn-iters", "--sinkhorn-tol"])
def test_solver_flags_not_taken_without_solves(fixture_paths, trained, tmp_path, capsys, command, flag):
    assert_flag_not_taken(fixture_paths, trained, tmp_path, capsys, command, flag, "1")
