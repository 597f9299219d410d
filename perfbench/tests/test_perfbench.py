"""Tests of the benchmark itself, at a tiny input size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run_cli(workload: str, trace: int, seed: int = 1, cwd: str = ROOT, script: str | None = None):
    script = script or os.path.join(BENCH, "run.py")
    cmd = [sys.executable, script, "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_spec_lists_the_workloads_the_runner_has():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_every_named_metric_is_reported(workload, trace):
    proc = _run_cli(workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in names} == {k: v["unit"] for k, v in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert np.isfinite(metric["value"])


def test_traced_counts_repeat_for_one_seed():
    counts = ("ot.sinkhorn.calls", "ot.sinkhorn.iters_p90", "ot.sinkhorn.nonconverged", "classify.knn.pairs")
    runs = [_last_json(_run_cli("knn_baseline", 1, seed=3).stdout)["metrics"] for _ in range(2)]
    assert [runs[0][c]["value"] for c in counts] == [runs[1][c]["value"] for c in counts]
    assert runs[0]["classify.knn.pairs"]["value"] > 0


def test_layer_shares_follow_the_workload():
    knn = _last_json(_run_cli("knn_baseline", 1).stdout)["metrics"]
    assert knn["share.ot"]["value"] > 0.5
    assert knn["training.train.s"]["value"] == 0.0
    ev = _last_json(_run_cli("eval_interpret", 1).stdout)["metrics"]
    assert ev["training.batch_gradients.calls"]["value"] == 0
    assert ev["classify.anchor_nn_classify.calls"]["value"] > 0


def test_tracer_patches_only_inside_recording():
    pkg = run.import_program()
    original = pkg.classify.ground_cost_matrix
    tracer = tracing.Tracer()
    with tracer.recording(pkg):
        pkg.classify.ground_cost_matrix(np.ones((3, 2)), np.ones((3, 4)))
    assert pkg.classify.ground_cost_matrix is original
    original(np.ones((3, 2)), np.ones((3, 4)))  # not recorded
    spans = tracer.take()
    assert [(s.name, s.attrs) for s in spans] == [("ot.ground_cost_matrix", {"flop": 2 * 3 * 2 * 4})]


def test_without_program_source_it_fails_without_a_result():
    bare = os.path.join(ROOT, ".perfbench_work", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run_cli("train_triplet", 0, cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


# --- the correctness gate fires on corrupted outputs -------------------------


class _Prediction:
    def __init__(self, predicted_class, distances):
        self.predicted_class = predicted_class
        self.anchor_distances = np.asarray(distances, dtype=float)


def test_prediction_check_rejects_nan_and_wrong_argmin():
    assert wl.prediction_ok(_Prediction(1, [3.0, 1.0, 2.0]), 3)
    assert not wl.prediction_ok(_Prediction(1, [3.0, np.nan, 2.0]), 3)
    assert not wl.prediction_ok(_Prediction(0, [3.0, 1.0, 2.0]), 3)
    assert not wl.prediction_ok(_Prediction(0, [1.0, 2.0]), 3)


def test_importance_check_rejects_a_table_that_is_not_zero_sum():
    class Table:
        min_distances = np.array([[1.0, 2.0], [3.0, 1.0]])
        importances = np.array([[1.0, -1.0], [-2.0, 2.0]])

    assert wl.importance_ok(Table)
    Table.importances = np.array([[1.0, -0.5], [-2.0, 2.0]])
    assert not wl.importance_ok(Table)


def test_rerun_digest_mismatch_is_reported():
    def round_with(digest):
        return wl.RoundResult(wl.Laps(), 1, [], 1, {"checkpoint": digest}, {})

    assert run.rerun_mismatches([round_with("a"), round_with("a")]) == []
    assert run.rerun_mismatches([round_with("a"), round_with("b")]) == ["seeded rerun 1 changed checkpoint"]


def test_quality_floor_is_enforced():
    w = wl.WORKLOADS["eval_interpret"]
    assert wl.quality_problems(w, {"error_pct": 20.0, "keyword_precision": 1.0}) == []
    assert wl.quality_problems(w, {"error_pct": 95.0, "keyword_precision": 1.0})
    assert wl.quality_problems(w, {"error_pct": 20.0, "keyword_precision": 0.1})


def test_knn_reference_vote_breaks_ties_like_the_baseline():
    # two votes each for classes 0 and 1; class 1's neighbours are nearer
    assert wl.reference_knn_vote(np.array([1.0, 0.5, 2.0, 0.6]), [0, 1, 0, 1], 4) == 1
    assert wl.reference_knn_vote(np.array([1.0, 1.0]), [1, 0], 2) == 0


def test_gate_fires_when_the_program_returns_nan_distances(monkeypatch):
    pkg = run.import_program()
    real = pkg.classify.anchor_nn_classify

    def corrupted(doc, model, config=None):
        prediction = real(doc, model, config)
        return pkg.classify.Prediction(prediction.predicted_class, prediction.anchor_distances * np.nan)

    monkeypatch.setattr(pkg.classify, "anchor_nn_classify", corrupted)
    result = run.run("eval_interpret", 1, 0.2, False, size="tiny")
    assert result["correct"] is False
    assert result["failed"] > 0


def test_gate_fires_when_a_rerun_writes_different_bytes(monkeypatch):
    pkg = run.import_program()
    real = pkg.training.write_loss_history
    calls = []

    def drifting(history, path, loss_kind):
        real(history, path, loss_kind)
        calls.append(path)
        if len(calls) > 1:
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("drift\n")

    monkeypatch.setattr(pkg.training, "write_loss_history", drifting)
    result = run.run("train_triplet", 1, 0.2, False, size="tiny")
    assert result["correct"] is False
    assert any("loss_history" in p for p in result["_record"]["problems"])


def test_gate_fires_when_training_raises(monkeypatch):
    pkg = run.import_program()

    def broken(*args, **kwargs):
        raise FloatingPointError("loss is nan")

    monkeypatch.setattr(pkg.training, "train", broken)
    result = run.run("train_triplet", 1, 0.2, False, size="tiny")
    assert result["correct"] is False
    assert result["failed"] >= 1
