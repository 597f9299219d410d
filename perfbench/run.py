"""Benchmark entry point: one workload, one seed, one run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload train_triplet --seed 1 --seconds 25 --trace 0

The run writes its seeded inputs under ``.perfbench_work/`` (removed at the
end), times set-up separately from the work rounds, checks every output, and
prints a report whose last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The full result, with machine facts, and the trace spans are kept under
``.perfbench_out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread per process, pinned before numpy loads: the workloads' own
# thread pools then never use more threads than the machine has cores.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

MIN_ROUNDS = 2  # two rounds at least, so every run compares a seeded rerun
# Deterministic per-layer values besides the ``.calls`` counts: they must
# repeat exactly between the traced rounds of a run.
COUNT_METRICS = {
    "ot.sinkhorn.nonconverged",
    "ot.sinkhorn.iters_p50",
    "ot.sinkhorn.iters_p90",
    "ot.sinkhorn.iters_max",
    "ot.sinkhorn.cells_mean",
    "ot.ground_cost_matrix.gflop",
    "classify.knn.pairs",
    "classify.knn.solve_ratio",
    "trace.spans",
}
END_TO_END = {
    "setup_s": "s",
    "docs_per_s": "docs/s",
    "words_per_s": "words/s",
    "error_pct": "%",
    "keyword_precision": "fraction",
    "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (for example, no program source)."""


def import_program():
    """Import ``anchorwmd`` from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "anchorwmd")):
        raise BenchmarkError(f"no program source at {src}/anchorwmd")
    sys.path.insert(0, src)
    pkg = importlib.import_module("anchorwmd")
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise BenchmarkError(f"anchorwmd imported from {pkg.__file__}, not from {src}")
    for name in ("data", "model", "ot", "training", "classify", "interpret"):
        importlib.import_module(f"anchorwmd.{name}")
    return pkg


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_pin": BLAS_PIN,
        "commit": _commit(),
    }


def _commit() -> str:
    """HEAD of the checkout if it is a git work tree, else ``unknown``."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def generate_inputs(workload: wl.Workload, shape, seed: int, inputs: str) -> dict:
    """Write the seeded inputs in a child process, so its memory is not counted."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "corpus.py"),
        "--shape-json",
        json.dumps(asdict(shape)),
        "--seed",
        str(seed),
        "--out",
        inputs,
    ]
    if workload.kind == "eval":
        cmd += ["--checkpoint-p", str(wl.ANCHOR_POINTS)]
    subprocess.run(cmd, check=True, env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}, timeout=170)
    with open(os.path.join(inputs, "planted.json"), encoding="utf-8") as fh:
        return json.load(fh)["planted"]


def _median(values):
    return float(statistics.median(values))


def run(workload_name: str, seed: int, seconds: float, traced: bool, size: str = "full") -> dict:
    """Run one workload; return the result dict (printed by ``main``)."""
    workload = wl.WORKLOADS[workload_name]
    shape = workload.shape if size == "full" else wl.TINY
    pkg = import_program()
    facts = machine_facts()
    work = os.path.join(ROOT, ".perfbench_work", f"{workload_name}-s{seed}-p{os.getpid()}")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    inputs, outputs = os.path.join(work, "inputs"), os.path.join(work, "outputs")
    os.makedirs(outputs, exist_ok=True)
    try:
        planted = generate_inputs(workload, shape, seed, inputs)
        ctx = wl.Context(pkg, workload, shape, inputs, outputs)
        return _measure(ctx, planted, seconds, tracing.Tracer() if traced else None, facts, out_dir, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(ctx, planted, seconds, tracer, facts, out_dir, seed) -> dict:
    workload = ctx.workload
    ops = wl.Ops()
    state = None
    setup_laps: list[wl.Laps] = []
    setup_layer = []

    def record(phase):
        """Trace the block in a traced run; otherwise run it unpatched."""
        if tracer is None:
            return contextlib.nullcontext()
        tracer.phase = phase
        return tracer.recording(ctx.pkg)

    def set_up():
        nonlocal state
        state = None  # drop the previous set-up first, so peak RSS is one set-up's, as in the CLI
        with record("setup"):
            laps = wl.Laps()
            state = wl.setup(ctx)
            laps.lap()
        setup_laps.append(laps)
        if tracer is not None:
            setup_layer.append(tracing.setup_metrics(tracer.take(), os.path.getsize(ctx.path("vectors.txt"))))

    rounds: list[wl.RoundResult] = []
    traced_rounds: list[tuple[wl.RoundResult, list]] = []
    started = time.perf_counter()
    mark = ops.attempted  # ops attempted before the call in flight
    try:
        # Set-up runs before the first round and again after each round, so
        # its timings sample the whole run rather than its first seconds.
        set_up()
        while True:
            # a traced run alternates untraced and traced rounds; the difference is the overhead
            trace_this = tracer is not None and len(traced_rounds) < len(rounds)
            mark = ops.attempted
            with record("round") if trace_this else contextlib.nullcontext():
                result = wl.run_round(ctx, state, ops, tracer if trace_this else None)
            if trace_this:
                traced_rounds.append((result, tracer.take()))
            else:
                rounds.append(result)
            mark = ops.attempted
            set_up()
            done = len(rounds) + len(traced_rounds)
            if done >= MIN_ROUNDS and not _fits_another(started, seconds, done):
                break
        work_s = time.perf_counter() - started
        all_rounds = rounds + [r for r, _ in traced_rounds]
        quality = wl.final(ctx, state, all_rounds[0], planted, ops)
    except Exception as exc:  # noqa: BLE001 - an op that raises is reported as failed
        ops.fail(max(ops.attempted - mark, 1), f"{type(exc).__name__}: {exc}")
        return {"correct": False, "attempted": max(ops.attempted, 1), "failed": ops.failed, "metrics": {},
                "_record": {"workload": workload.name, "seed": seed, "traced": tracer is not None,
                            "problems": ops.problems}}
    problems = ops.problems + rerun_mismatches(all_rounds)
    if ctx.shape == workload.shape:  # the floors hold for the full-size inputs
        problems += wl.quality_problems(workload, quality)

    if tracer is None:
        metrics = {
            "setup_s": _median([t for laps in setup_laps for t in laps.at_reference_pace()]),
            "docs_per_s": rounds[0].main_items / paced_total([r.main for r in rounds]),
            "words_per_s": rounds[0].keyword_words / paced_total([laps for r in rounds for laps in r.keyword_reps]),
            "error_pct": quality["error_pct"],
            "keyword_precision": quality["keyword_precision"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        metrics, problems_trace = _layer_metrics(ctx, state, setup_layer, rounds, traced_rounds, quality)
        problems += problems_trace
        units = per_layer_units()
        tracing.write_spans(
            [s for _, spans in traced_rounds for s in spans],
            os.path.join(out_dir, f"trace-{workload.name}-s{seed}.jsonl"),
        )

    result = {
        "correct": not problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "traced": tracer is not None,
        "machine": facts,
        "shape": asdict(ctx.shape),
        "threads": ctx.threads,
        "rounds": len(all_rounds),
        "work_s": work_s,
        # raw seconds of each timed part, and the host's pace during it
        "round_main_parts_s": [r.main.parts for r in all_rounds],
        "round_main_paces": [r.main.paces for r in all_rounds],
        "round_keyword_parts_s": [[laps.parts for laps in r.keyword_reps] for r in all_rounds],
        "round_keyword_paces": [[laps.paces for laps in r.keyword_reps] for r in all_rounds],
        "setup_times_s": [laps.parts[0] for laps in setup_laps],
        "setup_paces": [laps.paces[0] for laps in setup_laps],
        "problems": problems,
        **result,
    }
    suffix = "trace" if tracer is not None else "e2e"
    with open(os.path.join(out_dir, f"result-{workload.name}-s{seed}-{suffix}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
    result["_record"] = record
    return result


def paced_total(samples: list[wl.Laps]) -> float:
    """Seconds of the work at the reference pace: the sum over its parts of
    each part's median paced time among the samples.

    Every sample repeats the same seeded work, part by part. Timing short
    parts apart keeps a slow stretch of the host to the few parts it
    overlaps, and the pace takes out most of what the stretch adds to them.
    """
    paced = [laps.at_reference_pace() for laps in samples]
    return sum(statistics.median(times) for times in zip(*paced, strict=True))


def _fits_another(started: float, seconds: float, done: int) -> bool:
    """Whether one more round and set-up of the mean length end within the run's seconds."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / done <= seconds


def rerun_mismatches(rounds: list[wl.RoundResult]) -> list[str]:
    """Every round is a seeded rerun: its output digests must equal the first round's."""
    first = rounds[0].digests
    return [
        f"seeded rerun {i} changed {key}"
        for i, other in enumerate(rounds[1:], 1)
        for key in first
        if other.digests.get(key) != first[key]
    ]


def per_layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _layer_metrics(ctx, state, setup_layer, rounds, traced_rounds, quality):
    """Medians over traced rounds for times; counts must repeat exactly."""
    problems = []
    knn_pairs = 0
    if ctx.workload.kind == "knn":
        knn_pairs = len(state["test_measures"]) * len(state["train_measures"])
    per_round = [tracing.round_metrics(spans, ctx.threads, knn_pairs, r.main_s) for r, spans in traced_rounds]
    counts = [k for k in per_round[0] if k.endswith(".calls") or k in COUNT_METRICS]
    for other in per_round[1:]:
        for key in counts:
            if other[key] != per_round[0][key]:
                problems.append(f"traced count {key} differs between rounds")
    metrics = {key: _median([m[key] for m in per_round]) for key in per_round[0]}
    for key in counts:
        metrics[key] = per_round[0][key]
    for key in setup_layer[0]:
        metrics[key] = _median([m[key] for m in setup_layer])
    measures = state.get("train_measures", []) + state.get("test_measures", [])
    metrics["data.distinct_words_mean"] = float(np.mean([m.size for m in measures])) if measures else 0.0
    checkpoint = os.path.join(ctx.out, "checkpoint.json")
    metrics["model.save_checkpoint.bytes"] = (
        os.path.getsize(checkpoint) if ctx.workload.kind == "train" else 0
    )
    metrics["training.nonconverged_share"] = quality.get("nonconverged_share", 0.0)
    first = traced_rounds[0][0].outputs
    for kind in wl.STAT_NAME.values():
        metrics[f"training.{kind}.epoch_first"], metrics[f"training.{kind}.epoch_last"] = first.get(kind, (0.0, 0.0))
    # the keyword step repeats in untraced rounds only, so compare main phases
    metrics["trace.overhead_pct"] = 100.0 * (metrics["trace.main_s"] / _median([r.main_s for r in rounds]) - 1.0)
    return metrics, problems


def _print_report(result: dict) -> None:
    record = result["_record"]
    print(f"workload {record['workload']} seed {record['seed']} traced {record.get('traced')}")
    if "machine" in record:
        print("machine " + json.dumps(record["machine"], sort_keys=True))
        print(f"threads {record['threads']} rounds {record['rounds']} work {record['work_s']:.2f} s")
    for name, metric in result["metrics"].items():
        print(f"  {name:45s} {metric['value']:.6g} {metric['unit']}")
    print(f"ops attempted {result['attempted']} failed {result['failed']}")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="anchorwmd benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: for the benchmark's tests")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_report(result)
    result.pop("_record")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
