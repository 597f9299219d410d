"""The runtime package needs only its declared dependency, numpy.

scipy and hypothesis serve the test oracles and property tests under
``tests/``; a module of ``anchorwmd`` that imported either would work here
and fail for a user who installed only the package.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys

for name in ("scipy", "hypothesis"):
    sys.modules[name] = None  # import raises ImportError

import importlib
import os
import pkgutil

import anchorwmd
from anchorwmd.cli import main
from anchorwmd.data import save_corpus_lines, save_word_vectors
from anchorwmd.synthetic import planted_two_cluster_data

for info in pkgutil.walk_packages(anchorwmd.__path__, "anchorwmd."):
    importlib.import_module(info.name)

root = sys.argv[1]
synth = planted_two_cluster_data(seed=1, train_docs_per_class=4, test_docs_per_class=2, tokens_per_doc=8)
vectors, train, test = (os.path.join(root, name) for name in ("vectors.txt", "train.tsv", "test.tsv"))
save_word_vectors({w: synth.vectors.vector(w) for w in synth.vectors.index}, vectors)
save_corpus_lines(synth.train, train)
save_corpus_lines(synth.test, test)
trained = os.path.join(root, "trained")
assert main(["train", "--vectors", vectors, "--corpus", train, "--out", trained, "--epochs", "2", "--p", "2"]) == 0
checkpoint = os.path.join(trained, "checkpoint.json")
assert main(["eval", "--vectors", vectors, "--corpus", test, "--checkpoint", checkpoint, "--out", os.path.join(root, "eval")]) == 0
blocked = sorted(name for name in sys.modules if name.split(".")[0] in ("scipy", "hypothesis") and sys.modules[name] is not None)
assert not blocked, blocked
print("ok")
"""


def test_train_and_eval_without_test_only_packages(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "ok"
    assert (tmp_path / "eval" / "predictions.csv").exists()
