"""The README quick start runs as written, so its command lines cannot drift from the parser."""

import contextlib
import io
import os
import re
import shlex

import pytest

from anchorwmd.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def quick_start_blocks():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```sh\n(.*?)```", section, flags=re.DOTALL)


@pytest.fixture(scope="module")
def quick_start(tmp_path_factory):
    """The quick start run once in a fresh directory: (directory, command lines, exit codes, stderr)."""
    root = tmp_path_factory.mktemp("quick_start")
    setup, commands = quick_start_blocks()
    source = re.fullmatch(r'python -c "(.*)"\n', setup, flags=re.DOTALL).group(1)
    lines = commands.replace("\\\n", " ").splitlines()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(io.StringIO()) as err:
        patch.chdir(root)
        exec(compile(source, "README quick start", "exec"), {})
        codes = [main(shlex.split(line)[1:]) for line in lines]
    return root, lines, codes, err.getvalue()


def test_quick_start_runs(quick_start):
    root, lines, codes, err = quick_start
    assert len(lines) == 4 and all(line.startswith("anchorwmd ") for line in lines)
    assert codes == [0] * len(lines), lines
    assert (root / "run" / "interpret" / "projection.tsv").exists()
    assert "error:" not in err


def test_quick_start_tables_end_lines_with_newline(quick_start):
    root = quick_start[0]
    tables = sorted(path for pattern in ("*.csv", "*.tsv") for path in (root / "run").rglob(pattern))
    names = {path.name for path in tables}
    assert {"loss_history.csv", "predictions.csv", "knn_predictions.csv", "importance.tsv"} <= names
    for path in tables:
        assert b"\r" not in path.read_bytes(), path
