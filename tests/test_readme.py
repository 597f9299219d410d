"""The README quick start runs as written, so its command lines cannot drift from the parser."""

import os
import re
import shlex

from anchorwmd.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def quick_start_blocks():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```sh\n(.*?)```", section, flags=re.DOTALL)


def test_quick_start_runs(tmp_path, monkeypatch, capsys):
    setup, commands = quick_start_blocks()
    monkeypatch.chdir(tmp_path)
    source = re.fullmatch(r'python -c "(.*)"\n', setup, flags=re.DOTALL).group(1)
    exec(compile(source, "README quick start", "exec"), {})
    lines = commands.replace("\\\n", " ").splitlines()
    assert len(lines) == 5 and all(line.startswith("anchorwmd ") for line in lines)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    assert (tmp_path / "run" / "viz" / "projection.tsv").exists()
    assert "error:" not in capsys.readouterr().err
