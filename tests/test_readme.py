"""README's examples run as documented: the Python quick tour, and every
``fusioncs`` line of the command-line block with the example configuration."""

import re
import shlex
from pathlib import Path

from fusioncs.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(section: str, lang: str) -> str:
    """The first ``lang`` code block under the heading ``## section``."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_quick_tour_runs(capsys):
    exec(compile(_block("Quick tour", "python"), "README.md", "exec"), {})


def test_command_line_examples_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(_block("Command line", "json"), encoding="utf-8")
    lines = [line for line in _block("Command line", "bash").splitlines() if line.startswith("fusioncs ")]
    assert lines
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
