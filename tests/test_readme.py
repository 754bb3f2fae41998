"""The README's examples run as printed: its Python quickstart, and each
`coopjam ...` line of its CLI block through click's test runner."""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from coopjam.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(),
                      flags=re.MULTILINE | re.DOTALL)


def _cli_lines():
    """Each `coopjam ...` line, without its trailing comment."""
    return [shlex.join(shlex.split(line, comments=True))
            for block in _blocks("sh") for line in block.splitlines()
            if line.startswith("coopjam ")]


def test_readme_has_examples():
    assert len(_blocks("python")) == 1
    assert len(_cli_lines()) >= 5


def test_python_quickstart(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, = _blocks("python")
    exec(compile(code, str(README), "exec"), {})


@pytest.mark.parametrize("line", _cli_lines())
def test_cli_line(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = shlex.split(line)[1:]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 0, res.output
