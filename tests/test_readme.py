"""The README's examples run as written and print what it says they print."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from qhflag.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first ```lang block after a '## heading' line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _commands():
    """Each `qhflag ...` line with the `# ->` line under it, if any."""
    lines = _block("Command line", "sh").splitlines()
    out = []
    for k, line in enumerate(lines):
        if line.startswith("qhflag "):
            nxt = lines[k + 1] if k + 1 < len(lines) else ""
            out.append((line, nxt[len("# -> "):] if nxt.startswith("# -> ")
                        else None))
    return out


def test_the_command_block_is_found():
    assert len(_commands()) == 6


@pytest.mark.parametrize("line,expected", _commands(),
                         ids=[c for c, _ in _commands()])
def test_readme_command(line, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # for --out
    assert main(shlex.split(line)[1:]) == 0
    out = capsys.readouterr().out
    if expected is not None:
        assert out == expected + "\n"


def test_library_quick_start():
    code = _block("Library quick start", "python")
    claims = re.findall(r"# -> (.*)", code)
    assert claims
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(code, "README.md", "exec"), {})
    printed = buf.getvalue().splitlines()
    for claim in claims:
        assert claim.strip() in printed
