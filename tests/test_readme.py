"""The README's examples, run as written: the "Library use" block, and each
polbec line of the CLI block through cli.main, with example.cfg read from
the repository and every --out path under a temporary directory.  Both are
read from README.md, so an edit there is run too."""

import shlex
from pathlib import Path

import pytest

from polbec.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def block(section: str, language: str) -> str:
    """The first ```language block after the heading '## section'."""
    after = README.split(f"\n## {section}\n", 1)[1]
    return after.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def cli_lines() -> list[list[str]]:
    """The arguments of each polbec command in the CLI block, a line that
    ends in a backslash joined to the next, comments dropped."""
    text = block("CLI", "sh").replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:]
            for line in text.splitlines() if line.startswith("polbec ")]


def test_readme_has_both_blocks():
    assert cli_lines()
    assert "import" in block("Library use", "python")


def test_library_block_runs(capsys):
    exec(compile(block("Library use", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out  # it prints what it computed


@pytest.mark.parametrize("argv", cli_lines(), ids=lambda argv: argv[0])
def test_cli_line_exits_0(tmp_path, argv):
    argv = [str(ROOT / "example.cfg") if arg == "example.cfg" else arg for arg in argv]
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
    assert main(argv) == 0
