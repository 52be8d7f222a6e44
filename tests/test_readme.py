"""The README's CLI and Library examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from diskjet.cli import EXIT_OK, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """Body of the first ``lang`` code block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


CLI_LINES = [line for line in _block("CLI", "sh").splitlines() if line.startswith("diskjet ")]


def test_readme_has_examples():
    assert len(CLI_LINES) >= 6
    assert {line.split()[1] for line in CLI_LINES} == {"disk", "boundary", "extremal", "verify"}


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_example(line, tmp_path, capsys):
    argv = shlex.split(line)[1:]
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    else:
        argv += ["--out", str(tmp_path / "out.txt")]
    assert main(argv) == EXIT_OK, (line, capsys.readouterr().err)
    assert capsys.readouterr().out == ""
    assert [p.stat().st_size > 0 for p in tmp_path.iterdir()] == [True]


def test_readme_library_snippet():
    namespace = {}
    exec(_block("Library", "python"), namespace)
    assert all(namespace["contains"](namespace["spec"], namespace["curve"].values()))
