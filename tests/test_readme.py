"""Every command of the README's "Command line" block runs as shown."""
import pathlib
import shlex
import shutil

import pytest

from polyflow.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_FLAGS = ("--csv", "--svg", "--json")


def _command_lines() -> list[str]:
    """The ``polyflow ...`` lines of the first ``sh`` block after the
    "## Command line" heading of README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("polyflow ")]


def test_the_command_line_block_names_the_example_inputs():
    lines = _command_lines()
    assert len(lines) == 7
    inputs = {word for line in lines for word in shlex.split(line) if word.startswith("examples/")}
    assert inputs == {"examples/pentagon.json", "examples/quad.json"}
    assert all((ROOT / name).is_file() for name in inputs)


@pytest.mark.parametrize("line", _command_lines())
def test_a_readme_command_exits_zero_and_writes_the_files_it_names(line, tmp_path, monkeypatch, capsys):
    """Run in a directory holding a copy of ``examples/``, the command exits
    0 and leaves every file its ``--csv``, ``--svg`` or ``--json`` names."""
    shutil.copytree(ROOT / "examples", tmp_path / "examples")
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line)[1:]
    assert main(argv) == 0, capsys.readouterr().err
    outputs = [argv[i + 1] for i, word in enumerate(argv[:-1]) if word in OUTPUT_FLAGS]
    for name in outputs:
        assert (tmp_path / name).is_file(), name
