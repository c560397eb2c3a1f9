"""Every command of the README's "Command line" block runs as shown, every
session it shows reads as a run prints it, and it names no private name."""
import pathlib
import re
import shlex
import shutil

import pytest

from polyflow.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
OUTPUT_FLAGS = ("--csv", "--svg", "--json")
SUBCOMMANDS = ["matrix", "flow", "yau", "analyze", "integrate"]
# a float as repr writes it: a decimal point or an exponent
FLOAT = re.compile(r"-?\d+(?:\.\d+(?:e[-+]\d+)?|e[-+]\d+)")


def _command_lines() -> list[str]:
    """The ``polyflow ...`` lines of the first ``sh`` block after the
    "## Command line" heading."""
    block = README.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("polyflow ")]


def _sessions() -> list[tuple[str, list[str]]]:
    """Each ``$ polyflow ...`` line of the ``console`` blocks and the lines
    shown after it."""
    sessions = []
    for block in re.findall(r"```console\n(.*?)\n```", README, re.S):
        for line in block.splitlines():
            if line.startswith("$ "):
                sessions.append((line[2:], []))
            else:
                sessions[-1][1].append(line)
    return sessions


def _in_examples_copy(tmp_path, monkeypatch) -> None:
    """Work in a directory holding a copy of ``examples/``, as the README's
    commands assume."""
    shutil.copytree(ROOT / "examples", tmp_path / "examples")
    monkeypatch.chdir(tmp_path)


def test_the_command_line_block_names_the_example_inputs():
    """One example of each subcommand, reading the files of ``examples/``."""
    lines = _command_lines()
    assert [shlex.split(line)[1] for line in lines] == SUBCOMMANDS
    inputs = {word for line in lines for word in shlex.split(line) if word.startswith("examples/")}
    assert inputs == {"examples/pentagon.json", "examples/quad.json"}
    assert all((ROOT / name).is_file() for name in inputs)


@pytest.mark.parametrize("line", _command_lines())
def test_a_readme_command_exits_zero_and_writes_the_files_it_names(line, tmp_path, monkeypatch, capsys):
    """Run in a directory holding a copy of ``examples/``, the command exits
    0 and leaves every file its ``--csv``, ``--svg`` or ``--json`` names."""
    _in_examples_copy(tmp_path, monkeypatch)
    argv = shlex.split(line)[1:]
    assert main(argv) == 0, capsys.readouterr().err
    outputs = [argv[i + 1] for i, word in enumerate(argv[:-1]) if word in OUTPUT_FLAGS]
    for name in outputs:
        assert (tmp_path / name).is_file(), name


def test_the_sessions_show_a_table_an_exact_output_and_a_refusal():
    commands = [shlex.split(line, comments=True)[1] for line, _ in _sessions()]
    assert {"matrix", "flow"} <= set(commands)
    assert any("# exits" in line for line, _ in _sessions())


@pytest.mark.parametrize("line, shown", _sessions())
def test_a_readme_session_reads_as_the_run_prints_it(line, shown, tmp_path, monkeypatch, capsys):
    """The exit code a ``# exits N`` comment names (else 0) and the lines on
    stdout and stderr.  ``matrix`` and a refusal are compared byte for byte,
    and so is every line of a flow's output that holds no float, such as a
    table's header.  numpy's SIMD ``exp`` and FFT kernels can move a flow
    float in its last bit on another CPU, so a line holding one is compared
    by its shape: the text around its floats, and so its row and column."""
    _in_examples_copy(tmp_path, monkeypatch)
    argv = shlex.split(line, comments=True)[1:]
    exits = re.search(r"# exits (\d+)$", line)
    expected_code = int(exits.group(1)) if exits else 0
    code = main(argv)
    out, err = capsys.readouterr()
    printed = (out + err).splitlines()
    assert code == expected_code, err
    if argv[0] == "matrix" or expected_code:
        assert printed == shown
    else:
        assert [FLOAT.sub("<float>", s) for s in printed] == [FLOAT.sub("<float>", s) for s in shown]


def test_the_readme_names_no_private_identifier():
    """No inline code span names a ``_``-prefixed identifier, such as a
    private function or module attribute: the README documents what a user
    runs, and the docstrings document the rest."""
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    private = [span for span in spans if any(part.startswith("_") for part in re.findall(r"\w+", span))]
    assert not private, private
