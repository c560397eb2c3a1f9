"""The acceptance summary that ``conftest.py`` prints at the end of a run."""
from types import SimpleNamespace

import conftest


class Reporter:
    """The part of pytest's terminal reporter the summary hook uses."""

    def __init__(self, stats):
        self.stats, self.lines = stats, []

    def write_sep(self, sep, title):
        self.lines.append(f"{sep} {title}")

    def write_line(self, line):
        self.lines.append(line)


def report(nodeid, when="call"):
    return SimpleNamespace(nodeid=nodeid, when=when)


def test_summary_lists_the_tests_of_the_acceptance_file_only():
    reporter = Reporter({
        "passed": [
            report("tests/test_acceptance.py::test_c01_hexagon_matrix_rows_exact"),
            report("tests/test_acceptance.py::test_c01_hexagon_matrix_rows_exact", when="setup"),
            report("tests/test_imports.py::test_every_module_parses[tests/test_acceptance.py]"),
            report("tests/test_cli.py::test_reads[test_acceptance.py]"),
        ],
        "failed": [report("tests/test_acceptance.py::test_c11_energy_strictly_decreases")],
    })
    conftest.pytest_terminal_summary(reporter)
    assert reporter.lines == [
        "- acceptance criteria",
        "PASS  test_c01_hexagon_matrix_rows_exact",
        "FAIL  test_c11_energy_strictly_decreases",
    ]


def test_no_summary_without_acceptance_tests():
    reporter = Reporter({"passed": [report("tests/test_cli.py::test_reads[tests/test_acceptance.py]")]})
    conftest.pytest_terminal_summary(reporter)
    assert reporter.lines == []
