import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

SEED = int(os.environ.get("POLYFLOW_SEED", "20260810"))

settings.register_profile(
    "polyflow",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("polyflow")


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def pytest_terminal_summary(terminalreporter):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    rows = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            in_file = nodeid.split("::")[0] == "tests/test_acceptance.py"  # not a parameter naming it
            if in_file and getattr(rep, "when", "call") == "call":
                rows.append((nodeid.split("::")[-1], outcome == "passed"))
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, ok in sorted(set(rows)):
        terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'}  {name}")
