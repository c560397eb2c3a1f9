"""``scripts/golden_outputs.py``: a manifest checks clean against the code
that wrote it, and a one-ulp change to one flow sample is reported."""
import importlib.util
import json
import pathlib
import sys

import numpy as np
import pytest

from polyflow.polygon import Polygon
from polyflow.spectral_flow import FlowSolution

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "golden_outputs.py"
SPEC = importlib.util.spec_from_file_location("golden_outputs", SCRIPT)
golden = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(golden)

FIRST_JOBS = {"gallery": 40, "rk4-oracle": 8}


@pytest.fixture
def first_jobs(monkeypatch):
    """Cut each workload's job list to its first jobs."""
    make_jobs = golden.make_jobs
    monkeypatch.setattr(
        golden, "make_jobs",
        lambda workload, *args: make_jobs(workload, *args)[: FIRST_JOBS[workload]],
    )


def _argv(workload, manifest, mode):
    return ["--workload", workload, "--seed", "7", "--seconds", "1", mode, str(manifest)]


@pytest.mark.parametrize("workload", sorted(FIRST_JOBS))
def test_a_manifest_checks_clean_where_it_was_written(workload, first_jobs, tmp_path, capsys):
    manifest = tmp_path / "golden.json"
    assert golden.main(_argv(workload, manifest, "--write")) == 0
    jobs = json.loads(manifest.read_text())["jobs"]
    assert len(jobs) == FIRST_JOBS[workload]
    assert not any(str(tmp_path) in arg for job in jobs for arg in job["argv"])
    capsys.readouterr()
    assert golden.main(_argv(workload, manifest, "--check")) == 0
    assert capsys.readouterr().out == f"0 of {len(jobs)} jobs differ\n"


def test_a_one_ulp_change_to_one_sample_is_reported(first_jobs, tmp_path, monkeypatch, capsys):
    manifest = tmp_path / "golden.json"
    assert golden.main(_argv("gallery", manifest, "--write")) == 0
    evaluate = FlowSolution.polygon_at

    def nudged(self, t):
        """The first sample with its first coordinate one ulp up."""
        samples = evaluate(self, t)
        first = samples if isinstance(samples, Polygon) else samples[0]
        v = first.vertices.copy()
        v[0, 0] = np.nextafter(v[0, 0], np.inf)
        return Polygon(v) if isinstance(samples, Polygon) else (Polygon(v),) + samples[1:]

    monkeypatch.setattr(FlowSolution, "polygon_at", nudged)
    capsys.readouterr()
    assert golden.main(_argv("gallery", manifest, "--check")) == 1
    lines = capsys.readouterr().out.splitlines()
    jobs = json.loads(manifest.read_text())["jobs"]
    flows = [i for i, job in enumerate(jobs) if job["argv"][0] in ("flow", "yau")
             and job["parts"]["exit"] == golden._digest(b"0")]
    assert flows
    assert [int(line.split(":")[0].split()[1]) for line in lines[:-1]] == flows
    assert lines[-1] == f"{len(flows)} of {len(jobs)} jobs differ"


def test_foreign_versions_and_sources_are_refused(first_jobs, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts --src first
    manifest = tmp_path / "golden.json"
    assert golden.main(_argv("rk4-oracle", manifest, "--write")) == 0
    doc = json.loads(manifest.read_text())
    doc["versions"]["numpy"] = "0.0"
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert golden.main(_argv("rk4-oracle", manifest, "--check")) == 2
    assert capsys.readouterr().err.startswith("versions differ")
    # polyflow is loaded already, from this checkout's src
    assert golden.main(_argv("rk4-oracle", manifest, "--write") + ["--src", str(tmp_path)]) == 2
    assert "polyflow was imported from" in capsys.readouterr().err
