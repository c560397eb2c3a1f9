"""No module imports a name it never uses, and every module parses as
Python 3.10, the oldest version ``pyproject.toml`` allows.

Package ``__init__`` modules import in order to re-export, and
``test_acceptance.py`` is kept exactly as written, so both are exempt from
the import check.

orjson is imported by the first JSON input of a run that writes a float
array as text, or else by the first such array: a run that writes none,
such as ``integrate`` without ``--csv``, does not load it, and parses
with it only where an earlier run has loaded it.
Nor does the CLI's import load the RK4 module, the Yau flow, the SVG writer,
the reconciliation engine, the ``analyze`` writer, ``csv``, ``heapq`` or
argparse: each subcommand loads only what it runs, and argparse is loaded
by the first argv that the plain parse declines.  The package resolves its
names on first use, each read from the module defining it.
"""
import ast
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

import polyflow

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXEMPT = {ROOT / "tests" / "test_acceptance.py"}
SOURCES = sorted(path for folder in ("src", "scripts", "tests") for path in (ROOT / folder).rglob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py" and path not in EXEMPT]


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os.path\nimport sys as system\nfrom math import pi, tau\nprint(tau)\n"
    assert unused_imports(source) == ["os", "pi", "system"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(ROOT).with_suffix("").as_posix())
def test_every_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


WATCHED = (
    "orjson", "csv", "heapq", "argparse", "polyflow.integrate", "polyflow.yau_flow", "polyflow.svg",
    "polyflow._reconcile", "polyflow._report",
)

ORJSON_PROBE = """
import json, sys
watched, runs = json.loads(sys.argv[1]), json.loads(sys.argv[2])
from polyflow import polygon
from polyflow.cli import main
seen, parsed = set(), []


def loaded():
    new = sorted(m for m in watched if m in sys.modules and m not in seen)
    seen.update(new)
    return new


def load_polygon_json(*args, load=polygon.load_polygon_json, **kwargs):
    result = load(*args, **kwargs)
    parsed.append("orjson" in sys.modules and not kwargs.get("json_only", False))
    return result


polygon.load_polygon_json = load_polygon_json
steps, at_first_load = [loaded()], []
for argv in runs:
    parsed.clear()
    assert main(argv) == 0, argv
    steps.append(loaded())
    at_first_load.append(parsed[0] if parsed else None)
print(json.dumps([steps, at_first_load]))
"""


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    """Run ORJSON_PROBE over a list of argvs in one fresh interpreter: the
    watched modules that importing the CLI and then each run loads first,
    and per run whether orjson parsed its first JSON input, that is, orjson
    was loaded then and the run did not ask for ``json`` alone (None for a
    run that reads no JSON).  In an argv,
    {pentagon}, {triangle} and {triangle_csv} name input files and {out}
    a folder for outputs."""
    folder = tmp_path_factory.mktemp("probe")
    pentagon = [[1, 0], [0.31, 0.95], [-0.81, 0.59], [-0.81, -0.59], [0.31, -0.95]]
    triangle = [[0, 0], [2, 0], [1, 1.6]]
    (folder / "pentagon.json").write_text(json.dumps({"dim": 2, "vertices": pentagon}))
    (folder / "triangle.json").write_text(json.dumps({"dim": 2, "vertices": triangle}))
    (folder / "triangle.csv").write_text("x1,x2\n" + "".join(f"{x},{y}\n" for x, y in triangle))
    names = {"pentagon": folder / "pentagon.json", "triangle": folder / "triangle.json",
             "triangle_csv": folder / "triangle.csv", "out": folder}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(runs):
        runs = [[arg.format(**names) for arg in argv] for argv in runs]
        argv = [sys.executable, "-c", ORJSON_PROBE, json.dumps(WATCHED), json.dumps(runs)]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60, check=True)
        return json.loads(done.stdout.splitlines()[-1])

    run.out = folder
    return run


@pytest.fixture(scope="module")
def loaded_per_step(probe):
    """The watched modules that each step loads first: importing the CLI, a
    CSV-less ``integrate``, ``flow --csv`` and ``flow --svg`` on a JSON
    pentagon, a ``duplicate`` and a midpoint ``yau`` toward a triangle,
    ``flow`` on the
    triangle as CSV, ``analyze`` of the pentagon, ``matrix``, and the first
    ``flow --csv`` again in the = form, which the plain parse declines."""
    steps, _ = probe([
        ["integrate", "--input", "{pentagon}", "--m", "1", "--dt", "0.01", "--T", "0.1"],
        ["flow", "--input", "{pentagon}", "--m", "1", "--csv", "{out}/flow.csv"],
        ["flow", "--input", "{pentagon}", "--m", "1", "--svg", "{out}/flow.svg"],
        ["yau", "--input", "{pentagon}", "--target", "{triangle}", "--m", "1", "--strategy", "duplicate"],
        ["yau", "--input", "{pentagon}", "--target", "{triangle}", "--m", "1", "--strategy", "midpoint"],
        ["flow", "--input", "{triangle_csv}", "--m", "1"],
        ["analyze", "--input", "{pentagon}", "--m", "1"],
        ["matrix", "--n", "6", "--m", "2"],
        ["flow", "--input={pentagon}", "--m=1", "--csv", "{out}/declined.csv"],
    ])
    return steps


def test_orjson_is_loaded_by_the_first_table_only(loaded_per_step):
    """Importing the CLI and a CSV-less ``integrate`` leave orjson unloaded,
    and ``flow --csv`` loads it."""
    first_table = [i for i, step in enumerate(loaded_per_step) if "orjson" in step]
    assert first_table == [2]


def test_each_subcommand_loads_only_the_modules_it_runs(loaded_per_step, probe):
    """The CLI's import loads none of the watched modules; each is loaded by
    the first run that uses it.  Padding the triangle by duplicates leaves
    the reconciliation engine unloaded; growing it by two midpoints takes
    the engine and its heap.  A plain argv of each
    subcommand leaves argparse unloaded; the declined argv loads it, and
    writes what the plain form wrote."""
    assert loaded_per_step == [
        [],
        ["polyflow.integrate"],
        ["orjson"],
        ["polyflow.svg"],
        ["polyflow.yau_flow"],
        ["heapq", "polyflow._reconcile"],
        ["csv"],
        ["polyflow._report"],
        [],
        ["argparse"],
    ]
    assert (probe.out / "declined.csv").read_bytes() == (probe.out / "flow.csv").read_bytes()


INTEGRATE = ["integrate", "--input", "{pentagon}", "--m", "1", "--dt", "0.01", "--T", "0.1"]


@pytest.mark.parametrize(
    ("runs", "steps", "at_first_load"),
    [
        (  # a CSV-less integrate toward a JSON target parses both with json alone
            [INTEGRATE + ["--target", "{triangle}"], ["analyze", "--input", "{pentagon}", "--m", "1"]],
            [[], ["heapq", "polyflow._reconcile", "polyflow.integrate", "polyflow.yau_flow"],
             ["orjson", "polyflow._report"]],
            [False, True],
        ),
        (
            [INTEGRATE + ["--target", "{triangle}", "--csv", "{out}/yau_rk4.csv"]],
            [[], ["heapq", "orjson", "polyflow._reconcile", "polyflow.integrate", "polyflow.yau_flow"]],
            [True],
        ),
        (
            [INTEGRATE + ["--csv", "{out}/rk4.csv"], ["flow", "--input", "{triangle_csv}", "--m", "1"]],
            [[], ["orjson", "polyflow.integrate"], ["csv"]],
            [True, None],
        ),
        (  # orjson, loaded by flow --csv, parses the inputs of a later CSV-less integrate
            [["flow", "--input", "{pentagon}", "--m", "1", "--csv", "{out}/flow_first.csv"], INTEGRATE],
            [[], ["orjson"], ["polyflow.integrate"]],
            [True, True],
        ),
    ],
    ids=[
        "integrate_target_then_analyze", "integrate_target_csv", "integrate_csv_then_csv_input",
        "flow_csv_then_integrate",
    ],
)
def test_orjson_is_loaded_by_the_first_json_input_of_a_run_that_writes_numbers(probe, runs, steps, at_first_load):
    """A run that writes a float array (``analyze``, ``integrate --csv``)
    loads orjson to parse its first JSON input; a CSV-less ``integrate``,
    with or without ``--target``, never loads it, and parses with it once
    an earlier run in the same process has loaded it."""
    assert probe(runs) == [steps, at_first_load]


PACKAGE_ALL = [
    "CirculantMatrix", "DegenerateModeError", "DivergenceError", "FlowRangeError", "FlowSolution",
    "IntegratorConfig", "Polygon", "PolygonFormatError", "PolyharmonicKind", "SelfSimilarity",
    "SpectralDecomposition", "StiffnessWarning", "Trajectory", "YauKind", "YauProblem",
    "affine_pushforward", "centroid", "circulant", "circulant_multiply", "classify_self_similar",
    "decompose", "eigen_polygon", "eigen_system", "energy", "flow_solution", "idft", "integrate",
    "load_polygon", "polygon", "power_of_m", "real_basis", "reconcile_vertex_counts",
    "rescaled_limit", "second_difference", "solve", "spectral_flow", "yau_flow",
    "yau_flow_between", "yau_limit", "yau_solution", "yau_solve",
]
SUBMODULES = {"circulant", "integrate", "polygon", "spectral_flow", "yau_flow"}


def test_package_exports_each_name_from_the_module_that_defines_it():
    assert polyflow.__all__ == PACKAGE_ALL
    assert set(PACKAGE_ALL) <= set(dir(polyflow))
    for name in PACKAGE_ALL:
        value = getattr(polyflow, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"polyflow.{name}"], name
        else:
            assert value.__module__ in {f"polyflow.{module}" for module in SUBMODULES}, name
            assert value is getattr(sys.modules[value.__module__], name), name
    assert inspect.ismodule(polyflow.integrate)
    assert polyflow.integrate.integrate.__module__ == "polyflow.integrate"


def test_package_names_are_read_from_their_module_at_each_access(monkeypatch):
    original, rebound = polyflow.power_of_m, object()
    monkeypatch.setattr(polyflow.circulant, "power_of_m", rebound)
    assert polyflow.power_of_m is rebound
    monkeypatch.undo()
    assert polyflow.power_of_m is original
    assert "power_of_m" not in vars(polyflow)


def test_an_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'run_rk4'"):
        polyflow.run_rk4


STAR_PROBE = """
import json, sys
import polyflow
submodules = sorted(name for name in sys.modules if name.startswith("polyflow."))
from polyflow import *
print(json.dumps([submodules, [name for name in polyflow.__all__ if name not in globals()]]))
"""


def test_star_import_binds_every_name_and_import_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", STAR_PROBE], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == [[], []]
