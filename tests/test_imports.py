"""No module imports a name it never uses, and every module parses as
Python 3.10, the oldest version ``pyproject.toml`` allows.

Package ``__init__`` modules import in order to re-export, and
``test_acceptance.py`` is kept exactly as written, so both are exempt from
the import check.

orjson is imported only by the first float array written as text: a run
that writes none, such as ``integrate`` without ``--csv``, does not load it.
"""
import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

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


ORJSON_PROBE = """
import json, sys
from polyflow.cli import main
pentagon, table = sys.argv[1:]
loaded = ["orjson" in sys.modules]
assert main(["integrate", "--input", pentagon, "--m", "1", "--dt", "0.01", "--T", "0.1"]) == 0
loaded.append("orjson" in sys.modules)
assert main(["flow", "--input", pentagon, "--m", "1", "--csv", table]) == 0
loaded.append("orjson" in sys.modules)
print(json.dumps(loaded))
"""


def test_orjson_is_loaded_by_the_first_table_only(tmp_path):
    """In a fresh interpreter: importing the CLI and a CSV-less ``integrate``
    leave orjson unloaded, and ``flow --csv`` loads it."""
    pentagon = tmp_path / "pentagon.json"
    vertices = [[1, 0], [0.31, 0.95], [-0.81, 0.59], [-0.81, -0.59], [0.31, -0.95]]
    pentagon.write_text(json.dumps({"dim": 2, "vertices": vertices}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-c", ORJSON_PROBE, str(pentagon), str(tmp_path / "flow.csv")]
    run = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == [False, False, True]
