"""No module imports a name it never uses, and every module parses as
Python 3.10, the oldest version ``pyproject.toml`` allows.

Package ``__init__`` modules import in order to re-export, and
``test_acceptance.py`` is kept exactly as written, so both are exempt from
the import check.
"""
import ast
import pathlib

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
