"""numpy is the package's only runtime dependency.

Every absolute import in src/planarwbc is read from the source with ast and
must name a standard-library module or numpy, and pyproject.toml must
declare numpy alone. Nothing is imported to check it, so an import behind a
branch or inside a function counts too.
"""
import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "planarwbc").glob("*.py"))
RUNTIME = {"numpy"}


def absolute_imports(path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_the_package_has_sources():
    assert len(SOURCES) > 10 and ROOT / "src" / "planarwbc" / "__init__.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_stdlib_or_numpy(path):
    foreign = [f"{path.name}:{line} imports {module}" for line, module in absolute_imports(path)
               if module not in sys.stdlib_module_names and module not in RUNTIME]
    assert not foreign


def test_the_parser_sees_what_is_imported(tmp_path):
    # The check finds a foreign import wherever it sits and leaves relative ones.
    source = tmp_path / "sample.py"
    source.write_text("import os.path\nfrom . import envs\n"
                      "def f():\n    import scipy.linalg\n    from torch import nn\n")
    assert list(absolute_imports(source)) == [(1, "os"), (4, "scipy"), (5, "torch")]


def test_pyproject_declares_numpy_alone():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9._-]+", dep).group().lower() for dep in project["dependencies"]]
    assert names == ["numpy"]
