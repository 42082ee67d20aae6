"""Rules the library's source keeps."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "twistrb").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statement_in_the_library(path):
    """Internal checks raise named errors: `python -O` strips an `assert`, on paths no test reaches too."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statement on line(s) {lines}"


def test_every_library_module_is_scanned():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "exactlin.py", "multilin.py", "liealg.py"}
