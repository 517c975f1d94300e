"""The package runs on the standard library alone: every absolute import in
``src/simulatency``, the ones inside functions included, names a module of
``sys.stdlib_module_names`` (Python 3.10 and later, as ``requires-python``
says)."""

import ast
import sys
from pathlib import Path

import simulatency

PACKAGE = Path(simulatency.__file__).parent


def absolute_imports(path: Path):
    """The top-level module of each absolute import in ``path``, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_absolute_import_names_a_standard_library_module():
    imported = {(path.name, name) for path in sorted(PACKAGE.glob("*.py")) for name in absolute_imports(path)}
    assert {name for _, name in imported} >= {"__future__", "json"}  # the walk sees the files
    outside = sorted(f"{file}: {name}" for file, name in imported if name not in sys.stdlib_module_names)
    assert not outside, outside
