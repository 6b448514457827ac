import ast
from pathlib import Path
from types import ModuleType

import hahnpoly

SOURCES = sorted(Path(hahnpoly.__file__).parent.glob("*.py"))


def test_library_has_no_assert():
    # python -O strips assert statements, so a check written as one disappears
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def test_all_exports_no_modules():
    modules = [name for name in hahnpoly.__all__ if isinstance(getattr(hahnpoly, name), ModuleType)]
    assert hahnpoly.__all__ and not modules, modules
