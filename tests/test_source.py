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


def _uses_function_cache(node) -> bool:
    if isinstance(node, ast.ImportFrom) and node.module == "functools":
        return any(alias.name in ("lru_cache", "cache") for alias in node.names)
    return (isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
            and isinstance(node.value, ast.Name) and node.value.id == "functools")


def test_library_has_no_function_cache():
    # a module-level cache keyed on frames grows for the life of the process
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _uses_function_cache(node)
    ]
    assert SOURCES and not found, found


def test_cross_check_routes_not_exported():
    removed = {"check_admissible", "hankel_determinant", "from_y_basis", "y_basis",
               "op_D_monomial", "hahn_number"}
    assert not removed & set(hahnpoly.__all__)


def test_sequence_kernel_not_exported():
    # the engine reads the one-pass sequences; d_n, e_n and q_bracket stay the public definitions
    assert not {"pearson_sequences", "PearsonSequences"} & set(hahnpoly.__all__)
    assert {"d_n", "e_n", "q_bracket", "rodrigues_constant"} <= set(hahnpoly.__all__)
