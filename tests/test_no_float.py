"""The library computes exactly: no float literal and no `float` name in
any of its modules."""

import ast
import pathlib

import diffprod

SRC = pathlib.Path(diffprod.__file__).parent


def _is_float(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    return isinstance(node, ast.Name) and node.id == "float"


def test_library_source_has_no_float():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _is_float(node)
    ]
    assert found == []
