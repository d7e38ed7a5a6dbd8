"""Rules the package source keeps."""

import ast
import pathlib

import polyweight

PACKAGE_DIR = pathlib.Path(polyweight.__file__).parent


def test_no_assert_statements():
    # ``python -O`` strips assert statements, so every postcondition in the
    # package is an explicit raise.
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
