"""Invariants in the package are enforced by raises: `assert` statements are
stripped under `python -O`, so none may appear in the package source."""

import ast
from pathlib import Path

import macmahon

PACKAGE = Path(macmahon.__file__).resolve().parent


def test_package_has_no_assert_statements():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) >= 9
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in the package: {found}"
