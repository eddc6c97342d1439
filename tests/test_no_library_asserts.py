"""`python -O` strips `assert`, so library code must check with a raise."""

import ast
from pathlib import Path

import quasiring

PACKAGE = Path(quasiring.__file__).parent


def test_no_assert_in_library_code():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
