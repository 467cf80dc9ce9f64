import ast
from pathlib import Path

import votelab

SRC = Path(votelab.__file__).resolve().parent


def test_no_assert_statements_in_package():
    # Checks must survive python -O, which strips assert statements.
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
