"""Rules the package source must keep."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tcdo"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so invariants must raise real
    # exceptions instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert list(SRC.glob("*.py")), f"no sources under {SRC}"
    assert found == []
