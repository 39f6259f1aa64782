"""Rules the package source must keep."""

import ast
import sys
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


def test_package_imports_only_the_standard_library():
    # the runtime is stdlib-only: every import names a standard module or
    # the package itself
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "tcdo" and top not in sys.stdlib_module_names:
                    found.append(f"{path.name}:{node.lineno} imports {name}")
    assert list(SRC.glob("*.py")), f"no sources under {SRC}"
    assert found == []


def test_every_imported_name_is_used():
    # an import nothing reads is dead code that survives refactors silently
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} imports unused {name}" for name, line in imported.items() if name not in used]
    assert list(SRC.glob("*.py")), f"no sources under {SRC}"
    assert found == []
