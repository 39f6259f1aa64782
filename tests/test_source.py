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


# the mode engine's integer core runs on plain 4-tuples; Monomial validation
# belongs to the public boundary (modespace._state), not to every step
ENGINE_CORE = {
    "modespace.py": (
        "_gen_mode_terms", "_contractions", "_head", "_apply_mono", "_ground_apply", "_act",
        "_nonzero",
    ),
    "p1tcdo.py": ("_glue_shape", "_glue_mono"),
}


def test_engine_core_never_builds_a_monomial():
    found = []
    for filename, names in ENGINE_CORE.items():
        tree = ast.parse((SRC / filename).read_text(), filename=filename)
        defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert set(names) <= set(defs), f"{filename} lacks {sorted(set(names) - set(defs))}"
        for name in names:
            for node in ast.walk(defs[name]):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called == "Monomial":
                        found.append(f"{filename}:{node.lineno} in {name}")
    assert found == []


def _calls(filename: str, function: str) -> set:
    """The names one top-level function of the package calls."""
    tree = ast.parse((SRC / filename).read_text(), filename=filename)
    (fn,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function]
    called = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            func = node.func
            called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return called


# the Cech differential is read straight off the integer gluing core over the
# monomial section bases; no state is built or taken apart per block
DELTA_FORBIDDEN = {"FreeState", "Fraction", "Monomial", "glue", "include_overlap", "coordinate_rows"}


def test_delta_matrix_builds_no_states():
    called = _calls("cech.py", "_delta_matrix")
    assert {"sections_bidegree", "_glue_mono"} <= called
    assert sorted(called & DELTA_FORBIDDEN) == []


# the H^0 scan acts and glues on the integer core too; a state is built only
# for each representative it returns, by linear_combination
SCAN_FORBIDDEN = {"FreeState", "apply_mode", "glue", "include_overlap"}


def test_h0_scan_runs_on_the_integer_core():
    called = _calls("cech.py", "scan_h0_sl2")
    assert {"_act", "_glue_mono", "linear_combination"} <= called
    assert sorted(called & SCAN_FORBIDDEN) == []


def test_every_public_function_has_a_package_caller():
    # a public top-level function that nothing in the package reaches is
    # either an unrun check or dead code; a test-only reference lives in
    # tests/references.py instead
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    assert trees, f"no sources under {SRC}"
    found = []
    for module, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            own = {id(node) for node in ast.walk(fn)}
            referenced = any(
                id(node) not in own
                and (getattr(node, "id", None) == fn.name or getattr(node, "attr", None) == fn.name)
                for other in trees.values()
                for node in ast.walk(other)
                if isinstance(node, (ast.Name, ast.Attribute))
            )
            if not referenced:
                found.append(f"{module}.{fn.name}")
    assert found == []
