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


# the mode engine's integer core runs on interned ids and plain 4-tuples;
# Monomial validation belongs to the public boundary (modespace._state), not
# to every step
ENGINE_CORE = {
    "modespace.py": (
        "_gen_mode_terms", "_contractions", "_head", "_apply_mono", "_ground_apply", "_act",
        "_nonzero", "_intern", "_shared", "_head_id", "_interned", "_pairs", "_act_ids", "_poles",
        "_scaled", "_id_row", "_borcherds_numerators",
    ),
    "p1tcdo.py": ("_glue_table", "_glue_mono", "_glued"),
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


# the intern table and the functions on its ids stay inside modespace: no
# other module imports or reads one (modespace enters its containers in the
# package's cache hooks itself), and _act, the boundary the gluing, the H^0
# scan and the word replay call, returns plain 4-tuple keys
ID_LEVEL = {
    "_MONOS", "_IDS", "_REACH", "_HEADS", "_CREATED", "_CONTRACTED",
    "_intern", "_head_id", "_interned", "_pairs", "_act_ids",
    "_apply_mono", "_ground_apply", "_gen_mode_terms", "_contractions", "_poles",
}


def test_ids_never_leave_the_mode_engine():
    from tcdo.modespace import Monomial, _act

    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "modespace.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in sorted(names & ID_LEVEL)]
    assert found == []
    out = _act([(Monomial(amodes=(-1,)), 1)], 0, [(Monomial(bmodes=(-2,), power=2), 1)], None)
    assert out and all(type(key) is tuple and len(key) == 4 for key in out)


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


# the Cech differential is read straight off the glue tables over the
# column positions of the normal-form shapes; no state, section basis or
# glued monomial is built or taken apart per block
DELTA_FORBIDDEN = {
    "FreeState", "Fraction", "Monomial", "glue", "include_overlap", "coordinate_rows",
    "sections_bidegree", "_glue_mono",
}


def test_delta_matrix_builds_no_states():
    assert "_block_rows" in _calls("cech.py", "_delta_matrix")
    assert {"normal_forms", "_glue_table"} <= _calls("cech.py", "_block_rows")
    for name in ("cech_block", "_delta_matrix", "_block_rows"):
        assert sorted(_calls("cech.py", name) & DELTA_FORBIDDEN) == [], name


# the zero-chart sections are the overlap monomials with ground power >= 0,
# so delta is read off its principal part G_-: no function of the Cech module
# (_delta_matrix and cech_block among them) enumerates the zero-chart basis
def test_cech_module_enumerates_no_zero_chart_basis():
    found = []
    for node in ast.walk(ast.parse((SRC / "cech.py").read_text(), filename="cech.py")):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sections_bidegree":
            args = node.args + [kw.value for kw in node.keywords]
            if any(isinstance(arg, ast.Attribute) and arg.attr == "ZERO" for arg in args):
                found.append(f"cech.py:{node.lineno}")
    assert "sections_bidegree" in _calls("cech.py", "cech_kernel")
    assert "_delta_matrix" in _calls("cech.py", "cech_block")
    assert found == []


# the H^0 scan acts and glues on the integer core too; a state is built only
# for each representative it returns, by linear_combination
SCAN_FORBIDDEN = {"FreeState", "apply_mode", "glue", "include_overlap"}


def test_h0_scan_runs_on_the_integer_core():
    called = _calls("cech.py", "scan_h0_sl2")
    assert {"_act", "_glue_mono", "linear_combination"} <= called
    assert sorted(called & SCAN_FORBIDDEN) == []


def test_every_public_function_has_a_package_caller():
    # a public top-level function or public method of a class that nothing
    # in the package reaches is either an unrun check or dead code; a
    # test-only reference lives in tests/references.py instead.  A method is
    # matched by attribute name (x.name) alone, whatever x is.  A function of
    # the package namespace itself (__init__.py, called as tcdo.name) is
    # library API with no caller inside the package, so there a test must
    # call it instead
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    assert trees, f"no sources under {SRC}"
    tests = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(Path(__file__).parent.glob("test_*.py"))]
    found = []
    for module, tree in trees.items():
        callers = tests if module == "__init__" else trees.values()
        # (definition, its name as reported, whether a bare name reaches it)
        public = [(fn, fn.name, True) for fn in tree.body if isinstance(fn, ast.FunctionDef)] + [
            (fn, f"{cls.name}.{fn.name}", False)
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
        ]
        for fn, label, by_name in public:
            if fn.name.startswith("_"):
                continue
            own = {id(node) for node in ast.walk(fn)}
            referenced = any(
                id(node) not in own
                and (getattr(node, "attr", None) == fn.name or by_name and getattr(node, "id", None) == fn.name)
                for other in callers
                for node in ast.walk(other)
                if isinstance(node, (ast.Name, ast.Attribute))
            )
            if not referenced:
                found.append(f"{module}.{label}")
    assert found == []


# the Sugawara spans take their vectors by centrality, w (2 T_(-k) v); the
# suites that check T keep the module expansion, so centrality is never
# assumed by the code that checks it
def test_sugawara_spans_use_centrality_and_the_checks_keep_the_expansion():
    span = _calls("affine.py", "_sugawara_span")
    assert "_central_image" in span and "_t_image" not in span
    apply = _calls("affine.py", "sugawara_apply")
    assert "_t_image" in apply and "_central_image" not in apply
    check = _calls("affine.py", "check_sugawara_centrality")
    assert "sugawara_apply" in check and "_central_image" not in check


# every sampled suite runs its seeded loop through CheckReport.sample, which
# builds a failure's text only for a failing trial and flags samples=0 once.
# The guard keys on the draw, not on the name ``samples``: _glue_table and
# _delta_matrix loop over range(samples) interpolation nodes
DRAWS = {"random_state", "random_monomial", "random_pbw"}


def _draws(node) -> bool:
    """Whether ``node`` draws from an rng: rng.<method>, or a random_* helper."""
    return any(
        isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) == "rng"
        or getattr(sub, "id", None) in DRAWS or getattr(sub, "attr", None) in DRAWS
        for sub in ast.walk(node)
    )


def test_no_sampled_loop_records_its_own_checks():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_sampled_report":
                found.append(f"{path.name}:{node.lineno} _sampled_report")
            records = isinstance(node, ast.For) and any(
                isinstance(sub, ast.Call) and getattr(sub.func, "attr", None) == "record" for sub in ast.walk(node)
            )
            if records and _draws(node):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
    for filename, name in (
        ("modespace.py", "engine_property_suite"),
        ("p1tcdo.py", "check_gluing_morphism"),
        ("affine.py", "check_affine_relations"),
        ("affine.py", "check_sugawara_centrality"),
    ):
        assert "sample" in _calls(filename, name), name


# main takes the handler from the command table's row, so no handler
# switches on the affine mode
def test_no_command_handler_reads_the_mode():
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    handlers = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert len(handlers) == 7
    assert [fn.name for fn in handlers if any(getattr(node, "attr", None) == "mode" for node in ast.walk(fn))] == []


# the replay table carries the quotient dimension verma-vs-sections checks,
# so the command never builds a Sugawara span of its own
def test_verma_vs_sections_reads_the_quotient_dim_from_the_table():
    called = _calls("cli.py", "cmd_affine_verma_vs_sections")
    assert "verma_to_sections" in called
    assert sorted(called & {"irreducible_dims", "restricted_verma_dim"}) == []
    assert {"irreducible_dims", "restricted_verma_dim"} <= _calls("affine.py", "verma_to_sections")


# lowering words are replayed on the integer core by one helper, _replay; the
# state path (FreeState through apply_mode) survives only as the reference in
# tests/references.py
def test_affine_replays_words_on_the_integer_core():
    tree = ast.parse((SRC / "affine.py").read_text(), filename="affine.py")
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert sorted(imported & {"apply_mode", "vacuum", "coordinate_rows", "FreeState"}) == []
    for name in ("verma_to_sections", "irreducible_dims"):
        assert "_replay" in _calls("affine.py", name)
    for filename, name in (("affine.py", "verma_to_sections"), ("cech.py", "scan_h0_sl2")):
        called = _calls(filename, name)
        assert "_sl2_currents" in called
        assert sorted(called & {"sl2_embedding", "_integer_row"}) == []


# the Zhu class map is a closed form, independent of the mode engine whose
# products its checks reduce, and keeps no cache
def test_zhu_classes_are_read_off_without_the_engine():
    assert sorted(_calls("zhu.py", "zhu_reduce") & {"apply_mode", "_apply_mono", "_head"}) == []
    tree = ast.parse((SRC / "zhu.py").read_text(), filename="zhu.py")
    names = {getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
             for node in ast.walk(tree)}
    assert "lru_cache" not in names


# the node sectors of each shape have one owner: the cached glue table decides
# there whether a sector is glued or interpolated, and the per-monomial cache
# above it keeps no sector state (p1tcdo enters the dict in the package's
# cache hooks beside its definition, so clear_caches can empty it)
def test_the_glue_table_alone_owns_the_sector_state():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(fn, ast.FunctionDef) and any(
                getattr(node, "id", None) == "_SECTORS" or getattr(node, "attr", None) == "_SECTORS"
                for node in ast.walk(fn)
            ):
                found.add((path.name, fn.name))
    assert ("p1tcdo.py", "_glue_mono") not in found
    assert found == {("p1tcdo.py", "_glue_table")}


# every module-level function cached without a bound; a new one fails here
# until it is bounded or listed, and bounding one takes it off the list
UNBOUNDED_CACHES = {
    "affine.py": ["_straighten", "_act_word", "_negative_words", "_central_image"],
    # _apply_mono stays unbounded (ROADMAP item 5): an LRU bound of 65,536 or
    # 131,072 entries cost +16 to +64 % time on `verify-engine --samples
    # 3000` and at the Cech ceiling (prototype S), and weight 10 alone needs
    # 127k entries (prototype T).  Its entries shrink instead: as flat term
    # tuples they hold 218 bytes each after the `engine-sweep` cold pass and
    # 177 on `affine singular --n 0 --weight-max 7 --depth 5`, against 366
    # and 264 as tuples of (key, coeff) pairs (tracemalloc, the memory that
    # clearing the cache frees)
    "modespace.py": ["_apply_mono"],
    "p1tcdo.py": ["_glue_table"],
}


def _decorator_name(decorator):
    """The name a decorator calls or is, as written: ``lru_cache`` for both
    @lru_cache and @functools.lru_cache(...)."""
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(func, "id", None) or getattr(func, "attr", None)


def _unbounded(decorator) -> bool:
    """Whether a decorator is functools.cache or an lru_cache with maxsize None."""
    name = _decorator_name(decorator)
    if name == "cache":
        return True
    if name != "lru_cache" or not isinstance(decorator, ast.Call):
        return False
    sizes = decorator.args[:1] + [kw.value for kw in decorator.keywords if kw.arg == "maxsize"]
    return any(isinstance(size, ast.Constant) and size.value is None for size in sizes)


# every module-level dict, list or set bound empty: mutable state that grows
# with the requests, like a cache; a new one fails here until it is listed,
# and each listed one must be entered in tcdo._CONTAINERS, which
# tcdo.clear_caches empties and tcdo.cache_stats sizes
MODULE_CACHES = {
    "modespace.py": ["_MONOS", "_IDS", "_REACH", "_HEADS", "_CREATED", "_CONTRACTED"],
    "p1tcdo.py": ["_SECTORS"],
}

# the package's registries of its lru_caches and its cache containers:
# filled as each module loads, never by a request, so clear_caches empties
# the caches they hold and must not empty a registry itself
REGISTRIES = {"__init__.py": ["_REGISTERED", "_CONTAINERS"]}


def _empty_container(value) -> bool:
    """Whether an expression builds an empty dict, list or set."""
    if isinstance(value, (ast.Dict, ast.List, ast.Set)):
        return not (getattr(value, "keys", None) or getattr(value, "elts", None))
    return isinstance(value, ast.Call) and getattr(value.func, "id", None) in ("dict", "list", "set") and not (
        value.args or value.keywords
    )


def test_module_level_caches_are_the_listed_ones_and_clear_caches_empties_them():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None and _empty_container(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found.setdefault(path.name, []).extend(t.id for t in targets)
    assert found == {**MODULE_CACHES, **REGISTRIES}
    import tcdo.cli  # the command layer loads every module of the package

    listed = {f"{filename[:-3]}.{name}": name for filename, names in MODULE_CACHES.items() for name in names}
    assert set(tcdo._CONTAINERS) == set(listed)
    for key, state in tcdo._CONTAINERS.items():
        assert state is getattr(sys.modules[f"tcdo.{key.split('.')[0]}"], listed[key]), key
    tcdo.cech.cech_block(0, 2, 0)
    assert all(tcdo._CONTAINERS[key] for key in ("modespace._MONOS", "p1tcdo._SECTORS"))
    tcdo.clear_caches()
    assert [key for key, state in tcdo._CONTAINERS.items() if state] == []
    assert tcdo._REGISTERED and set(tcdo._CONTAINERS) == set(listed)


# every module-level lru_cache enters the registry where it is defined, by
# the decorator above it, so clear_caches and cache_stats reach it even when
# its module attribute is rebound
def test_every_lru_cache_is_registered_where_it_is_defined():
    import tcdo.cli  # the command layer loads every module of the package

    found, unregistered = set(), []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            names = [_decorator_name(d) for d in fn.decorator_list]
            if "lru_cache" in names or "cache" in names:
                found.add(f"{path.stem}.{fn.name}")
                if names[0] != "_registered":
                    unregistered.append(f"{path.name}:{fn.lineno} {fn.name}")
    assert found and unregistered == []
    assert set(tcdo._REGISTERED) == found


def test_unbounded_caches_are_the_listed_ones():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and any(_unbounded(d) for d in fn.decorator_list):
                found.setdefault(path.name, []).append(fn.name)
    assert found == UNBOUNDED_CACHES
