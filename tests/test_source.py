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


_DEFERRED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _import_time_nodes(tree):
    """Nodes that run when the module is imported: all but function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _DEFERRED):
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_level_numpy_import():
    # importing the package, and certifying boxes, must not load numpy;
    # only the vectorised sweeps import it, inside their bodies
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _import_time_nodes(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _package_imports(path):
    """(line, submodule, whether it runs at import time) of every import
    of a polyweight module in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    at_import = set(_import_time_nodes(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "polyweight":
                    continue
                module = module.partition(".")[2]
            targets = [module] if module else [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            targets = [
                a.name.partition(".")[2] or a.name
                for a in node.names
                if a.name.split(".")[0] == "polyweight"
            ]
        else:
            continue
        for target in targets:
            yield node.lineno, target.split(".")[0], node in at_import


def test_no_package_module_imports_the_kernels():
    # a context, its tables, the package namespace and the CLI never
    # compile the sweeps; callers of a sweep import ``_kernels`` themselves
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        for line, target, _ in _package_imports(path)
        if target == "_kernels"
    ]
    assert found == []
    assert "_kernels" not in polyweight._LAZY.values()


def _calls_named(tree, name):
    """The call nodes under ``tree`` whose callee is called ``name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None
            )
            if callee == name:
                yield node


def test_only_tables_for_builds_tables():
    # ``classify.tables_for`` is the one place the sweep tables are made
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "classify.py":
            definition = next(
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "tables_for"
            )
            allowed = set(_calls_named(definition, "Tables"))
        found += [
            f"{path.name}:{node.lineno}"
            for node in _calls_named(tree, "Tables")
            if node not in allowed
        ]
    assert found == []


_HYPOTHESIS_LABELS = ("(a)", "(b)", "(c-lower)", "(c-upper)", "(d)")


def test_only_weyl_states_the_hypotheses():
    # the hypotheses, their labels and their witnesses are written in
    # ``weyl.py`` alone; every other module reads a ``ValidationReport``
    # or calls its fault lists
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        if path.name != "weyl.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith(_HYPOTHESIS_LABELS)
    ]
    assert found == []


def _imports_outside(name, allowed):
    return [
        f"{line}: {target}"
        for line, target, _ in _package_imports(PACKAGE_DIR / name)
        if target not in allowed
    ]


def test_groups_imports_only_the_lattice_and_errors():
    # the group data sit below the functional: the builders state facts
    # the tests check, and need nothing from ``functional`` or above.  Building
    # a datum never loads the hypotheses: only a function body may
    # import ``weyl``, on its first call
    found = [
        f"{line}: {target}"
        for line, target, at_import in _package_imports(PACKAGE_DIR / "groups.py")
        if target not in (("lattice", "errors") if at_import else ("weyl",))
    ]
    assert found == []


def test_lattice_imports_only_the_errors():
    assert _imports_outside("lattice.py", ("errors",)) == []


def test_weyl_imports_only_the_lattice_and_errors():
    # the hypotheses read a datum but never build one
    assert _imports_outside("weyl.py", ("lattice", "errors")) == []


def test_functional_imports_only_the_lattice_and_errors():
    # the certificate and the sweeps build on the functional, so a
    # context compiles the functional without either of them
    assert _imports_outside("functional.py", ("lattice", "errors")) == []


def test_classify_inverts_no_matrix():
    # the context reads its coordinate rows off the coroots, through
    # ``weyl.coordinate_rows``, and row-reduces nothing
    tree = ast.parse((PACKAGE_DIR / "classify.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "_echelonize" not in imported
    assert "coordinate_rows" in imported


def _record_classes(tree):
    """The classes of a module that are ``_CachedRecord`` or derive from it."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and (
            node.name == "_CachedRecord"
            or any(getattr(base, "id", None) == "_CachedRecord" for base in node.bases)
        ):
            yield node


def test_only_the_record_names_its_cache():
    # every derived fact goes through ``_CachedRecord._cached``: the record
    # constructors create the empty memo, and nothing else reads or writes it
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for cls in _record_classes(tree):
            if cls.name == "_CachedRecord":
                allowed.update(ast.walk(cls))
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                    allowed.update(
                        sub for sub in ast.walk(node)
                        if isinstance(getattr(sub, "ctx", None), ast.Store)
                    )
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if node not in allowed
            and (
                getattr(node, "attr", None) == "_cache"
                or getattr(node, "id", None) == "_cache"
                or (isinstance(node, ast.Constant) and node.value == "_cache")
            )
        ]
    assert found == []


def test_affine_lists_no_weyl_group():
    # orbits are named by invariant keys and the shift bound is a closed
    # form, so ``affine.py`` calls no ``weyl_group()`` and imports nothing
    # from ``weyl``; the W scan is the tests' oracle
    tree = ast.parse((PACKAGE_DIR / "affine.py").read_text())
    assert [node.lineno for node in _calls_named(tree, "weyl_group")] == []
    assert [
        line
        for line, target, _ in _package_imports(PACKAGE_DIR / "affine.py")
        if target == "weyl"
    ] == []
