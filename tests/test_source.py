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


def test_phi_does_not_import_the_kernels():
    # the sweeps build on the scalar functional, never the other way round
    found = []
    for node in ast.walk(ast.parse((PACKAGE_DIR / "phi.py").read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        if any("_kernels" in name.split(".") for name in names):
            found.append(node.lineno)
    assert found == []


def _kernels_imports(node, function=None):
    """(enclosing function, line) of each import under ``node`` naming ``_kernels``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            names = [f"{child.module or ''}.{alias.name}" for alias in child.names]
        else:
            names = []
        if any("_kernels" in name.split(".") for name in names):
            yield function, child.lineno
        functions = (ast.FunctionDef, ast.AsyncFunctionDef)
        inner = child.name if isinstance(child, functions) else function
        yield from _kernels_imports(child, inner)


def test_only_the_context_tables_import_the_kernels():
    # the package namespace and the CLI never compile the sweeps: the one
    # import of ``_kernels`` is inside ``ClassificationContext.tables()``
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{line} in {function}"
            for function, line in _kernels_imports(tree)
            if (path.name, function) != ("classify.py", "tables")
        ]
    assert found == []
    assert not any(
        target.partition(":")[0] == "_kernels"
        for target in polyweight._LAZY.values()
    )


def test_only_the_kernels_build_tables():
    # ``_kernels.tables_for`` is the one place the sweep tables are made
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        if path.name == "_kernels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None
            )
            if name == "Tables":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_groups_imports_only_the_lattice_and_errors():
    # the group data sit below the functional: the builders state facts
    # the tests check, and need nothing from ``phi`` or above
    found = []
    for node in ast.walk(ast.parse((PACKAGE_DIR / "groups.py").read_text())):
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
        found += [
            f"{node.lineno}: {target}"
            for target in targets
            if target.split(".")[0] not in ("lattice", "errors")
        ]
    assert found == []
