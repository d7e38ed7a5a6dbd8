"""The package namespace: what each entry point loads, and what each name is.

``import polyweight`` loads only the package and its errors; every other
public name imports its submodule on first access.  The loading checks
run in fresh interpreters, where nothing else has imported a submodule.
"""

import json
import pkgutil
import subprocess
import sys

import pytest

import polyweight


def loaded_after(code):
    """The polyweight modules loaded once ``code`` has run in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport sys, json; print(json.dumps(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'polyweight')))"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_fresh(code):
    """The last stdout line of ``code`` run in a fresh process, as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_only_the_package_and_errors():
    assert loaded_after("import polyweight") == ["polyweight", "polyweight.errors"]


def test_building_a_datum_loads_only_the_builders():
    # construction never loads the hypotheses or the Weyl group; the
    # first validation adds ``weyl`` and nothing else
    code = (
        "import json, sys\n"
        "from polyweight import parse_group_spec\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('polyweight'))\n"
        "data = [parse_group_spec(spec)"
        " for spec in ('gl:3', 'gsp:4', 'go:5', 'go:8', 'levi:2,3')]\n"
        "built = loaded()\n"
        "for datum in data:\n"
        "    datum.validation()\n"
        "print(json.dumps([built, loaded()]))"
    )
    built, validated = run_fresh(code)
    assert built == [
        "polyweight",
        "polyweight.errors",
        "polyweight.groups",
        "polyweight.lattice",
    ]
    assert validated == built + ["polyweight.weyl"]


def test_certifying_loads_no_classification_sweep_or_affine_module():
    code = (
        "from polyweight import check_assumption, parse_group_spec, validate_datum\n"
        "datum = parse_group_spec('gsp:4')\n"
        "assert validate_datum(datum).all_ok\n"
        "assert check_assumption(datum, 3, 1).all_ok"
    )
    assert loaded_after(code) == [
        "polyweight",
        "polyweight.certify",
        "polyweight.errors",
        "polyweight.functional",
        "polyweight.groups",
        "polyweight.lattice",
        "polyweight.weyl",
    ]


def test_the_positivity_sweep_loads_the_certificate_when_it_runs():
    # the sweep's shift oracle is the certificate's, imported on call, so
    # importing the kernels compiles neither the certificate nor the Weyl
    # group
    code = (
        "import json, sys\n"
        "import polyweight._kernels as kernels\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('polyweight'))\n"
        "imported = loaded()\n"
        "from polyweight import ClassificationContext, build_gsp\n"
        "t = ClassificationContext(build_gsp(4), 3, 1).tables()\n"
        "before = loaded()\n"
        "kernels.poly_consistency_sweep(t, 1)\n"
        "print(json.dumps([imported, before, loaded()]))"
    )
    imported, before, swept = run_fresh(code)
    assert imported == [
        "polyweight",
        "polyweight._kernels",
        "polyweight.errors",
        "polyweight.functional",
        "polyweight.lattice",
    ]
    assert swept == sorted(before + ["polyweight.certify"])


def test_a_context_and_its_tables_load_only_what_they_run():
    # the context owns its rows, so neither the certificate nor the
    # sweeps are compiled for a context or its tables
    code = (
        "from polyweight import ClassificationContext, build_gsp\n"
        "ctx = ClassificationContext(build_gsp(4), 3, 1)\n"
        "ctx.tables()"
    )
    assert loaded_after(code) == [
        "polyweight",
        "polyweight.classify",
        "polyweight.errors",
        "polyweight.functional",
        "polyweight.groups",
        "polyweight.lattice",
        "polyweight.weyl",
    ]


def test_only_listing_a_weyl_group_loads_array():
    # ``array`` backs a listed Weyl group and is imported by the listing
    # alone, so building, validating and taking a context never load it
    code = (
        "import json, sys\n"
        "from polyweight import ClassificationContext, parse_group_spec\n"
        "data = [parse_group_spec(spec)"
        " for spec in ('gl:3', 'gsp:4', 'go:5', 'levi:2,3')]\n"
        "for datum in data:\n"
        "    assert datum.validation().all_ok\n"
        "    ClassificationContext(datum, 3, 1)\n"
        "before = 'array' in sys.modules\n"
        "data[0].weyl_group()\n"
        "print(json.dumps([before, 'array' in sys.modules]))"
    )
    assert run_fresh(code) == [False, True]


def test_reading_the_backend_name_loads_only_the_package_and_errors():
    assert loaded_after("import polyweight\npolyweight.kernel_backend_name") == [
        "polyweight",
        "polyweight.errors",
    ]


def test_the_cli_never_loads_the_kernels():
    # ``-X importtime`` lists every module the ``python -m polyweight``
    # child imports, on stderr
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "polyweight",
         "validate", "--group", "gl:3"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["all_ok"] is True
    loaded = {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "polyweight.cli" in loaded
    assert "polyweight._kernels" not in loaded


EAGER_CONSTANTS = {"__version__": "0.1.0", "kernel_backend_name": "pure"}


def test_every_public_name_is_its_defining_modules_own_object():
    # the constants are bound at import; every other name resolves in a
    # fresh process, through the lazy table or from the errors
    code = (
        "import importlib, json, polyweight\n"
        f"constants = {{n: vars(polyweight).get(n) for n in {sorted(EAGER_CONSTANTS)}}}\n"
        "wrong = []\n"
        "for name in polyweight.__all__:\n"
        "    if name in constants:\n"
        "        continue\n"
        "    value = getattr(polyweight, name)\n"
        "    module = polyweight._LAZY.get(name, 'errors')\n"
        "    owner = importlib.import_module('polyweight.' + module)\n"
        "    defined_in = getattr(value, '__module__', owner.__name__)\n"
        "    if value is not getattr(owner, name) or (\n"
        "            defined_in != owner.__name__):\n"
        "        wrong.append(name)\n"
        "print(json.dumps([constants, wrong]))"
    )
    assert run_fresh(code) == [EAGER_CONSTANTS, []]


def test_lazy_table_and_all_agree():
    # a public name is bound at import (the errors and the constants) or
    # listed in the lazy table, never both and never neither
    code = (
        "import json, polyweight\n"
        "bound = [n for n in polyweight.__all__ if n in vars(polyweight)]\n"
        "print(json.dumps([sorted(bound), sorted(polyweight._LAZY),"
        " sorted(polyweight.__all__)]))"
    )
    eager, lazy, public = run_fresh(code)
    assert len(public) == len(set(public))
    assert set(eager).isdisjoint(lazy)
    assert sorted(eager + lazy) == public
    assert set(EAGER_CONSTANTS) <= set(eager)
    # importing a submodule binds its name on the package, so no public
    # name may be a submodule's
    submodules = {m.name for m in pkgutil.iter_modules(polyweight.__path__)}
    assert submodules.isdisjoint(public)


def test_star_import_binds_all_public_names():
    code = (
        "import json\n"
        "namespace = {}\n"
        "exec('from polyweight import *', namespace)\n"
        "import polyweight\n"
        "print(json.dumps([n for n in polyweight.__all__ if n not in namespace]))"
    )
    assert run_fresh(code) == []


def test_dir_lists_the_public_names():
    assert dir(polyweight) == sorted(polyweight.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        polyweight.no_such_name
    with pytest.raises(ImportError):
        from polyweight import no_such_name  # noqa: F401


@pytest.mark.parametrize(
    "first",
    [
        "import polyweight.classify",
        "import importlib; importlib.import_module('polyweight.functional')",
        "import polyweight._kernels",
        "import polyweight.certify",
        "from polyweight.functional import phi_ambient",
        "",
    ],
    ids=["classify", "import-module-functional", "kernels", "certify",
         "from-functional-module", "none"],
)
def test_phi_is_the_function_whatever_was_imported_first(first):
    # the functional's module has its own name, so no submodule binding
    # can shadow the public ``phi`` and the package stays a plain module
    code = (
        first + "\n"
        "import json, sys, types, polyweight\n"
        "import polyweight.functional\n"
        "from polyweight import phi\n"
        "print(json.dumps([polyweight.phi is polyweight.functional.phi,"
        " phi is polyweight.functional.phi,"
        " type(sys.modules['polyweight']) is types.ModuleType]))"
    )
    assert run_fresh(code) == [True, True, True]
