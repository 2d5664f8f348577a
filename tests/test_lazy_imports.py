"""The package and the CLI import lazily.

Each check runs in a fresh interpreter, since this test session has
already imported every module.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jacweight

SRC = Path(__file__).resolve().parents[1] / "src"

# the package's public names, as its eager imports gave them
PUBLIC = """
AverageResult BlockMultiset BudgetExceeded CodeFormatError Cyclotomic
DesignReport LinearCode NonRationalValue RingSpec SparsePolynomial
avg_jacobi avg_joint_jacobi avg_joint_jacobi_value brute_avg_jacobi
brute_avg_joint_jacobi brute_delta code_from_json code_to_json collapse cwe
cwe_genus delta delta_closed field_ring intersection_point intersection_size
is_t_design is_t_homogeneous jacobi joint_cwe joint_jacobi load_code
macwilliams_both macwilliams_first macwilliams_second macwilliams_single
make_ring modular_ring monte_carlo_delta root_of_unity simplify supports
""".split()


def loaded_after(statement):
    """The modules a fresh interpreter holds after running the statement."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        check=True,
    )
    return set(json.loads(proc.stdout))


def test_import_jacweight_loads_no_submodule():
    loaded = loaded_after("import jacweight")
    assert "jacweight" in loaded
    assert {m for m in loaded if m.startswith("jacweight.")} == set()


def test_import_cli_leaves_the_averages_designs_references_and_numpy_out():
    loaded = loaded_after("import jacweight.cli")
    assert "jacweight.cli" in loaded
    lazy = {"jacweight.averages", "jacweight.designs", "jacweight.refvalues", "numpy"}
    assert loaded & lazy == set()


# the modules that dataclasses imports, each a few ms to compile or load
INTROSPECTION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_no_command_imports_dataclasses_or_inspect():
    assert loaded_after("pass") & INTROSPECTION == set()
    assert loaded_after("import jacweight.cli") & INTROSPECTION == set()
    assert loaded_after("import jacweight.averages, jacweight.designs") & INTROSPECTION == set()


def test_every_public_name_and_submodule_resolves_to_its_module():
    for module, names in jacweight.EXPORTS.items():
        defining = importlib.import_module(f"jacweight.{module}")
        for name in names:
            assert getattr(jacweight, name) is getattr(defining, name), name
    assert sorted(jacweight.__all__) == sorted(PUBLIC)
    for module in jacweight.SUBMODULES:
        assert getattr(jacweight, module) is importlib.import_module(f"jacweight.{module}")
    assert set(jacweight.__all__) | set(jacweight.SUBMODULES) <= set(dir(jacweight))


def test_cli_binds_each_lazy_name_to_its_module():
    cli = importlib.import_module("jacweight.cli")
    for module, names in cli.LAZY.items():
        defining = importlib.import_module(module, "jacweight")
        for name in names:
            assert getattr(cli, name) is getattr(defining, name), name


def test_an_unknown_name_is_an_attribute_error():
    for owner in (jacweight, importlib.import_module("jacweight.cli")):
        assert not hasattr(owner, "no_such_name")
