"""Public surface of the package, the one module that holds the Fock oracle, and the one
that holds the tests' mpmath truths."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import catloss
from catloss import fock

from test_codes import FOCK_ORACLES, GAMMA_ORACLES

SRC = Path(catloss.__file__).parent
TESTS = Path(__file__).parent

# the closed-form modules: none of them reaches the oracle
CLOSED_FORMS = ("series", "codes", "channel", "qec", "restore", "repeater")

# the closed forms only; the oracle's names are reached as catloss.fock.X
ALL = {
    "CodeSpec", "LogicalCoeffs", "ChannelParams", "LossClassWeights", "class_probabilities",
    "mixture_weights", "thinning_weights", "FidelityResult", "fidelity_bound",
    "fidelity_from_weights", "restoration_from_weights", "ChainColumns", "RepeaterConfig",
    "chain_columns", "segment_gamma", "sweep_config",
}


def test_all_names_resolve_once():
    names = catloss.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(catloss, name)]
    assert missing == []


def test_all_names_pinned():
    assert len(ALL) == 16
    assert set(catloss.__all__) == ALL


def _imports(nodes):
    """Every module an import statement among ``nodes`` names, relative ones with their
    leading dots, and every name a ``from`` import binds, as "module:name"."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            yield module
            yield from (f"{module}:{alias.name}" for alias in node.names)


def test_mp_truth_imports_only_mpmath_numpy_and_math():
    # no closed form, test module or test runner: scripts import the truths too
    found = list(_imports(ast.walk(ast.parse((TESTS / "mp_truth.py").read_text()))))
    assert found
    assert {name.partition(":")[0].split(".")[0] for name in found} <= {"mpmath", "numpy", "math"}


def test_mp_truth_imports_outside_pytest():
    # a fresh interpreter with the tests directory alone on its path
    check = ("import sys, mp_truth; print(sorted({'catloss', 'pytest', 'hypothesis'}"
             " & {name.split('.')[0] for name in sys.modules}))")
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": str(TESTS)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_bits_profile_readers_are_named_in_help_and_ci():
    # the --bits-examples help and the ten-times CI steps name every module that reads it
    readers = {f"tests/{path.name}" for path in TESTS.glob("test_*.py")
               if re.search(r"get_profile\(.bits.\)", path.read_text())}
    help_text = (TESTS / "conftest.py").read_text()
    ci = [line for line in (TESTS.parent / ".github/workflows/ci.yml").read_text().splitlines()
          if "--bits-examples" in line]
    assert readers and set(re.findall(r"tests/test_\w+\.py", help_text)) == readers
    assert set(re.findall(r"tests/test_\w+\.py", "\n".join(ci))) == readers


def _run_on_import(node):
    """``node`` and every node under it but the bodies of functions, which run when called."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _run_on_import(child)


# the package itself, and cli's module-level statements: its oracle commands import fock
@pytest.mark.parametrize("module", (*CLOSED_FORMS, "__init__", "cli"))
def test_closed_forms_import_no_fock(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found = list(_imports(_run_on_import(tree) if module == "cli" else ast.walk(tree)))
    assert found  # the walk sees the module's own imports
    assert [name for name in found if "fock" in name] == []


# each oracle table is keyed by the name of the function it calls
@pytest.mark.parametrize("name", sorted({*FOCK_ORACLES, *GAMMA_ORACLES, "filter_params",
                                         "filter_operators", "log_factorials", "n_max"}))
def test_oracles_live_in_fock(name):
    assert getattr(fock, name).__module__ == "catloss.fock"


# Runs argvs through cli.main in one interpreter and prints, as JSON, whether
# the module named second is loaded after importing cli and after each argv.
_LOADED = """
import contextlib, io, json, sys
from catloss import cli
loaded = [sys.argv[2] in sys.modules]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    loaded.append(sys.argv[2] in sys.modules)
print(json.dumps(loaded))
"""


def _loaded(argvs, module="catloss.fock"):
    # a fresh interpreter: this session has imported fock already
    proc = subprocess.run([sys.executable, "-c", _LOADED, json.dumps(argvs), module],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


CHAIN = ["--L", "1", "--alpha", "2", "--total-km", "1"]
CLOSED_FORMS = [
    ["weights", "--L", "1", "--alpha", "2", "--gamma-steps", "3"],
    ["fidelity", "--L", "1", "--alpha", "2", "--gamma-steps", "3"],
    ["repeater", *CHAIN],
    ["repeater", *CHAIN, "--trace"],
    ["sweep", *CHAIN, "--axis", "alpha", "--values", "2,3"],
    ["tables", "--which", "I", "--total-km", "10"],
]


def test_only_the_oracle_commands_load_fock():
    kl_report = ["kl-report", "--L", "1", "--alphas", "2"]
    assert _loaded([*CLOSED_FORMS, kl_report]) == [False] * 7 + [True]
    assert _loaded([["verify"]]) == [False, True]


def test_closed_form_commands_leave_numpy_ma_unloaded():
    # importing numpy.ma adds about 1 MiB of resident memory and 13 ms; np.unique loads
    # it unless asked for indices, so a chain set groups its period lengths by bincount
    assert _loaded(CLOSED_FORMS, "numpy.ma") == [False] * 7
