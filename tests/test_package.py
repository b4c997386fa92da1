"""Public surface of the package, and the one module that holds the Fock oracle."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catloss
from catloss import fock

from test_codes import FOCK_ORACLES, GAMMA_ORACLES

SRC = Path(catloss.__file__).parent

# the closed-form modules: none of them reaches the oracle
CLOSED_FORMS = ("series", "codes", "channel", "qec", "restore", "repeater")

# the closed forms only; the oracle's names are reached as catloss.fock.X
ALL = {
    "CodeSpec", "LogicalCoeffs", "ChannelParams", "LossClassWeights", "class_probabilities",
    "mixture_weights", "thinning_weights", "FidelityResult", "fidelity_bound",
    "fidelity_from_weights", "restoration_from_weights", "ChainResult", "RepeaterConfig",
    "segment_gamma", "simulate_chains", "sweep",
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
# catloss.fock is loaded after importing cli and after each argv.
_FOCK_LOADED = """
import contextlib, io, json, sys
from catloss import cli
loaded = ["catloss.fock" in sys.modules]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    loaded.append("catloss.fock" in sys.modules)
print(json.dumps(loaded))
"""


def _fock_loaded(argvs):
    # a fresh interpreter: this session has imported fock already
    proc = subprocess.run([sys.executable, "-c", _FOCK_LOADED, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_only_the_oracle_commands_load_fock():
    chain = ["--L", "1", "--alpha", "2", "--total-km", "1"]
    closed_forms = [
        ["weights", "--L", "1", "--alpha", "2", "--gamma-steps", "3"],
        ["fidelity", "--L", "1", "--alpha", "2", "--gamma-steps", "3"],
        ["repeater", *chain],
        ["repeater", *chain, "--trace"],
        ["sweep", *chain, "--axis", "alpha", "--values", "2,3"],
        ["tables", "--which", "I", "--total-km", "10"],
    ]
    kl_report = ["kl-report", "--L", "1", "--alphas", "2"]
    assert _fock_loaded([*closed_forms, kl_report]) == [False] * 7 + [True]
    assert _fock_loaded([["verify"]]) == [False, True]
