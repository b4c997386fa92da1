"""Public surface of the package, and the one module that holds the Fock oracle."""

import ast
from pathlib import Path

import pytest

import catloss
from catloss import fock

from test_codes import FOCK_ORACLES, GAMMA_ORACLES

SRC = Path(catloss.__file__).parent

# the closed-form modules: none of them reaches the oracle
CLOSED_FORMS = ("series", "codes", "channel", "qec", "restore", "repeater")

ALL = {
    "TruncationError", "annihilate", "basis_state", "coherent_state", "default_n_max", "mix",
    "normalized", "parity_phase_apply", "trace_distance", "CodeSpec", "LogicalCoeffs",
    "codeword_coherent", "codeword_fock", "verify_code_equations", "ChannelParams",
    "LossClassWeights", "channel_apply_exact", "class_probabilities",
    "class_probabilities_kraus", "encode", "kraus_apply", "logical_mixture", "mixture_weights",
    "thinning_weights", "FidelityResult", "KLReport", "fidelity_bound", "fidelity_from_weights",
    "kl_check", "FilterParams", "filter_operators", "filter_params", "restoration_from_weights",
    "teleport_success_assembled", "ChainResult", "RepeaterConfig", "segment_gamma",
    "simulate_chains", "sweep",
}


def test_all_names_resolve_once():
    names = catloss.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(catloss, name)]
    assert missing == []


def test_all_names_pinned():
    assert len(ALL) == 39
    assert set(catloss.__all__) == ALL


def _imports(tree):
    """Every module an import statement names, relative ones with their leading dots,
    and every name a ``from`` import binds, as "module:name"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            yield module
            yield from (f"{module}:{alias.name}" for alias in node.names)


@pytest.mark.parametrize("module", CLOSED_FORMS)
def test_closed_forms_import_no_fock(module):
    found = list(_imports(ast.parse((SRC / f"{module}.py").read_text())))
    assert found  # the walk sees the module's own imports
    assert [name for name in found if "fock" in name] == []


# each oracle table is keyed by the name of the function it calls
@pytest.mark.parametrize("name", sorted({*FOCK_ORACLES, *GAMMA_ORACLES, "filter_params",
                                         "filter_operators", "log_factorials", "n_max"}))
def test_oracles_live_in_fock(name):
    assert getattr(fock, name).__module__ == "catloss.fock"
