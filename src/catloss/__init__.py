"""Multi-component cat codes under photon loss.

Closed-form channel behaviour, correctability analysis and a one-way
repeater simulator for rotation-symmetric coherent-state codes, with every
closed form backed by the truncated Fock-space brute-force oracle of ``fock``.
"""

__version__ = "0.1.0"

from .codes import CodeSpec, LogicalCoeffs
from .channel import (ChannelParams, LossClassWeights, class_probabilities, mixture_weights,
                      thinning_weights)
from .qec import FidelityResult, fidelity_bound, fidelity_from_weights
from .restore import restoration_from_weights
from .repeater import ChainResult, RepeaterConfig, segment_gamma, simulate_chains, sweep
from .fock import (
    TruncationError,
    annihilate,
    basis_state,
    coherent_state,
    default_n_max,
    mix,
    normalized,
    parity_phase_apply,
    trace_distance,
    codeword_coherent,
    codeword_fock,
    verify_code_equations,
    channel_apply_exact,
    class_probabilities_kraus,
    encode,
    kraus_apply,
    logical_mixture,
    KLReport,
    kl_check,
    FilterParams,
    filter_operators,
    filter_params,
    teleport_success_assembled,
)

__all__ = [
    "TruncationError", "annihilate", "basis_state", "coherent_state",
    "default_n_max", "mix", "normalized", "parity_phase_apply", "trace_distance",
    "CodeSpec", "LogicalCoeffs", "codeword_coherent",
    "codeword_fock", "verify_code_equations",
    "ChannelParams", "LossClassWeights",
    "channel_apply_exact", "class_probabilities", "class_probabilities_kraus",
    "encode", "kraus_apply", "logical_mixture", "mixture_weights", "thinning_weights",
    "FidelityResult", "KLReport", "fidelity_bound", "fidelity_from_weights",
    "kl_check",
    "FilterParams", "filter_operators", "filter_params",
    "restoration_from_weights", "teleport_success_assembled",
    "ChainResult", "RepeaterConfig", "segment_gamma",
    "simulate_chains", "sweep",
]
