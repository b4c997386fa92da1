"""Multi-component cat codes under photon loss.

Closed-form channel behaviour, correctability analysis and a one-way
repeater simulator for rotation-symmetric coherent-state codes, with every
closed form backed by a truncated Fock-space brute-force oracle.
"""

__version__ = "0.1.0"

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
)
from .codes import (
    CodeSpec,
    LogicalCoeffs,
    codeword_coherent,
    codeword_fock,
    verify_code_equations,
)
from .channel import (
    ChannelParams,
    LossClassWeights,
    channel_apply_exact,
    class_probabilities,
    class_probabilities_kraus,
    encode,
    kraus_apply,
    logical_mixture,
    mixture_weights,
)
from .qec import (
    FidelityResult,
    KLReport,
    fidelity_bound,
    fidelity_state,
    kl_check,
)
from .restore import (
    FilterParams,
    filter_operators,
    filter_params,
    filter_success,
    restoration_factor,
    teleport_success_assembled,
)
from .repeater import (
    ChainResult,
    RepeaterConfig,
    segment_gamma,
    simulate_chain,
    simulate_chains,
    sweep,
)

__all__ = [
    "TruncationError", "annihilate", "basis_state", "coherent_state",
    "default_n_max", "mix", "normalized", "parity_phase_apply", "trace_distance",
    "CodeSpec", "LogicalCoeffs", "codeword_coherent",
    "codeword_fock", "verify_code_equations",
    "ChannelParams", "LossClassWeights",
    "channel_apply_exact", "class_probabilities", "class_probabilities_kraus",
    "encode", "kraus_apply", "logical_mixture", "mixture_weights",
    "FidelityResult", "KLReport", "fidelity_bound", "fidelity_state",
    "kl_check",
    "FilterParams", "filter_operators", "filter_params", "filter_success",
    "restoration_factor", "teleport_success_assembled",
    "ChainResult", "RepeaterConfig", "segment_gamma",
    "simulate_chain", "simulate_chains", "sweep",
]
