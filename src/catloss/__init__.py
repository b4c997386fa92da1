"""Multi-component cat codes under photon loss.

Closed-form channel behaviour, correctability analysis and a one-way
repeater simulator for rotation-symmetric coherent-state codes.  Importing
the package loads the closed forms only; the truncated Fock-space
brute-force oracle that backs each of them is ``catloss.fock``.
"""

__version__ = "0.1.0"

from .codes import CodeSpec, LogicalCoeffs
from .channel import (ChannelParams, LossClassWeights, class_probabilities, mixture_weights,
                      thinning_weights)
from .qec import FidelityResult, fidelity_bound, fidelity_from_weights
from .restore import restoration_from_weights
from .repeater import ChainColumns, RepeaterConfig, chain_columns, segment_gamma, sweep_config

__all__ = [
    "CodeSpec", "LogicalCoeffs",
    "ChannelParams", "LossClassWeights", "class_probabilities", "mixture_weights",
    "thinning_weights",
    "FidelityResult", "fidelity_bound", "fidelity_from_weights",
    "restoration_from_weights",
    "ChainColumns", "RepeaterConfig", "chain_columns", "segment_gamma", "sweep_config",
]
