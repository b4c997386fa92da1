"""State-dependent and worst-case fidelity of the loss-corrected code.

The L+1 branches of the output mixture reached without a cycle phase error
are the correctable ones: the fidelity of an input is their total weight.
The brute-force correctability reports (``fock.kl_check``) are the oracle's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec, LogicalCoeffs
from .channel import ChannelParams, LossClassWeights, thinning_weights

# The balanced qubit inputs (1, 1)/sqrt(2) and (1, -1)/sqrt(2), a read-only batch of two.
BALANCED_PAIR = LogicalCoeffs(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
BALANCED_PAIR.values.flags.writeable = False


@dataclass(frozen=True, eq=False)
class FidelityResult:
    """Worst-case bound over balanced qubit inputs.

    F_plus is the correctable weight for the (1, 1)/sqrt(2) input, F_minus
    the one for (1, -1)/sqrt(2); F_bound is the minimum of the two, per point.
    """

    F_plus: float
    F_minus: float
    F_bound: float


def fidelity_from_weights(weights: LossClassWeights) -> np.ndarray:
    """Input-dependent fidelity: total weight of the L+1 correctable branches
    (those reached without a cycle phase error), one per batch point."""
    return np.sum(weights.ptilde[..., : weights.damped_grams.shape[-3]], axis=-1)[()]


def fidelity_bound(spec: CodeSpec, params: ChannelParams) -> FidelityResult:
    """Worst-case fidelity for qubit codes, over every complex logical input.

    Through the class sums (``thinning_weights``) the fidelity of an input c is
    a ratio of two positive linear forms in the |c_hat_s|^2 (c_hat the d-point
    DFT of c), so its minimum over every complex input lies where one c_hat_s
    alone is nonzero: at a Fourier input, which for d = 2 is (1, +-1)/sqrt(2).
    The bound is the minimum over the two inputs of ``BALANCED_PAIR``, in one
    call.  Each is F = A/(A + B), A the weight of the L+1 correctable classes
    and B that of the rest, so F lies in [0, 1].
    """
    if spec.d != 2:
        raise ValueError("the worst-case bound is defined for qubit codes only")
    shape = (2,) + (1,) * np.broadcast(spec.alpha, params.gamma).ndim + (2,)  # inputs, points, d
    ptilde = thinning_weights(spec, LogicalCoeffs(BALANCED_PAIR.values.reshape(shape)), params)
    correctable = ptilde[..., : spec.spaces].sum(axis=-1)
    f_plus, f_minus = correctable / (correctable + ptilde[..., spec.spaces:].sum(axis=-1))
    return FidelityResult(F_plus=f_plus, F_minus=f_minus, F_bound=np.minimum(f_plus, f_minus))
