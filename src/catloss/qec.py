"""Correctability analysis: orthogonality and non-deformation of corrupted
codewords, and the state-dependent / worst-case fidelity.

The error model is the photon-annihilation ladder E_i = a^i.  A code is
exactly correctable for a pair (E_i, E_j) when corrupted codewords stay
orthogonal across logical indices and their norms do not depend on the
logical index; for these codes both conditions hold only approximately at
finite amplitude, and the reports below quantify the violations.

The computational basis (non-orthogonal codewords, "Z") is deformation-free
for every loss count; the orthogonal plus/minus basis ("X", qubits only)
keeps orthogonality but deforms under odd-cycle losses.  That trade is why
the channel analysis is carried out in the Z basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fock
from .codes import SMALL_ALPHA, CodeSpec, LogicalCoeffs, codeword_fock
from .channel import ChannelParams, LossClassWeights, mixture_weights

# The balanced qubit inputs (1, 1)/sqrt(2) and (1, -1)/sqrt(2), a read-only batch of two.
BALANCED_PAIR = LogicalCoeffs(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
BALANCED_PAIR.values.flags.writeable = False


@dataclass(frozen=True, eq=False)
class KLReport:
    """Gram matrix of corrupted codewords for one error pair.

    gram[k, l] = <c_k| E_i^dagger E_j |c_l> over normalized codewords;
    ortho_violation is the largest off-diagonal magnitude and
    deform_violation the largest relative spread among the diagonals.
    """

    gram: np.ndarray
    ortho_violation: float
    deform_violation: float


@dataclass(frozen=True, eq=False)
class FidelityResult:
    """Worst-case bound over balanced qubit inputs.

    F_plus is the correctable weight for the (1, 1)/sqrt(2) input, F_minus
    the one for (1, -1)/sqrt(2); F_bound is the minimum of the two, per point.
    """

    F_plus: float
    F_minus: float
    F_bound: float


def _code_basis(spec: CodeSpec, basis: str):
    words = list(codeword_fock(spec, np.arange(spec.d), 0))
    if basis == "Z":
        return words
    if basis == "X":
        if spec.d != 2:
            raise ValueError("X basis is defined for qubit codes only")
        minus = words[0] - words[1]
        if np.linalg.norm(minus) == 0.0:
            raise ValueError(f"X basis at alpha={spec.alpha}: the two codewords are collinear"
                             f" (alpha far below SMALL_ALPHA={SMALL_ALPHA})")
        return [fock.normalized(words[0] + words[1]), fock.normalized(minus)]
    raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")


def kl_check(spec: CodeSpec, basis: str, error_i, error_j):
    """Evaluate both correctability conditions for the pair (a^i, a^j); loss
    counts given as sequences give a list of reports, one per broadcast pair.
    The basis is built once, and a^i w lowered from a^(i-1) w by one step."""
    counts = np.broadcast_arrays(error_i, error_j)
    if any((c.size and c.dtype.kind not in "iu") or np.any(c < 0) for c in counts):
        raise ValueError("loss counts must be nonnegative integers")
    pairs = list(zip(*(c.ravel().tolist() for c in counts)))
    ladder = [_code_basis(spec, basis)]
    top, n_max = max(map(max, pairs), default=0), len(ladder[0][0]) - 1
    if top > n_max:
        raise ValueError(f"loss count {top} exceeds the Fock cutoff n_max={n_max}"
                         f" at alpha={spec.alpha}")
    while len(ladder) <= top:
        ladder.append([fock.annihilate(w, 1) for w in ladder[-1]])
    reports = []
    for i, j in pairs:
        gram = np.array([[np.vdot(u, v) for v in ladder[j]] for u in ladder[i]])
        off = abs(gram - np.diag(np.diag(gram)))
        diag = gram.diagonal().real
        scale = float(np.max(np.abs(diag)))
        spread = float(diag.max() - diag.min()) / scale if scale > 0 else 0.0
        reports.append(KLReport(gram, ortho_violation=float(off.max()), deform_violation=spread))
    return reports if counts[0].ndim else reports[0]


def fidelity_from_weights(weights: LossClassWeights) -> np.ndarray:
    """Input-dependent fidelity: total weight of the L+1 correctable branches
    (those reached without a cycle phase error), one per batch point."""
    return np.sum(weights.ptilde[..., : weights.damped_grams.shape[-3]], axis=-1)[()]


def fidelity_bound(spec: CodeSpec, params: ChannelParams) -> FidelityResult:
    """Lower bound on the worst-case fidelity for qubit codes.

    Restricted to real logical coefficients the state-dependent fidelity is
    extremal at the balanced inputs, so the bound is the minimum over the
    two sign choices (1, +-1)/sqrt(2) of ``BALANCED_PAIR``, in one call.
    """
    if spec.d != 2:
        raise ValueError("the worst-case bound is defined for qubit codes only")
    shape = (2,) + (1,) * np.broadcast(spec.alpha, params.gamma).ndim + (2,)  # inputs, points, d
    coeffs = LogicalCoeffs(BALANCED_PAIR.values.reshape(shape))
    f_plus, f_minus = fidelity_from_weights(mixture_weights(spec, coeffs, params))
    return FidelityResult(F_plus=f_plus, F_minus=f_minus, F_bound=np.minimum(f_plus, f_minus))
