"""Amplitude restoration: discrimination filter plus encoded teleportation.

Damping shrinks the coherent amplitude, so after a syndrome measurement the
qubit is teleported through an asymmetric entangled pair (damped codewords on
one side, full-amplitude code-space words on the other), which restores the
nominal amplitude and returns the qubit to the code space in one step.

The Bell measurement needs orthogonal one-mode states, so each of the two
damped modes first passes a probabilistic filter: writing the codewords in an
orthonormal basis {x, y} as w0 = b0 x + b1 y, w1 = e^{i phi}(b0 x - b1 y)
with b0 >= b1, the success operator A_s = diag(b1/b0, 1) equalizes the two
branches (unambiguous discrimination) and succeeds with probability 1 - |s|,
s the codeword overlap.  The teleportation success probability is assembled
from the norms of the four Bell branches and the four candidate output
qubits; all of them reduce to scalar functions of the damped-space overlap
s_tilde and the code-space overlap s_bar.  The filter's operators and the
assembled Fock state are the oracle's (``fock.teleport_success_assembled``).
"""

from __future__ import annotations

import numpy as np

from .codes import LogicalCoeffs, _cmul, _pair_gram
from .channel import LossClassWeights, _weighted_norm_sq


def teleport_success_from_overlaps(s_tilde, s_bar, c: LogicalCoeffs):
    """Success probability of filter plus Bell measurement.

    P = (1-|s_tilde|)^2 / (4 N_omega N_phi_hat)
        * (N_chi1 N_phi+ + N_chi2 N_phi- + N_chi3 N_psi+ + N_chi4 N_psi-).

    N_phi+- = 1 +- Re(s_tilde^2) and N_psi+- = 1 +- |s_tilde|^2 are the Bell
    pair norms on the damped overlap, N_phi_hat = 1 + Re(s_tilde s_bar) the
    asymmetric resource norm and N_omega the incoming qubit norm.  The four
    output-qubit norms N_chi apply the full-amplitude Gram matrix to the
    coefficient patterns (c0, c1), (c0, -c1), (c1, c0), (-c1, c0).

    Saturated overlaps (|s_tilde| -> 1, e.g. a collapsed amplitude) give a
    vanishing filter success, so the limit value 0 is returned rather than
    an error; a non-finite overlap is a numerical failure (ArithmeticError).

    Overlaps and coefficients may carry a batch shape; each value rounds as
    Python's complex scalars do (real-arithmetic products, hypot, libm pow).
    """
    s_tilde, s_bar = (np.asarray(s, dtype=complex) for s in (s_tilde, s_bar))
    for name, s in (("s_tilde", s_tilde), ("s_bar", s_bar)):
        if not np.all(np.isfinite(s)):
            raise ArithmeticError(f"non-finite overlap {name} = {s[~np.isfinite(s)][0]}")
    c0, c1 = c.values[..., 0], c.values[..., 1]
    patterns = [np.stack(v, axis=-1) for v in [(c0, c1), (c0, -c1), (c1, c0), (-c1, c0)]]
    chi = _weighted_norm_sq(np.stack(patterns, axis=-2), _pair_gram(s_bar)[..., None, :, :])
    tr, ti = s_tilde.real, s_tilde.imag
    mag = np.hypot(tr, ti)
    re_sq = tr * tr - ti * ti
    mag_sq = np.float_power(mag, 2.0)
    bell = (1.0 + re_sq, 1.0 - re_sq, 1.0 + mag_sq, 1.0 - mag_sq)
    n_phi_hat = 1.0 + (tr * s_bar.real - ti * s_bar.imag)
    n_omega = _weighted_norm_sq(c.values, _pair_gram(s_tilde))
    branch_sum = (chi[..., 0] * bell[0] + chi[..., 1] * bell[1]
                  + chi[..., 2] * bell[2] + chi[..., 3] * bell[3])
    saturated = 1.0 - mag <= 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.float_power(1.0 - mag, 2.0) / (4.0 * n_omega * n_phi_hat) * branch_sum
    return np.where(saturated, 0.0, p)[()]


def teleport_success_from_weights(weights: LossClassWeights, q, c: LogicalCoeffs):
    """``teleport_success_from_overlaps`` of a qubit in space q (an array of
    spaces is a last batch axis): s_tilde read off ``damped_grams`` at q, s_bar
    off the code-space ``gram`` at the nominal amplitude."""
    s_bar = weights.gram[(...,) + (None,) * np.ndim(q) + (0, 1)]
    return teleport_success_from_overlaps(weights.damped_grams[..., q, 0, 1], s_bar, c)


def restoration_from_weights(coeffs: LogicalCoeffs, weights: LossClassWeights):
    """One restoration step: mixture-weighted teleportation success, one value
    per batch point.  Sums ptilde_j * P_succ over the d(L+1) branches of the
    incoming mixture, a last batch axis of one call; branch j lives in space
    j mod (L+1) and carries the phase exp(2 pi i j / (2(L+1))) on its second
    logical sector.  Both overlaps come from the mixture weights' Gram
    matrices (``teleport_success_from_weights``)."""
    if weights.gram.shape[-1] != 2:
        raise ValueError("restoration is defined for qubit codes only")
    cycle, spaces = weights.ptilde.shape[-1], weights.damped_grams.shape[-3]
    # Python-int k: a numpy k rounds some phases (k = 5 of cycle 6) differently
    phase = np.array([np.exp(2j * np.pi * k / cycle) for k in range(cycle)])
    a, b = coeffs.values[..., None, 0], coeffs.values[..., None, 1]
    # b * phase as the scalar complex product rounds it
    re, im = _cmul(b.real, b.imag, phase.real, phase.imag)
    phased = LogicalCoeffs(np.stack(np.broadcast_arrays(a, re + 1j * im), axis=-1))
    p = teleport_success_from_weights(weights, np.arange(cycle) % spaces, phased)
    # summed over the branches in order, from +0.0
    return 0.0 + np.add.accumulate(weights.ptilde * p, axis=-1)[..., -1]
