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
s_tilde and the code-space overlap s_bar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec, LogicalCoeffs, _cmul, _pair_gram, codeword_fock
from .channel import ChannelParams, LossClassWeights, _weighted_norm_sq


@dataclass(frozen=True)
class FilterParams:
    """Decomposition of a nonorthogonal codeword pair with overlap s."""

    b0: float
    b1: float
    phi: float


def filter_params(s: complex) -> FilterParams:
    """Basis weights (b0, b1) and overlap phase for codewords with overlap s;
    |s| must be below 1 (NaN is rejected too)."""
    mag = abs(s)
    if not mag < 1.0:
        raise ValueError(f"|s|={mag} >= 1: collinear codewords cannot be filtered")
    b0 = np.sqrt((1.0 + mag) / 2.0)
    b1 = np.sqrt((1.0 - mag) / 2.0)
    phi = float(np.angle(s)) if s != 0 else 0.0
    return FilterParams(b0=float(b0), b1=float(b1), phi=phi)


def filter_operators(fp: FilterParams) -> tuple[np.ndarray, np.ndarray]:
    """Success/failure operators in the {x, y} basis; together a complete POVM."""
    ratio = fp.b1 / fp.b0
    a_s = np.diag([ratio, 1.0])
    a_f = np.diag([np.sqrt(1.0 - ratio**2), 0.0])
    return a_s, a_f


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


def teleport_success_assembled(
    spec: CodeSpec,
    q: int,
    params: ChannelParams,
    c: LogicalCoeffs,
) -> float:
    """Success probability of restoring a qubit sitting in space q, by brute
    force: assemble the four-branch post-filter state from explicit Fock
    vectors and take its squared norm.  The qubit entered the channel at the
    nominal alpha and now lives at sqrt(gamma) * alpha with coefficients c,
    branch phase gates included; the target is the code space at the nominal
    amplitude.  ``teleport_success_from_overlaps`` is the closed form.

    Every norm entering the branch coefficients is computed from vector inner
    products (two-mode norms via the tensor-product identity), none from the
    sectioned closed forms, and the branches are stacked as a direct sum over
    the orthonormal Bell outcomes.
    """
    if spec.d != 2:
        raise ValueError("teleportation restore is defined for qubit codes only")
    damped = np.sqrt(params.gamma) * spec.alpha
    w0t, w1t = (codeword_fock(spec, k, q, damped) for k in (0, 1))
    w0b, w1b = (codeword_fock(spec, k, 0) for k in (0, 1))
    s_tilde = complex(np.vdot(w0t, w1t))
    s_bar = complex(np.vdot(w0b, w1b))
    b1 = filter_params(s_tilde).b1
    c0, c1 = map(complex, c.values)

    # the states on the left of each scalar product: swapped operands round differently
    n_omega = float(np.linalg.norm(w0t * c0 + w1t * c1)) ** 2
    n_phi_hat = 1.0 + np.real(s_tilde * s_bar)
    bell = [1.0 + np.real(s_tilde**2), 1.0 - np.real(s_tilde**2),
            1.0 + abs(s_tilde) ** 2, 1.0 - abs(s_tilde) ** 2]
    outputs = [
        w0b * c0 + w1b * c1,
        w0b * c0 - w1b * c1,
        w0b * c1 + w1b * c0,
        w0b * -c1 + w1b * c0,
    ]
    stacked = np.concatenate(
        [
            b1**2 * np.sqrt(bell[i]) / np.sqrt(n_omega * n_phi_hat) * outputs[i]
            for i in range(4)
        ]
    )
    return float(np.vdot(stacked, stacked).real)


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
