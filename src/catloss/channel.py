"""Photon-loss (amplitude-damping) channel, two independent ways.

Exact route: Kraus evolution on the truncated density matrix, with
A_k = sqrt((1-gamma)^k / k!) * sqrt(gamma)^n_hat * a^k removing exactly k
photons.  This is the brute-force oracle.

Closed-form route: an encoded logical state leaves the channel as a mixture
of exactly d(L+1) components, one per loss count modulo the code cycle.
Component j lives in space q = j mod (L+1) at the damped amplitude
sqrt(gamma) * alpha, carries the fixed sector phases exp(2 pi i j k / (d(L+1)))
on logical sector k, and has weight

    ptilde_j = p_j * N_j(damped) / N(input),

where p_j is the loss-class probability

    p_j = S_{d(L+1), j}((1-gamma) alpha^2) * Nq_j(gamma alpha^2) / N0(alpha^2)

built from sectioned exponentials S and sectioned codeword norms Nq, and the
N_j / N ratio renormalizes for the input-dependent codeword overlaps.  The
two routes agree to machine precision; the oracle-equivalence tests enforce
agreement to 1e-8 in trace distance.

The closed forms take batches: ``CodeSpec.alpha``, ``ChannelParams.gamma``
and the logical coefficients may carry batch shapes, and the results lead
with their broadcast shape; a single point is the batch of shape ().
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import reduce
from operator import add, mul

import numpy as np

from . import fock
from .codes import CodeSpec, LogicalCoeffs, codeword_fock, codeword_norm_sq, gram_matrix
from .series import log_factorials, sectioned_exp

# Residual probability left unsummed by the exact Kraus evolution.
KRAUS_RESIDUAL = 1e-12


@dataclass(frozen=True, eq=False)
class ChannelParams:
    """Transmission gamma in (0, 1], or an array of them for a batch; the
    per-photon loss probability is 1-gamma."""

    gamma: float

    def __post_init__(self):
        gamma = np.asarray(self.gamma)
        if not np.all((gamma > 0.0) & (gamma <= 1.0)):
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")


@dataclass(frozen=True, eq=False)
class LossClassWeights:
    """Input-dependent weights ptilde (ending in the d(L+1) classes) and the
    Gram matrices they are built from, each behind the batch shape of its
    inputs; the loss-class probabilities p are ``class_probabilities``.

    ``gram`` holds the code-space overlaps at the input amplitude (its
    [..., 0, 1] entry is the s_bar of amplitude restoration);
    ``damped_grams[..., q, :, :]`` those of space q at the damped amplitude
    sqrt(gamma) * alpha (its [..., q, 0, 1] entry is s_tilde_q).
    """

    ptilde: np.ndarray
    gram: np.ndarray
    damped_grams: np.ndarray

    def __getitem__(self, index) -> "LossClassWeights":
        """The weights of the batch points that ``index`` selects."""
        return LossClassWeights(*(getattr(self, f.name)[index] for f in fields(self)))


def _kraus_factors(n_max: int, gamma: float, k: int, log_fact: np.ndarray) -> np.ndarray:
    """f[n] with A_k|n+k> = f[n]|n>; each factor is a binomial amplitude <= 1."""
    n = np.arange(n_max + 1 - k, dtype=float)
    if gamma == 1.0:
        return np.ones(n_max + 1 - k) if k == 0 else np.zeros(n_max + 1 - k)
    log_f = 0.5 * (
        log_fact[k:] - log_fact[: n_max + 1 - k] - log_fact[k]
        + n * np.log(gamma)
        + k * np.log1p(-gamma)
    )
    return np.exp(log_f)


def kraus_apply(state: np.ndarray, params: ChannelParams, k: int) -> np.ndarray:
    """Unnormalized A_k |psi>; its squared norm is the k-photon loss probability."""
    n_max = len(state) - 1
    if k < 0 or k > n_max:
        raise ValueError(f"k={k} outside 0..{n_max}")
    f = _kraus_factors(n_max, params.gamma, k, log_factorials(n_max))
    return np.concatenate([f * state[k:], np.zeros(k, dtype=complex)])


def channel_apply_exact(rho: np.ndarray, params: ChannelParams) -> np.ndarray:
    """sum_k A_k rho A_k^dagger, summed until the residual probability
    drops below 1e-12 (hard cap at n_max)."""
    trace_in = float(np.trace(rho).real)
    if abs(trace_in - 1.0) > 1e-10:
        raise ValueError(f"input must have unit trace, got {trace_in}")
    n_max = len(rho) - 1
    log_fact = log_factorials(n_max)
    out = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    captured = 0.0
    # The k <= n_max operators are complete on the truncated space, so the
    # captured probability reaches trace_in up to roundoff.
    for k in range(n_max + 1):
        f = _kraus_factors(n_max, params.gamma, k, log_fact)
        block = np.outer(f, f) * rho[k:, k:]
        out[: n_max + 1 - k, : n_max + 1 - k] += block
        captured += float(np.trace(block).real)
        if captured > trace_in - KRAUS_RESIDUAL:
            break
    else:
        raise fock.TruncationError(
            f"only {captured} of the probability captured by k <= {n_max}"
        )
    return out


def class_probabilities(spec: CodeSpec, params: ChannelParams) -> np.ndarray:
    """Loss-class probabilities p_j, j = 0..d(L+1)-1, for a single codeword:
    the probability that the photon loss count is j modulo the code cycle.

    Independent of the logical index (the codeword norms in each space do
    not depend on it), and reduces to the cos/cosh and sin/sinh forms for
    the one-loss qubit code.
    """
    alpha = np.asarray(spec.alpha, dtype=float)
    gamma = np.asarray(params.gamma, dtype=float)
    # the square as libm pow rounds it, like a float's ** 2
    x = (1.0 - gamma) * np.float_power(alpha, 2.0)
    norm0 = codeword_norm_sq(spec, 0)
    damped = codeword_norm_sq(spec, range(spec.spaces), np.sqrt(gamma) * alpha)
    classes = np.arange(spec.cycle)
    sections = sectioned_exp(x, spec.cycle, classes)
    return sections * damped[..., classes % spec.spaces] / norm0[..., None]


def class_probabilities_kraus(spec: CodeSpec, params: ChannelParams) -> np.ndarray:
    """Brute-force route for ``class_probabilities``: sum the squared norms
    ||A_k w||^2 of a codeword grouped by k modulo the cycle."""
    word = codeword_fock(spec, 0, 0)
    p = np.zeros(spec.cycle)
    for k in range(len(word)):
        p[k % spec.cycle] += float(np.linalg.norm(kraus_apply(word, params, k))) ** 2
    return p


def _sector_phases(spec: CodeSpec, j: int) -> np.ndarray:
    return np.exp(2j * np.pi * j * np.arange(spec.d) / spec.cycle)


def _weighted_norm_sq(coeffs: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Re(c^dagger G c) over the leading batch axes of c (..., d) and G
    (..., d, d): stacked matmuls make the same small BLAS calls as one point."""
    row = np.matmul(coeffs.conj()[..., None, :], gram)
    return np.matmul(row, coeffs[..., :, None])[..., 0, 0].real


def mixture_weights(
    spec: CodeSpec,
    coeffs: LogicalCoeffs,
    params: ChannelParams,
) -> LossClassWeights:
    """The weights ptilde of the output mixture.

    ptilde_j scales the loss-class probability p_j by the ratio of the
    branch-j damped logical norm to the input logical norm, both assembled
    from codeword Gram matrices; the ptilde sum to one exactly (trace
    preservation).
    """
    if coeffs.d != spec.d:
        raise ValueError(f"coefficient count {coeffs.d} != logical dimension {spec.d}")
    p = class_probabilities(spec, params)
    c = coeffs.values
    damped_amp = np.sqrt(params.gamma) * np.asarray(spec.alpha, dtype=float)
    gram = gram_matrix(spec, 0)
    input_norm = _weighted_norm_sq(c, gram)
    grams = gram_matrix(spec, range(spec.spaces), damped_amp)
    # class j = s * spaces + q on axes (s, q), so space q's Gram broadcasts over s
    j = np.arange(spec.cycle).reshape(spec.d, spec.spaces, 1)
    branch_norms = _weighted_norm_sq(c[..., None, None, :] * _sector_phases(spec, j),
                                     grams[..., None, :, :, :])
    ptilde = p * branch_norms.reshape(*branch_norms.shape[:-2], spec.cycle) / input_norm[..., None]
    return LossClassWeights(ptilde=ptilde, gram=gram, damped_grams=grams)


def _superpose(words, coeffs) -> np.ndarray:
    """Normalized sum_k words[k] * coeffs[k], the terms added in k order."""
    return fock.normalized(reduce(add, map(mul, words, coeffs)))


def logical_mixture(
    spec: CodeSpec,
    coeffs: LogicalCoeffs,
    params: ChannelParams,
) -> list[tuple[float, np.ndarray]]:
    """The d(L+1)-component output mixture of an encoded logical state, as the
    (weight, state) pairs of ``fock.mix`` in loss-class order: entry j lives
    in space j mod (L+1) at the damped amplitude, has run through j // (L+1)
    full space cycles (for qubits: 0 on the phase-intact branches, 1 on the
    phase-flipped ones) and carries the phase exp(2 pi i j k / (d(L+1))) on
    logical sector k."""
    ptilde = mixture_weights(spec, coeffs, params).ptilde
    amp = np.sqrt(params.gamma) * spec.alpha
    words = [[codeword_fock(spec, k, q, amp) for k in range(spec.d)] for q in range(spec.spaces)]
    # c_k * phase_k as scalar products: the vectorized complex multiply may round differently
    return [
        (w, _superpose(words[j % spec.spaces], map(mul, coeffs.values, _sector_phases(spec, j))))
        for j, w in enumerate(ptilde.tolist())
    ]


def encode(spec: CodeSpec, coeffs: LogicalCoeffs) -> np.ndarray:
    """Normalized logical state sum_k c_k |w_{k,0}> in the code space."""
    if coeffs.d != spec.d:
        raise ValueError(f"coefficient count {coeffs.d} != logical dimension {spec.d}")
    return _superpose([codeword_fock(spec, k, 0) for k in range(spec.d)], coeffs.values)
