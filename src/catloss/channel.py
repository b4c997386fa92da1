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
agreement to 1e-8 in trace distance.  ``thinning_weights`` gives the same
weights from ``series.class_sums`` alone, with no Gram matrix and accurate in
relative terms; ``weights`` reads it, the chain commands ``mixture_weights``.

The closed forms take batches: ``CodeSpec.alpha``, ``ChannelParams.gamma``
and the logical coefficients may carry batch shapes, and the results lead
with their broadcast shape; a single point is the batch of shape ().
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import fock
from .codes import CodeSpec, LogicalCoeffs, codeword_fock, codeword_norm_sq, gram_matrix
from .series import class_sums, log_factorials, sectioned_exp

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


def _kraus_factors(n_max: int, gamma: float, k, log_fact: np.ndarray) -> np.ndarray:
    """f[n] with A_k|n+k> = f[n]|n>, each a binomial amplitude <= 1, n = 0..n_max-k;
    for a column of loss counts k, rows f[k, n] over n = 0..n_max, 0 past n_max-k."""
    if np.ndim(gamma):
        raise ValueError(f"the Fock oracles take one gamma, got shape {np.shape(gamma)}")
    n = np.arange(n_max + 1 - np.min(k))
    inside = n + k <= n_max
    if gamma == 1.0:
        return (inside & (k == 0)).astype(float)
    log_f = 0.5 * (
        log_fact[np.minimum(n + k, n_max)] - log_fact[n] - log_fact[k]
        + n * np.log(gamma)
        + k * np.log1p(-gamma)
    )
    return np.exp(np.where(inside, log_f, -np.inf))


def kraus_apply(state: np.ndarray, params: ChannelParams, k: int) -> np.ndarray:
    """Unnormalized A_k |psi>; its squared norm is the k-photon loss probability."""
    n_max = len(state) - 1
    if k < 0 or k > n_max:
        raise ValueError(f"k={k} outside 0..{n_max}")
    f = _kraus_factors(n_max, params.gamma, k, log_factorials(n_max))
    return np.concatenate([f * state[k:], np.zeros(k, dtype=complex)])


def channel_apply_exact(rho: np.ndarray, params: ChannelParams) -> np.ndarray:
    """sum_k A_k rho A_k^dagger over k = 0..K, with K the first loss count whose
    cumulative captured probability leaves less than 1e-12 of the trace (hard
    cap at n_max).  Every Kraus factor comes from one array pass; the blocks
    are added one k at a time."""
    trace_in = float(np.trace(rho).real)
    if abs(trace_in - 1.0) > 1e-10:
        raise ValueError(f"input must have unit trace, got {trace_in}")
    n_max, k = len(rho) - 1, np.arange(len(rho))[:, None]
    f = _kraus_factors(n_max, params.gamma, k, log_factorials(n_max))  # rows k, columns n = k.T
    # ||A_k rho A_k^dagger||_tr = sum_n f[k, n]^2 rho[n + k, n + k], 0 past n_max - k
    captured = np.cumsum(np.sum(f * f * rho.diagonal().real[np.minimum(k + k.T, n_max)], axis=1))
    # The k <= n_max operators are complete on the truncated space, so the
    # captured probability reaches trace_in up to roundoff.
    done = captured > trace_in - KRAUS_RESIDUAL
    if not done.any():
        raise fock.TruncationError(
            f"only {captured[-1]} of the probability captured by k <= {n_max}"
        )
    out = np.zeros_like(rho, dtype=complex)
    for i in range(int(np.argmax(done)) + 1):
        fi = f[i, : n_max + 1 - i]
        out[: n_max + 1 - i, : n_max + 1 - i] += np.outer(fi, fi) * rho[i:, i:]
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
    """Brute-force route for ``class_probabilities``: the squared norms
    ||A_k w||^2 = sum_n f_k[n]^2 |w[n+k]|^2 of a codeword, for every k in one
    array pass, summed by k modulo the cycle."""
    word = codeword_fock(spec, 0, 0)
    n_max, k = len(word) - 1, np.arange(len(word))[:, None]
    f = _kraus_factors(n_max, params.gamma, k, log_factorials(n_max))  # rows k, columns n = k.T
    norms = np.sum((f * np.abs(word)[np.minimum(k + k.T, n_max)]) ** 2, axis=1)
    return np.bincount(k[:, 0] % spec.cycle, weights=norms, minlength=spec.cycle)


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


def thinning_weights(spec: CodeSpec, coeffs: LogicalCoeffs, params: ChannelParams) -> np.ndarray:
    """The weights ptilde of the output mixture (the ``ptilde`` of ``mixture_weights``)
    as the binomial thinning of the input's photon numbers, with no Gram matrix.

    The input holds photon numbers n = (L+1) l with weight |c_hat_{l mod d}|^2 x^n/n!
    (x = alpha^2, c_hat_s = sum_k c_k e^{2 pi i k s/d}); of them k ~ Binomial(n, 1-gamma)
    are lost, so with A = ``class_sums``((1-gamma) x) and B = ``class_sums``(gamma x)

        ptilde_j  propto  A_j sum_s |c_hat_s|^2 B_{(s(L+1) - j) mod d(L+1)},

    normalized by its own total.  Every weight is a ratio of sums of nonnegative
    terms, accurate in relative terms however small; a batch has its points' bits.
    """
    if coeffs.d != spec.d:
        raise ValueError(f"coefficient count {coeffs.d} != logical dimension {spec.d}")
    alpha = np.asarray(spec.alpha, dtype=float)
    gamma = np.asarray(params.gamma, dtype=float)
    with np.errstate(over="ignore"):  # reported below
        x = alpha * alpha
    if not np.all(np.isfinite(x)):
        raise ArithmeticError(f"alpha**2 overflows at alpha={alpha[~np.isfinite(x)].flat[0]}")
    lost, kept = class_sums(np.stack(np.broadcast_arrays((1.0 - gamma) * x, gamma * x)),
                            spec.cycle)
    # |c_hat_s|^2 in real arithmetic, k along the last axis: a complex product may fuse
    s = np.arange(spec.d)
    angle = 2 * np.pi / spec.d * s[:, None] * s  # (s, k)
    cos, sin = np.cos(angle), np.sin(angle)
    c = coeffs.values[..., None, :]
    re = (c.real * cos - c.imag * sin).sum(axis=-1)
    im = (c.real * sin + c.imag * cos).sum(axis=-1)
    c_hat_sq = re * re + im * im
    j = np.arange(spec.cycle)[:, None]
    kept = kept[..., (s * spec.spaces - j) % spec.cycle]  # (..., j, s)
    w = lost * (kept * c_hat_sq[..., None, :]).sum(axis=-1)
    return w / w.sum(axis=-1, keepdims=True)


def _superpose(words: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Normalized sum_k coeffs[..., k] words[..., k, :], every state of the
    broadcast batch in one product."""
    return fock.normalized(np.matmul(coeffs[..., None, :], words)[..., 0, :])


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
    words = codeword_fock(spec, np.arange(spec.d), np.arange(spec.spaces)[:, None], amp)
    # class j = s * spaces + q on axes (s, q), so space q's words broadcast over s
    j = np.arange(spec.cycle).reshape(spec.d, spec.spaces, 1)
    states = _superpose(words, coeffs.values * _sector_phases(spec, j))
    return list(zip(ptilde.tolist(), states.reshape(spec.cycle, -1)))


def encode(spec: CodeSpec, coeffs: LogicalCoeffs) -> np.ndarray:
    """Normalized logical state sum_k c_k |w_{k,0}> in the code space."""
    if coeffs.d != spec.d:
        raise ValueError(f"coefficient count {coeffs.d} != logical dimension {spec.d}")
    return _superpose(codeword_fock(spec, np.arange(spec.d), 0), coeffs.values)
