"""Photon-loss (amplitude-damping) channel in closed form.

An encoded logical state leaves the channel as a mixture of exactly d(L+1)
components, one per loss count modulo the code cycle.  Component j lives in
space q = j mod (L+1) at the damped amplitude sqrt(gamma) * alpha, carries
the fixed sector phases exp(2 pi i j k / (d(L+1))) on logical sector k, and
has weight

    ptilde_j = p_j * N_j(damped) / N(input),

where p_j is the loss-class probability

    p_j = S_{d(L+1), j}((1-gamma) alpha^2) * Nq_j(gamma alpha^2) / N0(alpha^2)

built from sectioned exponentials S and sectioned codeword norms Nq, and the
N_j / N ratio renormalizes for the input-dependent codeword overlaps.
``thinning_weights`` gives the same weights from ``series.class_sums`` alone,
with no Gram matrix and accurate in relative terms; ``weights`` and ``fidelity``
read it, the chain commands ``mixture_weights``.

The closed forms take batches: ``CodeSpec.alpha``, ``ChannelParams.gamma``
and the logical coefficients may carry batch shapes, and the results lead
with their broadcast shape; a single point is the batch of shape ().
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .codes import CodeSpec, LogicalCoeffs, codeword_norm_sq, gram_matrix
from .series import class_sums, sectioned_exp


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


def _input_and_damped(kernel, spec: CodeSpec, params: ChannelParams):
    """One ``kernel(spec, range(L + 1), amplitudes)`` call over the input amplitudes
    alpha, then the damped ones sqrt(gamma) * alpha, each flat and in that order (not
    sorted, so a kernel's error names the first bad amplitude in this order): space 0
    at the input amplitudes in alpha's shape, and every space at the damped ones in
    the batch shape."""
    alpha = np.asarray(spec.alpha, dtype=float)
    damped = np.sqrt(np.asarray(params.gamma, dtype=float)) * alpha
    values = kernel(spec, range(spec.spaces), np.concatenate([alpha.ravel(), damped.ravel()]))
    return (values[: alpha.size, 0].reshape(alpha.shape + values.shape[2:]),
            values[alpha.size :].reshape(damped.shape + values.shape[1:]))


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
    norm0, damped = _input_and_damped(codeword_norm_sq, spec, params)
    classes = np.arange(spec.cycle)
    sections = sectioned_exp(x, spec.cycle, classes)
    return sections * damped[..., classes % spec.spaces] / norm0[..., None]


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
    gram, grams = _input_and_damped(gram_matrix, spec, params)
    input_norm = _weighted_norm_sq(c, gram)
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
