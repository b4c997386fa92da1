"""Rotation-symmetric coherent-superposition codes: parameters, logical
amplitudes, codeword norms and overlaps in closed form.

A code instance is fixed by the correctable loss order L, the logical
dimension d and the coherent amplitude alpha.  Logical sector k of space q
(q = 0 is the code space, q = 1..L the error spaces) is the normalized state

    |w_{k,q}>  propto  sum_{n = -q mod (L+1)}  beta_k^n / sqrt(n!)  |n>,
    beta_k = alpha * exp(2 pi i k / (d (L+1))),

equivalently a superposition of the L+1 coherent states
beta_k * exp(2 pi i j/(L+1)) weighted by the space phases
exp(2 pi i q j/(L+1)).  These are simultaneous eigenstates of the
generalized parity exp(2 pi i n_hat/(L+1)) with eigenvalue exp(2 pi i q/(L+1))
and of a^(L+1) with eigenvalue beta_k^(L+1) = exp(2 pi i k/d) alpha^(L+1).

Sector phases are kept exactly as the eigenvalue equations produce them (for
instance the odd one-loss word of sector 1 leads with a factor i); fixing
global phases would silently rotate overlaps and channel branch phases
downstream.  The words themselves, as Fock series or coherent sums, are the
oracle's (``fock.codeword_fock``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .series import sectioned_exp

# Below this amplitude the codewords are nearly collinear.
SMALL_ALPHA = 0.1

# Smallest norm of raw logical amplitudes whose square is a normal float.
_MIN_NORM = np.sqrt(np.finfo(float).tiny)

# Elements per chunk of points, and per group of terms, of the Gram kernel.
_GRAM_TERMS = 2**13


@dataclass(frozen=True, eq=False)
class CodeSpec:
    """Code parameters: loss order L, logical dimension d, amplitude alpha.

    ``alpha`` may be an array: a batch of codes sharing (L, d), evaluated by
    the closed forms in one call.  The Fock oracles take one amplitude.
    """

    L: int
    d: int
    alpha: float

    def __post_init__(self):
        if self.L < 0:
            raise ValueError(f"loss order must be >= 0, got {self.L}")
        if self.d < 2:
            raise ValueError(f"logical dimension must be >= 2, got {self.d}")
        alpha = np.asarray(self.alpha)
        bad = ~(np.isfinite(alpha) & (alpha > 0))
        if bad.any():  # the first such amplitude of a batch
            raise ValueError(f"alpha must be finite and positive, got {alpha[bad][0]}")
        small = np.count_nonzero(alpha < SMALL_ALPHA)
        if small:  # once per batch, at the caller of the generated __init__
            warnings.warn(
                f"alpha={float(alpha.min())} < {SMALL_ALPHA} at {small} of {alpha.size} "
                "amplitudes: codewords nearly collinear",
                stacklevel=3,
            )

    @property
    def spaces(self) -> int:
        """Number of orthogonal subspaces (code space plus L error spaces)."""
        return self.L + 1

    @property
    def cycle(self) -> int:
        """Loss-count period d(L+1): total coherent components of the code."""
        return self.d * (self.L + 1)


def quiet_spec(L: int, d: int, alpha) -> CodeSpec:
    """A code whose small-amplitude warning is left to the batch that runs it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return CodeSpec(L, d, alpha)


def _codeword_amplitude(spec: CodeSpec, k, q, amplitude):
    """Check every logical index k in [0, d), space index q in [0, L] and the
    amplitudes of codewords (k, q), alpha by default; return the amplitudes."""
    if bad := [x for x in np.ravel(k).tolist() if not 0 <= x < spec.d]:
        raise ValueError(f"logical index k={bad[0]} outside [0, {spec.d})")
    if bad := [x for x in np.ravel(q).tolist() if not 0 <= x <= spec.L]:
        raise ValueError(f"space index q={bad[0]} outside [0, {spec.L}]")
    amp = spec.alpha if amplitude is None else amplitude
    if not (np.isfinite(amp) & (np.asarray(amp) > 0)).all():
        raise ValueError(f"amplitude must be finite and positive, got {amp}")
    return amp


@dataclass(frozen=True, eq=False)
class LogicalCoeffs:
    """Logical amplitudes c_k along the last axis of ``values`` (length d),
    with sum |c_k|^2 = 1; any leading axes are a batch of states."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if not np.all(np.isfinite(values)):
            raise ValueError(f"logical amplitudes must be finite, got {values}")
        total = np.sum(abs(values) ** 2, axis=-1)
        if np.any(abs(total - 1.0) > 1e-12):
            raise ValueError(f"coefficients not normalized: sum |.|^2 = {total}")
        object.__setattr__(self, "values", values)

    @classmethod
    def of(cls, *amplitudes) -> "LogicalCoeffs":
        """Normalize raw amplitudes of any finite size."""
        amps = np.asarray(amplitudes, dtype=complex)
        # an overflowed norm is rescaled below; inf / inf gives NaN, rejected as not finite
        with np.errstate(over="ignore", invalid="ignore"):
            n = np.linalg.norm(amps)
            if not _MIN_NORM <= n < np.inf:  # squares out of the normal range: largest part to 1
                parts = amps.view(float)
                big = np.max(abs(parts))
                if big == 0:
                    raise ValueError("all-zero logical coefficients")
                if big < np.inf:  # real and imaginary parts divided as reals, correctly rounded
                    amps = (parts / big).view(complex)
                    n = np.linalg.norm(amps)
            return cls(amps / n)

    @classmethod
    def balanced(cls, d: int = 2) -> "LogicalCoeffs":
        """The uniform state (1, ..., 1)/sqrt(d)."""
        return cls.of(*([1.0] * d))

    @property
    def d(self) -> int:
        return self.values.shape[-1]


def sector_amplitude(spec: CodeSpec, k: int, amplitude: float | None = None) -> complex:
    """beta_k = amplitude * exp(2 pi i k / (d(L+1)))."""
    amp = spec.alpha if amplitude is None else amplitude
    return amp * np.exp(2j * np.pi * k / spec.cycle)


def support_residue(spec: CodeSpec, q: int) -> int:
    """Photon-number class of space q: n = -q (mod L+1); ``q`` may be an array."""
    return (-q) % spec.spaces


def codeword_norm_sq(spec: CodeSpec, q, amplitude=None):
    """Squared norm of the unnormalized codeword series, sum over its class
    of |amp|^(2n)/n!; independent of the logical index k.  ``q`` is a space
    or a sequence of spaces, which adds a last axis."""
    amp = np.asarray(spec.alpha if amplitude is None else amplitude, dtype=float)
    return sectioned_exp(amp * amp, spec.spaces, support_residue(spec, np.asarray(q)))


def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) in real arithmetic, rounded as the scalar
    complex product is; numpy's vectorized complex multiply may fuse."""
    return ar * br - ai * bi, ar * bi + ai * br


def _coherent_gram(spec: CodeSpec, qs, amps: np.ndarray) -> np.ndarray:
    """Overlaps <w_{k1,q}|w_{k2,q}> of each space q in ``qs`` at the 1-D ``amps``,
    shape (n, len(qs), d, d), from <u|v> = exp(-|u|^2/2 - |v|^2/2 + conj(u) v) of
    the coherent components, added a group of terms (ja, jb) at a time to sums of
    shape (space, pair k1 <= k2, point).  Values round as the scalar oracle's do:
    ``_cmul`` products, hypot and libm pow squares, sums from +0.0 in (ja, jb) order."""
    d, m, terms, spaces = spec.d, spec.spaces, spec.spaces**2, len(qs)
    # np.exp(2j * np.pi * x / n) of the scalar forms: Python rounds 2 pi x / n in floats
    sector = np.exp(1j * (2 * np.pi * np.arange(d)[:, None] / spec.cycle))
    rot = np.exp(1j * (2 * np.pi * np.arange(m)[:, None, None] / m))
    lag = (np.arange(terms) % m - np.arange(terms) // m)[:, None]  # jb - ja
    ph = np.exp(1j * (2 * np.pi * np.asarray(qs) * lag / m))[..., None, None]
    re_p, im_p = ph.real + 0j, ph.imag * 1j  # p e = e Re p + e (i Im p): exact products
    k1, k2 = np.array([(i, j) for i in range(d) for j in range(i, d)]).T  # triu_indices(d)
    u, v = np.s_[:, None, k1], np.s_[None, :, k2]
    chunk = max(1, min(len(amps), _GRAM_TERMS // (terms * len(k1))))
    group = min(terms, max(1, _GRAM_TERMS // (spaces * len(k1) * chunk)))
    rows = np.empty((group + 1, spaces, len(k1), chunk), dtype=complex)  # sums, then terms
    g = np.empty((len(amps), spaces, d, d), dtype=complex)
    for lo in range(0, len(amps), chunk):
        amp, acc = amps[lo : lo + chunk], rows[..., : len(amps[lo : lo + chunk])]
        ur, ui = _cmul(amp * sector.real, amp * sector.imag, rot.real, rot.imag)
        hs = np.float_power(np.hypot(ur, ui), 2.0) / 2  # of the components, shape (m, d, n)
        e = np.empty((m, m, len(k1), len(amp)), dtype=complex)
        e.real, e.imag = map(np.add, (-hs[u] - hs[v], 0.0), _cmul(ur[u], -ui[u], ur[v], ui[v]))
        e, acc[0] = np.exp(e, out=e).reshape(terms, 1, len(k1), -1), 0.0
        for t in range(0, terms, group):
            k = min(group, terms - t)
            np.multiply(e[t : t + k], re_p[t : t + k], out=acc[1 : k + 1])
            acc[1 : k + 1] += e[t : t + k] * im_p[t : t + k]
            acc[0] = np.add.reduce(acc[: k + 1], axis=0)  # an outer axis: row after row
        diag = acc[0].real[:, k1 == k2]
        val = (acc[0] / np.sqrt(diag[:, k1] * diag[:, k2])).transpose(2, 0, 1)
        g[lo : lo + chunk, :, k1, k2], g[lo : lo + chunk, :, k2, k1] = val, np.conj(val)
    g[..., range(d), range(d)] = 1.0
    return g


def _pair_gram(s) -> np.ndarray:
    """[[1, s], [conj(s), 1]] for each overlap s: shape(s) + (2, 2)."""
    s = np.asarray(s, dtype=complex)
    g = np.ones(s.shape + (2, 2), dtype=complex)
    g[..., 0, 1] = s
    g[..., 1, 0] = np.conj(s)
    return g


def gram_matrix(spec: CodeSpec, q, amplitude=None) -> np.ndarray:
    """d x d matrices of codeword overlaps <w_{k1,q}|w_{k2,q}> within space q,
    with the shape of ``amplitude`` (the nominal alpha by default) leading; a
    sequence of spaces ``q`` adds a spaces axis before the (d, d) axes.

    This is the only overlap routine: entry [..., k1, k2] is the overlap of
    sectors k1 and k2 at that amplitude.  The qubit one-loss spaces and the
    two-loss code space use their explicit trigonometric forms; every other
    space is the coherent-component Gram matrix, which cancels as the amplitude
    falls and L grows (absolute error 9.8e-5 at 0.1 for L 5, 3e-8 at 0.5 for L 8),
    all such spaces in one kernel pass over the distinct amplitudes."""
    spaces = np.ravel(q).tolist()
    amp = np.asarray([_codeword_amplitude(spec, 0, x, amplitude) for x in spaces][0], dtype=float)
    a2 = amp * amp
    trig = {}
    for x in (x for x in spaces if spec.d == 2 and (spec.L, x) in ((1, 0), (1, 1), (2, 0))):
        if spec.L == 1 and x == 0:
            s = (np.cos(a2) / np.cosh(a2)).astype(complex)
        elif spec.L == 1:
            # divided as reals, as Python divides a complex by a float; the
            # limit 1 where the amplitude squares to 0
            s = 1j * np.divide(np.sin(a2), np.sinh(a2), out=np.ones_like(a2), where=a2 != 0)
        else:
            cos3 = np.cos(np.sqrt(3.0) * a2 / 2)
            with np.errstate(over="ignore", invalid="ignore"):  # inf/inf is caught below
                num = np.exp(-a2) + 2 * np.exp(a2 / 2) * cos3
                s = (num / (np.exp(a2) + 2 * np.exp(-a2 / 2) * cos3)).astype(complex)
        if not np.all(np.isfinite(s)):  # the two-loss form overflows to inf/inf
            bad = ~np.isfinite(s)
            raise ArithmeticError(f"overlap of space {x} at amplitude {amp[bad][0]} is {s[bad][0]}")
        trig[x] = _pair_gram(s)
    coherent = [x for x in spaces if x not in trig]
    if coherent:  # each distinct amplitude once, gathered back only if one repeats
        distinct, at = np.unique(amp.reshape(-1), return_inverse=True)
        g = (_coherent_gram(spec, coherent, distinct)[at] if distinct.size < amp.size
             else _coherent_gram(spec, coherent, amp.reshape(-1)))
        g = g.reshape(amp.shape + g.shape[1:])
    if trig:  # the spaces in the order asked, the coherent ones taken from g
        rest = iter(np.moveaxis(g, -3, 0) if coherent else ())
        g = np.stack([trig[x] if x in trig else next(rest) for x in spaces], axis=-3)
    return g if np.ndim(q) else g[..., 0, :, :]
