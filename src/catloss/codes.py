"""Rotation-symmetric coherent-superposition codewords.

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
global phases here would silently rotate overlaps and channel branch phases
downstream.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import fock
from .series import log_factorials, sectioned_exp

# Below this amplitude the codewords are nearly collinear.
SMALL_ALPHA = 0.1

# Elements of the (point, k1, k2, ja, jb) block per pass of the coherent Gram
# kernel, which bounds its temporaries.
_GRAM_TERMS = 2**13


@dataclass(frozen=True)
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
        if not np.all(np.isfinite(alpha) & (alpha > 0)):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
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

    def n_max(self, amplitude: float | None = None) -> int:
        return fock.default_n_max(max(self.alpha, amplitude or 0.0))


def _codeword_amplitude(spec: CodeSpec, k: int, q: int, amplitude):
    """Check logical index k in [0, d), space index q in [0, L] and the
    amplitudes of codeword (k, q), alpha by default; return the amplitudes."""
    if not 0 <= k < spec.d:
        raise ValueError(f"logical index k={k} outside [0, {spec.d})")
    if not 0 <= q <= spec.L:
        raise ValueError(f"space index q={q} outside [0, {spec.L}]")
    amp = spec.alpha if amplitude is None else amplitude
    if not np.all(np.isfinite(amp) & (np.asarray(amp) > 0)):
        raise ValueError(f"amplitude must be finite and positive, got {amp}")
    return amp


def _check_finite(amps) -> None:
    if not all(np.all(np.isfinite(a)) for a in amps):
        raise ValueError(f"logical amplitudes must be finite, got {amps}")


@dataclass(frozen=True)
class LogicalCoeffs:
    """Logical amplitudes (a, b, ...) with sum |.|^2 = 1; for a batch of
    states, each amplitude is an array of them (one per point)."""

    amplitudes: tuple

    def __post_init__(self):
        amps = tuple(np.asarray(a, complex) if np.ndim(a) else complex(a) for a in self.amplitudes)
        _check_finite(amps)
        total = sum(abs(a) ** 2 for a in amps)
        if np.any(abs(total - 1.0) > 1e-12):
            raise ValueError(f"coefficients not normalized: sum |.|^2 = {total}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def stack(cls, states) -> "LogicalCoeffs":
        """One batch of the given logical states, in order."""
        return cls(tuple(np.array([s.amplitudes for s in states], dtype=complex).T))

    @classmethod
    def of(cls, *amplitudes) -> "LogicalCoeffs":
        """Normalize raw amplitudes."""
        _check_finite(amplitudes)  # before dividing, which would warn on NaN
        amps = np.asarray(amplitudes, dtype=complex)
        n = np.linalg.norm(amps)
        if n == 0:
            raise ValueError("all-zero logical coefficients")
        return cls(tuple(amps / n))

    @classmethod
    def balanced(cls, d: int = 2, sign: int = 1) -> "LogicalCoeffs":
        """Equal-weight qubit (1, sign)/sqrt(2), or uniform qudit for d > 2."""
        if d == 2:
            return cls.of(1.0, float(sign))
        return cls.of(*([1.0] * d))

    @property
    def d(self) -> int:
        return len(self.amplitudes)

    def as_array(self) -> np.ndarray:
        """The amplitudes along a last axis of length d."""
        return np.stack(np.broadcast_arrays(*self.amplitudes), axis=-1)


def sector_amplitude(spec: CodeSpec, k: int, amplitude: float | None = None) -> complex:
    """beta_k = amplitude * exp(2 pi i k / (d(L+1)))."""
    amp = spec.alpha if amplitude is None else amplitude
    return amp * np.exp(2j * np.pi * k / spec.cycle)


def support_residue(spec: CodeSpec, q: int) -> int:
    """Photon-number class of space q: n = -q (mod L+1)."""
    return (-q) % spec.spaces


def codeword_norm_sq(spec: CodeSpec, q, amplitude=None):
    """Squared norm of the unnormalized codeword series, sum over its class
    of |amp|^(2n)/n!; independent of the logical index k.  ``q`` is a space
    or a sequence of spaces, which adds a last axis."""
    amp = np.asarray(spec.alpha if amplitude is None else amplitude, dtype=float)
    return sectioned_exp(amp * amp, spec.spaces, (-np.asarray(q)) % spec.spaces)


def codeword_fock(
    spec: CodeSpec,
    k: int,
    q: int,
    amplitude: float | None = None,
    n_max: int | None = None,
) -> fock.FockVector:
    """Codeword w_{k,q} as its sectioned Fock series, normalized within
    truncation.  The cutoff defaults to ``spec.n_max(amplitude)``, which is
    ``spec.n_max()`` for every amplitude up to alpha, so damped words share
    the code's truncation."""
    amp = _codeword_amplitude(spec, k, q, amplitude)
    if n_max is None:
        n_max = spec.n_max(amp)
    beta = sector_amplitude(spec, k, amp)
    n = np.arange(n_max + 1)
    mask = (n % spec.spaces) == support_residue(spec, q)
    log_mag = np.full(n_max + 1, -np.inf)
    log_mag[mask] = n[mask] * np.log(abs(beta)) - 0.5 * log_factorials(n_max)[mask]
    log_mag -= log_mag.max()
    coeffs = np.exp(log_mag) * np.exp(1j * n * np.angle(beta))
    coeffs[~mask] = 0.0
    return fock.FockVector(coeffs, n_max).normalized()


def codeword_coherent(spec: CodeSpec, k: int, q: int) -> fock.FockVector:
    """Same codeword built as a phased sum of L+1 coherent states.

    Serves as the independent construction route: the coherent sum collapses
    onto the sectioned Fock series of ``codeword_fock`` including its global
    phase, which the equivalence tests pin down.
    """
    beta = sector_amplitude(spec, k, _codeword_amplitude(spec, k, q, None))
    n_max = spec.n_max()
    m = spec.spaces
    total = np.zeros(n_max + 1, dtype=complex)
    for j in range(m):
        phase = np.exp(2j * np.pi * q * j / m)
        component = fock.coherent_state(beta * np.exp(2j * np.pi * j / m), n_max)
        total += phase * component.coeffs
    return fock.FockVector(total, n_max).normalized()


def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) in real arithmetic, rounded as the scalar
    complex product is; numpy's vectorized complex multiply may fuse."""
    return ar * br - ai * bi, ar * bi + ai * br


def _coherent_gram(spec: CodeSpec, q: int, amps: np.ndarray) -> np.ndarray:
    """All overlaps <w_{k1,q}|w_{k2,q}> at each of the 1-D ``amps``, shape
    (n, d, d), from the Gram matrix of the coherent components, using
    <u|v> = exp(-|u|^2/2 - |v|^2/2 + conj(u) v): one array pass over
    (point, k1, k2, ja, jb) per chunk of about ``_GRAM_TERMS`` elements (at
    least one point).  Every value rounds as the scalar loop (the test
    oracle) does: products through ``_cmul``, half-squares as hypot and libm
    pow, blocks summed in (ja, jb) order.
    """
    d, m = spec.d, spec.spaces
    sector = np.array([np.exp(2j * np.pi * k / spec.cycle) for k in range(d)])[:, None]
    rot = np.array([np.exp(2j * np.pi * j / m) for j in range(m)])
    # phase of the (ja, jb) term depends on jb - ja only
    phases = np.array([np.exp(2j * np.pi * q * lag / m) for lag in range(1 - m, m)])
    ph = phases[np.arange(m)[None, :] - np.arange(m)[:, None] + (m - 1)]
    g = np.empty((len(amps), d, d), dtype=complex)
    chunk = max(1, _GRAM_TERMS // (d * d * m * m))
    for lo in range(0, len(amps), chunk):
        amp = amps[lo : lo + chunk, None, None]
        # components beta_k e^{2 pi i j/m}, shape (n, d, m)
        ur, ui = _cmul(amp * sector.real, amp * sector.imag, rot.real, rot.imag)
        half_sq = np.float_power(np.hypot(ur, ui), 2.0) / 2
        u, v = np.s_[:, :, None, :, None], np.s_[:, None, :, None, :]
        cr, ci = _cmul(ur[u], -ui[u], ur[v], ui[v])
        # 1j * ci adds +0.0 to ci, as the scalar complex sum does: -0.0 becomes 0.0
        e = np.exp(-half_sq[u] - half_sq[v] + cr + 1j * ci)
        tr, ti = _cmul(ph.real, ph.imag, e.real, e.imag)
        # in (ja, jb) order; the scalar loop starts from +0.0
        blocks = tr.shape[:3] + (m * m,)
        sr, si = (0.0 + np.add.accumulate(t.reshape(blocks), axis=-1)[..., -1] for t in (tr, ti))
        diag = sr[:, range(d), range(d)]
        g[lo : lo + chunk] = (sr + 1j * si) / np.sqrt(diag[:, :, None] * diag[:, None, :])
    k1, k2 = np.triu_indices(d, 1)
    g[:, k2, k1] = np.conj(g[:, k1, k2])
    g[:, range(d), range(d)] = 1.0
    return g


def _pair_gram(s) -> np.ndarray:
    """[[1, s], [conj(s), 1]] for each overlap s: shape(s) + (2, 2)."""
    s = np.asarray(s, dtype=complex)
    g = np.ones(s.shape + (2, 2), dtype=complex)
    g[..., 0, 1] = s
    g[..., 1, 0] = np.conj(s)
    return g


def gram_matrix(spec: CodeSpec, q: int, amplitude=None) -> np.ndarray:
    """d x d matrices of codeword overlaps <w_{k1,q}|w_{k2,q}> within space q,
    with the shape of ``amplitude`` (the nominal alpha by default) leading.

    This is the only overlap routine: entry [..., k1, k2] is the overlap of
    sectors k1 and k2 at that amplitude.  The qubit one-loss spaces and the
    two-loss code space use their explicit trigonometric forms; every other
    case is the coherent-component Gram matrix, which is exact to machine
    precision.
    """
    amp = np.asarray(_codeword_amplitude(spec, 0, q, amplitude), dtype=float)
    a2 = amp * amp
    s = None
    if spec.d == 2:
        if spec.L == 1 and q == 0:
            s = (np.cos(a2) / np.cosh(a2)).astype(complex)
        elif spec.L == 1 and q == 1:
            # divided as reals, as Python divides a complex by a float; the
            # limit 1 where the amplitude squares to 0
            s = 1j * np.divide(np.sin(a2), np.sinh(a2), out=np.ones_like(a2), where=a2 != 0)
        elif spec.L == 2 and q == 0:
            root3 = np.sqrt(3.0)
            num = np.exp(-a2) + 2 * np.exp(a2 / 2) * np.cos(root3 * a2 / 2)
            den = np.exp(a2) + 2 * np.exp(-a2 / 2) * np.cos(root3 * a2 / 2)
            s = (num / den).astype(complex)
    if s is None:
        return _coherent_gram(spec, q, amp.reshape(-1)).reshape(amp.shape + (spec.d,) * 2)
    s = np.asarray(s)
    if not np.all(np.isfinite(s)):  # the two-loss form overflows to inf/inf
        bad = ~np.isfinite(s)
        raise ArithmeticError(f"overlap of space {q} at amplitude {amp[bad][0]} is {s[bad][0]}")
    return _pair_gram(s)


@dataclass(frozen=True)
class CodeResiduals:
    """How far a state is from solving the code-defining equations."""

    parity: float
    lowering: float


def verify_code_equations(spec: CodeSpec, k: int, q: int) -> CodeResiduals:
    """Residuals of the two eigenvalue equations on a constructed codeword.

    Returns ||(exp(2 pi i n_hat/(L+1)) - exp(-2 pi i q/(L+1))) |w>|| and
    ||(a^(L+1) - exp(2 pi i k/d) alpha^(L+1)) |w>|| / alpha^(L+1); both are
    below 1e-9 for library-constructed codewords under the truncation policy.

    Losing q photons shifts the support to n = -q (mod L+1), so the parity
    eigenvalue of space q is the inverse root of unity exp(-2 pi i q/(L+1));
    the L+1 syndrome values stay distinct and perfectly distinguishable.

    The truncation gets extra headroom beyond the construction policy:
    a^(L+1) probes the top L+1 slots, and without the margin the residual
    would report truncation dust instead of equation quality at the
    largest working amplitudes.
    """
    w = codeword_fock(spec, k, q, n_max=spec.n_max() + 4 * spec.spaces + 16)
    m = spec.spaces
    parity_eig = np.exp(2j * np.pi * support_residue(spec, q) / m)
    parity_res = (fock.parity_phase_apply(w, m) - parity_eig * w).norm()
    lower_eig = np.exp(2j * np.pi * k / spec.d) * spec.alpha**m
    lower_res = (fock.annihilate(w, m) - lower_eig * w).norm() / spec.alpha**m
    return CodeResiduals(parity=parity_res, lowering=lower_res)
