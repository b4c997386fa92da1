"""The truncated Fock-space oracle: every brute-force check of the closed forms.

A state is a 1-D complex numpy array of coefficients indexed by photon number
n = 0..n_max (length n_max + 1); a density matrix is a 2-D complex array over
the same index.  Scalar products and projectors are numpy's own: <u|v> is
``np.vdot(u, v)`` and |u><u| is ``np.outer(u, u.conj())``.  Every function
here returns a new array and leaves its arguments unchanged.

On that algebra sit the oracles: codewords as sectioned Fock series and as
coherent sums, the exact Kraus evolution of the loss channel, the
correctability reports, the filter and the assembled teleportation state;
``checks`` sets each against its closed form, as ``verify`` reports it.  The
closed-form modules import nothing from here.

The truncation bound follows a fixed policy, ``default_n_max``: for coherent
amplitude alpha the support is Poisson with mean alpha**2, and the bound
covers that mean plus eight standard deviations plus margin; ``n_max`` applies
it to a code.  Constructors reject inputs whose truncated tail is not
negligible.  The oracles take one amplitude and one gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import (SMALL_ALPHA, CodeSpec, LogicalCoeffs, _codeword_amplitude,
                    sector_amplitude, support_residue)
from .channel import (ChannelParams, _sector_phases, class_probabilities, mixture_weights,
                      thinning_weights)
from .restore import teleport_success_from_weights

# Squared-magnitude mass allowed in the top slots of any constructed state.
TAIL_TOL = 1e-12
TAIL_SLOTS = 5

# Residual probability left unsummed by the exact Kraus evolution.
KRAUS_RESIDUAL = 1e-12


class TruncationError(ValueError):
    """The requested n_max cannot hold the state to tolerance."""


def log_factorials(n_max: int) -> np.ndarray:
    """log(n!) for n = 0..n_max, accumulated iteratively to avoid overflow."""
    out = np.zeros(n_max + 1)
    if n_max > 0:
        out[1:] = np.cumsum(np.log(np.arange(1, n_max + 1, dtype=float)))
    return out


def default_n_max(alpha: complex | float) -> int:
    """Truncation bound for the largest coherent amplitude in a computation."""
    a = abs(alpha)
    return max(int(np.ceil(a * a + 8.0 * a + 25.0)), 64)


def n_max(spec: CodeSpec, amplitude: float | None = None) -> int:
    """Fock cutoff covering alpha and ``amplitude``, both single values."""
    for amp in (spec.alpha, amplitude):
        if np.ndim(amp):
            raise ValueError(f"the Fock oracles take one amplitude, got shape {np.shape(amp)}")
    return default_n_max(max(spec.alpha, amplitude or 0.0))


_code_n_max = n_max  # for codeword_fock, whose parameter n_max hides it


def normalized(state: np.ndarray) -> np.ndarray:
    """``state`` divided by its norm; a stack of states (..., n_max + 1), each
    by the 1-D ``np.linalg.norm`` of its own row."""
    n = [np.linalg.norm(row) for row in state.reshape(-1, state.shape[-1])]
    if 0.0 in n:
        raise ValueError("cannot normalize the zero vector")
    return state / (n[0] if state.ndim == 1 else np.reshape(n, state.shape[:-1] + (1,)))


def tail_mass(state: np.ndarray) -> float:
    """Squared-magnitude mass sitting in the top ``TAIL_SLOTS`` indices."""
    return float(np.sum(np.abs(state[-TAIL_SLOTS:]) ** 2))


def basis_state(n: int, n_max: int) -> np.ndarray:
    """Number state |n>."""
    if not 0 <= n <= n_max:
        raise ValueError(f"n={n} outside 0..{n_max}")
    c = np.zeros(n_max + 1, dtype=complex)
    c[n] = 1.0
    return c


def coherent_state(alpha: complex, n_max: int | None = None) -> np.ndarray:
    """Coherent state with coeffs[n] = exp(-|alpha|^2/2) alpha^n / sqrt(n!).

    Coefficients are assembled as exp(log-magnitude) * phase so that
    amplitudes needing support past n ~ 170 do not overflow n!.
    """
    if n_max is None:
        n_max = default_n_max(alpha)
    a = abs(alpha)
    n = np.arange(n_max + 1)
    if a == 0.0:
        return basis_state(0, n_max)
    log_mag = n * np.log(a) - 0.5 * a * a - 0.5 * log_factorials(n_max)
    state = np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))
    if tail_mass(state) >= TAIL_TOL:
        raise TruncationError(
            f"n_max={n_max} too small for |alpha|={a:.3f}: "
            f"tail mass {tail_mass(state):.2e} >= {TAIL_TOL}"
        )
    return state


def annihilate(state: np.ndarray, k: int = 1) -> np.ndarray:
    """Unnormalized a^k |psi>: coeffs'[n] = sqrt((n+k)!/n!) coeffs[n+k].

    Applied as k single lowering steps; each factor is at most sqrt(n_max),
    so no intermediate overflows regardless of k.
    """
    n_max = len(state) - 1
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if k > n_max:
        raise ValueError(f"k={k} exceeds n_max={n_max}")
    c = np.array(state, dtype=complex)
    root_n = np.sqrt(np.arange(1, n_max + 1))
    for _ in range(k):
        c[:-1] = root_n * c[1:]
        c[-1] = 0.0
    return c


def parity_phase_apply(state: np.ndarray, modulus: int) -> np.ndarray:
    """Generalized parity gate: coeffs'[n] = exp(2 pi i n / modulus) coeffs[n]."""
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    if modulus == 1:
        return np.array(state, dtype=complex)
    return np.exp(2j * np.pi * np.arange(len(state)) / modulus) * state


def mix(components: list[tuple[float, np.ndarray]]) -> np.ndarray:
    """Statistical mixture sum_i w_i |psi_i><psi_i| with each psi_i normalized,
    as one weighted product of the stacked states."""
    if not components:
        raise ValueError("empty mixture")
    dim = len(components[0][1])
    for weight, state in components:
        if not 0 <= weight < np.inf:  # NaN too
            raise ValueError(f"{'negative' if weight < 0 else 'non-finite'} weight {weight}")
        if len(state) != dim:
            raise ValueError(f"mixture components differ in length: {len(state)} vs {dim}")
    weights, states = zip(*components)
    psi = normalized(np.array(states, dtype=complex))
    return (psi.T * np.array(weights, dtype=float)) @ psi.conj()


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) ||rho - sigma||_1 via the spectrum of the Hermitian difference."""
    if np.shape(rho) != np.shape(sigma):
        raise ValueError(f"shape mismatch: {np.shape(rho)} vs {np.shape(sigma)}")
    diff = rho - sigma
    diff = 0.5 * (diff + diff.conj().T)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def codeword_fock(
    spec: CodeSpec,
    k,
    q,
    amplitude: float | None = None,
    n_max: int | None = None,
) -> np.ndarray:
    """Codewords w_{k,q} as their sectioned Fock series, each normalized within
    truncation.  Sectors ``k`` and spaces ``q`` may be arrays; they broadcast,
    and the words run along the last axis, shape (..., n_max + 1), each with
    the bits of its one-word call.  The cutoff defaults to
    ``n_max(spec, amplitude)``, which is ``n_max(spec)`` for every amplitude up
    to alpha, so damped words share the code's truncation; a smaller one
    raises ``TruncationError``."""
    amp = _codeword_amplitude(spec, k, q, amplitude)
    cutoff = _code_n_max(spec, amp)  # also when n_max is given: it rejects a batch of amplitudes
    if n_max is not None and n_max < cutoff:
        raise TruncationError(f"n_max={n_max} below the cutoff {cutoff} of amplitude {amp}")
    n_max = cutoff if n_max is None else n_max
    # each sector's amplitude from a Python-int k, since numpy's complex division
    # multiplies by the reciprocal; its modulus by hypot, as the scalar abs of a
    # one-word call rounds it (the array abs rounds apart)
    beta = np.array([sector_amplitude(spec, j, amp) for j in np.ravel(k).tolist()])
    beta = beta.reshape(np.shape(k) + (1,))
    log_abs, angle = np.log(np.hypot(beta.real, beta.imag)), np.arctan2(beta.imag, beta.real)
    n = np.arange(n_max + 1)
    mask = (n % spec.spaces) == support_residue(spec, np.asarray(q))[..., None]
    log_mag = np.where(mask, n * log_abs - 0.5 * log_factorials(n_max), -np.inf)
    log_mag -= log_mag.max(axis=-1, keepdims=True)
    coeffs = np.exp(log_mag) * np.exp(1j * n * angle)
    return normalized(np.where(mask, coeffs, 0.0))


def codeword_coherent(spec: CodeSpec, k: int, q: int) -> np.ndarray:
    """Same codeword built as a phased sum of L+1 coherent states.

    Serves as the independent construction route: the coherent sum collapses
    onto the sectioned Fock series of ``codeword_fock`` including its global
    phase, which the equivalence tests pin down.
    """
    beta = sector_amplitude(spec, k, _codeword_amplitude(spec, k, q, None))
    cutoff = n_max(spec)
    m = spec.spaces
    total = np.zeros(cutoff + 1, dtype=complex)
    for j in range(m):
        phase = np.exp(2j * np.pi * q * j / m)
        component = coherent_state(beta * np.exp(2j * np.pi * j / m), cutoff)
        total += phase * component
    return normalized(total)


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
    w = codeword_fock(spec, k, q, n_max=n_max(spec) + 4 * spec.spaces + 16)
    m = spec.spaces
    parity_eig = np.exp(2j * np.pi * support_residue(spec, q) / m)
    # the state on the left of each scalar product: swapped operands round differently
    parity_res = float(np.linalg.norm(parity_phase_apply(w, m) - w * parity_eig))
    lower_eig = np.exp(2j * np.pi * k / spec.d) * spec.alpha**m
    lower_res = float(np.linalg.norm(annihilate(w, m) - w * lower_eig)) / spec.alpha**m
    return CodeResiduals(parity=parity_res, lowering=lower_res)


def _kraus_factors(n_max: int, gamma: float, k, log_fact: np.ndarray) -> np.ndarray:
    """f[n] with A_k|n+k> = f[n]|n>, each a binomial amplitude <= 1, n = 0..n_max-k;
    for a column of loss counts k, rows f[k, n] over n = 0..n_max, 0 past n_max-k.
    A_k = sqrt((1-gamma)^k / k!) * sqrt(gamma)^n_hat * a^k removes exactly k photons."""
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
        raise TruncationError(
            f"only {captured[-1]} of the probability captured by k <= {n_max}"
        )
    out = np.zeros_like(rho, dtype=complex)
    for i in range(int(np.argmax(done)) + 1):
        fi = f[i, : n_max + 1 - i]
        out[: n_max + 1 - i, : n_max + 1 - i] += np.outer(fi, fi) * rho[i:, i:]
    return out


def class_probabilities_kraus(spec: CodeSpec, params: ChannelParams) -> np.ndarray:
    """Brute-force route for ``channel.class_probabilities``: the squared norms
    ||A_k w||^2 = sum_n f_k[n]^2 |w[n+k]|^2 of a codeword, for every k in one
    array pass, summed by k modulo the cycle."""
    word = codeword_fock(spec, 0, 0)
    n_max, k = len(word) - 1, np.arange(len(word))[:, None]
    f = _kraus_factors(n_max, params.gamma, k, log_factorials(n_max))  # rows k, columns n = k.T
    norms = np.sum((f * np.abs(word)[np.minimum(k + k.T, n_max)]) ** 2, axis=1)
    return np.bincount(k[:, 0] % spec.cycle, weights=norms, minlength=spec.cycle)


def _superpose(words: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Normalized sum_k coeffs[..., k] words[..., k, :], every state of the
    broadcast batch in one product."""
    return normalized(np.matmul(coeffs[..., None, :], words)[..., 0, :])


def logical_mixture(
    spec: CodeSpec,
    coeffs: LogicalCoeffs,
    params: ChannelParams,
) -> list[tuple[float, np.ndarray]]:
    """The d(L+1)-component output mixture of an encoded logical state, as the
    (weight, state) pairs of ``mix`` in loss-class order: entry j lives
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
        return [normalized(words[0] + words[1]), normalized(minus)]
    raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")


def kl_check(spec: CodeSpec, basis: str, error_i, error_j):
    """Evaluate both correctability conditions for the error pair (a^i, a^j):
    corrupted codewords stay orthogonal across logical indices, and their norms
    do not depend on it.  The Z basis (the codewords) never deforms; the
    orthogonal X basis (qubits only) deforms under odd-cycle losses.  Loss
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
        ladder.append([annihilate(w, 1) for w in ladder[-1]])
    reports = []
    for i, j in pairs:
        gram = np.array([[np.vdot(u, v) for v in ladder[j]] for u in ladder[i]])
        off = abs(gram - np.diag(np.diag(gram)))
        diag = gram.diagonal().real
        scale = float(np.max(np.abs(diag)))
        spread = float(diag.max() - diag.min()) / scale if scale > 0 else 0.0
        reports.append(KLReport(gram, ortho_violation=float(off.max()), deform_violation=spread))
    return reports if counts[0].ndim else reports[0]


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
    amplitude.  ``restore.teleport_success_from_overlaps`` is the closed form.

    Every norm entering the branch coefficients is computed from vector inner
    products (two-mode norms via the tensor-product identity), none from the
    sectioned closed forms, and the branches are stacked as a direct sum over
    the orthonormal Bell outcomes.
    """
    if spec.d != 2:
        raise ValueError("teleportation restore is defined for qubit codes only")
    damped = np.sqrt(params.gamma) * spec.alpha
    w0t, w1t = codeword_fock(spec, np.arange(2), q, damped)
    wb = codeword_fock(spec, np.arange(2), 0)
    s_tilde = complex(np.vdot(w0t, w1t))
    s_bar = complex(np.vdot(*wb))
    b1 = filter_params(s_tilde).b1
    c0, c1 = c.values

    # the states on the left of each scalar product: swapped operands round differently
    n_omega = float(np.linalg.norm(w0t * c0 + w1t * c1)) ** 2
    n_phi_hat = 1.0 + np.real(s_tilde * s_bar)
    bell = np.array([1.0 + np.real(s_tilde**2), 1.0 - np.real(s_tilde**2),
                     1.0 + abs(s_tilde) ** 2, 1.0 - abs(s_tilde) ** 2])
    # the four output qubits (c0, c1), (c0, -c1), (c1, c0), (-c1, c0) in one product
    outputs = np.array([[c0, c1], [c0, -c1], [c1, c0], [-c1, c0]]) @ wb
    stacked = (b1**2 * np.sqrt(bell) / np.sqrt(n_omega * n_phi_hat))[:, None] * outputs
    return float(np.vdot(stacked, stacked).real)


def checks() -> list[tuple[str, float, float]]:
    """Every closed form against its brute-force route: ``verify``'s checks as
    (name, value, tol) triples, in report order; a check passes when value < tol."""
    a, b = 1.0, 1.0j
    expected = np.exp(-abs(a) ** 2 / 2 - abs(b) ** 2 / 2 + np.conj(a) * b)
    got = np.vdot(coherent_state(a), coherent_state(b))
    out = [("coherent-overlap closed form", abs(got - expected), 1e-12)]

    spec = CodeSpec(2, 2, 3.0)
    diff = np.linalg.norm(codeword_fock(spec, 1, 1) - codeword_coherent(spec, 1, 1))
    out.append(("fock/coherent codeword equivalence", diff, 1e-10))
    res = verify_code_equations(spec, 1, 1)
    out.append(("code-equation residuals", max(res.parity, res.lowering), 1e-9))

    params = ChannelParams(0.9)
    p_closed = class_probabilities(spec, params)
    p_kraus = class_probabilities_kraus(spec, params)
    out.append(("loss-class probabilities vs Kraus norms",
                float(np.max(np.abs(p_closed - p_kraus))), 1e-10))

    for L, d, alpha in ((1, 2, 2.0), (2, 2, 3.0), (1, 3, 2.0)):
        spec_i = CodeSpec(L, d, alpha)
        coeffs = LogicalCoeffs.balanced(d)
        psi = encode(spec_i, coeffs)
        exact = channel_apply_exact(np.outer(psi, psi.conj()), params)
        mixture = logical_mixture(spec_i, coeffs, params)
        weights = np.array([w for w, _ in mixture])
        thinning = thinning_weights(spec_i, coeffs, params)
        out += [(f"mixture vs exact channel (L={L}, d={d})",
                 trace_distance(exact, mix(mixture)), 1e-8),
                (f"weights sum to one (L={L}, d={d})", abs(float(np.sum(weights)) - 1.0), 1e-10),
                (f"mixture weights vs binomial thinning (L={L}, d={d})",
                 float(np.max(np.abs(weights - thinning))), 1e-12)]

    a_s, a_f = filter_operators(filter_params(0.3 + 0.2j))
    povm = a_s.T.conj() @ a_s + a_f.T.conj() @ a_f
    out.append(("filter POVM completeness", float(np.max(np.abs(povm - np.eye(2)))), 1e-12))

    spec_t, ct, params_t = CodeSpec(1, 2, 2.0), LogicalCoeffs.of(1.0, 1.0j), ChannelParams(0.95)
    closed = teleport_success_from_weights(mixture_weights(spec_t, ct, params_t), 1, ct)
    assembled = teleport_success_assembled(spec_t, 1, params_t, ct)
    out.append(("teleport success vs assembled state", abs(closed - assembled), 1e-9))
    return out
