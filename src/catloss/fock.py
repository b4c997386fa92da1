"""Truncated single-oscillator Fock-space algebra.

A state is a 1-D complex numpy array of coefficients indexed by photon number
n = 0..n_max (length n_max + 1); a density matrix is a 2-D complex array over
the same index.  Scalar products and projectors are numpy's own: <u|v> is
``np.vdot(u, v)`` and |u><u| is ``np.outer(u, u.conj())``.  Every function
here returns a new array and leaves its arguments unchanged.

The truncation bound follows a fixed policy, ``default_n_max``: for coherent
amplitude alpha the support is Poisson with mean alpha**2, and the bound
covers that mean plus eight standard deviations plus margin.  Constructors
reject inputs whose truncated tail is not negligible.
"""

from __future__ import annotations

import numpy as np

from .series import log_factorials

# Squared-magnitude mass allowed in the top slots of any constructed state.
TAIL_TOL = 1e-12
TAIL_SLOTS = 5


class TruncationError(ValueError):
    """The requested n_max cannot hold the state to tolerance."""


def default_n_max(alpha: complex | float) -> int:
    """Truncation bound for the largest coherent amplitude in a computation."""
    a = abs(alpha)
    return max(int(np.ceil(a * a + 8.0 * a + 25.0)), 64)


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
        if weight < 0:
            raise ValueError(f"negative weight {weight}")
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
