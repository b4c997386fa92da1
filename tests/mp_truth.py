"""The mpmath truths the tests hold the closed forms to: class sums, qubit codeword
overlaps, thinned loss-class weights and worst-case fidelities.  Imports nothing
from catloss, pytest or hypothesis, so a script can import it too."""

import mpmath
import numpy as np

SERIES_MAX = 1000  # class sums by their term series below this argument, the filter above


def class_sums(y, modulus: int) -> list:
    """S_{M,t}(y) e^{-y} for t < M at the caller's mpmath precision.  Below
    ``SERIES_MAX``, y^n/n! by its ratio recurrence, binned by n mod M, until n is
    past y and the term is below 1e-400 of the total.  Above it, where that series
    runs over some y terms, the root-of-unity filter (1/M) sum_r w^-rt
    exp(y (w^r - 1)), w = exp(2 pi i / M)."""
    y = mpmath.mpf(y)
    if y < SERIES_MAX:
        sums, total, term, n = [mpmath.mpf(0)] * modulus, mpmath.mpf(0), mpmath.mpf(1), 0
        while n <= y or term > total * mpmath.mpf(10) ** -400:
            sums[n % modulus] += term
            total += term
            n += 1
            term *= y / n
        return [s / mpmath.exp(y) for s in sums]
    w = [mpmath.expjpi(mpmath.mpf(2 * r) / modulus) for r in range(modulus)]
    return [mpmath.re(mpmath.fsum(mpmath.exp(y * (w[r] - 1)) / w[r] ** t
                                  for r in range(modulus))) / modulus for t in range(modulus)]


def mp_class_sums(y: float, modulus: int, dps: int = 60) -> np.ndarray:
    """``class_sums`` at ``dps`` digits, as doubles."""
    with mpmath.workdps(dps):
        return np.array([float(s) for s in class_sums(y, modulus)])


def mp_qubit_overlap(L, q, amp):
    """<w_{0,q}|w_{1,q}> of a qubit code from its Fock series, summed at 60 digits
    by classes n mod 2(L+1) = r, r + L + 1 (r = -q mod (L+1)), whose phases
    exp(i pi n / (L+1)) are exp(i pi r / (L+1)) and its negative."""
    m, r = L + 1, (-q) % (L + 1)
    sums = mp_class_sums(amp * amp, 2 * m)
    return np.exp(1j * np.pi * r / m) * (sums[r] - sums[r + m]) / (sums[r] + sums[r + m])


def _thinned_residues(L: int, d: int, alpha: float, gamma: float) -> tuple[list, list]:
    """The input's photon numbers n = (L+1) l split by s = l mod d: for each s the
    Poisson weight of its numbers, sum x^n / n! (x = alpha^2), and that weight
    spread over k mod d(L+1), where k ~ Binomial(n, 1 - gamma) photons are lost.
    The pmf of k mod d(L+1) is the coefficient list of (gamma + (1 - gamma) z)^n
    mod z^(d(L+1)) - 1, advanced one photon at a time by Pascal's rule.  n stops
    once every s holds a number, and x^n / n! is past its peak and below 1e-400
    of the summed weight, so an input of one s keeps its weight at tiny x.  Runs
    at the caller's mpmath precision, with no class sum."""
    m, cycle = L + 1, d * (L + 1)
    x, g = mpmath.mpf(alpha) ** 2, mpmath.mpf(gamma)
    spread, mass = [[mpmath.mpf(0)] * cycle for _ in range(d)], [mpmath.mpf(0)] * d
    term, n = mpmath.mpf(1), 0  # x^n / n!
    pmf = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (cycle - 1)  # of k mod cycle, n photons
    while n < cycle or n <= x or term > mpmath.fsum(mass) * mpmath.mpf(10) ** -400:
        s = (n // m) % d
        spread[s] = [w + term * p for w, p in zip(spread[s], pmf)]
        mass[s] += term
        for i in range(1, m + 1):
            term *= x / (n + i)
            pmf = [g * pmf[j] + (1 - g) * pmf[j - 1] for j in range(cycle)]
        n += m
    return spread, mass


def thinning_weights(L: int, d: int, alpha: float, gamma: float, c, dps: int = 30) -> np.ndarray:
    """ptilde_j = P(k = j mod d(L+1)) at ``dps`` digits for the input c, whose
    photon numbers n = (L+1) l carry the weight |c_hat_{l mod d}|^2 x^n / n!,
    c_hat_s = sum_k c_k exp(2 pi i k s / d)."""
    with mpmath.workdps(dps):
        spread, mass = _thinned_residues(L, d, alpha, gamma)
        c = [mpmath.mpc(complex(ck)) for ck in c]
        c_hat = [abs(mpmath.fsum(ck * mpmath.expjpi(mpmath.mpf(2 * k * s) / d)
                                 for k, ck in enumerate(c))) ** 2 for s in range(d)]
        total = mpmath.fsum(h * t for h, t in zip(c_hat, mass))
        return np.array([float(mpmath.fsum(h * w[j] for h, w in zip(c_hat, spread)) / total)
                         for j in range(d * (L + 1))])


def thinning_fidelity(L: int, alpha: float, gamma: float, dps: int = 30) -> tuple[float, float]:
    """(F_plus, F_minus) at ``dps`` digits: the weight of classes 0..L for the qubit
    inputs (1, +-1)/sqrt(2), whose photon numbers are those of s = 0 and s = 1 alone."""
    with mpmath.workdps(dps):
        spread, mass = _thinned_residues(L, 2, alpha, gamma)
        return tuple(float(mpmath.fsum(w[: L + 1]) / t) for w, t in zip(spread, mass))


def filter_fidelity(L: int, alpha: float, gamma: float, dps: int = 30) -> tuple[float, float]:
    """(F_plus, F_minus) at ``dps`` digits from ``class_sums`` by the ROADMAP's class-sum
    identity: for amplitudes whose thinning sum would run over some alpha^2 photon numbers."""
    with mpmath.workdps(dps):
        m, x, g = L + 1, mpmath.mpf(alpha) ** 2, mpmath.mpf(gamma)
        lost, kept = class_sums((1 - g) * x, 2 * m), class_sums(g * x, 2 * m)
        weights = [[lost[j] * kept[(s * m - j) % (2 * m)] for j in range(2 * m)] for s in (0, 1)]
        return tuple(float(mpmath.fsum(w[:m]) / mpmath.fsum(w)) for w in weights)
