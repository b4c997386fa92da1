"""Mixture weights against an mpmath oracle: the binomial thinning of the
input's photon-number distribution, which needs no sectioned exponential,
no codeword and no Gram matrix.  ``mixture_weights`` (the Gram route) and
``channel.thinning_weights`` (the class-sum route) are checked against it,
and so is ``qec.fidelity_bound``, which reads the class-sum route."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catloss import channel
from catloss.channel import ChannelParams, mixture_weights
from catloss.codes import CodeSpec, LogicalCoeffs
from catloss.qec import fidelity_bound
from test_class_sums import random_coeffs


def _thinned_residues(L: int, d: int, alpha: float, gamma: float) -> tuple[list, list]:
    """The input's photon numbers n = (L+1) l split by s = l mod d: for each s the
    Poisson weight of its numbers, sum x^n / n! (x = alpha^2), and that weight
    spread over k mod d(L+1), where k ~ Binomial(n, 1 - gamma) photons are lost.
    The pmf of k mod d(L+1) is the coefficient list of (gamma + (1 - gamma) z)^n
    mod z^(d(L+1)) - 1, advanced one photon at a time by Pascal's rule.  n stops
    once every s holds a number, and x^n / n! is past its peak and below 1e-400
    of the summed weight, so an input of one s keeps its weight at tiny x.  Runs
    at the caller's mpmath precision."""
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


def _check(L, d, alpha, gamma, seed):
    c = random_coeffs(d, seed)
    got = mixture_weights(CodeSpec(L, d, alpha), c, ChannelParams(gamma)).ptilde
    want = thinning_weights(L, d, alpha, gamma, c.values)
    assert np.all(abs(got - want) <= 1e-14), np.max(abs(got - want))
    big = want > 1e-300
    rel = abs(got[big] - want[big]) / want[big]
    assert np.all(rel <= 1e-12), (np.max(rel), got, want)


POINTS = [
    (1, 2, 2.0, 0.5), (1, 2, 2.0, 0.75), (1, 2, 2.0, 1.0),
    (2, 2, 3.0, 0.5), (2, 2, 3.0, 0.9),
    (3, 3, 5.0, 0.5), (3, 3, 5.0, 0.8),
    (6, 4, 8.0, 0.5),
]

SMALL_WEIGHT_POINTS = [
    (6, 4, 8.0, 0.99),  # weights near 1e-34 come out near 1e-15
    (7, 4, 0.2, 0.5), (7, 4, 0.2, 0.75),  # weights negative or clamped to 0
    (5, 2, 1e-3, 2 / 3), (5, 2, 1e-3, 5 / 6),  # NaN
]


@pytest.mark.parametrize("L,d,alpha,gamma", POINTS)
@pytest.mark.parametrize("seed", [0, 1])
def test_weights_match_thinning(L, d, alpha, gamma, seed):
    # within 1e-14 absolute, and 1e-12 relative on every weight above 1e-300
    _check(L, d, alpha, gamma, seed)


@pytest.mark.xfail(strict=True, reason="absolute roundoff of the Gram-matrix route: "
                   "tiny weights lose their relative accuracy, go negative or NaN")
@pytest.mark.filterwarnings("ignore:alpha=0.001:UserWarning")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the Gram kernel's 0/0
@pytest.mark.parametrize("L,d,alpha,gamma", SMALL_WEIGHT_POINTS)
def test_small_weights_match_thinning(L, d, alpha, gamma):
    _check(L, d, alpha, gamma, 0)


@pytest.mark.filterwarnings("ignore:alpha=0.001:UserWarning")
@pytest.mark.parametrize("L,d,alpha,gamma", POINTS + SMALL_WEIGHT_POINTS)
@pytest.mark.parametrize("seed", [0, 1])
def test_class_sum_weights_match_thinning(L, d, alpha, gamma, seed):
    # 1e-12 relative on every weight above 1e-300, the small ones included;
    # nonnegative weights that sum to one within 1e-15 per class
    c = random_coeffs(d, seed)
    got = channel.thinning_weights(CodeSpec(L, d, alpha), c, ChannelParams(gamma))
    want = thinning_weights(L, d, alpha, gamma, c.values)
    big = want > 1e-300
    assert np.all(abs(got[big] - want[big]) <= 1e-12 * want[big]), (got, want)
    assert np.all(got >= 0) and np.all(got[~big] <= 1e-300)
    assert abs(got.sum() - 1.0) <= 1e-15 * d * (L + 1)


def test_oracle_keeps_an_input_of_one_residue_at_tiny_amplitude():
    # (1, -1) holds n = 2, 6, ... alone; the oracle once stopped at n = 2, whose
    # x^2 / 2 is below 1e-400 of the n = 0 term, and divided 0 by 0.  Its thinned
    # weights are those of n = 2 photons, the Binomial(2, 1/2) pmf.
    c = LogicalCoeffs.of(1, -1).values
    assert np.array_equal(thinning_weights(1, 2, 1e-100, 0.5, c), [0.25, 0.5, 0.25, 0.0])
    assert thinning_fidelity(1, 1e-100, 0.5) == (1.0, 0.75)


# Amplitudes so small that ``series.class_sums``, which divides each row by its
# total, leaves class t at y << 1 as y^t / t!, which goes subnormal and then 0.
# The (1, -1) input's lowest photon number is L + 1, which at gamma 0.5 loses L + 1
# photons with probability 2^-(L+1): F_minus is 0.75 for L = 1, 0.875 for L = 2 and
# 0.9375 for L = 3.
TINY_AMPLITUDE_FIDELITY_POINTS = [
    (3, 1e-40, 0.5),  # F_minus read 0.94011976047904189, with exit 0
    (1, 1e-79, 0.5),  # F_minus read 0.75000001235164138
    (3, 1e-41, 0.5), (1, 1e-90, 0.5), (2, 1e-55, 0.5),  # F_minus read NaN
]


@pytest.mark.xfail(strict=True, reason="series.class_sums loses the classes of tiny y "
                   "to underflow: F_minus off in the eighth digit and more, or NaN")
@pytest.mark.filterwarnings("ignore:alpha=1e-:UserWarning")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the class sums' 0/0
@pytest.mark.parametrize("L,alpha,gamma", TINY_AMPLITUDE_FIDELITY_POINTS)
def test_tiny_amplitude_fidelity_matches_thinning(L, alpha, gamma):
    _check_fidelity(L, alpha, gamma, thinning_fidelity(L, alpha, gamma))


@pytest.mark.xfail(strict=True, reason="series.class_sums loses the classes of tiny y "
                   "to underflow: every weight NaN")
@pytest.mark.filterwarnings("ignore:alpha=1e-:UserWarning")
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_tiny_amplitude_weights_match_thinning():
    # weights --L 1 --alpha 1e-100 --a 1 --b -1
    c = LogicalCoeffs.of(1, -1)
    want = thinning_weights(1, 2, 1e-100, 0.5, c.values)
    got = channel.thinning_weights(CodeSpec(1, 2, 1e-100), c, ChannelParams(0.5))
    assert np.all(abs(got - want) <= 1e-12 * want), (got, want)


def filter_fidelity(L: int, alpha: float, gamma: float, dps: int = 30) -> tuple[float, float]:
    """(F_plus, F_minus) at ``dps`` digits from the class sums of the ROADMAP's
    class-sum identity, each by the root-of-unity filter S_t(y) e^-y =
    (1/M) sum_r w^-rt exp(y (w^r - 1)), w = exp(2 pi i / M): for amplitudes
    whose thinning sum would run over some alpha^2 photon numbers."""
    with mpmath.workdps(dps):
        m, cycle = L + 1, 2 * (L + 1)
        x, g = mpmath.mpf(alpha) ** 2, mpmath.mpf(gamma)

        def sums(y):
            w = [mpmath.expjpi(mpmath.mpf(2 * r) / cycle) for r in range(cycle)]
            return [mpmath.re(mpmath.fsum(mpmath.exp(y * (w[r] - 1)) / w[r] ** t
                                          for r in range(cycle))) / cycle for t in range(cycle)]

        lost, kept = sums((1 - g) * x), sums(g * x)
        fidelity = []
        for s in range(2):
            weights = [lost[j] * kept[(s * m - j) % cycle] for j in range(cycle)]
            fidelity.append(float(mpmath.fsum(weights[:m]) / mpmath.fsum(weights)))
        return tuple(fidelity)


FIDELITY_POINTS = [(L, alpha, gamma) for L, d, alpha, gamma in POINTS if d == 2] + [
    (9, 0.3, 1e-6),  # F_minus near 1e-5 read -0.994 on the Gram route
    *((9, 0.9, g) for g in np.linspace(0.25, 0.35, 6).tolist()),  # F_plus read above 1
    (40, 5.0, 0.5), (40, 5.0, 1.0),  # the Gram route tripped the filter's clamp
    (1, 30.0, 0.5), (1, 30.0, 1.0), (2, 30.0, 0.5), (2, 30.0, 1.0),  # and gave NaN
]


def _check_fidelity(L, alpha, gamma, want):
    # 1e-12 relative of the oracle wherever it is above 1e-300, and F in [0, 1]
    got = fidelity_bound(CodeSpec(L, 2, alpha), ChannelParams(gamma))
    for f, w in zip((got.F_plus, got.F_minus), want):
        assert 0.0 <= f <= 1.0 and abs(f - w) <= 1e-12 * w + 1e-300, (f, w)
    assert got.F_bound == min(got.F_plus, got.F_minus)


@pytest.mark.parametrize("L,alpha,gamma", FIDELITY_POINTS)
def test_fidelity_matches_thinning(L, alpha, gamma):
    _check_fidelity(L, alpha, gamma, thinning_fidelity(L, alpha, gamma))


@pytest.mark.parametrize("L,alpha,gamma", [(1, 30.0, 0.5), (2, 30.0, 0.5),
                                           (1, 1e4, 0.5), (1, 1e4, 1.0)])
def test_fidelity_at_large_amplitude_matches_filter(L, alpha, gamma):
    want = filter_fidelity(L, alpha, gamma)
    if alpha < 100:  # the two oracles agree where both run
        assert np.allclose(want, thinning_fidelity(L, alpha, gamma), rtol=1e-14, atol=0)
    _check_fidelity(L, alpha, gamma, want)


@given(L=st.integers(0, 7), alpha=st.floats(0.1, 9.0),
       gamma=st.floats(0.0, 1.0, exclude_min=True))
@settings.get_profile("bits")  # registered in conftest.py
def test_fidelity_matches_thinning_over_the_domain(L, alpha, gamma):
    _check_fidelity(L, alpha, gamma, thinning_fidelity(L, alpha, gamma))
