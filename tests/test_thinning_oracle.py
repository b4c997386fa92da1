"""Mixture weights against an mpmath oracle, ``mp_truth.thinning_weights``: the
binomial thinning of the input's photon-number distribution, which needs no
sectioned exponential, no codeword and no Gram matrix.  ``mixture_weights`` (the
Gram route) and ``channel.thinning_weights`` (the class-sum route) are checked
against it, and so is ``qec.fidelity_bound``, which reads the class-sum route."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catloss import channel
from catloss.channel import ChannelParams, mixture_weights
from catloss.codes import CodeSpec, LogicalCoeffs
from catloss.qec import fidelity_bound
from mp_truth import filter_fidelity, thinning_fidelity, thinning_weights
from test_class_sums import random_coeffs


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
