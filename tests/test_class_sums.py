"""The class-sum kernel and the thinning weights built on it.

``series.class_sums`` against 60-digit mpmath, in relative terms on every class
above 1e-300; ``channel.thinning_weights`` as probabilities whose batch has its
points' bits.  The hypothesis tests run on the derandomized ``bits`` profile of
conftest.py, so ``--bits-examples`` sets their number of examples.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catloss.channel import ChannelParams, thinning_weights
from catloss.codes import CodeSpec, LogicalCoeffs
from catloss.series import _CLASS_TERMS, class_sums, sectioned_exp
from mp_truth import mp_class_sums

bits_settings = settings.get_profile("bits")  # registered in conftest.py


# y log-uniform over [1e-300, 900], uniform over [0, 900], and 0 itself
arguments = st.one_of(st.floats(-300.0, math.log10(900.0)).map(lambda e: 10.0**e),
                      st.floats(0.0, 900.0), st.just(0.0))


class TestClassSums:
    @bits_settings
    @given(st.lists(arguments, min_size=1, max_size=4), st.integers(1, 60))
    def test_matches_mpmath(self, ys, modulus):
        got = class_sums(ys, modulus)
        assert got.shape == (len(ys), modulus)
        for y, row in zip(ys, got):
            want = mp_class_sums(y, modulus)
            big = want > 1e-300
            assert np.all(abs(row[big] - want[big]) <= 1e-12 * want[big]), (y, modulus)
            assert np.all(row[~big] <= 1e-300)
            if y == 0:
                assert row.tolist() == [1.0] + [0.0] * (modulus - 1)

    @pytest.mark.parametrize("modulus", [1, 2, 7, 28, 300])
    def test_batch_has_its_points_bits(self, modulus):
        # straddles the block of points, with arguments from 0 to past the flat regime
        rng = np.random.default_rng(modulus)
        ys = np.concatenate([[0.0, 5e-324, 1e-300, 1e-6, 0.5, 64.0, 900.0, 1e5, 1e8],
                             rng.uniform(0.0, 100.0, _CLASS_TERMS // 64 + 2)])
        batch = class_sums(ys, modulus)
        assert np.array_equal(batch, np.stack([class_sums(y, modulus) for y in ys]))
        assert np.array_equal(class_sums(ys.reshape(-1, 3), modulus), batch.reshape(-1, 3, modulus))
        assert np.all(np.isfinite(batch)) and np.all(batch >= 0)
        assert np.all(abs(batch.sum(axis=-1) - 1.0) <= 1e-15 * modulus)

    @pytest.mark.parametrize("modulus", [2, 7, 60, 300])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_blocks_of_any_size_give_the_same_bits(self, modulus, rows, monkeypatch):
        # the running product carries across blocks and the class rows are added
        # in order, so blocks of one or three class rows give the bits of one block
        ys = np.concatenate([[5e-324, 1e-6, 0.5, 64.0, 900.0, 1e5],
                             np.random.default_rng(modulus).uniform(0.0, 200.0, 40)])
        whole = class_sums(ys, modulus)
        monkeypatch.setattr("catloss.series._CLASS_TERMS", 2 * rows * modulus)
        assert np.array_equal(class_sums(ys, modulus), whole)

    def test_flat_regime(self):
        # where y sin^2(pi/M) >= 20 each class lies within 1e-17 relative of 1/M,
        # and 1/M is returned; cosh(20) and sinh(20) differ by 2e-17 relative
        assert class_sums([20.0, 1e8, 1e300], 2).tolist() == [[0.5, 0.5]] * 3
        below = class_sums(math.nextafter(20.0, 0.0), 2)
        assert below.tolist() == pytest.approx([0.5, 0.5], rel=1e-15)

    def test_wide_modulus_stops_at_underflow(self):
        # a modulus of 200002 with small arguments: the running product
        # underflows to 0 long before the window of 12 sqrt(y) + 40 + M offsets
        got = class_sums([4.0, 1e-3], 200002)
        assert got.shape == (2, 200002)
        assert got[0, :3].tolist() == pytest.approx([math.exp(-4), 4 * math.exp(-4),
                                                     8 * math.exp(-4)], rel=1e-14)
        assert got[1, 1] == pytest.approx(1e-3 * math.exp(-1e-3), rel=1e-14)

    @pytest.mark.parametrize("y,modulus,message", [
        (-1.0, 4, "nonnegative"), (math.nan, 4, "nonnegative"), (math.inf, 4, "finite"),
        (1.0, 0, "modulus"),
    ])
    def test_rejects_bad_input(self, y, modulus, message):
        with pytest.raises(ValueError, match=message):
            class_sums(y, modulus)

    @pytest.mark.parametrize("kernel", [class_sums, sectioned_exp])
    def test_modulus_must_be_an_integer(self, kernel):
        # not the classes of int(2.5) = 2
        with pytest.raises(ValueError, match=r"^modulus must be an integer, got 2\.5$"):
            kernel(1.0, 2.5)
        assert kernel(1.0, np.int64(2)).shape == (2,)


def random_coeffs(d, seed):
    rng = np.random.default_rng(seed)
    return LogicalCoeffs.of(*(rng.normal(size=d) + 1j * rng.normal(size=d)))


class TestThinningWeights:
    @bits_settings
    @given(st.integers(0, 7), st.integers(2, 4), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_probabilities_whose_batch_has_its_points_bits(self, L, d, n, seed):
        rng = np.random.default_rng(seed)
        alphas = rng.uniform(0.1, 9.0, n)
        gammas = np.where(rng.random(n) < 0.2, 1.0, 1.0 - rng.random(n))
        values = np.stack([random_coeffs(d, seed + i).values for i in range(n)])
        batch = thinning_weights(CodeSpec(L, d, alphas), LogicalCoeffs(values),
                                 ChannelParams(gammas))
        cycle = d * (L + 1)
        assert batch.shape == (n, cycle)
        assert np.all(batch >= 0) and np.all(batch <= 1)
        assert np.all(abs(batch.sum(axis=-1) - 1.0) <= 1e-15 * cycle)
        for i in range(n):
            one = thinning_weights(CodeSpec(L, d, alphas[i]), LogicalCoeffs(values[i]),
                                   ChannelParams(gammas[i]))
            assert np.array_equal(one, batch[i])
        # a grid of gammas times a column of amplitudes, one logical state
        grid = thinning_weights(CodeSpec(L, d, alphas[:, None]), LogicalCoeffs(values[0]),
                                ChannelParams(gammas))
        assert np.array_equal(grid[0], thinning_weights(
            CodeSpec(L, d, alphas[0]), LogicalCoeffs(values[0]), ChannelParams(gammas)))

    def test_no_loss_keeps_the_code_space(self):
        w = thinning_weights(CodeSpec(2, 3, 4.0), random_coeffs(3, 1), ChannelParams(1.0))
        assert w.tolist() == [1.0] + [0.0] * 8

    def test_rejects_overflowed_amplitude_and_wrong_count(self):
        with pytest.raises(ArithmeticError, match="overflows at alpha=1e\\+200"):
            thinning_weights(CodeSpec(1, 2, 1e200), LogicalCoeffs.balanced(), ChannelParams(0.5))
        with pytest.raises(ValueError, match="coefficient count 3"):
            thinning_weights(CodeSpec(1, 2, 2.0), LogicalCoeffs.balanced(3), ChannelParams(0.5))

    def test_large_gamma_grid_memory_is_bounded(self):
        # blocks of at most _CLASS_TERMS terms: the 2,000-point qudit grid peaks at
        # 4.9 MiB, mostly its (point, class, d) gather; the Gram route peaks at 8.5 MiB
        spec = CodeSpec(6, 4, 8.0)
        coeffs = LogicalCoeffs.of(1.0, 1j, -1.0, 0.5)
        tracemalloc.start()
        try:
            w = thinning_weights(spec, coeffs, ChannelParams(np.linspace(0.5, 1.0, 2000)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.shape == (2000, spec.cycle)
        assert peak < 8 * 2**20
