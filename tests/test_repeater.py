"""Chain simulation: composition, schemes, sweeps, reference rows."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catloss import codes
from catloss.codes import CodeSpec, LogicalCoeffs
from catloss.channel import ChannelParams, mixture_weights
from catloss.qec import fidelity_state
from catloss.repeater import (
    RepeaterConfig,
    segment_gamma,
    simulate_chain,
    simulate_chains,
    sweep,
)
from catloss.restore import restoration_factor

BALANCED = LogicalCoeffs.balanced()


def config(L=4, alpha=7.0, total=1000.0, spacing=0.1, ar_every=2, sign=1):
    return RepeaterConfig(
        total_km=total,
        spacing_km=spacing,
        spec=CodeSpec(L, 2, alpha),
        coeffs=LogicalCoeffs.balanced(sign=sign),
        ar_every=ar_every,
    )


def expanded(result, column):
    """Per-station column of a chain: station i takes period row (i-1) mod ar_every."""
    return result.period[np.arange(result.n_stations) % len(result.period), column]


class TestSegmentGamma:
    def test_short_limit(self):
        assert segment_gamma(1e-9) == pytest.approx(1.0)

    def test_attenuation_length(self):
        assert segment_gamma(22.0) == pytest.approx(math.exp(-1.0))

    def test_hundred_meters(self):
        assert segment_gamma(0.1) == pytest.approx(math.exp(-1.0 / 220.0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            segment_gamma(0.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            config(total=1.0, spacing=2.0)
        with pytest.raises(ValueError):
            RepeaterConfig(10, 1, CodeSpec(1, 2, 2.0), BALANCED, ar_every=0)
        finite = {"total_km": 10.0, "spacing_km": 1.0, "attenuation_km": 22.0}
        for field in finite:
            for bad in (math.inf, math.nan):
                with pytest.raises(ValueError, match=field):
                    RepeaterConfig(
                        spec=CodeSpec(1, 2, 2.0), coeffs=BALANCED, **{**finite, field: bad}
                    )
        # finite lengths whose station count is not
        with pytest.raises(ValueError, match="total_km/spacing_km = inf"):
            config(total=1e300, spacing=1e-300)
        # a finite station count above 2**53, where the ratio is no longer an exact integer
        with pytest.raises(ValueError, match=r"total_km/spacing_km = 1\.0000000000000001e\+307"):
            config(total=1e300, spacing=1e-7)

    def test_non_integral_spacing_warns_and_floors(self):
        cfg = config(total=1.0, spacing=0.3)
        with pytest.warns(UserWarning, match="not integral"):
            assert cfg.n_stations == 3

    def test_station_count(self):
        assert config(total=1000.0, spacing=0.1).n_stations == 10000


class TestSimulateChain:
    def test_products_match_trace(self):
        result = simulate_chain(config(total=10.0, spacing=0.5))
        assert result.n_stations == 20
        assert result.period.shape == (2, 3)
        assert result.fidelity == pytest.approx(float(np.prod(expanded(result, 1))), abs=1e-12)
        assert result.success_prob == pytest.approx(
            float(np.prod(expanded(result, 2))), abs=1e-12
        )

    def test_chain_shorter_than_period_evaluates_only_its_stations(self, monkeypatch):
        # one station at ar_every 50: one mixture batch of one row, no restoration
        batches = []

        def counted(spec, coeffs, params):
            batches.append(np.shape(spec.alpha))
            return mixture_weights(spec, coeffs, params)

        monkeypatch.setattr("catloss.repeater.mixture_weights", counted)
        result = simulate_chain(config(L=1, alpha=2.0, total=0.5, spacing=0.5, ar_every=50))
        assert batches == [(1,)]
        assert result.period.shape == (1, 3)
        assert result.success_prob == 1.0
        assert result.fidelity == fidelity_state(
            CodeSpec(1, 2, 2.0), BALANCED, ChannelParams(segment_gamma(0.5))
        )

    def test_chain_set_is_one_batch_of_distinct_amplitudes(self, monkeypatch):
        # the shape of a table: every (alpha, spacing) row under both schemes
        # and both input signs, so amplitudes repeat across chains, across
        # signs and, at ar_every 1, between a period row and its restoring row
        batches, kernel_amps = [], []
        kernel = codes._coherent_gram

        def counted_weights(spec, coeffs, params):
            batches.append(np.size(spec.alpha))
            return mixture_weights(spec, coeffs, params)

        def counted_kernel(spec, qs, amps):
            kernel_amps.append(amps)
            return kernel(spec, qs, amps)

        monkeypatch.setattr("catloss.repeater.mixture_weights", counted_weights)
        monkeypatch.setattr(codes, "_coherent_gram", counted_kernel)
        configs = [config(L=3, alpha=alpha, total=10.0, spacing=spacing, ar_every=ar, sign=sign)
                   for alpha in (4.0, 5.0) for spacing in (0.1, 1.0)
                   for ar in (2, 1) for sign in (1, -1)]
        results = simulate_chains(configs)
        # 16 chains: 8 with two period rows, 8 with one, and every chain restores
        assert batches == [8 * 2 + 8 + 16]
        assert kernel_amps and all(len(np.unique(a)) == len(a) for a in kernel_amps)
        assert results == [simulate_chain(c) for c in configs]

    def test_single_hop_reduces_to_direct_composition(self):
        cfg = config(L=1, alpha=2.0, total=0.5, spacing=0.5, ar_every=1)
        result = simulate_chain(cfg)
        gamma = segment_gamma(0.5)
        assert result.fidelity == pytest.approx(
            fidelity_state(cfg.spec, BALANCED, ChannelParams(gamma))
        )
        assert result.success_prob == pytest.approx(
            restoration_factor(cfg.spec, BALANCED, ChannelParams(gamma))
        )
        assert 0.0 < result.success_prob < 1.0

    def test_new_scheme_alternates_amplitudes(self):
        result = simulate_chain(config(total=1.0, spacing=0.1, ar_every=2))
        amps = expanded(result, 0)
        gamma = segment_gamma(0.1)
        assert amps[0] == pytest.approx(7.0)
        assert amps[1] == pytest.approx(7.0 * math.sqrt(gamma))
        assert amps[2] == pytest.approx(7.0)

    def test_old_scheme_restores_every_station(self):
        result = simulate_chain(config(total=1.0, spacing=0.1, ar_every=1))
        p_factors = expanded(result, 2)
        assert np.all(p_factors < 1.0)

    def test_new_scheme_ar_only_every_second(self):
        result = simulate_chain(config(total=1.0, spacing=0.1, ar_every=2))
        p_factors = expanded(result, 2)
        assert np.all(p_factors[0::2] == 1.0)
        assert np.all(p_factors[1::2] < 1.0)

    def test_collapse_flagged_for_long_segments(self):
        cfg = config(L=1, alpha=2.0, total=400.0, spacing=200.0, ar_every=1)
        result = simulate_chain(cfg)
        assert result.amplitude_collapsed

    def test_exponent_law(self):
        # seven restoring stations multiply seven equal restoration factors
        cfg = config(L=2, alpha=3.0, total=1.4, spacing=0.2, ar_every=1)
        result = simulate_chain(cfg)
        factor = restoration_factor(cfg.spec, BALANCED, ChannelParams(segment_gamma(0.2)))
        assert result.n_stations == 7
        assert result.success_prob == pytest.approx(factor**7)

    def test_long_haul_regime(self):
        # 1000 km, restoration every 0.2 km, five-loss protection at alpha=7
        cfg = config(L=4, alpha=7.0, total=1000.0, spacing=0.2, ar_every=1)
        result = simulate_chain(cfg)
        assert result.n_stations == 5000
        assert 0.35 < result.success_prob < 0.55


    @pytest.mark.filterwarnings("ignore:alpha=.*collinear")
    @given(L=st.integers(1, 5), sign=st.sampled_from([1, -1]),
           chain_set=st.lists(st.tuples(st.floats(2.0, 9.0), st.floats(0.01, 1.0),
                                        st.integers(1, 10**5), st.integers(1, 2)),
                              min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_factors_and_totals_are_probabilities(self, L, sign, chain_set):
        # roundoff lifts some factors a few ulps above 1, and 10^5 stations
        # would raise that to a total above 1
        results = simulate_chains([
            config(L=L, alpha=alpha, total=spacing * n, spacing=spacing, ar_every=ar_every,
                   sign=sign)
            for alpha, spacing, n, ar_every in chain_set
        ])
        for r in results:
            assert np.all((r.period[:, 1:] >= 0.0) & (r.period[:, 1:] <= 1.0)), r.period
            assert 0.0 <= r.fidelity <= 1.0 and 0.0 <= r.success_prob <= 1.0


REFERENCE_ROWS = [
    # (L, alpha, F_new, P_new, F_old, P_old) at 1000 km, 0.1 km spacing
    (3, 6.0, 0.774627, 0.468715, 0.771153, 0.221926),
    (4, 7.0, 0.963915, 0.451687, 0.96314, 0.214877),
    (5, 8.0, 0.99371, 0.194448, 0.993546, 0.0417406),
]


class TestReferenceRows:
    @pytest.mark.parametrize("L,alpha,f_new,p_new,f_old,p_old", REFERENCE_ROWS)
    def test_old_scheme_fidelity_reproduces_reference(self, L, alpha, f_new, p_new, f_old, p_old):
        # the published old-scheme fidelities match the per-station
        # composition at the balanced input to all printed digits
        result = simulate_chain(config(L=L, alpha=alpha, ar_every=1))
        assert result.fidelity == pytest.approx(f_old, abs=5e-6)

    @pytest.mark.parametrize("L,alpha,f_new,p_new,f_old,p_old", REFERENCE_ROWS)
    def test_new_beats_old_per_sign(self, L, alpha, f_new, p_new, f_old, p_old):
        for sign in (1, -1):
            new = simulate_chain(config(L=L, alpha=alpha, ar_every=2, sign=sign))
            old = simulate_chain(config(L=L, alpha=alpha, ar_every=1, sign=sign))
            assert new.success_prob >= old.success_prob
            assert new.fidelity >= old.fidelity - 1e-9

    @pytest.mark.filterwarnings("ignore:alpha=.*collinear")
    def test_dominated_limit_single_restoration(self):
        # one restoration at the end of the whole channel: the chain reduces
        # to the single-shot factor at the full-channel transmission, which
        # has collapsed
        cfg = config(L=4, alpha=7.0, total=1000.0, spacing=1000.0, ar_every=1)
        result = simulate_chain(cfg)
        assert result.amplitude_collapsed
        assert result.success_prob < 1e-6
        direct = restoration_factor(
            cfg.spec, BALANCED, ChannelParams(segment_gamma(1000.0))
        )
        assert result.success_prob == pytest.approx(direct, abs=1e-15)

    @pytest.mark.filterwarnings("ignore:alpha=.*collinear")
    def test_new_beats_old_on_all_reference_points(self):
        # every (alpha, spacing) point of the bundled reference tables, for
        # the balanced (1,1)/sqrt(2) input the comparisons are quoted at;
        # the opposite sign can invert the ordering deep in the lossy regime
        from catloss.cli import LONG_HAUL_REFERENCE

        for which, block in LONG_HAUL_REFERENCE.items():
            for alpha, spacing, *_ in block["rows"]:
                new = simulate_chain(
                    config(L=block["L"], alpha=alpha, spacing=spacing, ar_every=2),
                )
                old = simulate_chain(
                    config(L=block["L"], alpha=alpha, spacing=spacing, ar_every=1),
                )
                assert new.success_prob >= old.success_prob, (which, alpha, spacing)


class TestSweep:
    def test_empty_values(self):
        assert sweep(config(), "spacing", []) == []

    def test_rows_in_input_order(self):
        cfg = config(total=100.0)
        values = [0.5, 0.1, 1.0]
        rows = sweep(cfg, "spacing", values)
        direct = [simulate_chain(replace(cfg, spacing_km=v)) for v in values]
        assert rows == direct
        assert all(np.array_equal(r.period, d.period) for r, d in zip(rows, direct))

    @pytest.mark.filterwarnings("ignore:alpha=.*collinear")
    def test_success_has_interior_maximum_in_spacing(self):
        values = [0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 250.0]
        rows = sweep(config(L=4, alpha=7.0), "spacing", values)
        probs = [r.success_prob for r in rows]
        peak = int(np.argmax(probs))
        assert 0 < peak < len(values) - 1

    def test_fidelity_decreasing_in_spacing(self):
        values = [0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0]
        rows = sweep(config(L=4, alpha=7.0), "spacing", values)
        fids = [r.fidelity for r in rows]
        assert all(a > b for a, b in zip(fids, fids[1:]))

    def test_alpha_axis(self):
        rows = sweep(config(total=10.0, spacing=0.5), "alpha", [6.0, 7.0, 8.0])
        assert len(rows) == 3
        assert all(0.0 <= r.success_prob <= 1.0 for r in rows)

    def test_gamma_axis_maps_to_spacing(self):
        gamma = math.exp(-0.1)  # spacing 2.2 km, dividing the total exactly
        rows = sweep(config(total=22.0), "gamma", [gamma])
        direct = simulate_chain(config(total=22.0, spacing=2.2))
        assert rows[0].fidelity == pytest.approx(direct.fidelity)

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            sweep(config(), "distance", [1.0])
