"""Chain simulation: composition, schemes, sweeps, reference rows."""

import math
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catloss.codes import CodeSpec, LogicalCoeffs
from catloss.channel import ChannelParams, mixture_weights
from catloss.qec import BALANCED_PAIR, fidelity_from_weights
from catloss.repeater import RepeaterConfig, chain_columns, segment_gamma, sweep_config
from catloss.restore import restoration_from_weights
from conftest import assert_same_columns, chains_of, period, record_calls

BALANCED = LogicalCoeffs.balanced()


def config(L=4, alpha=7.0, total=1000.0, spacing=0.1, ar_every=2, sign=1):
    return RepeaterConfig(
        total_km=total,
        spacing_km=spacing,
        spec=CodeSpec(L, 2, alpha),
        coeffs=LogicalCoeffs.of(1.0, sign),
        ar_every=ar_every,
    )


def expanded(columns, i, column):
    """Per-station column of chain i: station j takes period row (j-1) mod ar_every."""
    rows = period(columns, i)
    return rows[np.arange(columns.n_stations[i]) % len(rows), column]


class TestSegmentGamma:
    def test_short_limit(self):
        assert segment_gamma(1e-9) == pytest.approx(1.0)

    def test_attenuation_length(self):
        assert segment_gamma(22.0) == pytest.approx(math.exp(-1.0))

    def test_hundred_meters(self):
        assert segment_gamma(0.1) == pytest.approx(math.exp(-1.0 / 220.0))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive(self, bad):
        for args in ((bad,), (1.0, bad), (np.array([1.0, bad]),)):
            with pytest.raises(ValueError, match="^lengths must be positive$"):
                segment_gamma(*args)


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

    def test_set_validation_names_the_first_invalid_chain(self):
        base = dict(spec=CodeSpec(1, 2, 2.0), coeffs=BALANCED)
        # every check, failed by the second of three chains and mostly the third too; a
        # set passes one combined mask, and each of its terms alone fails some case below
        valid = {"total_km": 10.0, "spacing_km": 1.0, "attenuation_km": 22.0, "ar_every": 1}
        for columns, message in [
            ({"total_km": [10.0, np.nan, np.inf]}, "total_km must be finite, got nan"),
            ({"total_km": [10.0, np.inf, np.nan]}, "total_km must be finite, got inf"),
            ({"spacing_km": [1.0, np.nan, np.inf]}, "spacing_km must be finite, got nan"),
            ({"attenuation_km": [22.0, np.inf, 22.0]}, "attenuation_km must be finite, got inf"),
            ({"spacing_km": [1.0, -1.0, -2.0]}, "need total_km >= spacing_km > 0, got 10.0, -1.0"),
            ({"total_km": [10.0, 0.5, 0.25]}, "need total_km >= spacing_km > 0, got 0.5, 1.0"),
            ({"attenuation_km": [22.0, 0.0, -1.0]}, "attenuation_km must be positive"),
            ({"ar_every": [1, 0, -1]}, "ar_every must be >= 1, got 0"),
            ({"ar_every": np.array([1, 2**63, 2**64 - 1], dtype=np.uint64)},
             f"ar_every must be below 2**63, got {2**63}"),
            ({"ar_every": [1, 10**20, 10**21]}, f"ar_every must be below 2**63, got {10**20}"),
            ({"total_km": [10.0, 1e300, 1e301], "spacing_km": 1e-7},
             "total_km/spacing_km = 1.0000000000000001e+307 must be finite and at most 2**53"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                RepeaterConfig(**{**valid, **{k: np.array(v) for k, v in columns.items()}},
                               **base)
        with pytest.raises(ValueError, match=r"^need total_km >= spacing_km > 0, got 2\.0, 3\.0$"):
            RepeaterConfig(np.array([[10.0], [2.0]]), np.array([1.0, 3.0]), **base)
        # past int64 numpy holds the column as uint64 or object, which no count array takes
        for big in (2**63, 10**20):
            with pytest.raises(ValueError, match=rf"^ar_every must be below 2\*\*63, got {big}$"):
                RepeaterConfig(10.0, 1.0, ar_every=big, **base)
        longest = chain_columns(RepeaterConfig(10.0, 1.0, ar_every=2**63 - 1, **base))
        assert longest.rows.tolist() == [10]
        with pytest.raises(ValueError, match=r"^total_km/spacing_km = inf must be finite"):
            RepeaterConfig(np.array([1.0, 1e300]), np.array([1.0, 1e-300]), **base)
        with pytest.raises(ValueError, match=r"^alpha must be finite and positive, got -1\.0$"):
            RepeaterConfig(10.0, 1.0, spec=CodeSpec(1, 2, np.array([2.0, -1.0, 0.0])),
                           coeffs=BALANCED)
        # the columns must broadcast to one shape
        with pytest.raises(ValueError, match="broadcast"):
            RepeaterConfig(10.0, np.ones(2), spec=CodeSpec(1, 2, np.full(3, 2.0)), coeffs=BALANCED)
        with pytest.raises(ValueError, match="broadcast"):
            RepeaterConfig(10.0, np.ones(2), spec=CodeSpec(1, 2, 2.0),
                           coeffs=LogicalCoeffs([BALANCED.values] * 3))

    @pytest.mark.parametrize("spec_d, coeffs_d, ar_every, message", [
        (3, 3, 2, "got spec.d = 3"),  # the set's one chain never restores
        (3, 3, 1, "got spec.d = 3"),
        (2, 3, 1, "coeffs.d = 3 differs"),
    ])
    def test_chains_carry_qubit_codes_only(self, spec_d, coeffs_d, ar_every, message):
        # refused when the set is made, whether or not one of its chains restores
        with pytest.raises(ValueError, match=re.escape(message)):
            RepeaterConfig(0.1, 0.1, CodeSpec(1, spec_d, 2.0), LogicalCoeffs.balanced(coeffs_d),
                           ar_every=ar_every)

    @pytest.mark.parametrize("value, shown", [
        (2.5, "2.5"), (2.0, "2.0"), (np.float64(3.0), "3.0"), (True, "True"), ("2", "'2'"),
        (np.array([1.0, 2.0]), "1.0"), (np.array([1, 2.5], dtype=object), "2.5"),
        (np.array([2, np.True_], dtype=object), "np.True_"),
    ])
    def test_ar_every_must_be_an_integer(self, value, shown):
        # one ValueError naming the value, not numpy's TypeError, OverflowError or
        # UFuncTypeError from the station counts
        message = rf"^ar_every must be an integer, got {re.escape(shown)}$"
        with pytest.raises(ValueError, match=message):
            RepeaterConfig(10.0, 1.0, CodeSpec(1, 2, 2.0), BALANCED, ar_every=value)

    @pytest.mark.parametrize("ints, same", [
        (np.uint64(3), 3),
        (np.array([1, 3], dtype=object), np.array([1, 3])),  # as numpy holds ints past uint64
        (np.array([np.int64(2), 3], dtype=object), np.array([2, 3])),
        (np.array([np.uint8(2), 3], dtype=object), np.array([2, 3])),
    ])
    def test_integer_columns_of_any_dtype_run_as_int64(self, ints, same):
        base = dict(spec=CodeSpec(1, 2, 2.0), coeffs=BALANCED)
        got = chain_columns(RepeaterConfig(10.0, 1.0, ar_every=ints, **base))
        assert_same_columns(got, [RepeaterConfig(10.0, 1.0, ar_every=same, **base)])

    def test_set_station_counts_warn_once_per_non_integral_chain(self):
        cfg = config(total=1.0, spacing=np.array([0.3, 0.5, 0.7, 0.3]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cfg.n_stations.tolist() == [3, 2, 1, 3]
        assert [str(w.message) for w in caught] == [
            f"total_km/spacing_km = {r} is not integral; rounding down"
            for r in (1.0 / 0.3, 1.0 / 0.7, 1.0 / 0.3)]

    def test_non_integral_spacing_warns_and_floors(self):
        cfg = config(total=1.0, spacing=0.3)
        with pytest.warns(UserWarning, match="not integral"):
            assert cfg.n_stations == 3

    def test_chain_set_compares_and_hashes_by_identity(self):
        a, b = (RepeaterConfig(10.0, np.array([1.0, 2.0]), CodeSpec(1, 2, np.array([2.0, 3.0])),
                               BALANCED) for _ in range(2))
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_station_count(self):
        assert config(total=1000.0, spacing=0.1).n_stations == 10000

    def test_columns_broadcast_once(self, monkeypatch):
        # the set's columns are broadcast when it is made, one np.broadcast of their
        # shapes, not again by n_stations or chain_columns (three times before)
        callers = {name: [] for name in ("broadcast", "broadcast_arrays", "broadcast_to")}
        for name, found in callers.items():
            monkeypatch.setattr(np, name, lambda *a, found=found, real=getattr(np, name), **k:
                                found.append(sys._getframe(1).f_globals["__name__"])
                                or real(*a, **k))
        cfg = config(alpha=np.array([6.0, 7.0]))
        columns = chain_columns(cfg)
        assert {name: found.count("catloss.repeater") for name, found in callers.items()} == {
            "broadcast": 1, "broadcast_arrays": 0, "broadcast_to": 0}
        monkeypatch.undo()
        assert_same_columns(columns, chains_of(cfg))


class TestSimulateChain:
    def test_products_match_trace(self):
        columns = chain_columns(config(total=10.0, spacing=0.5))
        assert columns.n_stations.tolist() == [20]
        assert columns.period.shape == (2, 3)
        (fidelity, success_prob), = columns.totals
        assert fidelity == pytest.approx(float(np.prod(expanded(columns, 0, 1))), abs=1e-12)
        assert success_prob == pytest.approx(float(np.prod(expanded(columns, 0, 2))), abs=1e-12)

    def test_chain_shorter_than_period_evaluates_only_its_stations(self, monkeypatch):
        # one station at ar_every 50: one mixture batch of one row, no restoration
        calls = record_calls(monkeypatch, "catloss.repeater.mixture_weights")
        columns = chain_columns(config(L=1, alpha=2.0, total=0.5, spacing=0.5, ar_every=50))
        assert [np.shape(spec.alpha) for spec, _, _ in calls] == [(1,)]
        assert columns.period.shape == (1, 3)
        assert columns.totals[0, 1] == 1.0
        assert columns.totals[0, 0] == fidelity_from_weights(
            mixture_weights(CodeSpec(1, 2, 2.0), BALANCED, ChannelParams(segment_gamma(0.5)))
        )

    def test_chain_set_is_one_batch_of_distinct_amplitudes(self, monkeypatch):
        # the shape of a table: every (alpha, spacing) row under both schemes
        # and both input signs, so amplitudes repeat across chains, across
        # signs and, at ar_every 1, between a period row and its restoring row
        batches = record_calls(monkeypatch, "catloss.repeater.mixture_weights")
        kernel_calls = record_calls(monkeypatch, "catloss.codes._coherent_gram")
        # a set of shape (alpha, spacing, ar_every, sign)
        configs = RepeaterConfig(
            total_km=10.0, spacing_km=np.array([0.1, 1.0])[:, None, None],
            spec=CodeSpec(3, 2, np.array([4.0, 5.0])[:, None, None, None]),
            coeffs=BALANCED_PAIR,
            ar_every=np.array([[2], [1]]))
        columns = chain_columns(configs)
        # 16 chains: 8 with two period rows, 8 with one, and every chain restores
        assert [np.size(spec.alpha) for spec, _, _ in batches] == [8 * 2 + 8 + 16]
        assert kernel_calls and all(len(np.unique(a)) == len(a) for _, _, a in kernel_calls)
        one_chain = [config(L=3, alpha=alpha, total=10.0, spacing=spacing, ar_every=ar, sign=sign)
                     for alpha in (4.0, 5.0) for spacing in (0.1, 1.0)
                     for ar in (2, 1) for sign in (1, -1)]
        assert_same_columns(columns, one_chain)
        assert_same_columns(columns, chains_of(configs))

    @pytest.mark.filterwarnings("ignore:alpha=.*collinear")
    def test_columns_broadcast_to_one_set(self):
        # a set of shape (2, 3, 2, 2): total_km and attenuation_km along axis 0,
        # spacing_km along axis 1, ar_every and the states along axis 2, alpha along axis 3
        cfg = RepeaterConfig(
            total_km=np.array([3.0, 6.0])[:, None, None, None],
            spacing_km=np.array([0.5, 1.5, 3.0])[:, None, None],
            spec=CodeSpec(2, 2, np.array([3.0, 6.0])),
            coeffs=LogicalCoeffs(np.array([[0.6, 0.8j], [0.8, -0.6]])[:, None]),
            attenuation_km=np.array([22.0, 11.0])[:, None, None, None],
            ar_every=np.array([[1], [3]]))
        assert np.shape(cfg.n_stations) == (2, 3, 2, 2)
        columns = chain_columns(cfg)
        assert len(columns.totals) == 24
        assert_same_columns(columns, chains_of(cfg))
        # the last chain: total 6.0, spacing 3.0, alpha 6.0, values (0.8, -0.6), ar_every 3
        last = chains_of(cfg)[-1]
        assert (last.total_km, last.spacing_km, last.spec.alpha, last.attenuation_km,
                last.ar_every) == (6.0, 3.0, 6.0, 11.0, 3)
        assert last.coeffs.values.tolist() == [0.8, -0.6]

    def test_single_hop_reduces_to_direct_composition(self):
        cfg = config(L=1, alpha=2.0, total=0.5, spacing=0.5, ar_every=1)
        (fidelity, success_prob), = chain_columns(cfg).totals
        w = mixture_weights(cfg.spec, BALANCED, ChannelParams(segment_gamma(0.5)))
        assert fidelity == pytest.approx(fidelity_from_weights(w))
        assert success_prob == pytest.approx(restoration_from_weights(BALANCED, w))
        assert 0.0 < success_prob < 1.0

    def test_new_scheme_alternates_amplitudes(self):
        amps = expanded(chain_columns(config(total=1.0, spacing=0.1, ar_every=2)), 0, 0)
        gamma = segment_gamma(0.1)
        assert amps[0] == pytest.approx(7.0)
        assert amps[1] == pytest.approx(7.0 * math.sqrt(gamma))
        assert amps[2] == pytest.approx(7.0)

    def test_old_scheme_restores_every_station(self):
        p_factors = expanded(chain_columns(config(total=1.0, spacing=0.1, ar_every=1)), 0, 2)
        assert np.all(p_factors < 1.0)

    def test_new_scheme_ar_only_every_second(self):
        p_factors = expanded(chain_columns(config(total=1.0, spacing=0.1, ar_every=2)), 0, 2)
        assert np.all(p_factors[0::2] == 1.0)
        assert np.all(p_factors[1::2] < 1.0)

    def test_collapse_flagged_for_long_segments(self):
        cfg = config(L=1, alpha=2.0, total=400.0, spacing=200.0, ar_every=1)
        assert chain_columns(cfg).amplitude_collapsed.tolist() == [True]

    def test_exponent_law(self):
        # seven restoring stations multiply seven equal restoration factors
        cfg = config(L=2, alpha=3.0, total=1.4, spacing=0.2, ar_every=1)
        columns = chain_columns(cfg)
        w = mixture_weights(cfg.spec, BALANCED, ChannelParams(segment_gamma(0.2)))
        factor = restoration_from_weights(BALANCED, w)
        assert columns.n_stations.tolist() == [7]
        assert columns.totals[0, 1] == pytest.approx(factor**7)

    def test_long_haul_regime(self):
        # 1000 km, restoration every 0.2 km, five-loss protection at alpha=7
        cfg = config(L=4, alpha=7.0, total=1000.0, spacing=0.2, ar_every=1)
        columns = chain_columns(cfg)
        assert columns.n_stations.tolist() == [5000]
        assert 0.35 < columns.totals[0, 1] < 0.55


    @pytest.mark.filterwarnings("ignore:alpha=.*collinear")
    @given(L=st.integers(1, 5), sign=st.sampled_from([1, -1]),
           chain_set=st.lists(st.tuples(st.floats(2.0, 9.0), st.floats(0.01, 1.0),
                                        st.integers(1, 10**5), st.integers(1, 2)),
                              min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_factors_and_totals_are_probabilities(self, L, sign, chain_set):
        # roundoff lifts some factors a few ulps above 1, and 10^5 stations
        # would raise that to a total above 1
        alpha, spacing, n, ar_every = (np.array(c) for c in zip(*chain_set))
        columns = chain_columns(RepeaterConfig(
            total_km=spacing * n, spacing_km=spacing, spec=CodeSpec(L, 2, alpha),
            coeffs=LogicalCoeffs.of(1.0, sign), ar_every=ar_every))
        factors = columns.period[:, 1:]
        assert np.all((factors >= 0.0) & (factors <= 1.0)), factors
        assert np.all((columns.totals >= 0.0) & (columns.totals <= 1.0)), columns.totals


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
        fidelity = chain_columns(config(L=L, alpha=alpha, ar_every=1)).totals[0, 0]
        assert fidelity == pytest.approx(f_old, abs=5e-6)

    @pytest.mark.parametrize("L,alpha,f_new,p_new,f_old,p_old", REFERENCE_ROWS)
    def test_new_beats_old_per_sign(self, L, alpha, f_new, p_new, f_old, p_old):
        for sign in (1, -1):
            new, old = (chain_columns(config(L=L, alpha=alpha, ar_every=k, sign=sign)).totals[0]
                        for k in (2, 1))
            assert new[1] >= old[1]
            assert new[0] >= old[0] - 1e-9

    @pytest.mark.filterwarnings("ignore:alpha=.*collinear")
    def test_dominated_limit_single_restoration(self):
        # one restoration at the end of the whole channel: the chain reduces
        # to the single-shot factor at the full-channel transmission, which
        # has collapsed
        cfg = config(L=4, alpha=7.0, total=1000.0, spacing=1000.0, ar_every=1)
        columns = chain_columns(cfg)
        assert columns.amplitude_collapsed.tolist() == [True]
        success_prob = columns.totals[0, 1]
        assert success_prob < 1e-6
        direct = restoration_from_weights(
            BALANCED, mixture_weights(cfg.spec, BALANCED, ChannelParams(segment_gamma(1000.0)))
        )
        assert success_prob == pytest.approx(direct, abs=1e-15)

    @pytest.mark.filterwarnings("ignore:alpha=.*collinear")
    def test_new_beats_old_on_all_reference_points(self):
        # every (alpha, spacing) point of the bundled reference tables, for
        # the balanced (1,1)/sqrt(2) input the comparisons are quoted at;
        # the opposite sign can invert the ordering deep in the lossy regime
        from catloss.cli import LONG_HAUL_REFERENCE

        for which, block in LONG_HAUL_REFERENCE.items():
            for alpha, spacing, *_ in block["rows"]:
                cfgs = [config(L=block["L"], alpha=alpha, spacing=spacing, ar_every=k) for k in (2, 1)]
                (_, p_new), (_, p_old) = (chain_columns(c).totals[0] for c in cfgs)
                assert p_new >= p_old, (which, alpha, spacing)


class TestSweep:
    def test_empty_values(self):
        assert chain_columns(sweep_config(config(), "spacing", [])).totals.shape == (0, 2)

    def test_rows_in_input_order(self):
        cfg = config(total=100.0)
        values = [0.5, 0.1, 1.0]
        columns = chain_columns(sweep_config(cfg, "spacing", values))
        assert_same_columns(columns, [replace(cfg, spacing_km=v) for v in values])

    @pytest.mark.filterwarnings("ignore:alpha=.*collinear")
    def test_success_has_interior_maximum_in_spacing(self):
        values = [0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 250.0]
        probs = chain_columns(sweep_config(config(L=4, alpha=7.0), "spacing", values)).totals[:, 1]
        peak = int(np.argmax(probs))
        assert 0 < peak < len(values) - 1

    def test_fidelity_decreasing_in_spacing(self):
        values = [0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0]
        fids = chain_columns(sweep_config(config(L=4, alpha=7.0), "spacing", values)).totals[:, 0]
        assert all(a > b for a, b in zip(fids, fids[1:]))

    def test_alpha_axis(self):
        columns = chain_columns(sweep_config(config(total=10.0, spacing=0.5), "alpha",
                                             [6.0, 7.0, 8.0]))
        assert len(columns.totals) == 3
        assert all(0.0 <= p <= 1.0 for p in columns.totals[:, 1].tolist())

    def test_gamma_axis_maps_to_spacing(self):
        gamma = math.exp(-0.1)  # spacing 2.2 km, dividing the total exactly
        (fidelity, _), = chain_columns(sweep_config(config(total=22.0), "gamma", [gamma])).totals
        (direct, _), = chain_columns(config(total=22.0, spacing=2.2)).totals
        assert fidelity == pytest.approx(direct)

    @pytest.mark.parametrize("axis", ["spacing", "alpha", "gamma"])
    @pytest.mark.parametrize("value", [math.nan, 0.0, -1.0])
    def test_rejects_values_that_are_not_positive(self, axis, value):
        # NaN is named as a sweep value, not as the spacing it would have set
        with pytest.raises(ValueError, match=r"^sweep values must be finite and positive, got"):
            sweep_config(config(), axis, [1e-3, value])

    @pytest.mark.parametrize("gamma", [0.5, 1e-320])
    def test_rejects_gamma_whose_spacing_exceeds_the_total(self, gamma):
        # named by the gamma value, not by the spacing_km it sets
        with pytest.raises(ValueError, match=rf"^gamma {gamma} sets a spacing of \S+ km, "
                                             r"above total_km 1\.0$"):
            sweep_config(config(total=1.0), "gamma", [0.999, gamma])

    def test_names_the_first_bad_value(self):
        # either check, whichever value comes first
        with pytest.raises(ValueError, match=r"^gamma sweep values must lie in \(0, 1\)$"):
            sweep_config(config(), "gamma", [0.5, 2.0, -1.0])
        positive = "^sweep values must be finite and positive, got "
        with pytest.raises(ValueError, match=positive + r"-1\.0$"):
            sweep_config(config(), "gamma", [0.5, -1.0, 2.0])
        with pytest.raises(ValueError, match=positive + "0$"):
            sweep_config(config(), "spacing", [1, 0, -2])
        with pytest.raises(ValueError, match=r"^gamma 0\.25 sets a spacing of \S+ km, above"):
            sweep_config(config(total=1.0), "gamma", [0.999, 0.25, 0.5])

    @pytest.mark.filterwarnings("ignore:total_km/spacing_km")
    def test_gamma_spacings_are_minus_attenuation_times_log(self):
        # one array pass, each spacing the bits of the per-value -attenuation * log(gamma)
        values = [0.999, 0.5, 0.9, math.exp(-0.1), 1e-3]
        for attenuation in (22.0, 17.5):
            cfg = replace(config(total=1e4, spacing=1.0), attenuation_km=attenuation)
            got = chain_columns(sweep_config(cfg, "gamma", values))
            assert_same_columns(
                got, [replace(cfg, spacing_km=-attenuation * np.log(v)) for v in values])

    def test_rejects_unknown_axis(self):
        # checked before the values: no values, or one invalid on every axis, names the axis
        for values in ([1.0], [], [-1.0]):
            with pytest.raises(ValueError, match=r"^axis must be .*, got 'distance'$"):
                sweep_config(config(), "distance", values)
