"""Filter operation, teleportation success, and the one-way chain factor."""

import math

import numpy as np
import pytest

from catloss.codes import CodeSpec, LogicalCoeffs, gram_matrix
from catloss.channel import ChannelParams, mixture_weights
from catloss.fock import filter_operators, filter_params, teleport_success_assembled
from catloss.repeater import segment_gamma
from catloss.restore import (
    restoration_from_weights,
    teleport_success_from_overlaps,
    teleport_success_from_weights,
)
from conftest import record_calls
from mp_truth import restoration_factor


class TestFilterParams:
    def test_orthogonal_codewords(self):
        fp = filter_params(0.0)
        assert fp.b0 == pytest.approx(1 / math.sqrt(2))
        assert fp.b1 == pytest.approx(1 / math.sqrt(2))
        assert fp.phi == 0.0

    def test_weights_from_overlap_magnitude(self):
        fp = filter_params(0.6j)
        assert fp.b0 == pytest.approx(math.sqrt(0.8))
        assert fp.b1 == pytest.approx(math.sqrt(0.2))
        assert fp.phi == pytest.approx(math.pi / 2)
        assert fp.b0**2 + fp.b1**2 == pytest.approx(1.0)

    def test_one_loss_error_space_phase(self):
        # odd-space overlap is purely imaginary, so phi = +-pi/2
        s = gram_matrix(CodeSpec(1, 2, 2.0))[1, 0, 1]
        fp = filter_params(s)
        assert abs(abs(fp.phi) - math.pi / 2) < 1e-12

    def test_collinear_rejected(self):
        for s in (1.0, math.nan):
            with pytest.raises(ValueError, match="collinear"):
                filter_params(s)

    @pytest.mark.parametrize("mag", [0.0, 0.1, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("phase", [0.0, 0.7, math.pi / 2, 2.5])
    def test_povm_completeness(self, mag, phase):
        fp = filter_params(mag * np.exp(1j * phase))
        a_s, a_f = filter_operators(fp)
        povm = a_s.conj().T @ a_s + a_f.conj().T @ a_f
        assert np.max(np.abs(povm - np.eye(2))) < 1e-12


class TestFilterSuccess:
    def test_zero_loss_code_value(self):
        # coherent-pair overlap exp(-2 alpha^2) at alpha = 1
        alpha = 1.0
        s = gram_matrix(CodeSpec(0, 2, alpha))[0, 0, 1]
        assert abs(1 - abs(s) - (1.0 - math.exp(-2 * alpha**2))) < 1e-12

    def test_one_loss_code_space_value(self):
        a2 = 4.0
        s = gram_matrix(CodeSpec(1, 2, 2.0))[0, 0, 1]
        assert abs(1 - abs(s) - (1.0 - abs(math.cos(a2)) / math.cosh(a2))) < 1e-12

    def test_matches_filtered_norm(self):
        # P = ||A_s w||^2 for either codeword written in the filter basis
        s = 0.3 - 0.4j
        fp = filter_params(s)
        a_s, _ = filter_operators(fp)
        w0 = np.array([fp.b0, fp.b1])
        w1 = np.exp(1j * fp.phi) * np.array([fp.b0, -fp.b1])
        for w in (w0, w1):
            assert np.linalg.norm(a_s @ w) ** 2 == pytest.approx(1 - abs(s))


class TestTeleportSuccess:
    def test_orthogonal_limit(self):
        c = LogicalCoeffs.of(1.0, 1.0j)
        assert teleport_success_from_overlaps(0.0, 0.0, c) == pytest.approx(1.0)

    @pytest.mark.parametrize("s_tilde,s_bar", [(math.nan, 0.1), (0.1, math.nan), (math.inf, 0.1)])
    def test_non_finite_overlap_rejected(self, s_tilde, s_bar):
        c = LogicalCoeffs.balanced()
        with pytest.raises(ArithmeticError, match="finite"):
            teleport_success_from_overlaps(s_tilde, s_bar, c)
        assert teleport_success_from_overlaps(1.0, 0.1, c) == 0.0  # saturated limit

    def test_near_orthogonal_code(self):
        # alpha = 6 overlaps are ~1e-15, success is essentially certain
        c = LogicalCoeffs.balanced()
        w = mixture_weights(CodeSpec(1, 2, 6.0), c, ChannelParams(1.0))
        p = teleport_success_from_weights(w, 0, c)
        assert abs(p - 1.0) < 1e-10

    def test_omega_norm_reduction_for_real_inputs(self):
        # with s_bar = 0 every output norm is 1 and the Bell sum is 4, so
        # P = (1 - |s_tilde|)^2 / N_omega with N_omega = 1 + 2 a b s_tilde
        s_tilde = 0.17
        c = LogicalCoeffs.of(0.6, 0.8)
        p = teleport_success_from_overlaps(s_tilde, 0.0, c)
        assert p == pytest.approx((1 - s_tilde) ** 2 / (1 + 2 * 0.6 * 0.8 * s_tilde))

    @pytest.mark.parametrize("q", [0, 1])
    def test_closed_form_vs_assembled_state(self, q):
        spec = CodeSpec(1, 2, 2.0)
        params = ChannelParams(0.95)
        c = LogicalCoeffs.of(1 / math.sqrt(2), 1j / math.sqrt(2))
        closed = teleport_success_from_weights(mixture_weights(spec, c, params), q, c)
        assembled = teleport_success_assembled(spec, q, params, c)
        assert abs(closed - assembled) < 1e-9

    def test_closed_form_vs_assembled_randomized(self, rng):
        for _ in range(10):
            L = int(rng.integers(0, 4))
            alpha = float(rng.uniform(1.2, 4.0))
            gamma = float(rng.uniform(0.7, 0.999))
            q = int(rng.integers(0, L + 1))
            raw = rng.normal(size=2) + 1j * rng.normal(size=2)
            c = LogicalCoeffs.of(*raw)
            spec = CodeSpec(L, 2, alpha)
            w = mixture_weights(spec, c, ChannelParams(gamma))
            closed = teleport_success_from_weights(w, q, c)
            assembled = teleport_success_assembled(spec, q, ChannelParams(gamma), c)
            assert abs(closed - assembled) < 1e-9
            assert 0.0 <= closed <= 1.0 + 1e-12

    def test_monotone_in_damped_overlap(self):
        c = LogicalCoeffs.balanced()
        s_bar = 0.01
        vals = [
            teleport_success_from_overlaps(t, s_bar, c)
            for t in (0.0, 0.05, 0.1, 0.2, 0.4)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_amplitude_in_controls_damped_overlap(self):
        # restoring from a doubly damped qubit is harder: gamma = 0.81 puts
        # the qubit at sqrt(0.9) * (sqrt(0.9) * alpha)
        spec = CodeSpec(1, 2, 2.0)
        c = LogicalCoeffs.balanced()
        once = teleport_success_from_weights(mixture_weights(spec, c, ChannelParams(0.9)), 0, c)
        twice = teleport_success_from_weights(mixture_weights(spec, c, ChannelParams(0.81)), 0, c)
        assert twice < once

    def test_rejects_qudits(self):
        spec, c, params = CodeSpec(1, 3, 2.0), LogicalCoeffs.balanced(3), ChannelParams(0.9)
        with pytest.raises(ValueError, match="qubit codes only"):
            restoration_from_weights(c, mixture_weights(spec, c, params))
        with pytest.raises(ValueError, match="qubit codes only"):
            teleport_success_assembled(spec, 0, params, c)


class TestOneWaySuccess:
    def test_unit_factor_power(self):
        # with zero loss and near-orthogonal words each step is certain
        spec, c = CodeSpec(1, 2, 6.0), LogicalCoeffs.balanced()
        p = restoration_from_weights(c, mixture_weights(spec, c, ChannelParams(1.0))) ** 40
        assert abs(p - 1.0) < 1e-8

    def test_overlaps_read_from_mixture_grams(self, monkeypatch):
        # s_bar and s_tilde come from the Gram matrices of mixture_weights, so
        # the factor runs the coherent Gram kernel exactly as the weights do;
        # L = 3 has no trigonometric space, so every overlap takes that kernel,
        # whichever module asks for it
        spec = CodeSpec(3, 2, 3.0)
        params = ChannelParams(0.95)
        c = LogicalCoeffs.balanced()
        expected = restoration_from_weights(c, mixture_weights(spec, c, params))
        calls = record_calls(monkeypatch, "catloss.codes._coherent_gram")
        mixture_weights(spec, c, params)
        weights_calls = [(list(qs), amps.tolist()) for _, qs, amps in calls]
        assert weights_calls
        calls.clear()
        assert restoration_from_weights(c, mixture_weights(spec, c, params)) == expected
        assert [(list(qs), amps.tolist()) for _, qs, amps in calls] == weights_calls

    def test_branches_are_one_teleportation_call(self, monkeypatch):
        # the d(L+1) branches are a batch axis: one call per factor, not one per branch
        calls = record_calls(monkeypatch, "catloss.restore.teleport_success_from_overlaps")
        spec = CodeSpec(3, 2, np.array([3.0, 5.0, 7.0]))
        coeffs = LogicalCoeffs([LogicalCoeffs.of(0.6, 0.8j).values] * 3)
        params = ChannelParams(np.array([0.9, 0.5, 1.0]))
        factor = restoration_from_weights(coeffs, mixture_weights(spec, coeffs, params))
        assert len(calls) == 1
        assert factor.shape == (3,) and np.shape(calls[0][0]) == (3, 8)

    def test_restoration_factor_weighted_by_branches(self):
        # factor lies between the extreme per-branch success values
        spec = CodeSpec(1, 2, 2.0)
        coeffs = LogicalCoeffs.balanced()
        params = ChannelParams(0.9)
        factor = restoration_from_weights(coeffs, mixture_weights(spec, coeffs, params))
        branch_vals = []
        for j in range(4):
            c = LogicalCoeffs(
                (coeffs.values[0], coeffs.values[1] * np.exp(2j * np.pi * j / 4))
            )
            w = mixture_weights(spec, c, params)
            branch_vals.append(teleport_success_from_weights(w, j % 2, c))
        assert min(branch_vals) - 1e-12 <= factor <= max(branch_vals) + 1e-12

    # rows (L, alpha, spacing_km) of Tables I-III, restored every segment (gamma) or
    # every second one (gamma^2), for each balanced input (1, +-1)/sqrt(2); every one of
    # the 132 such points lies within 2.1e-14 (Table III, alpha 9, 1 km, gamma^2)
    @pytest.mark.parametrize("L, alpha, spacing, ar_every, sign", [
        (3, 4.0, 0.10, 1, 1), (3, 4.5, 1.00, 2, 1), (3, 5.0, 1.00, 2, -1), (3, 6.0, 0.01, 1, -1),
        (4, 6.0, 1.00, 1, -1), (4, 7.0, 0.10, 2, 1), (4, 8.0, 0.01, 1, 1), (4, 8.0, 1.00, 2, -1),
        (5, 6.0, 1.00, 1, 1), (5, 7.0, 0.10, 2, -1), (5, 8.0, 0.01, 1, -1), (5, 9.0, 1.00, 2, 1),
    ])
    def test_restoration_factor_matches_mpmath(self, L, alpha, spacing, ar_every, sign):
        gamma = float(np.float_power(segment_gamma(spacing), ar_every))
        c = LogicalCoeffs(np.array([1, sign]) / np.sqrt(2))
        got = restoration_from_weights(c, mixture_weights(CodeSpec(L, 2, alpha), c,
                                                          ChannelParams(gamma)))
        want = restoration_factor(L, alpha, gamma, c.values)
        assert abs(got - want) <= 1e-13 * want
