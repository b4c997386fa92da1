"""Loss channel: Kraus oracle vs closed-form mixture, weights, probabilities."""

import math
import tracemalloc

import numpy as np
import pytest

from catloss import fock
from catloss.codes import CodeSpec, LogicalCoeffs, codeword_fock, gram_matrix
from catloss.channel import (
    ChannelParams,
    channel_apply_exact,
    class_probabilities,
    class_probabilities_kraus,
    encode,
    kraus_apply,
    logical_mixture,
    mixture_weights,
)

from conftest import sectioned_sum_direct

BALANCED = LogicalCoeffs.balanced()


class TestKrausApply:
    def test_lossless_k0_is_identity(self):
        state = fock.coherent_state(2.0)
        out = kraus_apply(state, ChannelParams(1.0), 0)
        assert np.max(np.abs(out.coeffs - state.coeffs)) < 1e-14

    def test_lossless_higher_k_vanish(self):
        state = fock.coherent_state(2.0)
        assert kraus_apply(state, ChannelParams(1.0), 3).norm() == 0.0

    def test_completeness_on_coherent_state(self):
        state = fock.coherent_state(2.0)
        total = sum(
            kraus_apply(state, ChannelParams(0.9), k).norm() ** 2
            for k in range(state.n_max + 1)
        )
        assert abs(total - 1.0) < 1e-10

    def test_even_loss_action_on_code_word(self):
        # A_2 on the even cat codeword: damped word scaled by
        # sqrt(cosh(g a^2)/cosh(a^2)) (1-g) a^2 / sqrt(2)
        alpha, gamma, m = 2.0, 0.8, 1
        spec = CodeSpec(1, 2, alpha)
        word = codeword_fock(spec, 0, 0)
        out = kraus_apply(word, ChannelParams(gamma), 2 * m)
        damped = codeword_fock(spec, 0, 0, np.sqrt(gamma) * alpha, word.n_max)
        prefactor = (
            math.sqrt(math.cosh(gamma * alpha**2) / math.cosh(alpha**2))
            * (1 - gamma) ** m * alpha ** (2 * m) / math.sqrt(math.factorial(2 * m))
        )
        assert np.max(np.abs(out.coeffs - prefactor * damped.coeffs)) < 1e-10

    @pytest.mark.parametrize("k", range(13))
    def test_no_deformation_of_z_words(self, k):
        # corrupted norms are identical across the logical index
        spec = CodeSpec(2, 2, 3.0)
        params = ChannelParams(0.85)
        norms = [
            kraus_apply(codeword_fock(spec, sector, 0), params, k).norm()
            for sector in (0, 1)
        ]
        assert abs(norms[0] - norms[1]) < 1e-12

    def test_cyclic_branches_share_state(self):
        # k and k + cycle produce parallel outputs (same mixture component)
        spec = CodeSpec(1, 2, 2.0)
        params = ChannelParams(0.9)
        psi = encode(spec, BALANCED)
        lo = kraus_apply(psi, params, 1).normalized()
        hi = kraus_apply(psi, params, 5).normalized()
        assert abs(abs(fock.inner(lo, hi)) - 1.0) < 1e-12


class TestChannelExact:
    def test_identity_at_unit_transmission(self):
        rho = fock.outer(encode(CodeSpec(1, 2, 2.0), BALANCED))
        out = channel_apply_exact(rho, ChannelParams(1.0))
        assert np.max(np.abs(out.entries - rho.entries)) < 1e-12

    def test_coherent_stays_coherent(self):
        alpha, gamma = 2.0, 0.7
        n_max = fock.default_n_max(alpha)
        rho = fock.outer(fock.coherent_state(alpha, n_max))
        out = channel_apply_exact(rho, ChannelParams(gamma))
        target = fock.outer(fock.coherent_state(np.sqrt(gamma) * alpha, n_max))
        assert fock.trace_distance(out, target) < 1e-10

    def test_trace_preserved(self):
        rho = fock.outer(encode(CodeSpec(2, 2, 3.0), BALANCED))
        out = channel_apply_exact(rho, ChannelParams(0.8))
        assert abs(out.trace() - 1.0) < 1e-10

    def test_rejects_unnormalized_input(self):
        rho = fock.DensityMatrix(2.0 * fock.outer(fock.basis_state(0, 8)).entries, 8)
        with pytest.raises(ValueError):
            channel_apply_exact(rho, ChannelParams(0.9))


class TestClassProbabilities:
    def test_no_loss_limit(self):
        p = class_probabilities(CodeSpec(1, 2, 2.0), ChannelParams(1.0))
        assert np.max(np.abs(p - np.array([1.0, 0, 0, 0]))) < 1e-14

    def test_one_loss_closed_forms(self):
        # cos/cosh and sin/sinh combinations at alpha=2, gamma=0.9
        alpha, gamma = 2.0, 0.9
        a2 = alpha**2
        x = (1 - gamma) * a2
        p = class_probabilities(CodeSpec(1, 2, alpha), ChannelParams(gamma))
        c, s = math.cosh(gamma * a2), math.sinh(gamma * a2)
        den = 2 * math.cosh(a2)
        expected = [
            c * (math.cos(x) + math.cosh(x)) / den,
            s * (math.sin(x) + math.sinh(x)) / den,
            c * (-math.cos(x) + math.cosh(x)) / den,
            s * (-math.sin(x) + math.sinh(x)) / den,
        ]
        assert np.max(np.abs(p - expected)) < 1e-12

    @pytest.mark.parametrize("L,d,alpha,gamma", [
        (1, 2, 2.0, 0.9),
        (2, 2, 3.0, 0.9),
        (2, 2, 3.0, 0.7),
        (3, 2, 2.0, 0.8),
        (1, 3, 2.0, 0.9),
    ])
    def test_matches_kraus_norm_oracle(self, L, d, alpha, gamma):
        spec = CodeSpec(L, d, alpha)
        params = ChannelParams(gamma)
        closed = class_probabilities(spec, params)
        oracle = class_probabilities_kraus(spec, params)
        assert np.max(np.abs(closed - oracle)) < 1e-10

    def test_sectioned_series_against_direct_sum(self):
        # the root-of-unity filter behind p matches brute-force summation
        from catloss.series import sectioned_exp

        for x in (0.04, 0.5, 2.7, 10.8):
            for m, j in ((4, 0), (6, 3), (8, 5), (12, 11)):
                direct = sectioned_sum_direct(x, m, j)
                assert abs(sectioned_exp(x, m, j) - direct) < 1e-10

    def test_nonnegative(self):
        p = class_probabilities(CodeSpec(4, 2, 7.0), ChannelParams(0.999))
        assert np.all(p >= 0.0)


class TestMixtureWeights:
    @pytest.mark.parametrize("L", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0, 6.0])
    @pytest.mark.parametrize("gamma", [0.5, 0.8, 0.99])
    def test_qubit_weights_sum_to_one(self, L, alpha, gamma):
        w = mixture_weights(CodeSpec(L, 2, alpha), BALANCED, ChannelParams(gamma))
        assert abs(float(np.sum(w.ptilde)) - 1.0) < 1e-10
        assert np.all(w.ptilde >= -1e-12)
        assert np.all(w.p >= -1e-12)

    @pytest.mark.parametrize("L", [0, 1, 2])
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0, 6.0])
    @pytest.mark.parametrize("gamma", [0.5, 0.8, 0.99])
    def test_qutrit_weights_sum_to_one(self, L, alpha, gamma):
        w = mixture_weights(
            CodeSpec(L, 3, alpha), LogicalCoeffs.balanced(3), ChannelParams(gamma)
        )
        assert abs(float(np.sum(w.ptilde)) - 1.0) < 1e-10

    def test_one_loss_weight_formulas(self):
        # branch renormalization ratios against their trigonometric forms
        alpha, gamma = 2.0, 0.9
        a2, re_ab = alpha**2, 0.5
        w = mixture_weights(CodeSpec(1, 2, alpha), BALANCED, ChannelParams(gamma))
        p = class_probabilities(CodeSpec(1, 2, alpha), ChannelParams(gamma))
        den = 1 + 2 * re_ab * math.cos(a2) / math.cosh(a2)
        cg = math.cos(gamma * a2) / math.cosh(gamma * a2)
        sg = math.sin(gamma * a2) / math.sinh(gamma * a2)
        expected = [
            (1 + 2 * re_ab * cg) / den * p[0],
            (1 - 2 * re_ab * sg) / den * p[1],
            (1 - 2 * re_ab * cg) / den * p[2],
            (1 + 2 * re_ab * sg) / den * p[3],
        ]
        assert np.max(np.abs(w.ptilde - expected)) < 1e-12

    @pytest.mark.parametrize(
        "L,d,alpha,gamma", [(1, 2, 2.0, 0.9), (2, 2, 3.0, 0.7), (2, 3, 2.5, 0.8)]
    )
    def test_carries_the_gram_matrices_it_is_built_from(self, L, d, alpha, gamma):
        spec = CodeSpec(L, d, alpha)
        w = mixture_weights(spec, LogicalCoeffs.balanced(d), ChannelParams(gamma))
        assert np.all(w.gram == gram_matrix(spec, 0))
        assert len(w.damped_grams) == spec.spaces
        for q, g in enumerate(w.damped_grams):
            assert np.all(g == gram_matrix(spec, q, math.sqrt(gamma) * alpha))

    def test_no_loss_gives_unit_first_weight(self):
        w = mixture_weights(CodeSpec(2, 2, 3.0), BALANCED, ChannelParams(1.0))
        assert abs(w.ptilde[0] - 1.0) < 1e-12
        assert np.max(np.abs(w.ptilde[1:])) < 1e-12

    def test_large_gamma_grid_memory_is_bounded(self):
        # the coherent Gram kernel runs in fixed-size chunks: a 2,000-point
        # qudit grid peaks at 7.3 MiB (numpy reports its buffers to
        # tracemalloc, mostly the damped Gram matrices here); one kernel pass
        # over all points at once peaks at 65 MiB
        spec = CodeSpec(6, 4, 8.0)
        coeffs = LogicalCoeffs.of(1.0, 1j, -1.0, 0.5)
        tracemalloc.start()
        try:
            w = mixture_weights(spec, coeffs, ChannelParams(np.linspace(0.5, 1.0, 2000)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.ptilde.shape == (2000, spec.cycle)
        assert peak < 16 * 2**20


class TestLogicalMixture:
    def test_component_count_and_labels(self):
        spec = CodeSpec(2, 2, 3.0)
        comps = logical_mixture(spec, BALANCED, ChannelParams(0.9))
        assert len(comps) == 6
        assert [c.space_q for c in comps] == [0, 1, 2, 0, 1, 2]
        assert [c.cycle_j for c in comps] == [0, 0, 0, 1, 1, 1]
        labels = [c.phase_label for c in comps]
        expected = [np.exp(2j * np.pi * j / 6) for j in range(6)]
        assert np.max(np.abs(np.array(labels) - expected)) < 1e-12

    @pytest.mark.parametrize("L,d,alpha,gamma", [(1, 2, 2.0, 0.9), (2, 3, 3.0, 0.5),
                                                 (4, 2, 7.0, 0.99), (3, 2, 6.0, 1.0)])
    def test_components_share_code_truncation(self, L, d, alpha, gamma):
        spec = CodeSpec(L, d, alpha)
        comps = logical_mixture(spec, LogicalCoeffs.balanced(d), ChannelParams(gamma))
        assert [c.state.n_max for c in comps] == [spec.n_max()] * spec.cycle

    def test_qutrit_component_count(self):
        comps = logical_mixture(
            CodeSpec(1, 3, 2.0), LogicalCoeffs.balanced(3), ChannelParams(0.9)
        )
        assert len(comps) == 6
        assert [c.space_q for c in comps] == [0, 1, 0, 1, 0, 1]

    def test_one_loss_branch_carries_fixed_i_gate(self):
        # after one loss the balanced qubit becomes a w0 + i b w1 in the
        # odd space at the damped amplitude
        alpha, gamma = 2.0, 0.9
        spec = CodeSpec(1, 2, alpha)
        comps = logical_mixture(spec, BALANCED, ChannelParams(gamma))
        damped = np.sqrt(gamma) * alpha
        n_max = comps[1].state.n_max
        w0 = codeword_fock(spec, 0, 1, damped, n_max)
        w1 = codeword_fock(spec, 1, 1, damped, n_max)
        expected = ((1 / np.sqrt(2)) * w0 + (1j / np.sqrt(2)) * w1).normalized()
        assert np.max(np.abs(comps[1].state.coeffs - expected.coeffs)) < 1e-12

    def test_branch_states_live_on_single_support_class(self):
        spec = CodeSpec(2, 2, 3.0)
        for comp in logical_mixture(spec, BALANCED, ChannelParams(0.9)):
            n = np.arange(comp.state.n_max + 1)
            off = (n % 3) != ((-comp.space_q) % 3)
            assert np.max(np.abs(comp.state.coeffs[off])) < 1e-14

    @pytest.mark.parametrize("L,d,alpha,gamma", [
        (0, 2, 2.0, 0.9),
        (1, 2, 2.0, 0.9),
        (2, 2, 3.0, 0.7),
        (1, 3, 2.0, 0.9),
    ])
    def test_mixture_equals_exact_channel(self, L, d, alpha, gamma):
        spec = CodeSpec(L, d, alpha)
        coeffs = LogicalCoeffs.balanced(d)
        rho = fock.outer(encode(spec, coeffs))
        exact = channel_apply_exact(rho, ChannelParams(gamma))
        comps = logical_mixture(spec, coeffs, ChannelParams(gamma))
        assembled = fock.mix([(c.weight, c.state) for c in comps])
        assert fock.trace_distance(exact, assembled) < 1e-8

    def test_qutrit_two_loss_mixture_with_complex_coefficients(self):
        # nine components, complex logical input
        spec = CodeSpec(2, 3, 2.5)
        coeffs = LogicalCoeffs.of(0.5, 0.5j, -0.7)
        rho = fock.outer(encode(spec, coeffs))
        exact = channel_apply_exact(rho, ChannelParams(0.85))
        comps = logical_mixture(spec, coeffs, ChannelParams(0.85))
        assert len(comps) == 9
        assembled = fock.mix([(c.weight, c.state) for c in comps])
        assert fock.trace_distance(exact, assembled) < 1e-8

    def test_mixture_with_complex_coefficients(self):
        spec = CodeSpec(1, 2, 2.0)
        coeffs = LogicalCoeffs.of(0.6, 0.8j)
        rho = fock.outer(encode(spec, coeffs))
        exact = channel_apply_exact(rho, ChannelParams(0.85))
        comps = logical_mixture(spec, coeffs, ChannelParams(0.85))
        assembled = fock.mix([(c.weight, c.state) for c in comps])
        assert fock.trace_distance(exact, assembled) < 1e-8
