"""Loss channel: Kraus oracle vs closed-form mixture, weights, probabilities."""

import math
import tracemalloc

import numpy as np
import pytest

from catloss import fock
from catloss.codes import CodeSpec, LogicalCoeffs, gram_matrix
from catloss.channel import ChannelParams, class_probabilities, mixture_weights
from catloss.fock import (
    KRAUS_RESIDUAL,
    _kraus_factors,
    channel_apply_exact,
    class_probabilities_kraus,
    codeword_fock,
    encode,
    kraus_apply,
    log_factorials,
    logical_mixture,
)

from conftest import projector, record_calls, sectioned_sum_direct

BALANCED = LogicalCoeffs.balanced()


class TestKrausApply:
    def test_lossless_k0_is_identity(self):
        state = fock.coherent_state(2.0)
        out = kraus_apply(state, ChannelParams(1.0), 0)
        assert np.max(np.abs(out - state)) < 1e-14

    def test_lossless_higher_k_vanish(self):
        state = fock.coherent_state(2.0)
        assert np.linalg.norm(kraus_apply(state, ChannelParams(1.0), 3)) == 0.0

    def test_completeness_on_coherent_state(self):
        state = fock.coherent_state(2.0)
        total = sum(
            np.linalg.norm(kraus_apply(state, ChannelParams(0.9), k)) ** 2
            for k in range(len(state))
        )
        assert abs(total - 1.0) < 1e-10

    def test_even_loss_action_on_code_word(self):
        # A_2 on the even cat codeword: damped word scaled by
        # sqrt(cosh(g a^2)/cosh(a^2)) (1-g) a^2 / sqrt(2)
        alpha, gamma, m = 2.0, 0.8, 1
        spec = CodeSpec(1, 2, alpha)
        word = codeword_fock(spec, 0, 0)
        out = kraus_apply(word, ChannelParams(gamma), 2 * m)
        damped = codeword_fock(spec, 0, 0, np.sqrt(gamma) * alpha, len(word) - 1)
        prefactor = (
            math.sqrt(math.cosh(gamma * alpha**2) / math.cosh(alpha**2))
            * (1 - gamma) ** m * alpha ** (2 * m) / math.sqrt(math.factorial(2 * m))
        )
        assert np.max(np.abs(out - prefactor * damped)) < 1e-10

    @pytest.mark.parametrize("k", range(13))
    def test_no_deformation_of_z_words(self, k):
        # corrupted norms are identical across the logical index
        spec = CodeSpec(2, 2, 3.0)
        params = ChannelParams(0.85)
        norms = [
            np.linalg.norm(kraus_apply(codeword_fock(spec, sector, 0), params, k))
            for sector in (0, 1)
        ]
        assert abs(norms[0] - norms[1]) < 1e-12

    def test_cyclic_branches_share_state(self):
        # k and k + cycle produce parallel outputs (same mixture component)
        spec = CodeSpec(1, 2, 2.0)
        params = ChannelParams(0.9)
        psi = encode(spec, BALANCED)
        lo = fock.normalized(kraus_apply(psi, params, 1))
        hi = fock.normalized(kraus_apply(psi, params, 5))
        assert abs(abs(np.vdot(lo, hi)) - 1.0) < 1e-12


class TestChannelExact:
    def test_identity_at_unit_transmission(self):
        rho = projector(encode(CodeSpec(1, 2, 2.0), BALANCED))
        out = channel_apply_exact(rho, ChannelParams(1.0))
        assert np.max(np.abs(out - rho)) < 1e-12

    def test_coherent_stays_coherent(self):
        alpha, gamma = 2.0, 0.7
        n_max = fock.default_n_max(alpha)
        rho = projector(fock.coherent_state(alpha, n_max))
        out = channel_apply_exact(rho, ChannelParams(gamma))
        target = projector(fock.coherent_state(np.sqrt(gamma) * alpha, n_max))
        assert fock.trace_distance(out, target) < 1e-10

    def test_trace_preserved(self):
        rho = projector(encode(CodeSpec(2, 2, 3.0), BALANCED))
        out = channel_apply_exact(rho, ChannelParams(0.8))
        assert abs(np.trace(out).real - 1.0) < 1e-10

    def test_rejects_unnormalized_input(self):
        rho = 2.0 * projector(fock.basis_state(0, 8))
        with pytest.raises(ValueError):
            channel_apply_exact(rho, ChannelParams(0.9))

    @staticmethod
    def per_k_reference(rho, gamma):
        """The channel one loss count at a time, stopping where the captured
        probability first comes within KRAUS_RESIDUAL of the trace."""
        n_max, trace_in = len(rho) - 1, float(np.trace(rho).real)
        log_fact = log_factorials(n_max)
        out, captured = np.zeros_like(rho, dtype=complex), 0.0
        for k in range(n_max + 1):
            f = _kraus_factors(n_max, gamma, k, log_fact)
            block = np.outer(f, f) * rho[k:, k:]
            out[: n_max + 1 - k, : n_max + 1 - k] += block
            captured += float(np.trace(block).real)
            if captured > trace_in - KRAUS_RESIDUAL:
                return out
        raise AssertionError("the reference captured too little probability")

    @staticmethod
    def random_density_matrix(dim, seed):
        a = np.random.default_rng(seed).normal(size=(dim, 2 * dim)).view(complex)
        rho = a @ a.conj().T
        return rho / np.trace(rho).real

    @pytest.mark.parametrize("gamma", [0.3, 0.9, 1.0])
    def test_matches_per_k_reference(self, gamma):
        states = [projector(encode(CodeSpec(L, d, alpha), LogicalCoeffs.balanced(d)))
                  for L, d, alpha in ((1, 2, 2.0), (2, 2, 3.0), (1, 3, 2.0))]
        states += [self.random_density_matrix(24, seed) for seed in (1, 2)]
        for rho in states:
            out = channel_apply_exact(rho, ChannelParams(gamma))
            assert np.max(np.abs(out - self.per_k_reference(rho, gamma))) <= 1e-15

    def test_truncation_error_kept(self, monkeypatch):
        # no cumulative captured probability reaches a trace beyond the input's
        monkeypatch.setattr("catloss.fock.KRAUS_RESIDUAL", -1e-3)
        with pytest.raises(fock.TruncationError, match="captured by k <= 8"):
            channel_apply_exact(projector(fock.basis_state(3, 8)), ChannelParams(0.5))


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

    @pytest.mark.parametrize("gamma", [0.3, 0.9, 1.0])
    @pytest.mark.parametrize("L,d,alpha", [(1, 2, 2.0), (2, 2, 3.0), (1, 3, 2.0), (4, 2, 7.0)])
    def test_kraus_norms_match_per_k_kraus_apply(self, L, d, alpha, gamma):
        # every ||A_k w||^2 in one array pass, against one kraus_apply per k
        spec, params = CodeSpec(L, d, alpha), ChannelParams(gamma)
        word = codeword_fock(spec, 0, 0)
        per_k = np.zeros(spec.cycle)
        for k in range(len(word)):
            per_k[k % spec.cycle] += float(np.linalg.norm(kraus_apply(word, params, k))) ** 2
        assert np.max(np.abs(class_probabilities_kraus(spec, params) - per_k)) <= 1e-15

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
    def test_batch_records_compare_and_hash_by_identity(self):
        params = [ChannelParams(np.array([0.9, 0.8])) for _ in range(2)]
        a, b = (mixture_weights(CodeSpec(1, 2, np.array([2.0, 3.0])), BALANCED, p) for p in params)
        for x, y in ((a, b), tuple(params)):
            assert x == x and x != y
            assert len({x, y, x}) == 2

    @pytest.mark.parametrize("L", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0, 6.0])
    @pytest.mark.parametrize("gamma", [0.5, 0.8, 0.99])
    def test_qubit_weights_sum_to_one(self, L, alpha, gamma):
        spec, params = CodeSpec(L, 2, alpha), ChannelParams(gamma)
        w = mixture_weights(spec, BALANCED, params)
        assert abs(float(np.sum(w.ptilde)) - 1.0) < 1e-10
        assert np.all(w.ptilde >= -1e-12)
        assert np.all(class_probabilities(spec, params) >= -1e-12)

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

    @pytest.mark.parametrize("L,d", [(1, 2), (2, 2), (3, 2), (6, 4)])
    def test_one_kernel_pass_for_all_damped_spaces(self, L, d, monkeypatch):
        # at most one coherent Gram pass for the code space at the nominal
        # amplitude and one for every damped space together
        calls = record_calls(monkeypatch, "catloss.codes._coherent_gram")
        mixture_weights(CodeSpec(L, d, 3.0), LogicalCoeffs.balanced(d),
                        ChannelParams(np.linspace(0.5, 1.0, 7)))
        coherent = [q for q in range(L + 1) if not (d == 2 and (L, q) in ((1, 0), (1, 1), (2, 0)))]
        assert len(calls) <= 2
        assert [list(qs) for _, qs, _ in calls[-1:]] == ([coherent] if coherent else [])

    def test_no_loss_gives_unit_first_weight(self):
        w = mixture_weights(CodeSpec(2, 2, 3.0), BALANCED, ChannelParams(1.0))
        assert abs(w.ptilde[0] - 1.0) < 1e-12
        assert np.max(np.abs(w.ptilde[1:])) < 1e-12

    def test_large_gamma_grid_memory_is_bounded(self):
        # the coherent Gram kernel runs in chunks of points and groups of
        # terms: a 2,000-point qudit grid peaks at 5.6 MiB (numpy reports its
        # buffers to tracemalloc, mostly the damped Gram matrices here); one
        # kernel pass over all points and all terms at once peaks at 232 MiB
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

    def test_qudit_weights_batch_peak_is_bounded(self):
        # the 101-point batch of `weights --L 6 --d 4 --alpha 8`; the kernel that
        # phased and summed the whole (point, pair, ja, jb) block once per space
        # peaked here at 1,056,467 bytes (numpy 2.4.6, Python 3.11), and the
        # kernel that adds a group of terms for every space at 951,924
        bound = 1_056_467
        spec = CodeSpec(6, 4, 8.0)
        coeffs = LogicalCoeffs.of(1.0, 1j, -1.0, 0.5)
        tracemalloc.start()
        try:
            w = mixture_weights(spec, coeffs, ChannelParams(np.linspace(0.5, 1.0, 101)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.ptilde.shape == (101, spec.cycle)
        assert peak <= bound


class TestLogicalMixture:
    def test_component_count_and_labels(self):
        # entry j is the normalized sum_k c_k e^{2 pi i j k / (d(L+1))} w_{k, j mod (L+1)}
        # at the damped amplitude, with the weight ptilde_j
        params = ChannelParams(0.9)
        damped = np.sqrt(0.9) * 2.5
        for L, d, raw in [(2, 2, (0.6, 0.8j)), (1, 3, (0.5, 0.5j, -0.7))]:
            spec, c = CodeSpec(L, d, 2.5), LogicalCoeffs.of(*raw)
            comps = logical_mixture(spec, c, params)
            assert len(comps) == spec.cycle == d * (L + 1)
            assert [w for w, _ in comps] == mixture_weights(spec, c, params).ptilde.tolist()
            for j, (_, state) in enumerate(comps):
                expected = fock.normalized(sum(
                    c.values[k] * np.exp(2j * np.pi * j * k / spec.cycle)
                    * codeword_fock(spec, k, j % (L + 1), damped)
                    for k in range(d)
                ))
                assert np.max(np.abs(state - expected)) < 1e-12

    @pytest.mark.parametrize("L,d,alpha,gamma", [(1, 2, 2.0, 0.9), (2, 3, 3.0, 0.5),
                                                 (4, 2, 7.0, 0.99), (3, 2, 6.0, 1.0)])
    def test_components_share_code_truncation(self, L, d, alpha, gamma):
        spec = CodeSpec(L, d, alpha)
        comps = logical_mixture(spec, LogicalCoeffs.balanced(d), ChannelParams(gamma))
        assert [len(state) - 1 for _, state in comps] == [fock.n_max(spec)] * spec.cycle

    def test_qutrit_component_count(self):
        comps = logical_mixture(
            CodeSpec(1, 3, 2.0), LogicalCoeffs.balanced(3), ChannelParams(0.9)
        )
        assert len(comps) == 6
        # entry j lives in space j mod 2: support n = -j (mod 2)
        for j, (_, state) in enumerate(comps):
            n = np.arange(len(state))
            assert np.max(np.abs(state[(n + j) % 2 != 0])) < 1e-14

    def test_one_loss_branch_carries_fixed_i_gate(self):
        # after one loss the balanced qubit becomes a w0 + i b w1 in the
        # odd space at the damped amplitude
        alpha, gamma = 2.0, 0.9
        spec = CodeSpec(1, 2, alpha)
        comps = logical_mixture(spec, BALANCED, ChannelParams(gamma))
        damped = np.sqrt(gamma) * alpha
        n_max = len(comps[1][1]) - 1
        w0 = codeword_fock(spec, 0, 1, damped, n_max)
        w1 = codeword_fock(spec, 1, 1, damped, n_max)
        expected = fock.normalized((1 / np.sqrt(2)) * w0 + (1j / np.sqrt(2)) * w1)
        assert np.max(np.abs(comps[1][1] - expected)) < 1e-12

    def test_branch_states_live_on_single_support_class(self):
        spec = CodeSpec(2, 2, 3.0)
        # entry j lives in space j mod 3
        for j, (_, state) in enumerate(logical_mixture(spec, BALANCED, ChannelParams(0.9))):
            n = np.arange(len(state))
            off = (n % 3) != ((-j) % 3)
            assert np.max(np.abs(state[off])) < 1e-14

    @pytest.mark.parametrize("L,d,alpha,gamma", [
        (0, 2, 2.0, 0.9),
        (1, 2, 2.0, 0.9),
        (2, 2, 3.0, 0.7),
        (1, 3, 2.0, 0.9),
    ])
    def test_mixture_equals_exact_channel(self, L, d, alpha, gamma):
        spec = CodeSpec(L, d, alpha)
        coeffs = LogicalCoeffs.balanced(d)
        rho = projector(encode(spec, coeffs))
        exact = channel_apply_exact(rho, ChannelParams(gamma))
        comps = logical_mixture(spec, coeffs, ChannelParams(gamma))
        assembled = fock.mix(comps)
        assert fock.trace_distance(exact, assembled) < 1e-8

    def test_qutrit_two_loss_mixture_with_complex_coefficients(self):
        # nine components, complex logical input
        spec = CodeSpec(2, 3, 2.5)
        coeffs = LogicalCoeffs.of(0.5, 0.5j, -0.7)
        rho = projector(encode(spec, coeffs))
        exact = channel_apply_exact(rho, ChannelParams(0.85))
        comps = logical_mixture(spec, coeffs, ChannelParams(0.85))
        assert len(comps) == 9
        assembled = fock.mix(comps)
        assert fock.trace_distance(exact, assembled) < 1e-8

    def test_mixture_with_complex_coefficients(self):
        spec = CodeSpec(1, 2, 2.0)
        coeffs = LogicalCoeffs.of(0.6, 0.8j)
        rho = projector(encode(spec, coeffs))
        exact = channel_apply_exact(rho, ChannelParams(0.85))
        comps = logical_mixture(spec, coeffs, ChannelParams(0.85))
        assembled = fock.mix(comps)
        assert fock.trace_distance(exact, assembled) < 1e-8
