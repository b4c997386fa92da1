"""Correctability reports, syndrome conditioning, and fidelity bounds."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catloss import fock
from catloss.codes import CodeSpec, LogicalCoeffs
from catloss.channel import ChannelParams, mixture_weights, thinning_weights
from catloss.fock import _code_basis, codeword_fock, encode, kl_check, logical_mixture
from catloss.qec import fidelity_bound, fidelity_from_weights

from conftest import central_difference, record_calls

BALANCED = LogicalCoeffs.balanced()


class TestKlCheckZ:
    @pytest.mark.parametrize("k", [0, 1])
    def test_even_cycle_off_diagonal(self, k):
        # <0|(a^4k)+ a^4k|1> = (a^2)^(4k) cos(a^2)/cosh(a^2)
        alpha = 2.0
        report = kl_check(CodeSpec(1, 2, alpha), "Z", 4 * k, 4 * k)
        expected = alpha ** (2 * 4 * k) * math.cos(alpha**2) / math.cosh(alpha**2)
        assert abs(report.gram[0, 1] - expected) < 1e-10

    def test_even_cycle_diagonal(self):
        alpha = 2.0
        report = kl_check(CodeSpec(1, 2, alpha), "Z", 4, 4)
        assert abs(report.gram[0, 0] - alpha**8) < 1e-8 * alpha**8
        assert report.deform_violation < 1e-12

    def test_single_loss_off_diagonal(self):
        # <0|(a)+(a)|1> = -(a^2) sin(a^2)/cosh(a^2)
        alpha = 2.0
        report = kl_check(CodeSpec(1, 2, alpha), "Z", 1, 1)
        expected = -(alpha**2) * math.sin(alpha**2) / math.cosh(alpha**2)
        assert abs(report.gram[0, 1] - expected) < 1e-10

    def test_cross_parity_block_vanishes(self):
        report = kl_check(CodeSpec(1, 2, 2.0), "Z", 0, 1)
        assert np.max(np.abs(report.gram)) < 1e-12

    @pytest.mark.parametrize("k", range(13))
    def test_no_deformation_any_loss_count(self, k):
        report = kl_check(CodeSpec(1, 2, 2.0), "Z", k, k)
        assert report.deform_violation < 1e-12

    def test_ortho_violation_decays_with_amplitude(self):
        small = kl_check(CodeSpec(1, 2, 2.0), "Z", 0, 0)
        large = kl_check(CodeSpec(1, 2, 6.0), "Z", 0, 0)
        assert large.ortho_violation < small.ortho_violation

    def test_gram_hermitian_for_equal_errors(self):
        report = kl_check(CodeSpec(2, 2, 3.0), "Z", 2, 2)
        assert np.max(np.abs(report.gram - report.gram.conj().T)) < 1e-12


class TestKlCheckX:
    def test_orthogonality_holds(self):
        report = kl_check(CodeSpec(1, 2, 2.0), "X", 1, 1)
        assert report.ortho_violation < 1e-12

    def test_even_cycle_not_deformed(self):
        report = kl_check(CodeSpec(1, 2, 2.0), "X", 0, 0)
        assert report.deform_violation < 1e-12

    def test_odd_loss_deformation_ratio(self):
        # after stripping the basis normalizations the diagonal ratio is
        # (1 - sin a^2/sinh a^2)/(1 + sin a^2/sinh a^2)
        alpha = 2.0
        a2 = alpha**2
        report = kl_check(CodeSpec(1, 2, alpha), "X", 1, 1)
        assert report.deform_violation > 0.0
        c = math.cos(a2) / math.cosh(a2)
        got = (report.gram[0, 0].real * (1 + c)) / (report.gram[1, 1].real * (1 - c))
        expected = (1 - math.sin(a2) / math.sinh(a2)) / (1 + math.sin(a2) / math.sinh(a2))
        assert abs(got - expected) < 1e-10

    def test_rejects_qudits(self):
        with pytest.raises(ValueError):
            kl_check(CodeSpec(1, 3, 2.0), "X", 0, 0)


class TestKlCheckSequences:
    # loss counts as sequences: one report per pair, from one basis build
    @pytest.mark.parametrize("basis", ["Z", "X"])
    @pytest.mark.parametrize("L", range(4))
    def test_sequence_equals_pairs_bit_for_bit(self, L, basis):
        losses = range(2 * L + 2)
        for alpha in (0.5, 1.0, 2.0, 3.5, 6.0, 9.0):
            spec = CodeSpec(L, 2, alpha)
            reports = kl_check(spec, basis, losses, losses)
            assert len(reports) == len(losses)
            for i, report in zip(losses, reports):
                one = kl_check(spec, basis, i, i)
                assert np.array_equal(report.gram, one.gram)
                assert report.ortho_violation == one.ortho_violation
                assert report.deform_violation == one.deform_violation

    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_ladder_equals_direct_lowering(self, basis):
        # a^i w stepped down from a^(i-1) w has the bits of fock.annihilate(w, i)
        spec = CodeSpec(3, 2, 5.0)
        words = _code_basis(spec, basis)
        for i, report in enumerate(kl_check(spec, basis, range(8), range(8))):
            low = [fock.annihilate(w, i) for w in words]
            assert np.array_equal(report.gram, [[np.vdot(u, v) for v in low] for u in low])

    def test_count_broadcasts_against_sequence(self):
        spec = CodeSpec(1, 2, 2.0)
        reports = kl_check(spec, "Z", 0, [0, 1, 4])
        assert [r.gram.tolist() for r in reports] == [
            kl_check(spec, "Z", 0, j).gram.tolist() for j in (0, 1, 4)]
        assert kl_check(spec, "Z", range(0), range(0)) == []

    @pytest.mark.parametrize("i,j", [([0, 1], [0, -1]), (-1, 0), (1.5, 1.5), ([0, 1.0], 0)])
    def test_rejects_negative_or_fractional_count(self, i, j):
        with pytest.raises(ValueError, match="nonnegative integers"):
            kl_check(CodeSpec(1, 2, 2.0), "Z", i, j)

    def test_count_past_cutoff_names_count_alpha_and_cutoff(self):
        # alpha = 1 keeps the default cutoff 64; L = 40 asks for 2L+1 = 81 losses
        with pytest.raises(ValueError, match=r"loss count 81 exceeds the Fock cutoff "
                                             r"n_max=64 at alpha=1\.0"):
            kl_check(CodeSpec(40, 2, 1.0), "Z", range(82), range(82))


def _syndrome(spec, mixture, q):
    """Components of the output mixture that carry syndrome q (entries j with
    j mod (L+1) = q), with their total weight (the syndrome probability)."""
    selected = [comp for j, comp in enumerate(mixture) if j % spec.spaces == q]
    return selected, sum(w for w, _ in selected)


class TestParityProject:
    """Syndrome conditioning of ``logical_mixture`` output."""

    def test_no_loss_even_syndrome_is_pure_input(self):
        spec = CodeSpec(1, 2, 2.0)
        mixture = logical_mixture(spec, BALANCED, ChannelParams(1.0))
        selected, prob = _syndrome(spec, mixture, 0)
        assert abs(prob - 1.0) < 1e-12
        rho = fock.mix([(w / prob, state) for w, state in selected])
        psi = encode(spec, BALANCED)
        overlap = np.real(np.vdot(psi, rho @ psi))
        assert abs(overlap - 1.0) < 1e-10

    def test_zero_probability_syndrome_flagged(self):
        spec = CodeSpec(1, 2, 2.0)
        mixture = logical_mixture(spec, BALANCED, ChannelParams(1.0))
        selected, prob = _syndrome(spec, mixture, 1)
        assert selected
        assert prob == 0.0

    def test_odd_syndrome_two_components(self):
        spec = CodeSpec(1, 2, 2.0)
        params = ChannelParams(0.9)
        mixture = logical_mixture(spec, BALANCED, params)
        selected, prob = _syndrome(spec, mixture, 1)
        rho = fock.mix([(w / prob, state) for w, state in selected])
        w = mixture_weights(spec, BALANCED, params)
        assert abs(prob - (w.ptilde[1] + w.ptilde[3])) < 1e-12
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        # rank two: exactly the two odd branches
        eigs = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert eigs[1] > 1e-6
        assert abs(eigs[:2].sum() - 1.0) < 1e-10

    def test_syndrome_probabilities_complete(self):
        spec = CodeSpec(2, 2, 3.0)
        mixture = logical_mixture(spec, BALANCED, ChannelParams(0.8))
        total = sum(_syndrome(spec, mixture, q)[1] for q in range(3))
        assert abs(total - 1.0) < 1e-10


class TestFidelityState:
    def test_unit_transmission(self):
        w = mixture_weights(CodeSpec(1, 2, 2.0), BALANCED, ChannelParams(1.0))
        assert abs(fidelity_from_weights(w) - 1.0) < 1e-12

    def test_equals_correctable_weight_sum(self):
        spec = CodeSpec(2, 2, 3.0)
        params = ChannelParams(0.9)
        w = mixture_weights(spec, BALANCED, params)
        assert abs(fidelity_from_weights(w) - float(np.sum(w.ptilde[:3]))) < 1e-14

    def test_decreases_with_loss(self):
        spec = CodeSpec(1, 2, 2.0)
        vals = [fidelity_from_weights(mixture_weights(spec, BALANCED, ChannelParams(g)))
                for g in (0.999, 0.9, 0.7)]
        assert vals[0] > vals[1] > vals[2]

    def test_qutrit_correctable_weight(self):
        spec = CodeSpec(1, 3, 2.0)
        coeffs = LogicalCoeffs.balanced(3)
        params = ChannelParams(0.9)
        w = mixture_weights(spec, coeffs, params)
        assert abs(fidelity_from_weights(w) - w.ptilde[:2].sum()) < 1e-14

    def test_batch_of_states_equals_one_state_calls(self):
        spec = CodeSpec(2, 2, 3.0)
        params = ChannelParams(0.9)
        rows = np.array([[1, 0], [0.6, 0.8j], [-0.8, 0.6]], dtype=complex)
        batched = fidelity_from_weights(mixture_weights(spec, LogicalCoeffs(rows), params))
        assert batched.shape == (3,)
        assert batched.tolist() == [
            fidelity_from_weights(mixture_weights(spec, LogicalCoeffs(r), params)) for r in rows
        ]

    def test_syndrome_decomposition_cross_check(self):
        # conditioning on each syndrome and keeping the phase-intact branch
        # reassembles the correctable weight sum
        spec = CodeSpec(1, 2, 2.0)
        params = ChannelParams(0.9)
        mixture = logical_mixture(spec, BALANCED, params)
        w = mixture_weights(spec, BALANCED, params)
        total = 0.0
        for q in range(2):
            _, prob = _syndrome(spec, mixture, q)
            branch_weights = [w.ptilde[j] for j in range(4) if j % 2 == q]
            total += prob * (branch_weights[0] / sum(branch_weights))
        assert abs(total - fidelity_from_weights(w)) < 1e-10

    def test_trace_overlap_upper_bounds_correctable_sum(self):
        # the full restored-reference overlap adds nonnegative phase-flip terms
        spec = CodeSpec(1, 2, 2.0)
        params = ChannelParams(0.9)
        w = mixture_weights(spec, BALANCED, params)
        n_max = fock.n_max(spec)
        words = [codeword_fock(spec, k, 0, n_max=n_max) for k in range(2)]
        odd = [codeword_fock(spec, k, 1, n_max=n_max) for k in range(2)]
        a = b = 1 / math.sqrt(2)
        restored = {
            0: fock.normalized(a * words[0] + b * words[1]),
            1: fock.normalized(a * odd[0] + 1j * b * odd[1]),
            2: fock.normalized(a * words[0] - b * words[1]),
            3: fock.normalized(a * odd[0] - 1j * b * odd[1]),
        }
        reference = {0: restored[0], 1: restored[1]}
        total = 0.0
        for j in range(4):
            ref = reference[j % 2]
            total += w.ptilde[j] * abs(np.vdot(ref, restored[j])) ** 2
        f = fidelity_from_weights(w)
        assert total >= f - 1e-12
        assert total == pytest.approx(f, abs=0.2)


class TestFidelityBound:
    def test_unit_transmission(self):
        res = fidelity_bound(CodeSpec(1, 2, 2.0), ChannelParams(1.0))
        assert abs(res.F_bound - 1.0) < 1e-12

    def test_is_minimum_of_sign_choices(self):
        spec = CodeSpec(1, 2, 2.0)
        params = ChannelParams(0.9)
        res = fidelity_bound(spec, params)
        f_plus, f_minus = (
            fidelity_from_weights(mixture_weights(spec, LogicalCoeffs.of(1.0, s), params))
            for s in (1, -1)
        )
        assert abs(res.F_bound - min(f_plus, f_minus)) < 1e-14
        assert res.F_plus == pytest.approx(f_plus)
        assert res.F_minus == pytest.approx(f_minus)
        assert res.F_bound <= res.F_plus + 1e-12

    def test_both_inputs_are_one_mixture_call(self, monkeypatch):
        # the two balanced inputs are a batch axis ahead of the points
        calls = record_calls(monkeypatch, "catloss.qec.thinning_weights")
        alphas, gammas = np.array([[2.0], [3.0]]), np.array([0.5, 0.9, 1.0])
        res = fidelity_bound(CodeSpec(2, 2, alphas), ChannelParams(gammas))
        assert len(calls) == 1
        assert res.F_bound.shape == (2, 3)
        monkeypatch.undo()
        for i, alpha in enumerate(alphas[:, 0]):
            for j, gamma in enumerate(gammas):
                one = fidelity_bound(CodeSpec(2, 2, alpha), ChannelParams(gamma))
                assert (res.F_plus[i, j], res.F_minus[i, j]) == (one.F_plus, one.F_minus)

    def test_balanced_input_is_extremum(self):
        # dF/da = 0 at a = 1/sqrt(2) with b = sqrt(1 - a^2), both codes
        for spec in (CodeSpec(1, 2, 2.0), CodeSpec(2, 2, 3.0)):
            params = ChannelParams(0.9)

            def f(a):
                coeffs = LogicalCoeffs.of(a, math.sqrt(1.0 - a * a))
                return fidelity_from_weights(mixture_weights(spec, coeffs, params))

            slope = central_difference(f, 1.0 / math.sqrt(2.0))
            assert abs(slope) < 1e-6

    def test_rejects_qudits(self):
        with pytest.raises(ValueError):
            fidelity_bound(CodeSpec(1, 3, 2.0), ChannelParams(0.9))

    @given(L=st.integers(0, 7), alpha=st.floats(0.1, 9.0),
           gamma=st.floats(0.0, 1.0, exclude_min=True),
           parts=st.tuples(*[st.floats(-1.0, 1.0)] * 4))
    @settings.get_profile("bits")  # registered in conftest.py
    def test_complex_scan_probes_below_real_bound(self, L, alpha, gamma, parts):
        # the fidelity is a ratio of positive linear forms in the |c_hat_s|^2, so
        # no complex qubit input lies below its minimum at the two Fourier inputs
        assume(any(parts))
        spec, params = CodeSpec(L, 2, alpha), ChannelParams(gamma)
        coeffs = LogicalCoeffs.of(complex(*parts[:2]), complex(*parts[2:]))
        ptilde = thinning_weights(spec, coeffs, params)
        correctable = ptilde[:spec.spaces].sum()
        f = correctable / (correctable + ptilde[spec.spaces:].sum())
        assert f >= fidelity_bound(spec, params).F_bound - 1e-15
