"""Correctability reports, syndrome conditioning, and fidelity bounds."""

import math

import numpy as np
import pytest

from catloss import fock
from catloss.codes import CodeSpec, LogicalCoeffs, codeword_fock
from catloss.channel import ChannelParams, encode, logical_mixture, mixture_weights
from catloss.qec import fidelity_bound, fidelity_from_weights, kl_check

from conftest import central_difference

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
        n_max = spec.n_max()
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
        calls = []

        def counted(*args):
            calls.append(args)
            return mixture_weights(*args)

        monkeypatch.setattr("catloss.qec.mixture_weights", counted)
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

    def test_complex_scan_probes_below_real_bound(self):
        # the diagnostic grid can only find inputs at or below the
        # real-restricted bound, and at moderate amplitude it stays close
        spec = CodeSpec(1, 2, 2.0)
        params = ChannelParams(0.9)
        bound = fidelity_bound(spec, params).F_bound
        scanned = math.inf
        for a in np.linspace(0.0, 1.0, 32):
            b_mag = np.sqrt(max(0.0, 1.0 - a * a))
            for phi in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
                coeffs = LogicalCoeffs((complex(a), b_mag * np.exp(1j * phi)))
                scanned = min(scanned, fidelity_from_weights(mixture_weights(spec, coeffs, params)))
        # grid resolution keeps the scan near the analytic minimum; a value
        # clearly below it would flag that complex phases matter
        assert scanned == pytest.approx(bound, abs=1e-3)
