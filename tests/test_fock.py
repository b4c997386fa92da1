"""Oscillator algebra: constructors, operators, inner products, mixtures."""

import math

import numpy as np
import pytest

from catloss import fock
from catloss.channel import ChannelParams
from catloss.fock import channel_apply_exact, kraus_apply

from conftest import projector

ALPHAS = [0.5, 1.0, 2.0, 3.0, 6.0, 8.0]


class TestCoherentState:
    def test_vacuum(self):
        state = fock.coherent_state(0.0)
        assert state[0] == 1.0
        assert np.all(state[1:] == 0.0)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_normalized_within_truncation(self, alpha):
        state = fock.coherent_state(alpha)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-10

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_tail_mass_bound(self, alpha):
        assert fock.tail_mass(fock.coherent_state(alpha)) < 1e-12

    def test_overlap_against_series_oracle(self):
        # <coherent(1)|coherent(i)> = exp(-1 + i)
        got = np.vdot(fock.coherent_state(1.0), fock.coherent_state(1.0j))
        assert abs(got - np.exp(-1.0 + 1.0j)) < 1e-12

    def test_opposite_amplitude_overlap(self):
        # <alpha|-alpha> = exp(-2 alpha^2) for real alpha = 1
        got = np.vdot(fock.coherent_state(1.0), fock.coherent_state(-1.0))
        assert abs(got - math.exp(-2.0)) < 1e-12

    def test_rejects_inadequate_truncation(self):
        with pytest.raises(fock.TruncationError):
            fock.coherent_state(6.0, n_max=40)

    def test_explicit_coefficients(self):
        state = fock.coherent_state(2.0, n_max=64)
        for n in (0, 1, 5, 12):
            expected = math.exp(-2.0) * 2.0**n / math.sqrt(math.factorial(n))
            assert abs(state[n] - expected) < 1e-13


class TestAnnihilate:
    def test_vacuum_annihilates_to_zero(self):
        out = fock.annihilate(fock.basis_state(0, 8), 1)
        assert np.linalg.norm(out) == 0.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_coherent_eigenrelation(self, alpha):
        state = fock.coherent_state(alpha)
        lowered = fock.annihilate(state, 1)
        assert np.max(np.abs(lowered - alpha * state)) < 1e-12

    def test_two_losses_preserve_even_cat(self):
        # a^2 (|alpha> + |-alpha>) = alpha^2 (|alpha> + |-alpha>) at alpha=1.5
        alpha = 1.5
        cat = fock.coherent_state(alpha) + fock.coherent_state(-alpha)
        lowered = fock.annihilate(cat, 2)
        assert np.max(np.abs(lowered - alpha**2 * cat)) < 1e-12

    @pytest.mark.parametrize("j,k", [(1, 1), (2, 3), (0, 4)])
    def test_composition(self, j, k):
        state = fock.coherent_state(1.7)
        double = fock.annihilate(fock.annihilate(state, j), k)
        single = fock.annihilate(state, j + k)
        assert np.max(np.abs(double - single)) < 1e-12

    def test_explicit_ladder_factors(self):
        state = fock.basis_state(5, 8)
        out = fock.annihilate(state, 2)
        assert abs(out[3] - math.sqrt(5 * 4)) < 1e-12


class TestParityPhase:
    def test_modulus_one_is_identity(self):
        state = fock.coherent_state(1.3)
        out = fock.parity_phase_apply(state, 1)
        assert np.max(np.abs(out - state)) < 1e-12

    def test_even_cat_is_fixed_point(self):
        cat = fock.normalized(fock.coherent_state(2.0) + fock.coherent_state(-2.0))
        out = fock.parity_phase_apply(cat, 2)
        assert np.max(np.abs(out - cat)) < 1e-12

    def test_single_photon_flips(self):
        state = fock.basis_state(1, 8)
        out = fock.parity_phase_apply(state, 2)
        assert np.max(np.abs(out + state)) < 1e-12

    @pytest.mark.parametrize("modulus", [2, 3, 5])
    def test_norm_preserving_and_cyclic(self, modulus):
        state = fock.coherent_state(1.8)
        out = state
        for _ in range(modulus):
            out = fock.parity_phase_apply(out, modulus)
            assert abs(np.linalg.norm(out) - np.linalg.norm(state)) < 1e-12
        assert np.max(np.abs(out - state)) < 1e-12


class TestInnerOuterMix:
    def test_orthogonal_basis_states(self):
        assert np.vdot(fock.basis_state(0, 4), fock.basis_state(1, 4)) == 0.0

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0j), (0.7, -0.3), (2.0, 1.5j)])
    def test_conjugate_symmetry(self, alpha, beta):
        u, v = fock.coherent_state(alpha, 64), fock.coherent_state(beta, 64)
        assert abs(np.vdot(u, v) - np.conj(np.vdot(v, u))) < 1e-15

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            np.vdot(fock.basis_state(0, 4), fock.basis_state(0, 5))

    def test_unit_weight_mix_is_projector(self):
        state = fock.coherent_state(1.2)
        rho = fock.mix([(1.0, state * 3.0)])  # mix normalizes first
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        sq = rho @ rho
        assert np.max(np.abs(sq - rho)) < 1e-12

    def test_mix_matches_weighted_outers(self):
        u = fock.coherent_state(1.0, 32)
        v = fock.coherent_state(-1.0, 32)
        rho = fock.mix([(0.25, u), (0.75, v)])
        expected = 0.25 * projector(u) + 0.75 * projector(v)
        assert np.max(np.abs(rho - expected)) < 1e-12
        assert abs(np.trace(rho).real - 1.0) < 1e-10

    def test_normalized_stack_divides_each_row_by_its_norm(self):
        u, v = fock.coherent_state(1.0, 32), 3.0 * fock.coherent_state(0.5j, 32)
        stack = np.array([[u, v], [v, 2.0 * u]])
        out = fock.normalized(stack)
        for i in range(2):
            for j in range(2):
                assert np.array_equal(out[i, j], fock.normalized(stack[i, j]))
        with pytest.raises(ValueError, match="zero vector"):
            fock.normalized(np.array([u, 0.0 * u]))

    def test_mix_rejects_empty_list(self):
        with pytest.raises(ValueError, match="empty mixture"):
            fock.mix([])

    def test_mix_rejects_negative_weight(self):
        u = fock.coherent_state(1.0, 32)
        with pytest.raises(ValueError, match="negative weight -0.25"):
            fock.mix([(1.25, u), (-0.25, u)])

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_mix_rejects_non_finite_weight(self, weight):
        # NaN passed the old `weight < 0` test and gave an all-NaN matrix
        u = fock.coherent_state(1.0, 32)
        with pytest.raises(ValueError, match=f"non-finite weight {weight}"):
            fock.mix([(weight, u), (0.5, u)])

    def test_mix_rejects_states_of_different_lengths(self):
        u, v = fock.coherent_state(1.0, 32), fock.coherent_state(1.0, 40)
        with pytest.raises(ValueError, match="differ in length: 41 vs 33"):
            fock.mix([(0.5, u), (0.5, v)])

    def test_density_matrix_hermitian_and_psd(self):
        rho = fock.mix([(0.5, fock.coherent_state(1.0, 32)),
                        (0.5, fock.coherent_state(1.0j, 32))])
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_trace_distance_basics(self):
        r0 = projector(fock.basis_state(0, 4))
        r1 = projector(fock.basis_state(1, 4))
        assert abs(fock.trace_distance(r0, r1) - 1.0) < 1e-12
        assert fock.trace_distance(r0, r0) < 1e-14


class TestArgumentsUnchanged:
    @pytest.mark.parametrize("name", ["annihilate", "parity_phase_apply", "parity_identity",
                                      "kraus_apply", "normalized", "mix", "channel_apply_exact"])
    def test_inputs_left_unchanged(self, name):
        state = fock.coherent_state(1.0 + 0.5j, 48)
        rho = projector(state)
        calls = {
            "annihilate": lambda: fock.annihilate(state, 2),
            "parity_phase_apply": lambda: fock.parity_phase_apply(state, 3),
            "parity_identity": lambda: fock.parity_phase_apply(state, 1),
            "kraus_apply": lambda: kraus_apply(state, ChannelParams(0.8), 1),
            "normalized": lambda: fock.normalized(state),
            "mix": lambda: fock.mix([(0.5, state), (0.5, state)]),
            "channel_apply_exact": lambda: channel_apply_exact(rho, ChannelParams(0.8)),
        }
        state_before, rho_before = state.copy(), rho.copy()
        out = calls[name]()
        assert not np.shares_memory(out, state) and not np.shares_memory(out, rho)
        assert np.array_equal(state, state_before)
        assert np.array_equal(rho, rho_before)
