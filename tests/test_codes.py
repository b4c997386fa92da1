"""Codeword construction, overlaps, and the code-defining equations."""

import math

import numpy as np
import pytest

import scalar_reference as ref
from catloss import fock
from catloss.channel import ChannelParams
from catloss.codes import CodeSpec, LogicalCoeffs, _cmul, gram_matrix
from catloss.fock import (
    channel_apply_exact,
    class_probabilities_kraus,
    codeword_coherent,
    codeword_fock,
    encode,
    kl_check,
    kraus_apply,
    logical_mixture,
    teleport_success_assembled,
    verify_code_equations,
)
from test_class_sums import mp_class_sums

# every Fock-space oracle, called on a code and its balanced qubit input
FOCK_ORACLES = {
    "codeword_fock": lambda spec, c, p: codeword_fock(spec, 0, 0),
    "codeword_coherent": lambda spec, c, p: codeword_coherent(spec, 0, 0),
    "verify_code_equations": lambda spec, c, p: verify_code_equations(spec, 0, 0),
    "encode": lambda spec, c, p: encode(spec, c),
    "class_probabilities_kraus": lambda spec, c, p: class_probabilities_kraus(spec, p),
    "logical_mixture": lambda spec, c, p: logical_mixture(spec, c, p),
    "kl_check": lambda spec, c, p: kl_check(spec, "Z", 1, 1),
    "teleport_success_assembled": lambda spec, c, p: teleport_success_assembled(spec, 1, p, c),
}

# the Fock oracles that take a ChannelParams, called on a code and its transmission
GAMMA_ORACLES = {
    "kraus_apply": lambda spec, p: kraus_apply(codeword_fock(spec, 0, 0), p, 1),
    "channel_apply_exact": lambda spec, p: channel_apply_exact(
        fock.mix([(1.0, codeword_fock(spec, 0, 0))]), p),
    "class_probabilities_kraus": class_probabilities_kraus,
}


def mp_qubit_overlap(L, q, amp):
    """<w_{0,q}|w_{1,q}> of a qubit code from its Fock series, summed at 60 digits
    by classes n mod 2(L+1) = r, r + L + 1 (r = -q mod (L+1)), whose phases
    exp(i pi n / (L+1)) are exp(i pi r / (L+1)) and its negative."""
    m, r = L + 1, (-q) % (L + 1)
    sums = mp_class_sums(amp * amp, 2 * m)
    return np.exp(1j * np.pi * r / m) * (sums[r] - sums[r + m]) / (sums[r] + sums[r + m])


def _trig_case(L, d, q):
    return d == 2 and (L == 1 or (L == 2 and q == 0))


class TestSpecValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CodeSpec(-1, 2, 2.0)
        with pytest.raises(ValueError):
            CodeSpec(1, 1, 2.0)
        with pytest.raises(ValueError):
            CodeSpec(1, 2, 0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                CodeSpec(1, 2, bad)
            with pytest.raises(ValueError, match="finite"):
                LogicalCoeffs.of(1.0, bad)

    def test_small_alpha_flagged(self):
        with pytest.warns(UserWarning, match="collinear"):
            CodeSpec(1, 2, 0.05)

    def test_small_alpha_batch_warns_once_at_the_caller(self):
        with pytest.warns(UserWarning, match="collinear") as record:
            CodeSpec(1, 2, np.array([2.0, 0.08, 0.05, 0.09]))
        assert len(record) == 1
        assert record[0].filename == __file__
        assert str(record[0].message).startswith("alpha=0.05 < 0.1 at 3 of 4 amplitudes")

    def test_batch_spec_compares_and_hashes_by_identity(self):
        # an array has no single truth value, so a spec compares as an object
        a, b = CodeSpec(1, 2, np.array([2.0, 3.0])), CodeSpec(1, 2, np.array([2.0, 3.0]))
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_id_range_checked(self):
        spec = CodeSpec(1, 2, 2.0)
        with pytest.raises(ValueError):
            codeword_fock(spec, 2, 0)
        with pytest.raises(ValueError):
            codeword_fock(spec, 0, 2)


class TestFockSeries:
    @pytest.mark.parametrize("L,d,alpha", [(1, 2, 2.0), (2, 3, 3.0), (4, 2, 7.0), (6, 4, 8.0)])
    def test_damped_words_share_code_truncation(self, L, d, alpha):
        # fock.n_max(spec) is the one cutoff: every amplitude a <= alpha,
        # the damped amplitudes of the channel among them, builds on it
        spec = CodeSpec(L, d, alpha)
        for gamma in (1.0, 0.9, 0.5, 0.01):
            a = math.sqrt(gamma) * alpha
            for k in range(d):
                for q in range(L + 1):
                    assert len(codeword_fock(spec, k, q, a)) - 1 == fock.n_max(spec)

    def test_one_loss_code_space_series(self):
        # even series alpha^(2n)/sqrt((2n)!) normalized by sqrt(cosh(alpha^2))
        alpha = 2.0
        word = codeword_fock(CodeSpec(1, 2, alpha), 0, 0, n_max=64)
        norm = math.sqrt(math.cosh(alpha**2))
        for n in range(0, 30, 2):
            expected = alpha**n / math.sqrt(math.factorial(n)) / norm
            assert abs(word[n] - expected) < 1e-12
        assert np.all(word[1::2] == 0.0)

    def test_two_loss_alternating_series(self):
        # support on multiples of three with coefficients (-alpha)^(3k)
        alpha = 3.0
        word = codeword_fock(CodeSpec(2, 2, alpha), 1, 0, n_max=80)
        raw = np.zeros(81)
        for k in range(27):
            raw[3 * k] = (-alpha) ** (3 * k) / math.sqrt(float(math.factorial(3 * k)))
        raw /= np.linalg.norm(raw)
        assert np.max(np.abs(word - raw)) < 1e-10

    def test_support_classes_exact(self):
        spec = CodeSpec(3, 2, 2.5)
        for q in range(4):
            word = codeword_fock(spec, 1, q)
            n = np.arange(len(word))
            off_class = (n % 4) != ((-q) % 4)
            assert np.all(word[off_class] == 0.0)
            assert np.any(word[~off_class] != 0.0)

    def test_qudit_support_classes(self):
        spec = CodeSpec(1, 3, 2.0)
        for k in range(3):
            for q in range(2):
                word = codeword_fock(spec, k, q)
                n = np.arange(len(word))
                assert np.all(word[(n % 2) != ((-q) % 2)] == 0.0)

    def test_odd_space_leading_phase(self):
        # sector 1 of the odd space leads with +i, fixed by the eigenvalue
        # equations rather than any cosmetic phase convention
        word = codeword_fock(CodeSpec(1, 2, 2.0), 1, 1)
        lead = word[1] / abs(word[1])
        assert abs(lead - 1.0j) < 1e-12


class TestCodewordArrays:
    """``codeword_fock`` with arrays of sectors and spaces equals, word for
    word and bit for bit, the one-word calls and the frozen one-word oracle."""

    @pytest.mark.parametrize("L", range(7))
    @pytest.mark.parametrize("d", range(2, 6))
    def test_words_equal_one_word_calls(self, L, d):
        alpha = 0.5 + 1.1 * L + 0.7 * d
        spec = CodeSpec(L, d, alpha)
        for amp in (None, alpha * math.sqrt(0.9), alpha * math.sqrt(0.35)):
            for n_max in (None, fock.n_max(spec) + 7):
                words = codeword_fock(spec, np.arange(d), np.arange(L + 1)[:, None], amp, n_max)
                assert words.shape == (L + 1, d, (n_max or fock.n_max(spec)) + 1)
                for q in range(L + 1):
                    for k in range(d):
                        one = codeword_fock(spec, k, q, amp, n_max)
                        frozen = ref.codeword_fock(L, d, alpha, k, q, amp, n_max)
                        assert np.array_equal(words[q, k], one), (amp, n_max, k, q)
                        assert np.array_equal(one, frozen), (amp, n_max, k, q)
                        for part in (np.real, np.imag):  # signed zeros too
                            assert np.array_equal(np.signbit(part(one)), np.signbit(part(frozen)))

    def test_sectors_and_spaces_broadcast(self):
        spec = CodeSpec(2, 3, 2.5)
        k = np.array([[2], [0]])
        words = codeword_fock(spec, k, [1, 2, 0])
        assert words.shape == (2, 3, fock.n_max(spec) + 1)
        assert np.array_equal(words[0, 1], codeword_fock(spec, 2, 2))
        assert np.array_equal(words[1, 2], codeword_fock(spec, 0, 0))
        assert codeword_fock(spec, [1], 0).shape == (1, fock.n_max(spec) + 1)

    def test_array_indices_range_checked(self):
        spec = CodeSpec(1, 2, 2.0)
        with pytest.raises(ValueError, match=r"logical index k=2 outside \[0, 2\)"):
            codeword_fock(spec, [0, 1, 2], 0)
        with pytest.raises(ValueError, match=r"space index q=-1 outside \[0, 1\]"):
            codeword_fock(spec, 0, np.array([[0], [-1]]))


class TestFockOraclesTakeOneAmplitude:
    @pytest.mark.parametrize("alpha", [[2.0, 3.0], [2.0]])
    @pytest.mark.parametrize("oracle", sorted(FOCK_ORACLES))
    def test_batch_spec_rejected(self, oracle, alpha):
        spec = CodeSpec(1, 2, np.array(alpha))
        with pytest.raises(ValueError, match=rf"one amplitude, got shape \({len(alpha)},\)"):
            FOCK_ORACLES[oracle](spec, LogicalCoeffs.balanced(), ChannelParams(0.9))

    def test_batch_amplitude_rejected(self):
        with pytest.raises(ValueError, match="one amplitude"):
            codeword_fock(CodeSpec(1, 2, 2.0), 0, 0, np.array([1.0, 1.5]))
        with pytest.raises(ValueError, match="one amplitude"):
            codeword_fock(CodeSpec(1, 2, np.array([2.0])), 0, 0, 2.0, n_max=70)

    def test_cutoff_below_the_policy_rejected(self):
        # n_max=10 held a normalized word with 0.9995 of its mass in the top five slots
        with pytest.raises(fock.TruncationError, match="n_max=10 below the cutoff 90"):
            codeword_fock(CodeSpec(1, 2, 5.0), 0, 0, n_max=10)
        with pytest.raises(fock.TruncationError, match="n_max=89 below the cutoff 90"):
            codeword_fock(CodeSpec(1, 2, 5.0), 0, 0, n_max=89)
        assert len(codeword_fock(CodeSpec(1, 2, 5.0), 0, 0, n_max=90)) == 91

    @pytest.mark.parametrize("gamma", [[0.9, 0.8], [0.9]])
    @pytest.mark.parametrize("oracle", sorted(GAMMA_ORACLES))
    def test_batch_gamma_rejected(self, oracle, gamma):
        # one ValueError naming the shape, not numpy's ambiguous truth value;
        # a batch of one is refused too, not taken as its one point
        with pytest.raises(ValueError, match=rf"one gamma, got shape \({len(gamma)},\)"):
            GAMMA_ORACLES[oracle](CodeSpec(1, 2, 2.0), ChannelParams(np.array(gamma)))


class TestCoherentForm:
    def test_zero_loss_code_is_coherent_state(self):
        spec = CodeSpec(0, 2, 1.5)
        word = codeword_coherent(spec, 0, 0)
        target = fock.coherent_state(1.5, len(word) - 1)
        assert np.max(np.abs(word - target)) < 1e-12

    def test_one_loss_sector_one_is_rotated_cat(self):
        alpha = 2.0
        spec = CodeSpec(1, 2, alpha)
        word = codeword_coherent(spec, 1, 0)
        cat = fock.normalized(
            fock.coherent_state(1j * alpha, len(word) - 1)
            + fock.coherent_state(-1j * alpha, len(word) - 1)
        )
        assert np.max(np.abs(word - cat)) < 1e-12

    def test_matches_fock_series_for_two_loss_error_space(self):
        spec = CodeSpec(2, 2, 3.0)
        a = codeword_coherent(spec, 0, 1)
        b = codeword_fock(spec, 0, 1)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_equivalence_randomized(self, rng):
        # twenty random (L, d, q, k, alpha) instances, both routes agree
        # including the global phase
        for _ in range(20):
            L = int(rng.integers(0, 5))
            d = int(rng.integers(2, 4))
            q = int(rng.integers(0, L + 1))
            k = int(rng.integers(0, d))
            alpha = float(rng.uniform(0.5, 6.0))
            spec = CodeSpec(L, d, alpha)
            u = codeword_coherent(spec, k, q)
            v = codeword_fock(spec, k, q)
            assert abs(1.0 - abs(np.vdot(u, v))) < 1e-10
            assert np.max(np.abs(u - v)) < 1e-8


class TestOverlaps:
    def test_self_overlap_is_one(self):
        spec = CodeSpec(2, 2, 3.0)
        assert gram_matrix(spec, 1)[1, 1] == 1.0 + 0.0j

    def test_one_loss_code_space_form(self):
        a2 = 4.0
        got = gram_matrix(CodeSpec(1, 2, 2.0), 0)[0, 1]
        assert abs(got - np.cos(a2) / np.cosh(a2)) < 1e-14

    def test_one_loss_error_space_form(self):
        a2 = 4.0
        got = gram_matrix(CodeSpec(1, 2, 2.0), 1)[0, 1]
        assert abs(got - 1j * np.sin(a2) / np.sinh(a2)) < 1e-14

    def test_two_loss_code_space_form(self):
        a2 = 9.0
        got = gram_matrix(CodeSpec(2, 2, 3.0), 0)[0, 1]
        num = np.exp(-a2) + 2 * np.exp(a2 / 2) * np.cos(np.sqrt(3) * a2 / 2)
        den = np.exp(a2) + 2 * np.exp(-a2 / 2) * np.cos(np.sqrt(3) * a2 / 2)
        assert abs(got - num / den) < 1e-14

    @pytest.mark.parametrize("L,d,q,k1,k2,alpha", [
        (1, 2, 0, 0, 1, 2.0),
        (1, 2, 1, 0, 1, 2.0),
        (2, 2, 0, 0, 1, 3.0),
        (2, 2, 2, 0, 1, 1.5),
        (3, 2, 1, 0, 1, 2.5),
        (1, 3, 0, 0, 2, 2.0),
        (1, 3, 1, 1, 2, 1.0),
    ])
    def test_closed_forms_match_vector_inner_products(self, L, d, q, k1, k2, alpha):
        spec = CodeSpec(L, d, alpha)
        closed = gram_matrix(spec, q)[k1, k2]
        direct = np.vdot(
            codeword_fock(spec, k1, q),
            codeword_fock(spec, k2, q),
        )
        assert abs(closed - direct) < 1e-12

    def test_conjugate_on_swapped_indices(self):
        spec = CodeSpec(1, 2, 2.0)
        assert abs(
            gram_matrix(spec, 1)[0, 1] - np.conj(gram_matrix(spec, 1)[1, 0])
        ) < 1e-14

    def test_overlap_decays_with_amplitude(self):
        vals = [
            abs(gram_matrix(CodeSpec(1, 2, a), 0)[0, 1]) for a in (0.8, 2.0, 6.0)
        ]
        assert vals[2] < vals[1] < vals[0]

    def test_amplitude_override(self):
        spec = CodeSpec(1, 2, 2.0)
        damped = gram_matrix(spec, 0, 1.0)[0, 1]
        assert abs(damped - np.cos(1.0) / np.cosh(1.0)) < 1e-14

    def test_distinct_error_spaces_orthogonal(self):
        spec = CodeSpec(2, 2, 3.0)
        for q1 in range(3):
            for q2 in range(q1 + 1, 3):
                v = np.vdot(
                    codeword_fock(spec, 0, q1),
                    codeword_fock(spec, 1, q2),
                )
                assert abs(v) < 1e-12


class TestGramKernel:
    """The vectorized kernel equals the frozen scalar form
    (``scalar_reference.gram_matrix``) exactly (``==``), so a platform whose SIMD
    rounds differently fails here, not in a dataset."""

    @staticmethod
    def _grid():
        rng = np.random.default_rng(3)
        for L in range(9):
            for d in range(2, 6):
                spec = CodeSpec(L, d, float(rng.uniform(0.1, 10.0)))
                for q in range(L + 1):
                    amp = float(rng.uniform(0.1, 10.0))
                    if not _trig_case(L, d, q):
                        yield spec, q, amp

    def test_matches_scalar_loop_bitwise(self):
        cases = 0
        for spec, q, amp in self._grid():
            g, want = gram_matrix(spec, q, amp), ref.gram_matrix(spec.L, spec.d, q, amp)
            for k1 in range(spec.d):
                assert g[k1, k1] == 1.0
                for k2 in range(k1 + 1, spec.d):
                    assert g[k1, k2] == want[k1, k2], (spec, q, amp, k1, k2)
                    assert g[k2, k1] == np.conj(g[k1, k2])
                    cases += 1
        assert cases == 897

    @pytest.mark.parametrize("L, amp", [(3, 1.0), (5, 2.0), *(pytest.param(
        L, amp, marks=pytest.mark.xfail(strict=True, reason="the coherent sum cancels"))
        for L, amp in [(3, 1e-3), (4, 1e-2), (5, 1e-3), (5, 0.1), (6, 1e-2)])])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_small_amplitude_overlaps_match_mpmath(self, L, amp):
        # every space of a qubit code past the trigonometric forms, within 1e-12 absolute;
        # the kernel is off by 9.8e-5 at SMALL_ALPHA (L 5), and at 1e-2 and 1e-3 gives
        # |s| up to 7.6 and NaN + inf j (L 3)
        g = gram_matrix(CodeSpec(L, 2, 1.0), range(L + 1), amp)
        for q in range(L + 1):
            s = mp_qubit_overlap(L, q, amp)
            assert abs(g[q, 0, 1] - s) <= 1e-12, (q, g[q, 0, 1], s)

    def test_cmul_rounds_like_scalar_product(self):
        rng = np.random.default_rng(11)
        n = 20_000
        a = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, n) + 1j * rng.normal(size=n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, n)
        re, im = _cmul(a.real, a.imag, b.real, b.imag)
        want = np.array([x * y for x, y in zip(a, b)])
        assert np.array_equal(re, want.real)
        assert np.array_equal(im, want.imag)

    def test_validates_space_and_amplitude(self):
        spec = CodeSpec(2, 3, 2.0)
        with pytest.raises(ValueError, match="space index"):
            gram_matrix(spec, 3)
        with pytest.raises(ValueError, match="space index"):
            gram_matrix(spec, -1)
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                gram_matrix(spec, 0, bad)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_trig_form_is_arithmetic_error(self):
        # exp(alpha^2) overflows in both terms of the two-loss form: a
        # numerical failure (CLI exit 2), not a NaN overlap, and no numpy
        # floating-point warning on the way
        with pytest.raises(ArithmeticError, match="overlap of space 0"):
            gram_matrix(CodeSpec(2, 2, 40.0), 0)

    def test_codeword_fock_validates_amplitude(self):
        spec = CodeSpec(2, 3, 2.0)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                codeword_fock(spec, 1, 0, bad)


class TestCodeEquations:
    def test_one_loss_code_space(self):
        res = verify_code_equations(CodeSpec(1, 2, 2.0), 0, 0)
        assert res.parity < 1e-9
        assert res.lowering < 1e-9

    def test_two_loss_error_space_eigenvalue(self):
        # two losses from support 0 mod 3 leave support 1 mod 3, so the
        # q = 2 space carries parity eigenvalue exp(-4 pi i/3) = exp(2 pi i/3)
        spec = CodeSpec(2, 2, 3.0)
        word = codeword_fock(spec, 1, 2)
        rotated = fock.parity_phase_apply(word, 3)
        eig = np.vdot(word, rotated)
        assert abs(eig - np.exp(-4j * np.pi / 3)) < 1e-12
        res = verify_code_equations(spec, 1, 2)
        assert res.parity < 1e-9
        assert res.lowering < 1e-9

    def test_syndrome_eigenvalues_distinct(self):
        spec = CodeSpec(2, 2, 3.0)
        eigs = []
        for q in range(3):
            word = codeword_fock(spec, 0, q)
            eigs.append(np.vdot(word, fock.parity_phase_apply(word, 3)))
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(eigs[i] - eigs[j]) > 1.0

    def test_zero_loss_parity_trivial(self):
        res = verify_code_equations(CodeSpec(0, 2, 1.0), 1, 0)
        assert res.parity == 0.0
        assert res.lowering < 1e-9

    @pytest.mark.parametrize("L,d,alpha", [(1, 2, 2.0), (2, 2, 3.0), (3, 2, 6.0),
                                           (4, 2, 7.0), (5, 2, 9.0), (1, 3, 2.0),
                                           (2, 3, 3.0)])
    def test_residuals_across_specs(self, L, d, alpha):
        spec = CodeSpec(L, d, alpha)
        for k in range(d):
            for q in range(L + 1):
                res = verify_code_equations(spec, k, q)
                assert res.parity < 1e-9, (k, q)
                assert res.lowering < 1e-9, (k, q)


class TestLogicalCoeffs:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            LogicalCoeffs((1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            LogicalCoeffs((math.nan, 1.0))

    def test_of_normalizes(self):
        c = LogicalCoeffs.of(1.0, 1.0)
        assert abs(abs(c.values[0]) - 1 / math.sqrt(2)) < 1e-14
        # amplitudes whose squares overflow or underflow normalize to the
        # bits of the same direction at unit size
        for raw, unit in [
            ((1e200, 1e200), (1.0, 1.0)),
            ((1e-200, 1e-200), (1.0, 1.0)),
            ((1e-160, 1e-160), (1.0, 1.0)),
            ((1e-170, 1e-170j), (1.0, 1j)),
            ((1e300, -1e300), (1.0, -1.0)),
            ((1e308 + 1e308j, 1e308), (1.0 + 1.0j, 1.0)),
        ]:
            assert np.array_equal(LogicalCoeffs.of(*raw).values, LogicalCoeffs.of(*unit).values)
        with pytest.raises(ValueError, match="all-zero"):
            LogicalCoeffs.of(0.0, 0.0)
        for raw in ((math.inf, 1.0), (math.nan, 1.0), (1e300, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                LogicalCoeffs.of(*raw)

    def test_balanced_qutrit(self):
        c = LogicalCoeffs.balanced(3)
        assert c.d == 3
        assert abs(sum(abs(a) ** 2 for a in c.values) - 1.0) < 1e-14

    def test_array_rows_are_states(self):
        # a (3, 2) array is three qubit states
        rows = np.array([[1, 0], [0.6, 0.8j], [-0.8, 0.6]], dtype=complex)
        states = [LogicalCoeffs(row) for row in rows]
        assert [s.d for s in states] == [2, 2, 2]
        assert LogicalCoeffs(rows).d == 2

    def test_each_row_is_normalized(self):
        rows = np.array([[1, 0], [0.6, 0.8j], [-0.8, 0.6]], dtype=complex)
        assert LogicalCoeffs(rows).values.shape == (3, 2)
        rows[1] *= 1 + 1e-9
        with pytest.raises(ValueError, match="not normalized"):
            LogicalCoeffs(rows)
