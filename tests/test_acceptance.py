"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from catloss import fock
from catloss.codes import CodeSpec, LogicalCoeffs, gram_matrix
from catloss.channel import ChannelParams, class_probabilities, mixture_weights
from catloss.fock import (
    channel_apply_exact,
    class_probabilities_kraus,
    codeword_fock,
    encode,
    filter_operators,
    filter_params,
    kl_check,
    kraus_apply,
    logical_mixture,
    teleport_success_assembled,
)
from catloss.qec import fidelity_from_weights
from catloss.repeater import RepeaterConfig, chain_columns, sweep_config
from catloss.restore import teleport_success_from_weights

from conftest import central_difference, projector


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_01_oracle_equivalence():
    cases = [(L, 2, a, g) for L in (1, 2) for a in (2.0, 3.0) for g in (0.7, 0.9, 0.99)]
    cases.append((1, 3, 2.0, 0.9))
    with criterion(1, "closed-form mixture vs exact channel"):
        start = time.perf_counter()
        for L, d, alpha, gamma in cases:
            spec = CodeSpec(L, d, alpha)
            coeffs = LogicalCoeffs.balanced(d)
            rho = projector(encode(spec, coeffs))
            exact = channel_apply_exact(rho, ChannelParams(gamma))
            comps = logical_mixture(spec, coeffs, ChannelParams(gamma))
            rebuilt = fock.mix(comps)
            dist = fock.trace_distance(exact, rebuilt)
            assert dist < 1e-8, (L, d, alpha, gamma, dist)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"oracle grid took {elapsed:.1f}s"


def test_02_closed_form_identities():
    alphas = (0.5, 2.0, 3.0, 6.0)
    with criterion(2, "closed forms vs Fock brute force"):
        for alpha in alphas:
            a2 = alpha * alpha
            one = CodeSpec(1, 2, alpha)
            # code-space and error-space overlaps
            words = {
                (k, q): codeword_fock(one, k, q) for k in (0, 1) for q in (0, 1)
            }
            direct0 = np.vdot(words[(0, 0)], words[(1, 0)])
            assert abs(gram_matrix(one)[0, 0, 1] - direct0) < 1e-10
            assert abs(direct0 - math.cos(a2) / math.cosh(a2)) < 1e-10
            direct1 = np.vdot(words[(0, 1)], words[(1, 1)])
            assert abs(gram_matrix(one)[1, 0, 1] - direct1) < 1e-10
            assert abs(direct1 - 1j * math.sin(a2) / math.sinh(a2)) < 1e-10

            # one-loss class probabilities vs Kraus norms
            params = ChannelParams(0.9)
            closed = class_probabilities(one, params)
            oracle = class_probabilities_kraus(one, params)
            assert np.max(np.abs(closed - oracle)) < 1e-10

            # two-loss class probabilities vs Kraus norms
            two = CodeSpec(2, 2, alpha)
            closed2 = class_probabilities(two, params)
            oracle2 = class_probabilities_kraus(two, params)
            assert np.max(np.abs(closed2 - oracle2)) < 1e-10

            # Kraus action: even and odd loss counts on both codewords
            gamma = 0.8
            damped = math.sqrt(gamma) * alpha
            n_max = fock.n_max(one)
            for m in (0, 1, 2):
                even_pref = (
                    math.sqrt(math.cosh(gamma * a2) / math.cosh(a2))
                    * (1 - gamma) ** m * alpha ** (2 * m)
                    / math.sqrt(math.factorial(2 * m))
                )
                odd_pref = (
                    math.sqrt(math.sinh(gamma * a2) / math.cosh(a2))
                    * (1 - gamma) ** (m + 0.5) * alpha ** (2 * m + 1)
                    / math.sqrt(math.factorial(2 * m + 1))
                )
                for k, phase in ((0, 1.0), (1, 1j)):
                    word = codeword_fock(one, k, 0, n_max=n_max)
                    out_even = kraus_apply(word, ChannelParams(gamma), 2 * m)
                    target = codeword_fock(one, k, 0, damped, n_max)
                    scale = even_pref * phase ** (2 * m)
                    assert np.max(np.abs(out_even - scale * target)) < 1e-10
                    out_odd = kraus_apply(word, ChannelParams(gamma), 2 * m + 1)
                    target = codeword_fock(one, k, 1, damped, n_max)
                    scale = odd_pref * phase ** (2 * m + 1)
                    assert np.max(np.abs(out_odd - scale * target)) < 1e-10


def test_03_trace_preservation():
    with criterion(3, "mixture weights sum to one across the grid"):
        for L in range(5):
            for d in (2, 3):
                for alpha in (1.0, 2.0, 3.0, 6.0):
                    for gamma in (0.5, 0.8, 0.99):
                        w = mixture_weights(
                            CodeSpec(L, d, alpha),
                            LogicalCoeffs.balanced(d),
                            ChannelParams(gamma),
                        )
                        total = float(np.sum(w.ptilde))
                        assert abs(total - 1.0) < 1e-10, (L, d, alpha, gamma, total)


def test_04_non_deformation():
    with criterion(4, "Z-basis norms equal; X-basis violation matches ratio"):
        params = ChannelParams(0.85)
        for L, alpha in ((1, 2.0), (2, 3.0)):
            spec = CodeSpec(L, 2, alpha)
            w0 = codeword_fock(spec, 0, 0)
            w1 = codeword_fock(spec, 1, 0)
            for k in range(13):
                n0 = np.linalg.norm(kraus_apply(w0, params, k))
                n1 = np.linalg.norm(kraus_apply(w1, params, k))
                assert abs(n0 - n1) < 1e-12, (L, k)
        alpha = 2.0
        a2 = alpha * alpha
        report = kl_check(CodeSpec(1, 2, alpha), "X", 1, 1)
        c = math.cos(a2) / math.cosh(a2)
        got = (report.gram[0, 0].real * (1 + c)) / (report.gram[1, 1].real * (1 - c))
        want = (1 - math.sin(a2) / math.sinh(a2)) / (1 + math.sin(a2) / math.sinh(a2))
        assert abs(got - want) < 1e-10
        assert report.deform_violation > 0.0


def test_05_fidelity_endpoints_and_extremum():
    with criterion(5, "F(gamma=1)=1 and balanced input is stationary"):
        for spec in (CodeSpec(1, 2, 2.0), CodeSpec(2, 2, 3.0)):
            w1 = mixture_weights(spec, LogicalCoeffs.balanced(), ChannelParams(1.0))
            f1 = fidelity_from_weights(w1)
            assert abs(f1 - 1.0) < 1e-12

            def f(a, spec=spec):
                coeffs = LogicalCoeffs.of(a, math.sqrt(1.0 - a * a))
                return fidelity_from_weights(mixture_weights(spec, coeffs, ChannelParams(0.9)))

            slope = central_difference(f, 1.0 / math.sqrt(2.0))
            assert abs(slope) < 1e-6


def test_06_filter_formula():
    with criterion(6, "filter success 1-|s| and POVM completeness"):
        for alpha in (0.5, 1.0, 2.0):
            s = gram_matrix(CodeSpec(0, 2, alpha))[0, 0, 1]
            assert abs(1 - abs(s) - (1.0 - math.exp(-2 * alpha**2))) < 1e-12
        for mag in (0.0, 0.3, 0.7, 0.99):
            for phase in (0.0, 1.0, -2.0):
                fp = filter_params(mag * np.exp(1j * phase))
                a_s, a_f = filter_operators(fp)
                povm = a_s.conj().T @ a_s + a_f.conj().T @ a_f
                assert np.max(np.abs(povm - np.eye(2))) < 1e-12


def test_07_teleport_oracle():
    with criterion(7, "teleport closed form vs assembled-state norm"):
        rng = np.random.default_rng(7)
        for _ in range(10):
            L = int(rng.integers(0, 4))
            alpha = float(rng.uniform(1.2, 4.0))
            gamma = float(rng.uniform(0.7, 0.999))
            q = int(rng.integers(0, L + 1))
            c = LogicalCoeffs.of(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
            spec = CodeSpec(L, 2, alpha)
            w = mixture_weights(spec, c, ChannelParams(gamma))
            closed = teleport_success_from_weights(w, q, c)
            assembled = teleport_success_assembled(spec, q, ChannelParams(gamma), c)
            assert abs(closed - assembled) < 1e-9, (L, alpha, gamma, q)


TABLE_ROWS = [
    # (L, alpha, F_new_ref, P_new_ref) at 1000 km total, 0.1 km spacing
    ("I", 3, 6.0, 0.774627, 0.468715),
    ("II", 4, 7.0, 0.963915, 0.451687),
    ("III", 5, 8.0, 0.99371, 0.194448),
]


def test_08_table_reproduction():
    with criterion(8, "long-haul table rows within widened tolerances"):
        for which, L, alpha, f_ref, p_ref in TABLE_ROWS:
            start = time.perf_counter()
            results = {}
            for sign in (1, -1):
                cfg = RepeaterConfig(
                    total_km=1000.0,
                    spacing_km=0.1,
                    spec=CodeSpec(L, 2, alpha),
                    coeffs=LogicalCoeffs.of(1.0, sign),
                    ar_every=2,
                )
                results[sign] = chain_columns(cfg).totals[0].tolist()  # (fidelity, success)
            f_new = min(results[1][0], results[-1][0])
            assert abs(f_new - f_ref) < 0.02, (which, f_new, f_ref)
            # the published success columns mix the two balanced inputs
            # between tables, so reproduction by either counts
            p_dev = min(
                abs(results[s][1] - p_ref) / p_ref for s in (1, -1)
            )
            assert p_dev < 0.20, (which, results[1][1], results[-1][1], p_ref)
            elapsed = time.perf_counter() - start
            assert elapsed < 60.0, f"table {which} row took {elapsed:.1f}s"


@pytest.mark.filterwarnings("ignore:alpha=.*collinear")
def test_09_qualitative_curve_shapes():
    with criterion(9, "success peaks, fidelity decays, weights start intact"):
        base = RepeaterConfig(
            total_km=1000.0,
            spacing_km=0.1,
            spec=CodeSpec(4, 2, 7.0),
            coeffs=LogicalCoeffs.balanced(),
            ar_every=2,
        )
        values = [0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 250.0]
        probs = chain_columns(sweep_config(base, "spacing", values)).totals[:, 1].tolist()
        peak = int(np.argmax(probs))
        assert 0 < peak < len(values) - 1, probs

        # fidelity decays on the plotted spacing range; past amplitude
        # collapse the correctable-weight measure saturates and stops
        # being meaningful
        f_values = [0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0]
        fids = chain_columns(sweep_config(base, "spacing", f_values)).totals[:, 0].tolist()
        assert all(a > b for a, b in zip(fids, fids[1:])), fids

        spec = CodeSpec(1, 2, 2.0)
        w1 = mixture_weights(spec, LogicalCoeffs.balanced(), ChannelParams(1.0))
        assert abs(w1.ptilde[0] - 1.0) < 1e-12
        w = mixture_weights(spec, LogicalCoeffs.balanced(), ChannelParams(0.97))
        correctable = float(np.sum(w.ptilde[:2]))
        assert correctable > 0.99
        assert correctable > float(np.sum(w.ptilde[2:]))


def test_10_figure_regeneration(tmp_path):
    from catloss.cli import main as cli_main

    jobs = [
        ["weights", "--L", "1", "--alpha", "2",
         "--gamma-min", "0.5", "--gamma-max", "1", "--gamma-steps", "101"],
        ["fidelity", "--L", "1", "--alpha", "2",
         "--gamma-min", "0.5", "--gamma-max", "1", "--gamma-steps", "101"],
        ["weights", "--L", "2", "--alpha", "3",
         "--gamma-min", "0.5", "--gamma-max", "1", "--gamma-steps", "101"],
        ["fidelity", "--L", "2", "--alpha", "3",
         "--gamma-min", "0.5", "--gamma-max", "1", "--gamma-steps", "101"],
    ]
    spacing_grid = "0.02,0.05,0.1,0.2,0.5,1,2,5,10,20"
    for alpha in ("6", "7", "8"):
        jobs.append(
            ["sweep", "--L", "4", "--alpha", alpha, "--total-km", "1000",
             "--scheme", "new", "--axis", "spacing", "--values", spacing_grid]
        )
    with criterion(10, "figure datasets regenerate in time"):
        start = time.perf_counter()
        for idx, job in enumerate(jobs):
            out = tmp_path / f"dataset_{idx}.csv"
            assert cli_main(job + ["--out", str(out)]) == 0
            assert out.stat().st_size > 0
            assert (tmp_path / f"dataset_{idx}.csv.manifest.json").exists()
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"regeneration took {elapsed:.1f}s"
