"""Shared brute-force oracles, independent of the library's closed forms."""

import importlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import settings

from catloss.codes import CodeSpec, LogicalCoeffs
from catloss.repeater import RepeaterConfig


def pytest_addoption(parser):
    parser.addoption("--bits-examples", type=int, default=25,
                     help="examples per derandomized property test (tests/test_batch_bits.py,"
                          " tests/test_class_sums.py, tests/test_thinning_oracle.py,"
                          " tests/test_qec.py)")


def pytest_configure(config):
    # the bit and mpmath property tests read this profile; rounding that depends on
    # the batch layout shows only at some draws, so CI also runs them at ten times the default
    settings.register_profile("bits", max_examples=config.getoption("--bits-examples"),
                              deadline=None, derandomize=True)


def series_coherent_overlap(alpha: complex, beta: complex, terms: int = 400) -> complex:
    """<alpha|beta> by direct term-by-term summation of the Fock series."""
    total = 0.0j
    log_term = -(abs(alpha) ** 2 + abs(beta) ** 2) / 2.0
    prefactor = math.exp(log_term)
    term = 1.0 + 0.0j
    for n in range(terms):
        total += term
        term = term * np.conj(alpha) * beta / (n + 1)
    return prefactor * total


def projector(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| as a dense matrix, without normalization."""
    return np.outer(psi, psi.conj())


def sectioned_sum_direct(x: float, modulus: int, residue: int, terms: int = 2000) -> float:
    """sum of x^n/n! over n = residue (mod modulus), summed term by term."""
    total = 0.0
    log_term = 0.0
    for n in range(terms):
        if n > 0:
            log_term += math.log(x) - math.log(n) if x > 0 else -math.inf
        if n % modulus == residue % modulus:
            total += math.exp(log_term)
    return total


def assert_chain_totals(result, ar_every: int) -> None:
    """The chain totals lie within 4 eps len(period) relative of the exact
    product over the period rows of row ** (stations repeating the row),
    taken in mpmath from the period's own doubles; the absolute slack of one
    subnormal step per row covers totals that underflow."""
    rows = len(result.period)
    counts = np.bincount(np.arange(result.n_stations) % ar_every, minlength=rows).tolist()
    with mpmath.workprec(256):
        for got, column in zip((result.fidelity, result.success_prob), result.period[:, 1:].T):
            exact = mpmath.fprod(mpmath.mpf(x) ** k for x, k in zip(column.tolist(), counts))
            slack = 4 * np.finfo(float).eps * rows * abs(exact) + rows * 2.0**-1074
            assert abs(mpmath.mpf(got) - exact) <= slack, (got, exact, counts)


def record_calls(monkeypatch, target: str) -> list:
    """Wrap the function at the dotted ``target`` for one test: each call appends
    its positional arguments to the list returned, then runs the function."""
    module, _, name = target.rpartition(".")
    calls, real = [], getattr(importlib.import_module(module), name)
    monkeypatch.setattr(target, lambda *args, **kw: calls.append(args) or real(*args, **kw))
    return calls


def chains_of(config: RepeaterConfig) -> list[RepeaterConfig]:
    """The chains of a chain set, each its own set of shape (), in C order
    of the set's batch shape: the order ``simulate_chains`` returns them in."""
    *columns, values = config.columns
    total, spacing, attenuation, ar_every, alpha = (c.ravel().tolist() for c in columns)
    L, d = config.spec.L, config.spec.d
    return [RepeaterConfig(t, s, CodeSpec(L, d, a), LogicalCoeffs(v), at, k)
            for t, s, at, k, a, v in zip(total, spacing, attenuation, ar_every, alpha,
                                          values.reshape(len(total), d))]


def central_difference(f, x: float, h: float = 1e-5) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


@pytest.fixture
def rng():
    return np.random.default_rng(20240531)
