"""Shared test helpers and the ``bits`` hypothesis profile; the mpmath truths
are in mp_truth.py."""

import importlib

import mpmath
import numpy as np
import pytest
from hypothesis import settings

from catloss.codes import CodeSpec, LogicalCoeffs
from catloss.repeater import RepeaterConfig, chain_columns


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


def projector(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| as a dense matrix, without normalization."""
    return np.outer(psi, psi.conj())


def period(columns, i: int) -> np.ndarray:
    """The (amplitude_in, f_factor, p_factor) period rows of chain i of ``ChainColumns``."""
    return columns.period[columns.starts[i]:columns.starts[i] + columns.rows[i]]


def assert_chain_totals(columns, i: int, ar_every: int) -> None:
    """Chain i's totals lie within 4 eps len(period) relative of the exact
    product over the period rows of row ** (stations repeating the row),
    taken in mpmath from the period's own doubles; the absolute slack of one
    subnormal step per row covers totals that underflow."""
    rows = period(columns, i)
    counts = np.bincount(np.arange(columns.n_stations[i]) % ar_every, minlength=len(rows)).tolist()
    with mpmath.workprec(256):
        for got, column in zip(columns.totals[i].tolist(), rows[:, 1:].T):
            exact = mpmath.fprod(mpmath.mpf(x) ** k for x, k in zip(column.tolist(), counts))
            slack = 4 * np.finfo(float).eps * len(rows) * abs(exact) + len(rows) * 2.0**-1074
            assert abs(mpmath.mpf(got) - exact) <= slack, (got, exact, counts)


def assert_same_columns(columns, configs) -> None:
    """``columns`` hold, byte for byte, the columns of the sets ``configs`` run one
    at a time and joined in order: a set's chains run one by one give its own."""
    ones = [chain_columns(c) for c in configs]
    for name in ("totals", "n_stations", "amplitude_collapsed", "period", "rows"):
        got, want = getattr(columns, name), [getattr(c, name) for c in ones]
        assert got.tobytes() == b"".join(w.tobytes() for w in want), name


def record_calls(monkeypatch, target: str) -> list:
    """Wrap the function at the dotted ``target`` for one test: each call appends
    its positional arguments to the list returned, then runs the function."""
    module, _, name = target.rpartition(".")
    calls, real = [], getattr(importlib.import_module(module), name)
    monkeypatch.setattr(target, lambda *args, **kw: calls.append(args) or real(*args, **kw))
    return calls


def chains_of(config: RepeaterConfig) -> list[RepeaterConfig]:
    """The chains of a chain set, each its own set of shape (), in C order
    of the set's batch shape: the order of ``chain_columns``' chains."""
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
