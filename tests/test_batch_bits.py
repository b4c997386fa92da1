"""Batched closed forms equal the frozen one-point forms bit for bit.

Chain totals raise period factors to powers of up to 5x10^4, so the
datasets keep their bytes only if every batched value equals, by ``==``,
the value the one-point code computed (``scalar_reference``).  Each test
draws a batch over the CLI domain (L 0-7, d 2-4, alpha in [0.1, 9], gamma in
(0, 1], random logical coefficients) and checks two things: the batch
against the frozen scalars, and a batch of N against N batches of one.
Gram batches straddle the kernel's chunk of points for their (L, d).  Chain
totals are checked against exact products instead (``assert_chain_totals``),
and the worst-case fidelity bound, which reads the class-sum weights, against
the mpmath thinning sum (``test_thinning_oracle.thinning_fidelity``).
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from catloss.channel import ChannelParams, class_probabilities, mixture_weights
from catloss.codes import _GRAM_TERMS, CodeSpec, LogicalCoeffs, gram_matrix
from catloss.qec import BALANCED_PAIR, fidelity_bound, fidelity_from_weights
from catloss.repeater import RepeaterConfig, simulate_chains, sweep
from catloss.restore import restoration_from_weights, teleport_success_from_overlaps
from catloss.series import sectioned_exp
from conftest import assert_chain_totals, chains_of
from test_thinning_oracle import thinning_fidelity


def chunk_edges(L, d):
    """Batch sizes at and around the Gram kernel's chunk of points, whose
    exponentials hold the d(d+1)/2 pairs k1 <= k2 and (L+1)^2 terms per point,
    and around the largest batch whose terms the kernel adds in one group, for
    one space and for all L+1 spaces (a group holds every space's terms)."""
    block = d * (d + 1) // 2 * (L + 1) ** 2
    edge = max(1, _GRAM_TERMS // block)
    groups = [max(1, _GRAM_TERMS // (spaces * block)) for spaces in (1, L + 1)]
    return [1, edge - 1, edge, edge + 1, 3 * edge + 5] + [
        n + i for n in groups for i in (-1, 0, 1) if n + i >= 1]


alphas = st.floats(0.1, 9.0)
gammas = st.floats(0.0, 1.0, exclude_min=True)
# hypothesis picks the first points (edges such as gamma = 1 included); a
# seeded generator fills the rest of the batch
drawn_points = st.lists(st.tuples(alphas, gammas), min_size=1, max_size=6)
seeds = st.integers(0, 2**32 - 1)
bits_settings = settings.get_profile("bits")  # registered in conftest.py


def _points(drawn, n, seed):
    rng = random.Random(seed)
    pts = list(drawn[:n])
    while len(pts) < n:
        pts.append((rng.uniform(0.1, 9.0), 1.0 - rng.random()))
    return [a for a, _ in pts], [g for _, g in pts]


def _coeffs(d, n, seed):
    rng = random.Random(seed + 1)
    return [
        LogicalCoeffs.of(*(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d)))
        for _ in range(n)
    ]


def _batch(L, d, amps, gams, coeffs):
    return (CodeSpec(L, d, np.array(amps)), LogicalCoeffs([c.values for c in coeffs]),
            ChannelParams(np.array(gams)))


def _same(a, b):
    # NaN where both forms give NaN (0/0 at underflowed amplitudes) agrees
    assert np.shape(a) == np.shape(b)
    assert np.array_equal(a, b, equal_nan=True), np.flatnonzero(np.asarray(a) != np.asarray(b))[:5]


def _agree(batched, one_point, points, undefined=lambda *p: False):
    """``batched()`` equals ``one_point(*p)`` for every p in ``points``, by
    ``==``; where a point raises, the batch raises an error of the same kind
    (a numerical failure, or invalid input) instead.  Points where
    ``undefined(*p)`` holds have no one-point value and are left out.
    Returns the batched value, or None when it raised."""
    points = list(points)
    kept = [i for i, p in enumerate(points) if not undefined(*p)]
    want, errors = [], set()
    for i in kept:
        try:
            want.append(one_point(*points[i]))
        except ArithmeticError:  # ZeroDivisionError in Python's complex division
            errors.add(ArithmeticError)
        except ValueError:
            errors.add(ValueError)
    if errors:
        with pytest.raises(tuple(errors)):
            batched()
        return None
    got = batched()
    if kept:
        _same(np.asarray(got)[kept], want)
    return got


def _squares_to_zero(L, alpha, gamma, *_):
    """No frozen value: at L = 1 the frozen one-loss overlap sin(a^2)/sinh(a^2)
    is 0/0 (it raises) where the damped amplitude squares to 0, and the
    library takes its limit 1 there.  The batch-of-one comparisons cover
    such points."""
    amp = np.sqrt(gamma) * alpha
    return L == 1 and amp * amp == 0.0


@given(m=st.integers(1, 32), xs=st.lists(st.floats(0.0, 81.0), min_size=1, max_size=70))
@bits_settings
def test_sectioned_exp(m, xs):
    residues = list(range(m))
    batched = lambda: sectioned_exp(np.array(xs), m, residues)
    for one_point in (ref.sectioned_exp, sectioned_exp):
        _agree(batched, lambda x: [one_point(x, m, j) for j in residues], [(x,) for x in xs])


@given(L=st.integers(0, 7), d=st.integers(2, 4), drawn=drawn_points, seed=seeds,
       data=st.data())
@bits_settings
def test_gram_matrix(L, d, drawn, seed, data):
    q = data.draw(st.integers(0, L))
    n = data.draw(st.sampled_from(chunk_edges(L, d)))
    amps, _ = _points(drawn, n, seed)
    spec = CodeSpec(L, d, 1.0)
    batched = lambda: gram_matrix(spec, q, np.array(amps))
    _agree(batched, lambda a: ref.gram_matrix(L, d, q, a), [(a,) for a in amps])
    got = _agree(batched, lambda a: gram_matrix(spec, q, a), [(a,) for a in amps])
    assert got.shape == (n, d, d)
    # every space in one call: the same values as the frozen and one-space forms
    every = lambda: gram_matrix(spec, range(L + 1), np.array(amps))[:, q]
    _agree(every, lambda a: ref.gram_matrix(L, d, q, a), [(a,) for a in amps])
    _same(every(), got)
    # repeated and reordered amplitudes: each distinct one is evaluated once
    # and gathered back to every point it stands at
    repeated = amps + amps[::-1]
    _agree(lambda: gram_matrix(spec, q, np.array(repeated)),
           lambda a: ref.gram_matrix(L, d, q, a), [(a,) for a in repeated])


@given(L=st.integers(0, 7), d=st.integers(2, 4), n=st.integers(1, 9),
       drawn=drawn_points, seed=seeds)
@bits_settings
def test_class_probabilities(L, d, n, drawn, seed):
    amps, gams = _points(drawn, n, seed)
    batched = lambda: class_probabilities(
        CodeSpec(L, d, np.array(amps)), ChannelParams(np.array(gams)))
    _agree(batched, lambda a, g: ref.class_probabilities(L, d, a, g), zip(amps, gams))
    _agree(batched, lambda a, g: class_probabilities(CodeSpec(L, d, a), ChannelParams(g)),
           zip(amps, gams))


@given(L=st.integers(0, 7), d=st.integers(2, 4), n=st.integers(1, 9),
       drawn=drawn_points, seed=seeds)
@bits_settings
def test_mixture_weights_and_fidelity(L, d, n, drawn, seed):
    amps, gams = _points(drawn, n, seed)
    coeffs = _coeffs(d, n, seed)
    points = list(zip(amps, gams, coeffs))

    def batched():
        spec, c, params = _batch(L, d, amps, gams, coeffs)
        w = mixture_weights(spec, c, params)
        return [class_probabilities(spec, params), w.ptilde, w.gram, w.damped_grams]

    def frozen(a, g, c):
        p, ptilde, gram, damped = ref.mixture_weights(L, d, a, g, c.values)
        return [p, ptilde, gram, np.array(damped)]

    weights_at = lambda a, g, c: mixture_weights(CodeSpec(L, d, a), c, ChannelParams(g))

    def one(a, g, c):
        w = weights_at(a, g, c)
        return [class_probabilities(CodeSpec(L, d, a), ChannelParams(g)), w.ptilde, w.gram,
                w.damped_grams]

    no_frozen = lambda *p: _squares_to_zero(L, *p)
    for one_point, undefined in ((frozen, no_frozen), (one, lambda *p: False)):
        for field in range(4):
            _agree(lambda: batched()[field], lambda *p: one_point(*p)[field], points, undefined)

    batched_fid = lambda: fidelity_from_weights(mixture_weights(*_batch(L, d, amps, gams, coeffs)))
    _agree(batched_fid, lambda a, g, c: ref.fidelity_state(L, d, a, g, c.values), points,
           no_frozen)
    _agree(batched_fid, lambda *p: fidelity_from_weights(weights_at(*p)), points)


@given(L=st.integers(0, 7), alpha=alphas, n=st.integers(1, 9), drawn=drawn_points, seed=seeds)
@bits_settings
def test_fidelity_bound_over_a_grid(L, alpha, n, drawn, seed):
    # the bound reads the class-sum weights, which no frozen form holds: each point
    # lies within 1e-12 relative of the 30-digit thinning sum (above 1e-300)
    _, gams = _points(drawn, n, seed)
    bound = lambda: fidelity_bound(CodeSpec(L, 2, alpha), ChannelParams(np.array(gams)))
    got = bound()
    for g, f_plus, f_minus in zip(gams, got.F_plus, got.F_minus):
        for f, w in zip((f_plus, f_minus), thinning_fidelity(L, alpha, g)):
            assert 0.0 <= f <= 1.0 and abs(f - w) <= 1e-12 * w + 1e-300, (g, f, w)
    for field in ("F_plus", "F_minus", "F_bound"):
        _agree(lambda: getattr(bound(), field),
               lambda g: getattr(fidelity_bound(CodeSpec(L, 2, alpha), ChannelParams(g)), field),
               [(g,) for g in gams])


@given(n=st.integers(1, 40), seed=seeds)
@bits_settings
def test_teleport_success_from_overlaps(n, seed):
    rng = np.random.default_rng(seed)
    s_tilde = rng.uniform(0, 1, n) ** 0.25 * np.exp(2j * np.pi * rng.uniform(size=n))
    s_tilde[rng.uniform(size=n) < 0.1] = 1.0  # saturated branches return 0
    s_bar = rng.uniform(0, 1, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    coeffs = _coeffs(2, n, seed)
    batch = LogicalCoeffs([c.values for c in coeffs])
    got = teleport_success_from_overlaps(s_tilde, s_bar, batch)
    _same(got, [ref.teleport_success_from_overlaps(complex(t), complex(b), c.values)
                for t, b, c in zip(s_tilde, s_bar, coeffs)])
    _same(got, [teleport_success_from_overlaps(complex(t), complex(b), c)
                for t, b, c in zip(s_tilde, s_bar, coeffs)])


@given(L=st.integers(0, 7), n=st.integers(1, 9), drawn=drawn_points, seed=seeds)
@bits_settings
def test_restoration_factor(L, n, drawn, seed):
    amps, gams = _points(drawn, n, seed)
    coeffs = _coeffs(2, n, seed)
    points = list(zip(amps, gams, coeffs))

    def batched():
        spec, c, params = _batch(L, 2, amps, gams, coeffs)
        return restoration_from_weights(c, mixture_weights(spec, c, params))

    _agree(batched, lambda a, g, c: ref.restoration_factor(L, a, g, c.values), points,
           lambda *p: _squares_to_zero(L, *p))
    _agree(batched, lambda a, g, c: restoration_from_weights(
        c, mixture_weights(CodeSpec(L, 2, a), c, ChannelParams(g))), points)


chains = st.lists(
    st.tuples(st.floats(2.0, 9.0), st.sampled_from([0.01, 0.1, 0.5, 1.0, 3.0]),
              st.integers(1, 12), st.integers(1, 3)),
    min_size=1, max_size=8,
)


def _chain_set(L, chain_set, coeffs, layout):
    """One config of the drawn chains' columns (alpha, spacing, stations,
    ar_every) and logical states: as drawn, a set of shape (n,); 'table', as
    ``tables`` runs them, every (alpha, spacing, stations) row under both
    schemes and both balanced inputs, a set of shape (n, 2, 2), so amplitudes
    repeat across chains and, at ar_every 1, between a period row and its
    restoring row; 'grid', alpha, ar_every and the states along one axis and
    spacing and stations along another, a set of shape (n, n)."""
    alpha, spacing, stations, ar_every = (np.array(c) for c in zip(*chain_set))
    coeffs = LogicalCoeffs([c.values for c in coeffs])
    if layout == "table":
        alpha, spacing, stations = (c[:, None, None] for c in (alpha, spacing, stations))
        ar_every = np.array([[2], [1]])
        coeffs = BALANCED_PAIR
    elif layout == "grid":
        alpha, ar_every = alpha[:, None], ar_every[:, None]
        coeffs = LogicalCoeffs(coeffs.values[:, None])
    return RepeaterConfig(total_km=spacing * stations, spacing_km=spacing,
                          spec=CodeSpec(L, 2, alpha), coeffs=coeffs, ar_every=ar_every)


@pytest.mark.filterwarnings("ignore:alpha=.*collinear")
@given(L=st.integers(0, 7), chain_set=chains, seed=seeds,
       layout=st.sampled_from(["chains", "table", "grid"]))
@bits_settings
def test_simulate_chains(L, chain_set, seed, layout):
    config = _chain_set(L, chain_set, _coeffs(2, len(chain_set), seed), layout)
    results = simulate_chains(config)
    one_chain = chains_of(config)
    assert len(results) == len(one_chain) == np.prod(np.shape(config.n_stations))
    for cfg, got in zip(one_chain, results):
        # the frozen totals are sequential products over the expanded columns
        _, _, period, collapsed = ref.simulate_chain(
            L, cfg.spec.alpha, cfg.coeffs.values, cfg.n_stations,
            float(np.exp(-cfg.spacing_km / cfg.attenuation_km)), cfg.ar_every,
        )
        assert got.amplitude_collapsed == collapsed
        period[:, 1:] = np.minimum(period[:, 1:], 1.0)  # probabilities, capped at 1
        _same(got.period, period)
        assert_chain_totals(got, cfg.ar_every)
    assert results == [simulate_chains(cfg)[0] for cfg in one_chain]


long_chains = st.lists(
    st.tuples(st.floats(2.0, 9.0), st.sampled_from([0.01, 0.02, 0.1, 1.0, 5.0]),
              st.integers(1, 10**5), st.integers(1, 4)),
    min_size=1, max_size=4,
)


@pytest.mark.filterwarnings("ignore:alpha=.*collinear")
@given(L=st.integers(0, 4), chain_set=long_chains, seed=seeds,
       layout=st.sampled_from(["chains", "grid"]))
@bits_settings
def test_chain_totals_are_exact_products(L, chain_set, seed, layout):
    # a sequential product over the stations was 8 ulps off at 519 stations
    config = _chain_set(L, chain_set, _coeffs(2, len(chain_set), seed), layout)
    for cfg, got in zip(chains_of(config), simulate_chains(config)):
        assert got.n_stations == round(cfg.total_km / cfg.spacing_km)
        assert_chain_totals(got, cfg.ar_every)


def test_empty_chain_set():
    # a set of no chains, of any shape, returns no results, and so does a sweep
    # of no values; a set holds one CodeSpec, so its chains share (L, d)
    base = RepeaterConfig(total_km=1.0, spacing_km=0.5, spec=CodeSpec(1, 2, 2.0),
                          coeffs=LogicalCoeffs.balanced())
    for empty in (np.zeros(0), np.ones((2, 0))):
        assert simulate_chains(replace(base, spacing_km=empty)) == []
        assert simulate_chains(replace(base, spec=CodeSpec(1, 2, empty + 2.0))) == []
    for axis in ("spacing", "alpha", "gamma"):
        assert sweep(base, axis, []) == []


def test_point_shapes_are_the_batch_shapes():
    # a single point is the batch of shape (): no leading axis
    spec, c = CodeSpec(2, 3, 3.0), LogicalCoeffs.balanced(3)
    one = mixture_weights(spec, c, ChannelParams(0.9))
    assert one.ptilde.shape == (9,) and one.gram.shape == (3, 3)
    assert one.damped_grams.shape == (3, 3, 3)
    grid = mixture_weights(spec, c, ChannelParams(np.full((2, 5), 0.9)))
    assert grid.ptilde.shape == (2, 5, 9) and grid.damped_grams.shape == (2, 5, 3, 3, 3)
    assert np.all(grid.ptilde == one.ptilde)
    assert math.isfinite(fidelity_from_weights(mixture_weights(spec, c, ChannelParams(0.9))))


def _pow_sensitive(rng, x):
    """The entries of x whose libm square pow(x, 2) differs from x * x (about
    1 of 1,100 doubles here), where a swapped square changes the bits."""
    return x[np.float_power(x, 2.0) != np.square(x)]


def test_squares_round_as_libm_pow():
    rng = np.random.default_rng(8)
    amps = _pow_sensitive(rng, rng.uniform(0.1, 9.0, 300_000))
    gams = 1.0 - rng.random(len(amps))
    got = class_probabilities(CodeSpec(0, 2, amps), ChannelParams(gams))
    _same(got, [ref.class_probabilities(0, 2, a, g) for a, g in zip(amps.tolist(), gams.tolist())])
    # the k = 0, j = 0 coherent component has |u| = amplitude exactly
    got = gram_matrix(CodeSpec(3, 2, 1.0), 1, amps)
    _same(got, [ref.gram_matrix(3, 2, 1, a) for a in amps.tolist()])

    # |s_tilde| and 1 - |s_tilde| squared: real overlaps, whose hypot is exact
    mags = np.concatenate([
        _pow_sensitive(rng, rng.uniform(0.0, 1.0, 300_000)),
        1.0 - _pow_sensitive(rng, rng.uniform(0.0, 1.0, 300_000)),
    ])
    s_bar = rng.uniform(0, 1, len(mags)) * np.exp(2j * np.pi * rng.uniform(size=len(mags)))
    coeffs = LogicalCoeffs.of(0.3, 0.8 - 0.2j)
    got = teleport_success_from_overlaps(mags, s_bar, coeffs)
    _same(got, [ref.teleport_success_from_overlaps(complex(t), b, coeffs.values)
                for t, b in zip(mags.tolist(), s_bar.tolist())])
