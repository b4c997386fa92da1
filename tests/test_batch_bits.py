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
the mpmath thinning sum (``mp_truth.thinning_fidelity``).
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from catloss.cli import LONG_HAUL_REFERENCE
from catloss.channel import (ChannelParams, _sector_phases, _weighted_norm_sq,
                             class_probabilities, mixture_weights)
from catloss.codes import _GRAM_TERMS, CodeSpec, LogicalCoeffs, codeword_norm_sq, gram_matrix
from catloss.qec import BALANCED_PAIR, fidelity_bound, fidelity_from_weights
from catloss.repeater import RepeaterConfig, chain_columns, segment_gamma, sweep_config
from catloss.restore import restoration_from_weights, teleport_success_from_overlaps
from catloss.series import sectioned_exp
from conftest import assert_chain_totals, assert_same_columns, chains_of, period
from mp_truth import thinning_fidelity


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
    batched = lambda: sectioned_exp(np.array(xs), m)
    _agree(batched, lambda x: [ref.sectioned_exp(x, m, j) for j in range(m)], [(x,) for x in xs])
    _agree(batched, lambda x: sectioned_exp(x, m), [(x,) for x in xs])


@given(L=st.integers(0, 7), d=st.integers(2, 4), drawn=drawn_points, seed=seeds,
       data=st.data())
@bits_settings
def test_gram_matrix(L, d, drawn, seed, data):
    q = data.draw(st.integers(0, L))
    n = data.draw(st.sampled_from(chunk_edges(L, d)))
    amps, _ = _points(drawn, n, seed)
    spec = CodeSpec(L, d, 1.0)
    batched = lambda: gram_matrix(spec, amplitude=np.array(amps))[:, q]
    _agree(batched, lambda a: ref.gram_matrix(L, d, q, a), [(a,) for a in amps])
    got = _agree(batched, lambda a: gram_matrix(spec, amplitude=a)[q], [(a,) for a in amps])
    assert got.shape == (n, d, d)
    # repeated and reordered amplitudes: each distinct one is evaluated once
    # and gathered back to every point it stands at
    repeated = amps + amps[::-1]
    _agree(lambda: gram_matrix(spec, amplitude=np.array(repeated))[:, q],
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


def _separate_calls(spec, coeffs, params):
    """p, ptilde, gram and damped_grams with the nominal amplitude in kernel calls of
    its own: ``gram_matrix(spec)`` beside the damped spaces' Gram matrices, and
    ``codeword_norm_sq(spec)`` beside the damped norms, each read at space 0."""
    alpha, gamma = np.asarray(spec.alpha, dtype=float), np.asarray(params.gamma, dtype=float)
    damped_amp = np.sqrt(gamma) * alpha
    classes = np.arange(spec.cycle)
    sections = sectioned_exp((1.0 - gamma) * np.float_power(alpha, 2.0), spec.cycle)
    norms = codeword_norm_sq(spec, amplitude=damped_amp)
    p = sections * norms[..., classes % spec.spaces] / codeword_norm_sq(spec)[..., :1]
    gram, grams = gram_matrix(spec)[..., 0, :, :], gram_matrix(spec, amplitude=damped_amp)
    c = coeffs.values
    j = classes.reshape(spec.d, spec.spaces, 1)
    branch = _weighted_norm_sq(c[..., None, None, :] * _sector_phases(spec, j),
                               grams[..., None, :, :, :])
    ptilde = p * branch.reshape(*branch.shape[:-2], spec.cycle)
    return p, ptilde / _weighted_norm_sq(c, gram)[..., None], gram, grams


def _same_as_separate_calls(spec, coeffs, params):
    w = mixture_weights(spec, coeffs, params)
    got = [class_probabilities(spec, params), w.ptilde, w.gram, w.damped_grams]
    for a, b in zip(got, _separate_calls(spec, coeffs, params)):
        _same(a, b)
    assert w.gram.shape == np.shape(spec.alpha) + (spec.d, spec.d)


# the qubit codes of L 0-3 (the trigonometric spaces and coherent ones beside them)
# and the qutrit code of L 2
union_codes = st.sampled_from([(0, 2), (1, 2), (2, 2), (3, 2), (2, 3)])


@given(code=union_codes, chain_set=chains, ar_every=st.sampled_from([1, 2]), seed=seeds)
@bits_settings
def test_union_batch_of_chain_rows(code, chain_set, ar_every, seed):
    # the batch a chain set forms: period rows a * g ** (t / 2.0) at transmission g,
    # then each chain's restoring row at a over g ** ar_every, so damped amplitudes
    # repeat input ones; the one-call route has the two-call route's bits
    (L, d), gammas = code, [segment_gamma(s) for _, s, _, _ in chain_set]
    nominal = [a for a, _, _, _ in chain_set]
    amps = [a * g ** (t / 2.0) for a, g in zip(nominal, gammas) for t in range(ar_every)] + nominal
    gams = [g for g in gammas for _ in range(ar_every)] + [g ** ar_every for g in gammas]
    _same_as_separate_calls(*_batch(L, d, amps, gams, _coeffs(d, len(amps), seed)))


@given(code=union_codes, alpha=alphas, n=st.integers(1, 9), drawn=drawn_points, seed=seeds,
       column=st.booleans())
@bits_settings
def test_union_batch_of_one_alpha(code, alpha, n, drawn, seed, column):
    # one alpha over a gamma grid, whose gram keeps alpha's shape (), or a column of
    # alphas broadcast against the grid
    (L, d), (_, gams) = code, _points(drawn, n, seed)
    amps = np.array([[alpha], [alpha + 1.0]]) if column else alpha
    spec, params = CodeSpec(L, d, amps), ChannelParams(np.array(gams))
    _same_as_separate_calls(spec, LogicalCoeffs.balanced(d), params)


@pytest.mark.filterwarnings("ignore:alpha=.*collinear")
@given(L=st.integers(0, 7), chain_set=chains, seed=seeds,
       layout=st.sampled_from(["chains", "table", "grid"]))
@bits_settings
def test_chain_columns(L, chain_set, seed, layout):
    config = _chain_set(L, chain_set, _coeffs(2, len(chain_set), seed), layout)
    columns = chain_columns(config)
    one_chain = chains_of(config)
    assert len(columns.totals) == len(one_chain) == np.prod(np.shape(config.n_stations))
    for i, cfg in enumerate(one_chain):
        # the frozen totals are sequential products over the expanded columns
        _, _, frozen, collapsed = ref.simulate_chain(
            L, cfg.spec.alpha, cfg.coeffs.values, cfg.n_stations,
            float(np.exp(-cfg.spacing_km / cfg.attenuation_km)), cfg.ar_every,
        )
        assert columns.amplitude_collapsed[i] == collapsed
        frozen[:, 1:] = np.minimum(frozen[:, 1:], 1.0)  # probabilities, capped at 1
        _same(period(columns, i), frozen)
        assert_chain_totals(columns, i, cfg.ar_every)
    assert_same_columns(columns, one_chain)


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
    columns = chain_columns(config)
    for i, cfg in enumerate(chains_of(config)):
        assert columns.n_stations[i] == round(cfg.total_km / cfg.spacing_km)
        assert_chain_totals(columns, i, cfg.ar_every)


def test_columns_contract():
    # sets of shape (), (3,) and (2, 3), with chains shorter than their period, and
    # sets of no chains, of any shape, as a sweep of no values is; a set holds one
    # CodeSpec, so its chains share (L, d)
    base = RepeaterConfig(total_km=1.0, spacing_km=0.5, spec=CodeSpec(1, 2, 2.0),
                          coeffs=LogicalCoeffs.balanced())
    sets = [base, replace(base, spacing_km=np.array([0.5, 0.25, 1.0]), ar_every=3),
            replace(base, spacing_km=np.full((2, 3), 0.25), ar_every=np.array([1, 2, 5]))]
    for empty in (np.zeros(0), np.ones((2, 0))):
        sets += [replace(base, spacing_km=empty), replace(base, spec=CodeSpec(1, 2, empty + 2.0))]
    for config in sets + [sweep_config(base, axis, []) for axis in ("spacing", "alpha", "gamma")]:
        c, n = chain_columns(config), np.size(config.n_stations)
        assert c.totals.shape == (n, 2) and c.period.shape == (c.rows.sum(), 3)
        for column in (c.n_stations, c.amplitude_collapsed, c.starts, c.rows):
            assert column.shape == (n,)
        assert c.starts.tolist() == (np.cumsum(c.rows) - c.rows).tolist()
        assert c.rows.tolist() == np.minimum(config.columns[3].ravel(), c.n_stations).tolist()


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
    got = gram_matrix(CodeSpec(3, 2, 1.0), amplitude=amps)[:, 1]
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


def test_float_power_rounds_as_python_pow():
    # the chain passes take np.float_power where the per-chain loops took Python's x ** c
    # (libm pow): row amplitudes g ** (t / 2), intervals g ** ar_every and totals
    # factor ** count; np.power rounds some such pairs otherwise
    rng = np.random.default_rng(39)
    x = np.concatenate([rng.random(60_000), 1.0 - 1e-6 * rng.random(20_000),
                        [0.0, 5e-324, 0.5, 1.0]])
    for c in (rng.integers(1, 2 * 10**5, len(x)), rng.integers(0, 10**5, len(x)) / 2.0):
        _same(np.float_power(x, c), [a ** k for a, k in zip(x.tolist(), c.tolist())])


def test_gamma_and_log_arrays_round_as_scalar_calls():
    # the chain set's gammas, one segment_gamma pass, against the per-chain float calls, on
    # random inputs and the benchmark's (every sweep and tables spacing, the trace's
    # 0.01 km, at 22 km); then the gamma sweep's spacings -attenuation * log(gamma)
    rng = np.random.default_rng(40)
    bench = [0.01, 0.02, 0.05, 0.1, 0.5, 1.0, 5.0, 20.0] + [
        row[1] for block in LONG_HAUL_REFERENCE.values() for row in block["rows"]]
    spacing = np.concatenate([10.0 ** rng.uniform(-3, 3, 20_000), bench])
    attenuation = np.concatenate([rng.uniform(1.0, 100.0, 20_000), np.full(len(bench), 22.0)])
    got = segment_gamma(spacing, attenuation)
    pairs = list(zip(spacing.tolist(), attenuation.tolist()))
    _same(got, [float(np.exp(-s / a)) for s, a in pairs])  # the frozen per-chain form
    _same(got, [segment_gamma(s, a) for s, a in pairs])
    v = np.concatenate([rng.random(20_000), got[got > 0], [1e-320, 0.999, math.exp(-0.1)]])
    for att in (22.0, 17.5):
        _same(-np.multiply.outer(np.log(v), att), [-att * np.log(g) for g in v.tolist()])


def _prod_of_powers(columns, i, ar_every):
    """Chain i's totals as the per-chain loop formed them: math.prod, in row order from 1,
    of each period row's factor ** (the stations repeating the row)."""
    n, rows = columns.n_stations[i].tolist(), period(columns, i)
    counts = [n // ar_every + (t < n % ar_every) for t in range(len(rows))]
    return [math.prod(x ** c for x, c in zip(column, counts)) for column in rows[:, 1:].T.tolist()]


@pytest.mark.filterwarnings("ignore:alpha=.*collinear")
def test_mixed_period_set_keeps_frozen_periods_and_products():
    # as tables runs them, rows of (alpha, spacing) under every scheme and both balanced
    # inputs, with ar_every 1, 2 and 3: the 1-station and 2-station chains are shorter
    # than some of their periods, so the set holds periods of 1, 2 and 3 rows
    alpha, spacing, total = (np.array(c)[:, None, None] for c in
                             ([6.0, 7.0, 5.5], [0.1, 0.5, 0.5], [1000.0, 1.0, 0.5]))
    config = RepeaterConfig(total_km=total, spacing_km=spacing, spec=CodeSpec(4, 2, alpha),
                            coeffs=BALANCED_PAIR, ar_every=np.array([[1], [2], [3]]))
    columns = chain_columns(config)
    assert sorted(set(columns.rows.tolist())) == [1, 2, 3]
    for i, cfg in enumerate(chains_of(config)):
        _, _, frozen, collapsed = ref.simulate_chain(
            4, cfg.spec.alpha, cfg.coeffs.values, cfg.n_stations,
            float(np.exp(-cfg.spacing_km / cfg.attenuation_km)), cfg.ar_every)
        frozen[:, 1:] = np.minimum(frozen[:, 1:], 1.0)  # probabilities, capped at 1
        _same(period(columns, i), frozen)
        assert columns.amplitude_collapsed[i] == collapsed
        assert columns.totals[i].tolist() == _prod_of_powers(columns, i, cfg.ar_every)


@pytest.mark.filterwarnings("ignore:alpha=.*collinear")
def test_long_period_keeps_frozen_rows_and_products():
    # repeater --L 1 --alpha 2 --spacing-km 0.01 --ar-every 50000: 10^5 stations repeat a
    # 50,000-row period twice; every amplitude and, one frozen call each, the factors of
    # every 2,500th row and of the restoring row (all 50,000 would take seconds)
    coeffs, k = LogicalCoeffs.balanced(), 50_000
    config = RepeaterConfig(1000.0, 0.01, CodeSpec(1, 2, 2.0), coeffs, ar_every=k)
    columns = chain_columns(config)
    table, gamma = columns.period, float(np.exp(-0.01 / 22.0))
    assert columns.n_stations.tolist() == [2 * k] and table.shape == (k, 3)
    _same(table[:, 0], [2.0 * gamma ** (t / 2.0) for t in range(k)])
    rows = list(range(0, k, 2_500)) + [k - 1]
    _same(table[rows, 1], [min(ref.fidelity_state(1, 2, a, gamma, coeffs.values), 1.0)
                           for a in table[rows, 0].tolist()])
    assert table[k - 1, 2] == min(ref.restoration_factor(1, 2.0, gamma**k, coeffs.values), 1.0)
    assert np.all(table[:-1, 2] == 1.0)
    assert columns.totals[0].tolist() == _prod_of_powers(columns, 0, k)
