"""The scalar closed forms as they stood before batching, frozen as oracles.

Each function evaluates one (amplitude, gamma, coefficients) point with the
rounding of the original one-point code: Python and numpy-scalar complex
products, libm ``pow`` for squares, ``hypot`` for magnitudes, numpy array
products on length-m/d vectors and one small BLAS matmul per quadratic form.
The batched library must reproduce every value here with ``==``; these
copies are never edited to follow the library.

The inputs are plain numbers: (L, d) of the code, a float amplitude, a
float gamma and a tuple of complex logical coefficients.
"""

from __future__ import annotations

import cmath

import numpy as np

CLAMP_TOL = 1e-12
COLLAPSE_ALPHA = 0.1


def sectioned_exp(x: float, modulus: int, residue: int) -> float:
    if x < 0:
        raise ValueError(f"expected nonnegative argument, got {x}")
    m = int(modulus)
    if m == 1:
        v = float(np.exp(x))
    else:
        j = int(residue) % m
        if x == 0:
            return 1.0 if j == 0 else 0.0
        r = np.arange(m)
        roots = np.exp(2j * np.pi * r / m)
        v = complex(np.sum(np.exp(roots * x) * np.exp(-2j * np.pi * j * r / m)) / m).real
    if v < 0.0:
        if v < -CLAMP_TOL:
            raise ArithmeticError(f"sectioned exponential ({x}, {modulus}, {residue}) = {v}")
        v = 0.0
    return v


def _cmul(ar, ai, br, bi):
    return ar * br - ai * bi, ar * bi + ai * br


def _sector_amplitude(L, d, k, amp):
    return amp * np.exp(2j * np.pi * k / (d * (L + 1)))


def _coherent_gram(L, d, q, amp):
    m = L + 1
    comps = np.array([
        [_sector_amplitude(L, d, k, amp) * np.exp(2j * np.pi * j / m) for j in range(m)]
        for k in range(d)
    ])
    half_sq = np.array([[abs(u) ** 2 / 2 for u in row] for row in comps])
    phases = np.array([np.exp(2j * np.pi * q * lag / m) for lag in range(1 - m, m)])
    ph = phases[np.arange(m)[None, :] - np.arange(m)[:, None] + (m - 1)]
    u = comps[:, None, :, None]
    v = comps[None, :, None, :]
    cr, ci = _cmul(u.real, -u.imag, v.real, v.imag)
    arg = np.empty((d, d, m, m), dtype=complex)
    arg.real = -half_sq[:, None, :, None] - half_sq[None, :, None, :] + cr
    arg.imag = 0.0 + ci
    e = np.exp(arg)
    tr, ti = _cmul(ph.real, ph.imag, e.real, e.imag)
    sums = np.empty((d, d), dtype=complex)
    for part, out in ((tr, sums.real), (ti, sums.imag)):
        terms = np.zeros((d, d, m * m + 1))
        terms[..., 1:] = part.reshape(d, d, m * m)
        out[...] = np.add.accumulate(terms, axis=-1)[..., -1]
    g = np.eye(d, dtype=complex)
    for k1 in range(d):
        for k2 in range(k1 + 1, d):
            g[k1, k2] = sums[k1, k2] / np.sqrt(sums[k1, k1].real * sums[k2, k2].real)
            g[k2, k1] = np.conj(g[k1, k2])
    return g


def gram_matrix(L, d, q, amp):
    a2 = amp * amp
    s = None
    if d == 2:
        if L == 1 and q == 0:
            s = complex(np.cos(a2) / np.cosh(a2))
        elif L == 1 and q == 1:
            s = complex(1j * np.sin(a2) / np.sinh(a2))
        elif L == 2 and q == 0:
            root3 = np.sqrt(3.0)
            num = np.exp(-a2) + 2 * np.exp(a2 / 2) * np.cos(root3 * a2 / 2)
            den = np.exp(a2) + 2 * np.exp(-a2 / 2) * np.cos(root3 * a2 / 2)
            s = complex(num / den)
    if s is None:
        return _coherent_gram(L, d, q, amp)
    if not cmath.isfinite(s):
        raise ArithmeticError(f"overlap of space {q} at amplitude {amp} is {s}")
    return np.array([[1.0, s], [np.conj(s), 1.0]], dtype=complex)


def class_probabilities(L, d, alpha, gamma):
    m, cycle = L + 1, d * (L + 1)
    y = alpha**2
    x = (1.0 - gamma) * y
    norm0 = sectioned_exp(alpha * alpha, m, 0)
    damped_amp = np.sqrt(gamma) * alpha
    damped = [sectioned_exp(damped_amp * damped_amp, m, (-q) % m) for q in range(m)]
    p = np.empty(cycle)
    for j in range(cycle):
        p[j] = sectioned_exp(x, cycle, j) * damped[j % m] / norm0
    return p


def _weighted_norm_sq(coeffs, gram):
    return float(np.real(coeffs.conj() @ gram @ coeffs))


def mixture_weights(L, d, alpha, gamma, coeffs):
    """(p, ptilde, code-space gram, damped grams) of one point."""
    m, cycle = L + 1, d * (L + 1)
    p = class_probabilities(L, d, alpha, gamma)
    c = np.asarray(coeffs, dtype=complex)
    damped_amp = np.sqrt(gamma) * alpha
    gram = gram_matrix(L, d, 0, alpha)
    input_norm = _weighted_norm_sq(c, gram)
    grams = [gram_matrix(L, d, q, damped_amp) for q in range(m)]
    ptilde = np.empty(cycle)
    for j in range(cycle):
        branch = c * np.exp(2j * np.pi * j * np.arange(d) / cycle)
        ptilde[j] = p[j] * _weighted_norm_sq(branch, grams[j % m]) / input_norm
    return p, ptilde, gram, grams


def fidelity_state(L, d, alpha, gamma, coeffs):
    return float(np.sum(mixture_weights(L, d, alpha, gamma, coeffs)[1][: L + 1]))


def _pair_norm_sq(v, s):
    gram = np.array([[1.0, s], [np.conj(s), 1.0]])
    return float(np.real(v.conj() @ gram @ v))


def teleport_success_from_overlaps(s_tilde: complex, s_bar: complex, c) -> float:
    if not (cmath.isfinite(s_tilde) and cmath.isfinite(s_bar)):
        raise ValueError(f"overlaps must be finite, got s_tilde={s_tilde}, s_bar={s_bar}")
    if 1.0 - abs(s_tilde) <= 1e-12:
        return 0.0
    c0, c1 = (complex(a) for a in c)
    chi = [
        _pair_norm_sq(np.array(v), s_bar)
        for v in [(c0, c1), (c0, -c1), (c1, c0), (-c1, c0)]
    ]
    bell = [
        1.0 + float(np.real(s_tilde**2)),
        1.0 - float(np.real(s_tilde**2)),
        1.0 + abs(s_tilde) ** 2,
        1.0 - abs(s_tilde) ** 2,
    ]
    n_phi_hat = 1.0 + float(np.real(s_tilde * s_bar))
    n_omega = _pair_norm_sq(np.array([c0, c1]), s_tilde)
    branch_sum = chi[0] * bell[0] + chi[1] * bell[1] + chi[2] * bell[2] + chi[3] * bell[3]
    return (1.0 - abs(s_tilde)) ** 2 / (4.0 * n_omega * n_phi_hat) * branch_sum


def restoration_factor(L, alpha, gamma, coeffs):
    m, cycle = L + 1, 2 * (L + 1)
    _, ptilde, gram, grams = mixture_weights(L, 2, alpha, gamma, coeffs)
    s_bar = complex(gram[0, 1])
    a, b = (complex(x) for x in coeffs)
    total = 0.0
    for j in range(cycle):
        s_tilde = complex(grams[j % m][0, 1])
        branch = (a, b * np.exp(2j * np.pi * j / cycle))
        total += ptilde[j] * teleport_success_from_overlaps(s_tilde, s_bar, branch)
    return total


def simulate_chain(L, alpha, coeffs, n_stations, gamma, ar_every):
    """(fidelity, success_prob, period, amplitude_collapsed) of one chain with
    per-segment transmission ``gamma``."""
    period = np.ones((min(ar_every, n_stations), 3))
    for t in range(len(period)):
        amp_in = alpha * gamma ** (t / 2.0)
        period[t, 0] = amp_in
        period[t, 1] = fidelity_state(L, 2, amp_in, gamma, coeffs)
        if t == ar_every - 1:
            period[t, 2] = restoration_factor(L, alpha, gamma**ar_every, coeffs)
    station_rows = np.arange(n_stations) % ar_every
    collapsed = bool(np.min(period[:, 0]) * np.sqrt(gamma) < COLLAPSE_ALPHA)
    return (
        float(np.prod(period[station_rows, 1])),
        float(np.prod(period[station_rows, 2])),
        period,
        collapsed,
    )
