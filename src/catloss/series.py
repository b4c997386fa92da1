"""Sectioned exponential series.

The sectioned exponential S_{m,j}(x) = sum_{n = j mod m} x^n / n! is the
building block of every codeword norm, codeword overlap and loss-class
probability in this package.  It is evaluated in closed form with the
root-of-unity filter

    S_{m,j}(x) = (1/m) sum_{r=0}^{m-1} w^{-jr} exp(w^r x),   w = exp(2*pi*i/m),

which costs O(m) per call and is stable for x well below the exp overflow
threshold (x ~ 700).  Every argument is a real x >= 0, so the result is
real; roundoff can leave a tiny negative residue which is clamped to zero.

``class_sums`` gives every class of one modulus at once, as e^{-x} S_{m,j}(x),
by summing the terms themselves: accurate in relative terms at any x.
"""

from __future__ import annotations

import math

import numpy as np

# Largest negative excursion accepted as pure roundoff when clamping.
CLAMP_TOL = 1e-12

# Elements per chunk of the filter's (point, residue, r) product.
_PRODUCT_TERMS = 2**13

# Elements per block of the class sums' (offset, direction, point) terms.
_CLASS_TERMS = 2**14


def sectioned_exp(x, modulus: int, residue):
    """S_{m,j}(x): sum of x^n/n! over photon numbers n = j (mod m), shape
    ``shape(x) + shape(residue)`` for real x >= 0 and an int residue or a
    sequence of them; tiny negative roundoff is clamped to 0.  exp(w^r x) is
    formed once and multiplied by every residue's phase row in (point,
    residue, r) products of at most ``_PRODUCT_TERMS`` elements, each summed
    over its last axis, so every value rounds as the one-point filter does
    (elementwise exp and products, then a row sum).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError(f"expected nonnegative argument, got {x[x < 0].flat[0]}")
    m = int(modulus)
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    js = [int(j) % m for j in np.ravel(residue)]
    if m == 1:
        v = np.repeat(np.exp(x)[..., None], len(js), axis=-1)
    else:
        r = np.arange(m)
        e = np.exp(np.exp(2j * np.pi * r / m) * x.reshape(-1, 1))
        # each residue's phase row exp(-2 pi i j r / m), its scalar -2 pi i j in Python
        rows = np.exp(np.array([-2j * np.pi * j for j in js])[:, None] * r / m)
        sums = np.empty((x.size, len(js)), dtype=complex)
        step = max(1, _PRODUCT_TERMS // rows.size)  # points per (point, residue, r) product
        for lo in range(0, x.size, step):
            np.sum(e[lo : lo + step, None, :] * rows, axis=-1, out=sums[lo : lo + step])
        v = (sums.reshape(x.shape + (len(js),)) / m).real
        v = np.where(x[..., None] == 0, [float(j == 0) for j in js], v)
    if np.any(v < -CLAMP_TOL):
        raise ArithmeticError(
            f"sectioned exponential of modulus {modulus} returned {v.min()}, "
            "beyond the roundoff clamp"
        )
    v = np.where(v < 0.0, 0.0, v)
    return v.reshape(x.shape + np.shape(residue))[()]


def class_sums(y, modulus: int) -> np.ndarray:
    """S_{M,t}(y) e^{-y} for t = 0..M-1, shape ``shape(y) + (M,)``: the Poisson(y)
    mass of each class n = t (mod M), for finite real y >= 0; y = 0 gives e_0.

    Each term y^n/n! is taken relative to the mode term n0 = floor(y), as a running
    product of the ratios y/n upward or n/y downward, out from the mode to offset
    k = |n - n0| <= 12 sqrt(y) + 40 + M (and n >= 0).  The terms are binned by k
    mod M and divided by the row's total, so every class is a sum of nonnegative
    terms that keeps its relative accuracy however small it is.  Each direction's
    padded (offset, point) array is formed in blocks of at most ``_CLASS_TERMS``
    elements (or one class row of M offsets per point, where that is more), with
    the ratios past a point's window masked to 0, and added, as rows of M offsets
    in order, to the running sums held in the block's first row; so neither the
    batch nor the blocks move a point's bits.  Where y sin^2(pi/M) >= 20 every
    class lies within 1e-17 relative of 1/M (the root-of-unity filter's r != 0
    terms are below e^-40): 1/M, with no window.
    """
    y = np.asarray(y, dtype=float)
    good = (y >= 0) & (y < math.inf)
    if not good.all():
        raise ValueError(f"expected a finite nonnegative argument, got {y[~good].flat[0]}")
    m = int(modulus)
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    flat = y.reshape(-1)
    out = np.full((flat.size, m), 1.0 / m)
    out[flat == 0] = np.arange(m) == 0
    flat_from = 20 / math.sin(math.pi / m) ** 2 if m > 1 else 0.0
    window = np.flatnonzero((flat > 0) & (flat < flat_from))
    reach = np.floor(12 * np.sqrt(flat[window]) + 40 + m)
    step = max(1, _CLASS_TERMS // (m * -(-int(reach.max(initial=1)) // m)))  # points per chunk
    block = m * max(1, _CLASS_TERMS // (m * step))  # offsets per block, a multiple of M
    t = np.arange(m)[:, None]
    for lo in range(0, window.size, step):
        at, edge = window[lo : lo + step], reach[lo : lo + step]
        yp, mode, p = flat[at], np.floor(flat[at]), np.arange(at.size)
        n0 = mode.astype(np.int64)
        classes = (t == n0 % m) * 1.0  # the mode term
        for sign, last in ((1, edge), (-1, np.minimum(edge, mode))):
            rows = m * -(-int(last.max()) // m)
            buf = np.zeros((m + min(block, rows), at.size))  # running sums, then terms
            carry = np.ones(at.size)
            for k0 in range(1, rows + 1, block):
                k = np.arange(k0, k0 + len(buf) - m, dtype=float)[:, None]
                ratio = yp / (mode + k) if sign > 0 else np.maximum(mode + 1 - k, 0.0) / yp
                ratio *= k <= last
                ratio[0] *= carry  # the product runs on from the last block
                carry = np.cumprod(ratio, axis=0, out=buf[m:])[-1].copy()
                buf[:m] = buf.reshape(-1, m, at.size).sum(axis=0)  # row after row, in order
                if not carry.any():  # every later term underflows to 0
                    break
            # upward offset k holds class n0 + k, downward class n0 - k
            classes += buf[(sign * (t - n0) - 1) % m, p]
        classes = np.ascontiguousarray(classes.T)
        out[at] = classes / np.sum(classes, axis=-1, keepdims=True)
    return out.reshape(y.shape + (m,))
