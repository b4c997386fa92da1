"""Sectioned exponential series and log-factorial helpers.

The sectioned exponential S_{m,j}(x) = sum_{n = j mod m} x^n / n! is the
building block of every codeword norm, codeword overlap and loss-class
probability in this package.  It is evaluated in closed form with the
root-of-unity filter

    S_{m,j}(x) = (1/m) sum_{r=0}^{m-1} w^{-jr} exp(w^r x),   w = exp(2*pi*i/m),

which costs O(m) per call and is stable for x well below the exp overflow
threshold (x ~ 700).  Every argument is a real x >= 0, so the result is
real; roundoff can leave a tiny negative residue which is clamped to zero.
"""

from __future__ import annotations

import numpy as np

# Largest negative excursion accepted as pure roundoff when clamping.
CLAMP_TOL = 1e-12


def log_factorials(n_max: int) -> np.ndarray:
    """log(n!) for n = 0..n_max, accumulated iteratively to avoid overflow."""
    out = np.zeros(n_max + 1)
    if n_max > 0:
        out[1:] = np.cumsum(np.log(np.arange(1, n_max + 1, dtype=float)))
    return out


def sectioned_exp(x, modulus: int, residue):
    """S_{m,j}(x): sum of x^n/n! over photon numbers n = j (mod m), shape
    ``shape(x) + shape(residue)`` for real x >= 0 and an int residue or a
    sequence of them; tiny negative roundoff is clamped to 0.  exp(w^r x) is
    formed once for all residues, and every value rounds as the one-point
    filter does (elementwise exp and products, then a last-axis sum).
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
        e = np.exp(np.exp(2j * np.pi * r / m) * x[..., None])
        sums = [np.sum(e * np.exp(-2j * np.pi * j * r / m), axis=-1) for j in js]
        v = (np.stack(sums, axis=-1) / m).real
        v = np.where(x[..., None] == 0, [float(j == 0) for j in js], v)
    if np.any(v < -CLAMP_TOL):
        raise ArithmeticError(
            f"sectioned exponential of modulus {modulus} returned {v.min()}, "
            "beyond the roundoff clamp"
        )
    v = np.where(v < 0.0, 0.0, v)
    return v.reshape(x.shape + np.shape(residue))[()]
