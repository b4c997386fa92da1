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


def sectioned_exp(x: float, modulus: int, residue: int) -> float:
    """S_{m,j}(x): sum of x^n/n! over photon numbers n = j (mod m), for a
    real x >= 0; tiny negative roundoff is clamped to 0."""
    if x < 0:
        raise ValueError(f"expected nonnegative argument, got {x}")
    m = int(modulus)
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
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
            raise ArithmeticError(
                f"sectioned exponential ({x}, {modulus}, {residue}) "
                f"returned {v}, beyond the roundoff clamp"
            )
        v = 0.0
    return v
