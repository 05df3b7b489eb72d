"""Polynomial coefficients from samples on a line.

Polynomials are 1-D complex coefficient arrays in ascending degree: the
Krylov sextic of the rank screen and the kernel-curve count, and the
flag-point dodecic, each recovered from its values at roots of unity
(by :func:`restrict_to_line` for the sextic) and trimmed by
:func:`trim`.  Their roots come from ``np.roots``, a companion-matrix
eigen-solve, at the call sites.
"""

from __future__ import annotations

import numpy as np


def trim(coeffs) -> np.ndarray:
    """Drop leading coefficients with ``|c| <= 1e-14 * max|c|``."""
    c = np.asarray(coeffs, dtype=complex).reshape(-1)
    if c.size == 0:
        return c
    top = np.max(np.abs(c))
    if top == 0.0:
        return np.zeros(1, dtype=complex)
    d = c.size - 1
    while d > 0 and abs(c[d]) <= 1e-14 * top:
        d -= 1
    return c[: d + 1].copy()


# ---------------------------------------------------------------------------
# restriction of polynomial maps to lines


def restrict_to_line(func, p, q, degree: int) -> np.ndarray:
    """Coefficients of ``s -> func(p + s*q)`` for a polynomial map.

    Samples at the ``degree+1`` roots of unity and inverts the DFT, so
    the recovery is exact (up to roundoff) when ``func`` really is a
    polynomial of the stated degree along the line.
    """
    npts = degree + 1
    omega = np.exp(2j * np.pi * np.arange(npts) / npts)
    values = np.array([func(p + s * q) for s in omega], dtype=complex)
    # samples at roots of unity form an inverse DFT of the coefficients
    return np.fft.fft(values) / npts
