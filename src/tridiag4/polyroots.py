"""Polynomial coefficients from samples on a line, and damped Newton.

Polynomials are 1-D complex coefficient arrays in ascending degree: the
Krylov sextic of the rank screen and the kernel-curve count, and the
flag-point dodecic, each recovered from its values at roots of unity
(by :func:`restrict_to_line` for the sextic) and trimmed by
:func:`trim`.  Their roots come from ``np.roots``, a companion-matrix
eigen-solve, at the call sites.  :func:`newton_system` polishes the
flag points.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, SingularJacobian


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


# ---------------------------------------------------------------------------
# damped Newton for small holomorphic systems


def newton_system(f, jac, start, tol: float = 1e-12, max_steps: int = 40, damping: bool = True):
    """Damped Newton on a small holomorphic system ``f: C^k -> C^k``.

    ``jac`` must return the analytic Jacobian as a k x k complex array.
    Steps are damped by halving until the residual norm decreases
    (Armijo on ``||f||``); an undampable step or a numerically singular
    Jacobian aborts the run.

    Returns ``(solution, residual_norm)``.

    Raises
    ------
    SingularJacobian
        When the Jacobian cannot be inverted at the current iterate.
    ConvergenceFailure
        When the residual does not reach ``tol`` within ``max_steps``.
    """
    x = np.asarray(start, dtype=complex).reshape(-1)
    fx = np.asarray(f(x), dtype=complex).reshape(-1)
    r = float(np.linalg.norm(fx))
    for _ in range(max_steps):
        if r <= tol:
            return x, r
        j = np.asarray(jac(x), dtype=complex)
        try:
            step = np.linalg.solve(j, -fx)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("non-finite Newton step")
        alpha = 1.0
        while True:
            x_new = x + alpha * step
            f_new = np.asarray(f(x_new), dtype=complex).reshape(-1)
            r_new = float(np.linalg.norm(f_new))
            if r_new <= (1.0 - 1e-4 * alpha) * r or not damping:
                x, fx, r = x_new, f_new, r_new
                break
            alpha *= 0.5
            if alpha < 2.0 ** -24:
                raise ConvergenceFailure(f"line search stalled at residual {r:.3e}")
    if r <= tol:
        return x, r
    raise ConvergenceFailure(f"Newton did not reach tol={tol:.1e}; residual {r:.3e}")
