"""Univariate complex root finding, restriction to lines, damped Newton.

Polynomials are 1-D complex coefficient arrays in ascending degree.
Degrees stay small (the quartic line restrictions of the determinant
curve, the Krylov sextic of the rank screen and the kernel-curve count,
the flag-point dodecic, the 3x3 cubics), so robustness is preferred over
speed throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, SingularJacobian

TRIM_TOL = 1e-14


def trim(coeffs) -> np.ndarray:
    """Drop leading coefficients with ``|c| <= 1e-14 * max|c|``."""
    c = np.asarray(coeffs, dtype=complex).reshape(-1)
    if c.size == 0:
        return c
    top = np.max(np.abs(c))
    if top == 0.0:
        return np.zeros(1, dtype=complex)
    d = c.size - 1
    while d > 0 and abs(c[d]) <= TRIM_TOL * top:
        d -= 1
    return c[: d + 1].copy()


def polyval(coeffs, z):
    """Horner evaluation, vectorized over ``z``."""
    c = np.asarray(coeffs, dtype=complex)
    out = np.zeros_like(np.asarray(z, dtype=complex))
    for ck in c[::-1]:
        out = out * z + ck
    return out


def polyder(coeffs) -> np.ndarray:
    c = np.asarray(coeffs, dtype=complex)
    if c.size <= 1:
        return np.zeros(1, dtype=complex)
    return c[1:] * np.arange(1, c.size)


def _aberth(c: np.ndarray, tol: float, max_iter: int, rng: np.random.Generator):
    """Simultaneous Aberth-Ehrlich iteration on a trimmed polynomial.

    Initial points sit on a randomly rotated circle at the Cauchy root
    bound.  Convergence is judged per root by the scaled residual
    ``|p(z)| <= tol * (1 + |z|)^deg`` with coefficients normalized to
    max modulus 1.
    """
    d = c.size - 1
    c = c / np.max(np.abs(c))
    dc = polyder(c)
    radius = 1.0 + np.max(np.abs(c[:-1] / c[-1])) if d > 0 else 1.0
    angles = 2.0 * np.pi * (np.arange(d) + rng.uniform(0.0, 1.0)) / d
    z = radius * (0.8 + 0.2 * rng.uniform(size=d)) * np.exp(1j * angles)

    for _ in range(max_iter):
        pv = polyval(c, z)
        if np.all(np.abs(pv) <= tol * (1.0 + np.abs(z)) ** d):
            return z
        pd = polyval(dc, z)
        # nudge stalled points where p' underflows (multiple-root plateaus)
        bad = np.abs(pd) < 1e-290
        if np.any(bad):
            z = np.where(bad, z * (1.0 + 1e-8) + 1e-8, z)
            continue
        w = pv / pd
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < 1e-290, 1e-290, denom)
        z = z - w / denom
    pv = polyval(c, z)
    if np.all(np.abs(pv) <= tol * (1.0 + np.abs(z)) ** d):
        return z
    raise ConvergenceFailure(
        f"Aberth iteration did not converge in {max_iter} steps (degree {d})"
    )


def _cluster(z: np.ndarray, cluster_tol: float):
    """Greedy clustering for multiplicity estimation (advisory only)."""
    order = np.lexsort((z.imag, z.real))
    z = z[order]
    reps: list[complex] = []
    counts: list[int] = []
    for zk in z:
        placed = False
        for i, r in enumerate(reps):
            if abs(zk - r) <= cluster_tol * (1.0 + abs(r)):
                # running mean keeps the representative centred
                reps[i] = (r * counts[i] + zk) / (counts[i] + 1)
                counts[i] += 1
                placed = True
                break
        if not placed:
            reps.append(complex(zk))
            counts.append(1)
    return list(zip(reps, counts))


def _estimate_multiplicities(z, c, tol, cluster_tol):
    """Group approximate roots into multiple roots (advisory).

    An m-fold root limits double precision to an accuracy ball of radius
    about tol^(1/m), so tight clustering thresholds can never see it.  A
    group of m points is merged when it fits inside that ball *and* the
    first m-1 derivatives of p vanish at its mean within scaled
    tolerance (the certificate keeps merely-close simple roots apart).
    """
    d = c.size - 1
    c = c / np.max(np.abs(c))
    derivs = [c]
    for _ in range(d):
        derivs.append(polyder(derivs[-1]))

    remaining = list(range(len(z)))
    out: list[tuple[complex, int]] = []
    for m in range(d, 1, -1):
        for anchor in list(remaining):
            if anchor not in remaining or len(remaining) < m:
                continue
            group = sorted(remaining, key=lambda j: abs(z[j] - z[anchor]))[:m]
            center = complex(np.mean([z[j] for j in group]))
            diam = max(abs(z[j] - center) for j in group)
            size = 1.0 + abs(center)
            bound = 2.0 * (2.0**d * tol) ** (1.0 / m) * size + cluster_tol * size
            if diam > bound:
                continue
            certified = True
            for k in range(m):
                val = polyval(derivs[k], np.array([center]))[0]
                cert = 4.0 * (2.0**d * tol) ** ((m - k) / m) * d**k * size ** max(d - k, 0)
                if abs(val) > cert:
                    certified = False
                    break
            if certified:
                out.append((center, m))
                remaining = [j for j in remaining if j not in group]
    if remaining:
        out.extend(_cluster(np.asarray([z[j] for j in remaining]), cluster_tol))
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def roots(coeffs, tol: float = 1e-10, max_iter: int = 200, cluster_tol: float = 1e-7, seed: int = 0):
    """All roots of a complex polynomial, with multiplicity estimates.

    Returns ``[(root, multiplicity), ...]`` sorted by (real, imag); the
    multiplicities sum to the trimmed degree.  Exact zero roots (zero
    trailing coefficients) are split off before the Aberth iteration.

    The multiplicity grouping is advisory: at degree 12 it can merge
    distinct simple roots into one multiple root, so the flag-point
    dodecic is rooted without it (see ``pencil._dodecic_roots``).

    Raises
    ------
    ConvergenceFailure
        After ``max_iter`` simultaneous iterations without meeting the
        residual test.
    """
    c = trim(coeffs)
    d = c.size - 1
    if d < 1:
        raise ValueError("roots requires degree >= 1")
    top = np.max(np.abs(c))
    nzero = 0
    while nzero < d and abs(c[nzero]) <= TRIM_TOL * top:
        nzero += 1
    c = c[nzero:]
    d = c.size - 1

    if d == 1:
        out = [(complex(-c[0] / c[1]), 1)]
    elif d >= 2:
        rng = np.random.default_rng(seed)
        found = np.asarray(_aberth(c, tol, max_iter, rng))
        out = _estimate_multiplicities(found, c, tol, cluster_tol)
    else:
        out = []

    if nzero:
        merged = False
        for i, (r, m) in enumerate(out):
            if abs(r) <= cluster_tol * (1.0 + abs(r)):
                out[i] = (r, m + nzero)
                merged = True
                break
        if not merged:
            out.append((0j, nzero))
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


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
