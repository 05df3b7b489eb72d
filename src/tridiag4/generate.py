"""Deterministic pseudorandom test matrices."""

from __future__ import annotations

import numpy as np

from . import linalg

KINDS = ("gaussian", "hermitian", "tridiagonal", "jordan")


def random_gaussian(n: int, rng) -> np.ndarray:
    """Standard complex Gaussian entries, variance 1 per entry; ``rng`` is a seed or a ``Generator``, which is used as it is."""
    rng = np.random.default_rng(rng)
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def random_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix; ``rng`` as in :func:`random_gaussian`."""
    q, r = np.linalg.qr(random_gaussian(n, rng))
    # fix the phase ambiguity of QR so the distribution is Haar
    return q * (np.diag(r) / np.abs(np.diag(r)))


def jordan_block(n: int) -> np.ndarray:
    """The nilpotent single Jordan block: ones on the superdiagonal."""
    return np.diag(np.ones(n - 1, dtype=complex), 1)


def make_matrix(kind: str, n: int, seed) -> np.ndarray:
    """Matrix of the requested kind; same (kind, n, seed) gives identical output.

    ``n`` is a Python or numpy integer (not ``bool``) of at least 1 for
    every kind; ``ValueError`` otherwise.  ``seed`` is a seed or a
    ``Generator``, which is used as it is.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    n = linalg.as_integer("n", n, 1)
    rng = np.random.default_rng(seed)
    if kind == "jordan":
        return jordan_block(n)
    a = random_gaussian(n, rng)
    if kind == "hermitian":
        return (a + np.conj(a).T) / 2.0
    if kind == "tridiagonal":
        mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 1
        return a * mask
    return a
