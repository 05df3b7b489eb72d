"""Transforms of a Gaussian input that the mathematics says change nothing.

A flag of ``A`` gives one of ``c*A``, ``e^(i theta)*A``, ``V A V*``, ``A*``
and ``A^T`` (reversed and conjugated as needed), and the genericity
conditions are invariant under each.  So ``tridiagonalize`` must pass
both residual gates on the transformed input, and ``classify`` must give
the same ``(s1, s2, s3, #common)``; the provenance may change.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tridiag4.generate import make_matrix, random_unitary
from tridiag4.genericity import classify
from tridiag4.tridiagonalize import tridiagonalize

seeds = st.integers(0, 2**32 - 1)


def signature(a):
    r = classify(a)
    return r.nonsingular, r.distinct_eigenvalues, r.pencil_rank_ok, len(r.common_eigenvectors)


def check(a, b):
    """``b`` is a transform of ``a``: it solves within both gates and classifies alike."""
    r = tridiagonalize(b)
    assert r.off_residual <= 1e-8
    assert r.unitarity_residual <= 1e-10
    assert signature(b) == signature(a)


@given(seeds, st.floats(-150, 150))
@settings(max_examples=40, deadline=None)
def test_scale(seed, exponent):
    a = make_matrix("gaussian", 4, seed)
    check(a, 10.0**exponent * a)


@given(seeds, st.floats(0, 2 * np.pi))
@settings(max_examples=40, deadline=None)
def test_phase(seed, theta):
    a = make_matrix("gaussian", 4, seed)
    check(a, np.exp(1j * theta) * a)


@given(seeds, seeds)
@settings(max_examples=40, deadline=None)
def test_unitary_similarity(seed, v_seed):
    a = make_matrix("gaussian", 4, seed)
    v = random_unitary(4, np.random.default_rng(v_seed))
    check(a, v @ a @ np.conj(v).T)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_adjoint(seed):
    a = make_matrix("gaussian", 4, seed)
    check(a, np.conj(a).T)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_transpose(seed):
    a = make_matrix("gaussian", 4, seed)
    check(a, a.T)
