"""Transforms of a Gaussian input that the mathematics says change nothing.

A flag of ``A`` gives one of ``c*A``, ``e^(i theta)*A``, ``A + c*I``,
``V A V*``, ``A*`` and ``A^T`` (reversed and conjugated as needed), and
the genericity conditions are invariant under each (all but
nonsingularity under a shift, which a Gaussian ``A`` keeps unless the
shift lands within roundoff of an eigenvalue).  So ``tridiagonalize``
must pass both residual gates on the transformed input, ``classify``
must give the same ``(s1, s2, s3, #common)``, and the counting
experiments must still give ``(4, 6, 12)``; the provenance may change.

The commutator bound of ``Pencil.common`` reads ``A A* - A* A``, which a
unitary similarity conjugates and a unit phase leaves alone: whether it
clears, and the number of common eigenvectors, do not change under
either, near the common-eigenvector set as well as away from it.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tridiag4.degrees import run_experiments
from tridiag4.generate import make_matrix, random_unitary
from tridiag4.genericity import classify
from tridiag4.pencil import Pencil
from tridiag4.tridiagonalize import tridiagonalize

from helpers import near_common

seeds = st.integers(0, 2**32 - 1)


def signature(a):
    r = classify(a)
    return r.nonsingular, r.distinct_eigenvalues, r.pencil_rank_ok, len(r.common_eigenvectors)


def check(a, b):
    """``b`` is a transform of ``a``: it solves within both gates, classifies alike and counts 4, 6 and 12."""
    r = tridiagonalize(b)
    assert r.off_residual <= 1e-8
    assert r.unitarity_residual <= 1e-10
    assert signature(b) == signature(a)
    counts = run_experiments(b)
    assert (counts.deg_det_curve, counts.deg_kernel_curve, counts.section_zero_count) == (4, 6, 12)


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


@given(seeds, st.floats(-8, 8), st.floats(0, 2 * np.pi))
@example(0, 8.0, 0.0)
@settings(max_examples=40, deadline=None)
def test_shift(seed, exponent, theta):
    a = make_matrix("gaussian", 4, seed)
    c = 10.0**exponent * np.exp(1j * theta) * np.linalg.norm(a, 2)
    check(a, a + c * np.eye(4))


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


def common_bound(a):
    """Whether the commutator bound clears ``A``'s unit pencil (it forms no ``eigen``), and how many common eigenvectors it has."""
    p = Pencil(a).unit
    count = len(p.common)
    return "eigen" not in vars(p), count


@given(seeds, seeds, st.sampled_from([1e-10, 1e-6, 1e-4, 1e-2]), st.floats(0, 2 * np.pi))
@settings(max_examples=40, deadline=None)
def test_common_bound_under_similarity_and_phase(seed, v_seed, d, theta):
    a = near_common(d, seed)
    v = random_unitary(4, np.random.default_rng(v_seed))
    expected = common_bound(a)
    assert common_bound(v @ a @ np.conj(v).T) == expected
    assert common_bound(np.exp(1j * theta) * a) == expected
