"""The pencil t0*I + t1*A + t2*A*, its determinant curve, and the kernel map.

For a 4x4 complex matrix A, the locus ``D = {det(t0 I + t1 A + t2 A*) = 0}``
is a plane quartic.  At every point of ``D`` the pencil has a
one-dimensional kernel (for suitably generic A), and the kernel vector
``v`` traces out the curve of points in projective 3-space where
``{v, Av, A*v}`` is linearly dependent.  A tridiagonalizing flag comes
from the finitely many points where the two enlarged spans
``span(v, Av, A*v) + A span(...)`` and ``... + A* span(...)`` coincide;
that coincidence is the rank condition ``sigma4`` (see :func:`_section_score`).

The flag points are the roots of one polynomial on the base line
``[1 : mu]``: over a base the curve points are the eigenvectors of
``N = A + mu*A*``, and the product of ``det[v, Av, A^2 v, A*^2 v]`` over
them, made scale-free, is a polynomial of degree 20 whose factor
``mu^8`` comes from the eigenvectors of A.  The rest is a dodecic, and
its 12 roots are the bases of the paper's 12 flag points (see
:func:`_dodecic_roots`), ordered best-conditioned first.  The solver's
first candidate is the best sheet over the three best-conditioned roots,
gated before the eigenvector points of A and A* are screened, so a
generic solve forms no :attr:`Pencil.eigen`; the sheets over the other
nine are formed only when more candidates are asked for.  The dodecic's
13 samples on the unit circle come from ``eigh``, since there ``N`` is a
phase times a Hermitian matrix.  A point
counts when its flag (:func:`_flag_bases`) passes :func:`_passes`, the
solver's own gate (:func:`_certify`).  Only the count goes further: when
a root is rejected, :func:`section_zeros` refines all twelve together by
Aberth-Ehrlich steps on the dodecic's direct values (:func:`_refine_roots`)
and gates the rejected ones again, where the solver starts Gauss-Newton
from the flags of the best sheets instead.
Every point reaches the gate with the kernel vector and ``sigma4`` it was
found with: a sheet's eigenvector of ``N``, or an eigenvector point's
singular vector from :attr:`Pencil.eigen`, whose ``sigma4`` the screen
takes only where a determinant bound cannot clear it.  So the gate takes
one SVD, the on-curve test's singular values.
:func:`_flag_points` yields the accepted points, each with its flag, to
the solver and to :func:`section_zeros`.

This module is the base line's one home: :func:`_base_points` forms the
curve points over a stack of bases, ``_CIRCLE`` holds the circle grids,
:func:`_krylov_roots` is the Krylov sextic and :func:`_circle_roots`
roots every polynomial sampled there.  The flag points, the rank screen
of :mod:`tridiag4.genericity` and the counts of :mod:`tridiag4.degrees`
take them from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import linalg
from .linalg import canonical_projective

#: The one relative tolerance: the pencil's rank drop (``sigma3``, in
#: ``_certify_on_curve`` and ``classify``), its on-curve ``sigma4``, the
#: off-band residual of a flag point's flag, the entries behind ``shortcut``,
#: the hyperplane value and the eigenvalue gap of ``classify`` (``s2``) are
#: all tested against it, and it is the cluster radius of :func:`_distinct`.
CERT_TOL = 1e-8

#: The unitarity gate ``||UU* - I||_2`` that every accepted flag and every returned result meets.
UNITARITY_TOL = 1e-10

#: Step cap of the joint refinement of the dodecic's roots (:func:`_refine_roots`).
ROOT_STEPS = 20

#: Best-conditioned roots the first candidate is chosen from (one alone let a Gaussian's ``off_residual`` reach 1.5e-9).
_FIRST_ROOTS = 3


def _frozen(x: np.ndarray) -> np.ndarray:
    """``x``, made read-only: a constant or a cached array that no reader may change."""
    x.flags.writeable = False
    return x


#: The index pairs ``i < j`` of four eigenvalues.
_PAIRS = tuple(_frozen(i) for i in np.triu_indices(4, 1))

#: Per size n = 1..4, built once: the complex identity, and the mask of the
#: entries off the tridiagonal band (``|i - j| >= 2``) that :func:`_off_max` reads.
_EYE = {n: _frozen(np.eye(n, dtype=complex)) for n in range(1, 5)}
_FAR = {n: _frozen(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) >= 2) for n in range(1, 5)}

#: The n-th roots of unity for n = 7 and 13, built once: where :func:`_krylov_roots`
#: samples a Krylov sextic and :func:`_dodecic_roots` the dodecic.
_CIRCLE = {n: _frozen(np.exp(2j * np.pi * np.arange(n) / n)) for n in (7, 13)}


@dataclass(frozen=True)
class Pencil:
    """A finite square matrix with ``1 <= n <= 4`` (``ValueError`` otherwise) and its adjoint, prepared once for every reader.

    :attr:`centred` is its :func:`_centred` triple and, for n = 4,
    :attr:`unit` the ``Pencil`` of the centred ``C``, whose cached ``eigen``
    and ``common`` the screen, the solve, the flag points and the counts
    share, and whose private ``_roots`` and ``_first_sheets`` the flag
    points share; each is formed on first use, so a trivial solve forms
    none and a generic 4x4 solve no ``eigen``.  The private ``_ops`` is
    the read-only operator stack that every ``sigma4`` and dodecic value
    of the pencil reads.
    ``classify``, ``tridiagonalize``, ``run_experiments`` and the CLI build
    one per request; :func:`section_zeros` and the counts read the caller's.
    ``a`` and ``astar`` are the pencil's own read-only arrays.
    """

    a: np.ndarray
    astar: np.ndarray = field(init=False)

    def __post_init__(self):
        a = linalg.as_matrix(self.a)
        if a.shape not in [(n, n) for n in range(1, 5)]:
            raise ValueError(f"expected a square matrix with 1 <= n <= 4, got shape {a.shape}")
        # a frozen copy: writing into the caller's array cannot leave astar and the cached properties stale
        object.__setattr__(self, "a", _frozen(a.copy()))
        object.__setattr__(self, "astar", _frozen(linalg.adjoint(a)))

    @cached_property
    def centred(self):
        """:func:`_centred` of ``A``: the one place a matrix is centred."""
        return _centred(self.a)

    @cached_property
    def unit(self) -> Pencil:
        """The ``Pencil`` of the centred ``C``; ``ValueError`` unless n = 4, since only the flag points and the counts read it."""
        if self.a.shape[0] != 4:
            raise ValueError(f"the flag points and the counts need a 4x4 matrix, got shape {self.a.shape}")
        return Pencil(self.centred[0])

    @cached_property
    def eigen(self):
        """:func:`linalg.eigen` of ``A``, taken on first use and kept.

        The eigenvector points of the flag search and the common
        eigenvector test both read this one decomposition.  A generic solve
        or ``classify`` reads neither: the commutator bound clears
        :attr:`common`, a solve's first flag comes before the eigenvector
        points, and ``classify`` takes its eigenvalue gap from ``eigvals``,
        so neither forms ``eigen``.
        """
        return linalg.eigen(self.a)

    @cached_property
    def _ops(self) -> np.ndarray:
        """The read-only (7, n, n) stack ``[I, A, A*, A^2, A A*, A* A, A*^2]``, formed on first use and kept.

        :func:`_seven_columns` applies all seven to kernel vectors as one
        product, and :func:`_dodecic_values` reads ``A^2`` and ``A*^2``.
        """
        a, astar = self.a, self.astar
        return _frozen(np.stack([_EYE[a.shape[0]], a, astar, a @ a, a @ astar, astar @ a, astar @ astar]))

    @cached_property
    def _roots(self) -> np.ndarray:
        """:func:`_dodecic_roots` of this pencil, read-only, taken on first use and kept.

        Read on a :attr:`unit`, as :func:`_dodecic_roots` requires, by
        :func:`_flag_points`, by the solver's Gauss-Newton starts and by the
        joint pass of :func:`section_zeros`: a solve and a count on the same
        ``unit`` share this one dodecic.
        """
        return _frozen(_dodecic_roots(self))

    @cached_property
    def _first_sheets(self):
        """:func:`_best_sheets` over the ``_FIRST_ROOTS`` best-conditioned roots of :attr:`_roots`, read-only, taken on first use and kept.

        The rows ``(t, v, sigma4)``: each sheet's point, the eigenvector of
        ``N`` that spans the pencil's kernel there, and its ``sigma4``, as
        :func:`_certify` takes them.  Read only by :func:`_flag_points`
        when :attr:`_roots` is not empty: the solve's first candidate and
        :func:`section_zeros` on the same ``unit`` share these sheets.
        """
        return tuple(_frozen(x) for x in _best_sheets(self, self._roots[:_FIRST_ROOTS]))

    @cached_property
    def common(self) -> list[np.ndarray]:
        """The eigenvectors of ``A`` (from :attr:`eigen`) that are eigenvectors of ``A*`` too, taken on first use and kept.

        Tests ``||A* v - mu v|| <= CERT_TOL`` with ``mu = v* A* v`` for every
        unit eigenvector ``v`` as one stack; those that pass are made
        canonical, and duplicates (from repeated eigenvalues) are removed
        (:func:`_distinct`).  The bound is absolute, so ``A`` is that of a
        :func:`_centred` matrix: ``||A||_2 <= 1``, as on :attr:`unit`, the
        only pencil any reader asks.
        :func:`genericity.classify` and the solver's deflation both read
        this one result.

        A commutator bound answers first, without :attr:`eigen`: when every
        eigenvalue of the Hermitian ``K = A A* - A* A`` exceeds ``4*CERT_TOL``
        in modulus, no eigenvector passes.  For a unit eigenvector ``v``
        with ``A v = lam*v + s`` (``|s| = delta``, at roundoff, since
        :func:`linalg.eigen` takes ``v`` as the smallest singular vector of
        ``A - lam*I``) and ``A* v = mu*v + r`` (``|r| = eps``), ``K v = mu*s
        + A r - lam*r - A* s``, so ``|K v| <= 2*eps + 2*delta`` when
        ``||A||_2 <= 1``.  A ``v`` that passes (``eps <= CERT_TOL``) makes
        ``min |eigvalsh(K)| <= 2*CERT_TOL + 2*delta``.  The bound only
        clears: any other ``A`` takes the test above.  ``K`` changes by a
        unitary similarity with ``A`` and not at all by a unit phase of ``A``.
        """
        if np.abs(np.linalg.eigvalsh(self.a @ self.astar - self.astar @ self.a)).min() > 4 * CERT_TOL:
            return []
        v = self.eigen[1]
        w = self.astar @ v
        ok = np.linalg.norm(w - np.sum(np.conj(v) * w, axis=0) * v, axis=0) <= CERT_TOL
        rows = canonical_projective(v.T[ok])
        return list(rows[_distinct(rows)])


@dataclass
class SectionCandidate:
    """A flag point whose flag passes the gate: the canonical point ``t``, its canonical kernel vector ``v``, its ``sigma4`` (:func:`_section_score`), its flag basis, and whether ``W2`` is invariant under A or A*.

    The conjugated basis is the solver's candidate unitary, which the
    solver measures on its own ``A`` (:func:`_measure`).
    """

    t: np.ndarray
    v: np.ndarray
    sigma4: float
    basis: np.ndarray
    shortcut: bool


def pencil_matrix(pencil: Pencil, t) -> np.ndarray:
    """The n x n matrix ``t0*I + t1*A + t2*A*``; a (k, 3) stack of ``t`` gives the (k, n, n) stack."""
    t = np.asarray(t, dtype=complex)
    if t.shape[-1:] != (3,) or t.ndim > 2 or not np.all(np.isfinite(t)):
        raise ValueError("pencil parameter must have 3 finite coordinates, or be a stack of such rows")
    t0, t1, t2 = t.T[..., None, None]
    return t0 * _EYE[pencil.a.shape[0]] + t1 * pencil.a + t2 * pencil.astar


def _seven_columns(pencil: Pencil, v: np.ndarray) -> np.ndarray:
    """The (k, 4, 7) stack ``[v, Av, A*v, A^2 v, A A* v, A* A v, A*^2 v]`` for kernel vectors v (k, 4): one product with :attr:`Pencil._ops`."""
    n = v.shape[1]
    return (v @ pencil._ops.reshape(-1, n).T).reshape(-1, 7, n).swapaxes(1, 2)


def _section_score(pencil: Pencil, v: np.ndarray, screen: bool = False) -> np.ndarray:
    """``sigma4`` for kernel vectors ``v`` (k, 4): the fourth singular value of :func:`_seven_columns`, normalized.

    Away from the eigenvectors of A the spans agree exactly where the
    dodecic's factor ``h = det[v, Av, A^2 v, A*^2 v]`` vanishes, but
    ``sigma4``, not ``h``, scores the points: it stays large at the
    degenerate zeros of ``h`` at eigenvectors.  With ``screen``, for unit
    ``v``, a row whose ``sqrt(det G) / tr(G)^2`` (for ``G = M M*`` and the
    seven columns ``M``; a lower bound on ``sigma4``, since it is
    ``s1 s2 s3 s4 / (sum s_i^2)^2``) exceeds ``2*sqrt(CERT_TOL)`` fails
    the eigenvector-point screen for sure and scores ``inf`` without an
    SVD; the other rows score exactly as without ``screen``.
    """
    m = _seven_columns(pencil, v)
    score, near = np.full(len(m), np.inf), slice(None)
    if screen:
        g = m @ np.conj(m).swapaxes(1, 2)
        near = np.sqrt(np.abs(np.linalg.det(g / np.trace(g, axis1=1, axis2=2).real[:, None, None]))) <= 2 * np.sqrt(CERT_TOL)
    if len(m[near]):
        s7 = np.linalg.svd(m[near], compute_uv=False)
        score[near] = s7[:, 3] / np.maximum(s7[:, 0], 1e-300)
    return score


def _certify_on_curve(pencil: Pencil, t, kernel: bool = False):
    """Membership test for the determinant curve at rank 3, for a (k, 3) stack of points.

    One stacked SVD decides every row: it fails when it is zero or not
    finite, ``sigma1 = 0``, ``sigma3 <= CERT_TOL*sigma1`` or ``sigma4 >
    CERT_TOL*sigma1``.  Returns ``(ok, t, v)``: the mask, the canonical
    rows and, with ``kernel=True`` only, their canonical kernel vectors.
    A failed row holds a placeholder.  Each row is divided by its largest
    modulus before its norm is taken, so nothing overflows.
    """
    t = np.asarray(t, dtype=complex)
    big = np.abs(t).max(axis=1)  # inf or nan on a row that is not finite
    ok = np.isfinite(big) & (big > 0)
    t = np.where(ok[:, None], t, 1.0) / np.where(ok, big, 1.0)[:, None]
    t = linalg.phase_fixed(t / np.sqrt(np.sum(t.real**2 + t.imag**2, axis=1))[:, None])
    svd = np.linalg.svd(pencil_matrix(pencil, t), compute_uv=kernel)
    s, v = (svd.S, linalg.phase_fixed(np.conj(svd.Vh[:, -1]))) if kernel else (svd, None)
    ok &= (s[:, 0] > 0) & (s[:, 2] > CERT_TOL * s[:, 0]) & (s[:, 3] <= CERT_TOL * s[:, 0])
    return ok, t, v


def _off_max(t: np.ndarray):
    """The largest modulus off the tridiagonal band of an n x n ``T`` (n <= 4), or of each matrix of a stack; 0 for n <= 2."""
    return np.abs(t[..., _FAR[t.shape[-1]]]).max(axis=-1, initial=0.0)


def _unitarity(u: np.ndarray):
    """``||UU* - I||_2`` of an n x n ``U`` (n <= 4), or of each matrix of a stack: the largest ``|eigenvalue|`` of that Hermitian matrix."""
    return np.abs(np.linalg.eigvalsh(u @ np.conj(u).swapaxes(-1, -2) - _EYE[u.shape[-1]])).max(axis=-1)


def _passes(off, unitarity, tol):
    """The gate of every flag, the solver's results and the counted flag points alike: ``off <= tol`` and ``||UU* - I||_2 <= UNITARITY_TOL``."""
    return (off <= tol) & (unitarity <= UNITARITY_TOL)


def _measure(a: np.ndarray, u: np.ndarray):
    """What :func:`_passes` reads of a unitary ``U`` on ``A`` (n <= 4), or of each matrix of a stack: ``T = U A U*``, its :func:`_off_max` and its :func:`_unitarity`.

    The one measurement of a candidate: :func:`_certify`, the solver's
    gate, the ladder's relaxed gate and ``verify`` all take it here.  The
    off-band maximum is absolute; a caller divides it by ``||A||_2``
    unless ``A`` is centred, with norm 1.
    """
    t = u @ a @ np.conj(u).swapaxes(-1, -2)
    return t, _off_max(t), _unitarity(u)


def _widest(q: np.ndarray, x: np.ndarray):
    """Per stack entry, the column of ``x`` that sticks out of ``span(q)`` most, projected out of it twice and normalized, with its residual.

    Both passes apply ``I - QQ*``, formed once.  One pass leaves a vector
    that sticks out little visibly non-orthogonal; the second makes it
    orthogonal to roundoff.
    """
    p = _EYE[q.shape[1]] - q @ np.conj(q).swapaxes(1, 2)
    x = p @ (p @ x)
    r = np.linalg.norm(x, axis=1)
    rows, j = np.arange(len(x)), np.argmax(r, axis=1)
    r = r[rows, j]
    return x[rows, :, j] / np.maximum(r, 1e-300)[:, None], r


def _flag_bases(a: np.ndarray, astar: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The orthonormal flag bases grown from the rows of ``v`` (k, n), as a (k, n, n) stack of columns.

    ``W1`` is the row, normalized and phase-fixed, and ``W_{j+1} = W_j +
    A W_j + A* W_j``: each step normalizes every column of ``A Q`` and
    ``A* Q`` for the basis ``Q`` so far and appends the one that sticks
    out most (:func:`_widest`).  Where that residual is at roundoff the
    span is invariant under both A and A*, and any completion works: the
    row takes the unit coordinate vector that sticks out most instead, as
    every row does for its last column.  For n = 3 and n = 4 alike,
    ``U A U*`` is tridiagonal exactly when each ``W_{j+1}`` has dimension
    at most ``j + 1``; the gate measures that, so nothing is checked here.
    """
    k, n = v.shape
    both = np.concatenate([a, astar])
    q = linalg.phase_fixed(v / np.linalg.norm(v, axis=1, keepdims=True))[:, :, None]
    for j in range(1, n - 1):
        # [A; A*] Q as one product, its halves side by side: the columns A Q, then A* Q
        y = (both @ q).reshape(k, 2, n, j).swapaxes(1, 2).reshape(k, n, 2 * j)
        x, r = _widest(q, y / np.maximum(np.linalg.norm(y, axis=1, keepdims=True), 1e-300))
        closed = r <= 1e-13
        if closed.any():
            x[closed] = _widest(q[closed], _EYE[n])[0]
        q = np.concatenate([q, x[:, :, None]], axis=2)
    return np.concatenate([q, _widest(q, _EYE[n])[0][:, :, None]], axis=2)


def _certify(pencil: Pencil, t, v, sigma4) -> tuple[np.ndarray, list[SectionCandidate]]:
    """The rows ``(t, v, sigma4)`` whose flags pass the gate: their mask, and a :class:`SectionCandidate` for each, in order.

    Each row is a point ``t`` of a (k, 3) stack, a kernel vector ``v`` of
    the pencil there (k, 4), as the caller already holds it (an eigenvector
    of ``N`` over a sheet's base, a singular vector of :attr:`Pencil.eigen`
    at an eigenvector point), and its ``sigma4`` (:func:`_section_score`),
    which only orders and reports the points.  A row passes
    :func:`_certify_on_curve`, which takes singular values only, and the
    flag grown from ``v`` (:func:`_flag_bases`, all rows as one stack)
    passes :func:`_passes` at ``CERT_TOL``: the solver's own gate, so a
    point counts exactly when the solver would return its flag.
    ``pencil`` is that of a :func:`_centred` matrix (``||A||_2 = 1``), so
    the off-band residual of ``T = U A U*`` is already relative.
    ``shortcut`` marks a row with ``min(|T[2,1]|, |T[1,2]|) <= CERT_TOL``,
    where ``W2`` is invariant under A or A*.  A candidate's ``v`` is its
    flag's first column: ``v``, normalized and phase-fixed.  ``T`` and the
    residuals are taken by :func:`_measure`, all rows as one stack.  An
    empty stack gives an empty mask and ``[]``.
    """
    ok, t, _ = _certify_on_curve(pencil, t)
    basis = _flag_bases(pencil.a, pencil.astar, v)
    tri, off, unitarity = _measure(pencil.a, np.conj(basis).swapaxes(1, 2))
    ok &= _passes(off, unitarity, CERT_TOL)
    shortcut = np.minimum(np.abs(tri[:, 2, 1]), np.abs(tri[:, 1, 2])) <= CERT_TOL
    return ok, [SectionCandidate(t[i], basis[i, :, 0], float(sigma4[i]), basis[i], bool(shortcut[i])) for i in np.flatnonzero(ok)]


def _distinguished_seeds(pencil: Pencil):
    """Pencil points carried by eigenvectors of A and of A*, as a ``(2n, 3)`` stack ``t`` of points and a ``(2n, n)`` stack ``v`` of kernel vectors.

    An eigenvector of A with eigenvalue lam corresponds to the point
    [-lam : 1 : 0]; an eigenvector of A* with eigenvalue nu to
    [-nu : 0 : 1].  These always lie on the dependence curve; they are
    the bases ``mu = 0`` and ``mu = oo`` that the dodecic leaves out, and
    they carry the flag points of structured inputs (nilpotent blocks,
    invariant planes) where the dodecic vanishes identically.  Both halves
    come from the pencil's one eigen-decomposition (:attr:`Pencil.eigen`):
    ``v`` is the smallest right singular vector of ``A - lam*I`` for the
    points of A, and its smallest left singular vector, at ``nu =
    conj(lam)``, for those of A*; either way it is the pencil's kernel
    vector at ``t``.  The points of A come first, sorted by ``lam``, then
    those of A*, sorted by ``nu``.  :func:`_flag_points` asks for them only
    after the first dodecic candidate, so a solve that takes that one
    forms no eigen-decomposition.
    """
    lam, right, left = pencil.eigen
    nu = np.conj(lam)
    order = np.lexsort((nu.imag, nu.real))
    n = lam.size
    t = np.zeros((2 * n, 3), dtype=complex)
    t[:n, 0], t[:n, 1] = -lam, 1.0
    t[n:, 0], t[n:, 2] = -nu[order], 1.0
    return t, np.concatenate([right.T, left.T[order]])


def _dodecic_values(pencil: Pencil, mu: np.ndarray, circle: bool = False) -> np.ndarray:
    """The dodecic ``R(mu)`` of :func:`_dodecic_roots` at each entry of ``mu``.

    One eigen-decomposition of the stack ``N = A + mu*A*`` and one ``det``
    of the stack of span matrices ``[v, Av, A^2 v, A*^2 v]`` over every
    base (axis 0) and sheet (axis 1), with ``A^2`` and ``A*^2`` read from
    :attr:`Pencil._ops`.  Off the unit circle it is a general ``eig``.
    With ``circle``, every ``mu`` has modulus 1 and ``N = s*H`` for
    ``s = sqrt(mu)`` and the Hermitian ``H = conj(s)*A + s*A*``, so
    ``eigh`` of ``H`` gives the eigenvectors and ``s`` times its
    eigenvalues those of ``N``.
    """
    a, astar, ops = pencil.a, pencil.astar, pencil._ops
    if circle:
        s = np.sqrt(mu)[:, None]
        w, vecs = np.linalg.eigh(np.conj(s)[..., None] * a + s[..., None] * astar)
        lam = s * w
    else:
        lam, vecs = np.linalg.eig(a + mu[:, None, None] * astar)
    h = np.linalg.det(np.stack([vecs, a @ vecs, ops[3] @ vecs, ops[6] @ vecs], axis=-1).swapaxes(1, 2))
    gaps = lam[:, _PAIRS[0]] - lam[:, _PAIRS[1]]
    return np.prod(gaps, axis=1) ** 4 * np.prod(h, axis=1) / np.linalg.det(vecs) ** 4 / mu**8


def _circle_roots(values: np.ndarray):
    """The polynomial of degree below ``n`` with these ``n`` values at the roots of unity: its coefficients and its roots.

    The values at ``exp(2j*pi*k/n)``, ``k = 0..n-1``, are an inverse DFT of
    the ascending coefficients.  Leading coefficients with ``|c| <= 1e-14
    * max|c|`` are dropped, so a polynomial that vanishes identically gives
    ``[0]``.  The roots are the eigenvalues of the companion matrix
    (``eigvals``), taken as simple roots, after the roots at exactly 0 are
    split off: to the bit what ``np.roots`` gives, without its overhead.
    A constant polynomial, or one that is not finite, has none.  The
    dodecic of the flag points and the Krylov sextics of the rank screen
    and the kernel-curve count are all rooted here.
    """
    c = np.fft.fft(values) / len(values)
    top = np.max(np.abs(c))
    d = c.size - 1
    while d > 0 and abs(c[d]) <= 1e-14 * top:
        d -= 1
    c = c[: d + 1]
    if d == 0 or not np.all(np.isfinite(c)):
        return c, np.empty(0, dtype=complex)
    k = np.flatnonzero(c)[0]  # exact roots at 0, split off first as np.roots does
    companion = np.eye(d - k, k=-1, dtype=complex)
    companion[:1] = -c[k:d][::-1] / c[d]
    return c, np.concatenate([np.linalg.eigvals(companion), np.zeros(k, dtype=complex)])


def _krylov_roots(p: np.ndarray, q: np.ndarray, x: np.ndarray):
    """The Krylov sextic ``K(mu) = det[x, Nx, N^2 x, N^3 x]``, ``N = p + mu*q``.

    ``K`` vanishes exactly where ``x`` is not a cyclic vector of ``N``.
    Returns its trimmed coefficients, from its 7 samples on ``|mu| = 1``
    (``_CIRCLE[7]``) taken by one stacked ``det``, and its roots
    (:func:`_circle_roots`).  The rank screen passes ``(A, A*)`` and the
    kernel-curve count ``(A^T, conj(A))``.
    """
    n = p + _CIRCLE[7][:, None, None] * q
    cols = [np.broadcast_to(x, (7, 4))]
    for _ in range(3):
        cols.append(np.einsum("kij,kj->ki", n, cols[-1]))
    return _circle_roots(np.linalg.det(np.stack(cols, axis=-1)))


def _dodecic_roots(pencil: Pencil) -> np.ndarray:
    """The bases ``mu`` of the flag points: the 12 roots of a dodecic.

    Over ``[1 : mu]`` the four curve points are the eigenvectors ``v_k``
    (the columns of ``V``) of ``N = A + mu*A*``, with eigenvalues
    ``lam_k``.  With ``h(v) = det[v, Av, A^2 v, A*^2 v]``,

        P(mu) = prod_{i<j} (lam_i - lam_j)^4 * prod_k h(v_k) / det(V)^4

    does not depend on the scaling or the order of the ``v_k``, and it has
    no poles (it is ``K(mu)^4 * prod_k h(v_k) / (l . v_k)^4`` for the
    Krylov sextic ``K`` of any ``l``), so it is a polynomial, of degree
    20.  ``h`` vanishes to second order at the eigenvectors of A, which
    gives ``P`` an 8-fold zero at ``mu = 0``; those of A* sit at
    ``mu = oo``.  So ``R = P / mu^8`` is a dodecic, recovered from 13
    samples on ``|mu| = 1``, all taken by one call of
    :func:`_dodecic_values`, by ``eigh``.  ``pencil`` must be that of a
    :func:`_centred` matrix (``tr A = 0``, ``||A||_2 = 1``), on which the
    samples are well scaled; the solver and :func:`section_zeros` pass
    one.

    The roots come from the companion matrix as 12 simple roots, since
    the flag points are generically distinct, and are returned
    best-conditioned first: by decreasing ``|R'(mu)| / sum_k |c_k||mu|^k``
    over the coefficients ``c_k`` of ``mu^k`` in ``R``, the inverse of the
    relative condition number of the root, with a stable sort.  A root
    where that sum is 0 or not finite (``mu = 0`` when ``c_0 = 0``) sorts
    last.
    Returns no roots when ``R`` is not finite or vanishes identically.
    """
    r, mu = _circle_roots(_dodecic_values(pencil, _CIRCLE[13], circle=True))
    k = np.arange(r.size)
    with np.errstate(all="ignore"):
        size = np.abs(mu)[:, None] ** k @ np.abs(r)
        proxy = np.abs(mu[:, None] ** k[:-1] @ (k[1:] * r[1:])) / size
    proxy[~((size > 0) & np.isfinite(size) & np.isfinite(proxy))] = -np.inf
    return mu[np.argsort(-proxy, kind="stable")]


def _refine_roots(pencil: Pencil, mu: np.ndarray) -> np.ndarray:
    """All roots of the dodecic, refined together by Aberth-Ehrlich steps on its direct values.

    :func:`_dodecic_values` is accurate to roundoff at any ``mu``, where
    the coefficients the roots came from are not.  Each step moves every
    root still moving by ``N/(1 - N*sum_j 1/(z - z_j))`` over the other
    roots ``z_j``, with the Newton step ``N = R/R'``; ``R'`` is a central
    difference with step ``1e-6*max(1, |z|)``, and one
    :func:`_dodecic_values` call takes ``R`` at the moving roots and at
    both their offsets.  The sum keeps two roots from converging to one.
    A root stops when its step is at most ``1e-14`` relative or is not
    finite (as at ``mu = 0``), or after ``ROOT_STEPS`` steps.  Like
    :func:`_dodecic_roots`, it expects the pencil of a :func:`_centred`
    matrix.
    """
    z, i = mu.astype(complex), np.arange(mu.size)  # i: the roots still moving
    for _ in range(ROOT_STEPS):
        h = 1e-6 * np.maximum(1.0, np.abs(z[i]))
        with np.errstate(all="ignore"):  # a root at mu = 0, or two that meet, gives a step that is not finite and is not taken
            r, up, down = np.split(_dodecic_values(pencil, np.concatenate([z[i], z[i] + h, z[i] - h])), 3)
            newton = 2 * h * r / (up - down)
            step = newton / (1 - newton * np.sum(1 / (z[i, None] - z), axis=1, where=i[:, None] != np.arange(z.size)))
        go = np.isfinite(step) & (np.abs(step) > 1e-14 * np.abs(z[i]))
        z[i[go]] -= step[go]
        i = i[go]
        if not i.size:
            break
    return z


def _base_points(pencil: Pencil, bases: np.ndarray, vectors: bool = True):
    """The curve points over each base ``[b0 : b1]`` of a (k, 2) stack: the eigenvectors of ``N = b0*A + b1*A*``.

    Each base is made unit first, all as one stack, and one stacked
    ``eig`` of ``N`` gives the eigenvalues ``lam`` and the eigenvectors.
    Returns the (k, 4, 3) points ``[-lam : b0 : b1]``, one row per
    eigenvalue, and the (k, 4, 4) eigenvectors, one column per point;
    ``vectors=False`` takes ``eigvals`` instead and returns None for them.
    The flag points' sheets and the kernel-curve count take their curve
    points here with the vectors, the rank screen without.
    """
    bases = bases / np.linalg.norm(bases, axis=1, keepdims=True)
    n = bases[:, 0, None, None] * pencil.a + bases[:, 1, None, None] * pencil.astar
    lam, vecs = np.linalg.eig(n) if vectors else (np.linalg.eigvals(n), None)
    points = np.concatenate([-lam[..., None], np.broadcast_to(bases[:, None], (len(bases), 4, 2))], axis=2)
    return points, vecs


def _best_sheets(pencil: Pencil, mu: np.ndarray):
    """Over each base ``[1 : mu]`` the curve point with the smallest ``sigma4``.

    Returns the rows ``(t, v, sigma4)`` that :func:`_certify` takes: the
    points ``[-lam : 1 : mu]`` (:func:`_base_points`), with the base
    normalized, their eigenvectors of ``N = A + mu*A*``, which span the
    pencil's kernel there since ``(-lam*I + A + mu*A*) v = 0``, and their
    ``sigma4``.
    """
    points, vecs = _base_points(pencil, np.column_stack([np.ones_like(mu), mu]))
    vecs = vecs.swapaxes(1, 2)
    score = _section_score(pencil, vecs.reshape(-1, 4)).reshape(-1, 4)
    rows = np.arange(mu.size)
    sheet = np.argmin(score, axis=1)
    return points[rows, sheet], vecs[rows, sheet], score[rows, sheet]


def _flag_points(pencil: Pencil):
    """The flag points whose flags pass the gate, one at a time, each group gated by one :func:`_certify` stack.

    Over each root of the dodecic the candidate is the sheet with the
    smallest ``sigma4``.  First, of the three best-conditioned roots (the
    first three of :attr:`Pencil._roots`, whose sheets are
    :attr:`Pencil._first_sheets`), the one whose sheet has the smallest
    ``sigma4``, alone: the generic input's flag.  Then the eigenvector
    points of A and A* whose ``sigma4`` is at most ``sqrt(CERT_TOL)`` (a
    flag with ``dim W3 = 4`` cannot tridiagonalize, and ``sigma4``
    measures how far ``W3`` is from dimension 3); the screen takes the SVD
    only of the points its determinant bound keeps (:func:`_section_score`
    with ``screen``), which on a Gaussian is usually none.  Then the other
    11 roots, sorted by ``sigma4``.  The generator's return value is the
    indices into :attr:`Pencil._roots` of the rejected roots, and ``[]``
    when the dodecic is empty: :func:`section_zeros` alone refines them.
    Deterministic, and lazy: the dodecic and the sheets over its first
    three roots are formed once per pencil, on first use; the eigenvector
    points, and with them :attr:`Pencil.eigen`, only when the first root's
    candidate has been consumed; the sheets over the other nine roots only
    when the eigenvector points have.
    ``pencil`` is that of a :func:`_centred` matrix, as :func:`_certify`
    and :func:`_dodecic_roots` require.
    """
    mu = pencil._roots
    if mu.size:
        sheets = pencil._first_sheets
        best = int(np.argmin(sheets[2]))
        ok_first, first = _certify(pencil, *(x[[best]] for x in sheets))
        yield from first
    t, v = _distinguished_seeds(pencil)
    score = _section_score(pencil, v, screen=True)
    screened = score <= np.sqrt(CERT_TOL)
    if screened.any():
        yield from _certify(pencil, t[screened], v[screened], score[screened])[1]
    if mu.size == 0:
        return []
    sheets = [np.concatenate(x) for x in zip(sheets, _best_sheets(pencil, mu[_FIRST_ROOTS:]))]
    order = np.argsort(sheets[2])
    order = order[order != best]
    ok_rest, rest = _certify(pencil, *(x[order] for x in sheets))
    yield from rest
    return np.concatenate([[best], order])[~np.concatenate([ok_first, ok_rest])]


def _centred(a: np.ndarray):
    """``(C, scale, shift)``: ``C = (A - shift*I)/scale``, ``shift = tr(A)/n``, ``||C||_2 = 1``.

    ``C`` has the tridiagonalizing unitaries, curves, flag points and rank
    drops of ``A`` (points with ``t0`` moved, see :func:`_unscale_point`).
    """
    n = a.shape[0]
    shift = np.sum(np.diag(a) / n)
    c = a - shift * np.eye(n)
    scale = linalg.matrix_norm(c) or 1.0
    return c / scale, scale, shift


def _unscale_point(t: np.ndarray, scale: float, shift: complex) -> np.ndarray:
    """The points ``[t0 : t1 : t2]``, the rows of a (k, 3) stack, on the pencil of ``(A - shift*I)/scale``, moved to the pencil of ``A``.

    Each is ``[scale*t0 - shift*t1 - conj(shift)*t2 : t1 : t2]`` there,
    formed with every coefficient divided by ``max(scale, |shift|, 1)``
    so that no term can overflow, and then brought to largest modulus 1
    so that its norm cannot underflow; the rows come back canonical, each
    to the bit as the scalar arithmetic of that point alone gives it.
    """
    m = max(scale, abs(shift), 1.0)
    t0, t1, t2 = np.asarray(t, dtype=complex).T
    w = np.column_stack([(scale / m) * t0, t1 / m, t2 / m])
    # products by the complex shift/m in real arithmetic, rounded as scalar ones are (numpy's array product fuses multiply-adds)
    for z, x in ((shift / m, t1), (np.conj(shift) / m, t2)):
        w[:, 0].real -= z.real * x.real - z.imag * x.imag
        w[:, 0].imag -= z.real * x.imag + z.imag * x.real
    return canonical_projective(w / np.abs(w).max(axis=1, keepdims=True))


def _distinct(rows: np.ndarray) -> list[int]:
    """The indices of the rows of a (k, n) stack of unit rows that are kept when, in order, each row is kept unless within ``CERT_TOL`` of one kept before it.

    The distance of unit ``a`` and ``b`` is ``||b - a<a, b>||``, the sine
    of the angle between their lines, which resolves distances below
    ``1e-8`` where ``1 - |<a, b>|^2`` cannot; every pair is read from one
    stacked product.  :attr:`Pencil.common` and :func:`section_zeros` both
    cluster with it.
    """
    gram = np.conj(rows) @ rows.T
    dist = np.linalg.norm(rows[None, :, :] - gram[:, :, None] * rows[:, None, :], axis=2)
    kept: list[int] = []
    for i in range(len(rows)):
        if not (dist[kept, i] <= CERT_TOL).any():
            kept.append(i)
    return kept


def section_zeros(pencil: Pencil):
    """All flag points of the pencil whose flags pass the gate, sorted by their sigma4.

    Collects :func:`_flag_points`: the eigenvector points of A and A*,
    and the roots of the dodecic, refined as below, each kept only when
    it passes :func:`_certify` (on the curve, with a flag whose off-band
    residual is at most ``CERT_TOL`` and whose unitarity residual is at
    most ``UNITARITY_TOL``), so there are never more than the solver
    could return.  Points within projective distance ``CERT_TOL`` of each
    other count once, with the smaller ``sigma4``: in that order,
    :func:`_distinct` keeps a point unless it is that near one kept before
    it.  On a generic matrix the result has exactly 12 entries.  The
    points are found on :attr:`Pencil.unit`, the centred matrix, and
    mapped back to the pencil of ``A`` as one stack, so the count depends
    on neither the scale nor the shift of ``A``.  The result is empty when
    nothing passes, as on degenerate inputs; ``ValueError`` unless the
    pencil is 4x4.

    When :func:`_flag_points` rejects a root and the dodecic has all 12,
    all twelve are refined together (:func:`_refine_roots`) and the best
    sheets over the rejected ones gated as one stack.  A dodecic of lower
    degree is left alone: on a nilpotent Jordan block it collapses to about
    ``mu^6``, and its refined roots certified 8 points where 2 are right.
    """
    _, scale, shift = pencil.centred
    unit = pencil.unit

    def points():
        rejected = yield from _flag_points(unit)
        if len(rejected) and unit._roots.size == 12:
            yield from _certify(unit, *_best_sheets(unit, _refine_roots(unit, unit._roots)[rejected]))[1]

    cands = sorted(points(), key=lambda z: (z.sigma4, tuple(np.round(z.t, 9).view(float))))
    t = np.array([z.t for z in cands]).reshape(-1, 3)
    kept = _distinct(t)
    # only t moves to the pencil of A: v, sigma4 and the flag, which tridiagonalizes A too, stay
    return [replace(cands[i], t=u) for i, u in zip(kept, _unscale_point(t[kept], scale, shift))]
