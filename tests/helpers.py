"""References the tests measure the solver by, and inputs they share; nothing in the package reads them.

:func:`flag_residuals` is the two flag characterizations and
:func:`projective_distance` the Fubini-Study distance of two points, each
written out one step at a time, independently of the stacked kernels of
``tridiag4``.  :func:`near_structured` builds the near-structured corpus
and :func:`near_common` the inputs that sit near the set where ``A`` and
``A*`` share an eigenvector.  :func:`code_lines` is the size measure the
roadmap tracks ``src/`` by.
"""

import ast
import io
import tokenize

import numpy as np

from tridiag4 import linalg
from tridiag4.generate import random_gaussian, random_unitary


def flag_residuals(a, basis):
    """Residuals of the two flag characterizations, relative to ||A||.

    First value: how far A W_i (and A* W_i) sticks out of W_{i+1}.
    Second: how far A maps the orthocomplement of W_{i+1} outside the
    orthocomplement of W_i.  Both vanish exactly on a tridiagonalizing
    flag.
    """
    a = linalg.as_matrix(a)
    f = np.asarray(basis, dtype=complex)
    n = a.shape[0]
    astar = linalg.adjoint(a)
    scale = max(linalg.matrix_norm(a), 1e-300)
    eye = np.eye(n)
    r_contain = 0.0
    r_perp = 0.0
    for i in range(1, n):
        fi = f[:, :i]
        fip = f[:, : i + 1]
        proj_next = fip @ np.conj(fip).T
        q_next = eye - proj_next
        r_contain = max(r_contain, float(np.linalg.norm(q_next @ (a @ fi), 2)))
        r_contain = max(r_contain, float(np.linalg.norm(q_next @ (astar @ fi), 2)))
        proj_i = fi @ np.conj(fi).T
        r_perp = max(r_perp, float(np.linalg.norm(proj_i @ a @ q_next, 2)))
    return r_contain / scale, r_perp / scale


def projective_distance(u, v) -> float:
    """sin of the angle between the lines spanned by u and v (Fubini-Study).

    Taken as ``||b - a<a, b>||`` for unit ``a`` and ``b``, which, unlike
    ``sqrt(1 - |<a, b>|^2)``, resolves distances below ``1e-8``.
    """
    a = np.asarray(u, dtype=complex).reshape(-1)
    b = np.asarray(v, dtype=complex).reshape(-1)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("vector entries must be finite")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("projective points must be nonzero")
    a, b = a / na, b / nb
    return float(min(1.0, np.linalg.norm(b - a * np.vdot(a, b))))


def near_structured(kind, d, seed):
    """``X + d*||X||*G/||G||`` for a structured ``X`` and a complex Gaussian ``G``."""
    rng = np.random.default_rng([seed, 99])
    if kind == "unitary":
        x = random_unitary(4, rng)
    elif kind == "normal":
        q = random_unitary(4, rng)
        x = q @ np.diag(random_gaussian(4, rng)[0]) @ np.conj(q).T
    else:
        g = random_gaussian(4, rng)
        x = (g + np.conj(g).T) / 2
        if kind == "skew_hermitian_plus_2i":
            x = 1j * x + 2 * np.eye(4)
    g = random_gaussian(4, rng)
    return x + d * linalg.matrix_norm(x) * g / linalg.matrix_norm(g)


def near_common(d, seed):
    """``X + d*||X||*G/||G||`` for the Haar-conjugated ``X = Q (lam (+) B) Q*``, ``lam`` a Gaussian scalar and ``B`` a Gaussian 3x3 block.

    ``X`` has the common eigenvector ``Q e_1``; the complex Gaussian ``G``
    moves ``A`` off that set by ``d``.
    """
    rng = np.random.default_rng([seed, 53])
    x = np.zeros((4, 4), dtype=complex)
    x[0, 0] = random_gaussian(1, rng)[0, 0]
    x[1:, 1:] = random_gaussian(3, rng)
    q = random_unitary(4, rng)
    a = q @ x @ np.conj(q).T
    g = random_gaussian(4, rng)
    return a + d * linalg.matrix_norm(a) * g / linalg.matrix_norm(g)


def code_lines(source: str) -> int:
    """The lines of Python ``source`` that hold code: no docstring, comment or blank line counts.

    A line counts when a token other than a comment, a line break or an
    indentation change touches it (a string or bracket spanning lines counts
    every line it spans), unless it lies in the docstring of the module, a
    class or a function, as ``ast`` finds them.
    """
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in layout:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)
