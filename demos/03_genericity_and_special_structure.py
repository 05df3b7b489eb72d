"""Classify inputs and watch each one route through its solution path.

Three open conditions make the direct curve construction work:
nonsingularity, distinct eigenvalues, and a pencil that never drops to
rank 2.  Structured inputs that fail them still get solved, just through
other doors: common-eigenvector deflation, the invariant-plane shortcut,
or the perturbation ladder.
"""

import numpy as np

from tridiag4 import classify, make_matrix, tridiagonalize
from tridiag4.generate import jordan_block, random_unitary

rng = np.random.default_rng(11)

inputs = {
    "random gaussian": make_matrix("gaussian", 4, 1),
    "hermitian": make_matrix("hermitian", 4, 2),
    "unitary": random_unitary(4, rng),
    "nilpotent jordan block": jordan_block(4),
    "identity": np.eye(4, dtype=complex),
}
v = random_unitary(4, rng)
inputs["repeated-eigenvalue normal"] = v @ np.diag([1.0, 1.0, 2.0, 3.0]) @ np.conj(v).T

for name, a in inputs.items():
    report = classify(a)
    print(f"--- {name}")
    print(
        f"    nonsingular={report.nonsingular}  distinct_eigenvalues={report.distinct_eigenvalues}"
        f"  pencil_rank_ok={report.pencil_rank_ok}  common_eigenvectors={len(report.common_eigenvectors)}"
    )
    print(f"    {report.details}")
    result = tridiagonalize(a)
    print(f"    solved via {result.provenance}: off-residual {result.off_residual:.2e}")
