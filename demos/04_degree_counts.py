"""Reproduce the three curve-degree counts numerically.

Slicing the determinant curve with a random projective line yields 4
points (a quartic), slicing the kernel curve with a random hyperplane
yields 6, and the flag-producing points number 12.  Each count comes
from one eigen-solve: the eigenvalues of -Q^-1 P for the pencil
matrices P, Q at two points of each line, the roots of the hyperplane's
Krylov sextic on the base line [1 : mu], and the roots of the
flag-point dodecic on the same line.  The points of the first two
counts are certified all at once, by one stacked SVD of their pencil
matrices; the dodecic's roots count when their flags, grown as one
stack, pass the solver's gate.
"""

from tridiag4 import Pencil, degree_of_det_curve, degree_of_kernel_curve, make_matrix, run_experiments, section_zeros

a = make_matrix("gaussian", 4, seed=99)
pencil = Pencil(a)

print("one matrix, one experiment each:")
print(f"  determinant-curve degree (expected 4): {degree_of_det_curve(pencil, seed=1)}")
print(f"  kernel-curve degree      (expected 6): {degree_of_kernel_curve(pencil, seed=1)}")
print(f"  flag points             (expected 12): {len(section_zeros(pencil))}")

print("\nfull report with 3 independent trials:")
report = run_experiments(a, trials=3, seed=99)
for entry in report.per_trial_detail:
    print(f"  trial {entry['trial']}: deg_D={entry['deg_D']}  deg_C={entry['deg_C']}")
print(f"  modal: deg_D={report.deg_det_curve}, deg_C={report.deg_kernel_curve}, zeros={report.section_zero_count}")
