#!/usr/bin/env python3
"""Tour of the Sylvester and commutator solvers."""

import numpy as np

from opsum import (
    NonzeroTraceError,
    commutator_solve,
    sylvester_solve,
    zero_diagonalize,
)

rng = np.random.default_rng(2)

print("=== Sylvester equation A X - X B = C ===")
A = 2 * np.eye(3) + 0.3 * rng.standard_normal((3, 3))
B = 0.3 * rng.standard_normal((4, 4))
C = rng.standard_normal((3, 4))
X = sylvester_solve(A, B, C)
print(f"residual || A X - X B - C || = {np.linalg.norm(A @ X - X @ B - C):.2e}")
print("(unique because the spectra of A and B are disjoint)")

print()
print("=== commutators: exactly the trace-zero matrices ===")
T0 = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
T0 -= (np.trace(T0) / 5) * np.eye(5)
R, Z = zero_diagonalize(T0)
print(f"unitary conjugation flattens the diagonal to {np.max(np.abs(np.diag(Z))):.2e}")
sol = commutator_solve(T0)
print(f"factors X, Y with || XY - YX - T0 || = {sol.residual:.2e}")
print(f"trace of the commutator: {abs(np.trace(sol.X @ sol.Y - sol.Y @ sol.X)):.2e}")

try:
    commutator_solve(np.eye(3))
except NonzeroTraceError as exc:
    print(f"nonzero trace rejected: {exc}")
