#!/usr/bin/env python3
"""Walk through the summand decompositions on small matrices.

Any even-dimensional matrix with real positive trace splits into four
summands similar to positive matrices, each with at most two spectral
points and pairwise disjoint spectra.  Two summands already suffice for any
real positive trace, in any dimension: shortcuts when the target is already
positive-like, otherwise a triangular split of the target's zero-diagonal
form.  When that split's similarities are too ill-conditioned, the call
raises its decline reason.
"""

import numpy as np

from opsum import (
    check_obstruction,
    four_summands,
    sum_of_products,
    three_summands,
    two_summands,
    verify_decomposition,
)

rng = np.random.default_rng(1)

print("=== four summands, fully constructive ===")
T = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
T -= 1j * (np.trace(T).imag / 4) * np.eye(4)          # real trace
T += ((5.0 - np.trace(T).real) / 4) * np.eye(4)        # trace = 5
result = four_summands(T)
print(f"target trace {np.trace(T).real:.3f}, residual {result.reconstruction_residual:.2e}")
print(f"spectral points per summand: {result.spectra_point_counts}")
print(f"smallest gap between summand spectra: {result.pairwise_spectra_gap:.4f}")
for i, s in enumerate(result.summands):
    print(f"  summand {i}: cond(S) = {s.condition_number:.1f}, "
          f"spectrum of middle block = {sorted(set(np.round(np.diag(s.P).real, 6)))}")

report = verify_decomposition(T, result, tol=1e-6, max_spectrum_points=2,
                              min_pairwise_gap=1e-3)
print(f"independent re-verification: {'all checks pass' if report.passed else report.failures()}")

print()
print("=== every summand is a product of two PSD matrices ===")
pairs = sum_of_products(T, 4)
total = sum(a @ b for a, b in pairs)
print(f"sum of {len(pairs)} PSD products reproduces T to {np.linalg.norm(total - T):.2e}")

print()
print("=== obstruction: the trace argument ===")
for bad in (-np.eye(2), 1j * np.eye(2)):
    cert = check_obstruction(bad)
    print(f"trace {np.trace(bad):+.0f}: {cert.reason}")
print("(sums of matrices similar to positive ones always have real positive trace)")

print()
print("=== three summands ===")
print("scalar target, shortcut:", three_summands(3 * np.eye(4)).method)
block = np.block([[np.diag([1.0, 2.0]), np.diag([1.0, 2.0])],
                  [rng.standard_normal((2, 2)), np.zeros((2, 2))]])
r3 = three_summands(block)
print(f"non-normal 4x4 target, {r3.method} path, residual {r3.reconstruction_residual:.2e}")

print()
print("=== two summands ===")
r2 = two_summands(np.diag([3.0, 1.0]))
print("diag(3,1) ->", " + ".join(str(np.round(s.value.real, 3).tolist()) for s in r2.summands))
r2 = two_summands(T)
print(f"the trace-5 target above, {r2.method} path, residual "
      f"{r2.reconstruction_residual:.2e}, cond(S) "
      f"{max(s.condition_number for s in r2.summands):.1f}")
