#!/usr/bin/env python3
"""Race the PSD product-sum search against the analytic trace bound.

For an n x n scalar target lam * I, every sum of products of PSD matrices
keeps Frobenius distance at least sqrt(n) dist(lam, [0, inf)) from the
target, and t I with t = max(Re lam, 0) attains it.  The search meets the
bound off the half line, where it stops with a certified "floor", and hits
(near) zero on it; it can never cross.
"""

import numpy as np

from opsum import OptimizationConfig, optimize_sum_of_products, residual_lower_bound
from opsum.randmat import planted_summand_sum

n = 2
print(f"{'lam':>8} {'sqrt(n)*dist':>13} {'best residual':>14} {'stop':>7}")
for lam in (2.0, 0.0, -0.5, -1.0, 1j, -1 + 1j):
    floor = np.sqrt(n) * residual_lower_bound(lam)
    trace = optimize_sum_of_products(
        complex(lam) * np.eye(n),
        OptimizationConfig(m=2, max_iterations=400, restarts=6, seed=5))
    print(f"{str(lam):>8} {floor:>13.6f} {trace.best_residual:>14.6f} "
          f"{trace.stop_reason:>7}")

print()
print("=== planted recovery: targets built from two similarity summands ===")
rng = np.random.default_rng(6)
T, parts = planted_summand_sum(rng, 2, 2)
trace = optimize_sum_of_products(
    T, OptimizationConfig(m=2, max_iterations=2000, restarts=50, seed=7,
                          target_residual=1e-6))
print(f"planted 2x2 target recovered to residual {trace.best_residual:.2e} "
      f"in {len(trace.residual_history)} recorded iterations")
print("residual history is monotone:",
      bool(np.all(np.diff(trace.residual_history) <= 0)))
