"""Search and experiments: PSD-constrained residual minimization and studies.

The optimizer looks for sums of products of PSD matrices close to a target;
no decomposition pipeline calls it.  It serves experiments such as racing
the trace obstruction: for scalar targets lam * I the search is bounded
below by an analytic trace argument (:func:`residual_lower_bound`), which
no optimizer run can beat.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import as_square_matrix, dist_to_rplus, frob, hermitian_part
from .decompose import DecompositionResult, four_summands
from .randmat import random_psd, random_real_trace

__all__ = [
    "OptimizationConfig",
    "OptimizationTrace",
    "ExperimentRecord",
    "psd_project",
    "residual_lower_bound",
    "optimize_sum_of_products",
    "condition_study",
    "study_to_csv",
    "trace_to_csv",
]


def psd_project(M) -> np.ndarray:
    """Frobenius-optimal projection onto the PSD cone.

    Symmetrizes to the Hermitian part, then clips negative eigenvalues at
    zero.  Idempotent and non-expansive in Frobenius norm.
    """
    H = hermitian_part(as_square_matrix(M))
    d, U = np.linalg.eigh(H)
    P = (U * np.maximum(d, 0.0)) @ U.conj().T
    return hermitian_part(P)


def residual_lower_bound(lam) -> float:
    """Lower bound on || sum_j A_j B_j - lam I || over PSD factors A_j, B_j.

    The value returned is the operator-norm bound dist(lam, R+).
    Derivation: for PSD A and B, trace(A B) = trace(A^(1/2) B A^(1/2)) >= 0,
    so any sum S of such products has real nonnegative trace.  For an n x n
    target, |trace(S - lam I)| = |trace(S) - n lam| >= n dist(lam, R+).
    Since |trace(M)| <= n ||M||, the operator norm gives
    ||S - lam I|| >= dist(lam, R+); since |trace(M)| <= sqrt(n) ||M||_F, the
    Frobenius norm gives ||S - lam I||_F >= sqrt(n) dist(lam, R+).  Both are
    attained by S = t I with t = max(Re lam, 0), so sqrt(n) times this value
    is exactly the Frobenius optimum that
    :func:`optimize_sum_of_products` certifies and stops at.
    """
    return dist_to_rplus(complex(lam))


#: Projected gradient steps per block solve.
_INNER_STEPS = 12
#: A restart stops after this many iterations in a row that each improve the
#: residual by less than _STALL_RTOL * max(1, residual).
_STALL_ITERATIONS = 60
_STALL_RTOL = 1e-13


@dataclass(frozen=True)
class OptimizationConfig:
    """Budget and seeding for the alternating PSD least-squares search.

    The run ends once the best residual is at most ``target_residual`` or,
    for a scalar target lam * I off [0, inf), within a relative 1e-12 of the
    exact Frobenius optimum sqrt(n) dist(lam, R+), which no further
    iteration can improve.  A restart also ends early when its residual has
    stopped improving.
    """

    m: int = 2
    max_iterations: int = 2000
    restarts: int = 50
    seed: int = 0
    target_residual: float = 1e-8

    def __post_init__(self):
        if self.m < 1 or self.max_iterations < 1 or self.restarts < 1:
            raise ValueError("m, max_iterations and restarts must be positive")
        if not 0.0 <= self.target_residual < np.inf:
            raise ValueError(
                f"target_residual must be finite and nonnegative, got {self.target_residual}")


@dataclass(frozen=True)
class OptimizationTrace:
    """Result of a search run.

    ``residual_history`` holds the best absolute Frobenius residual seen up
    to each recorded iteration (monotone non-increasing across the whole
    run, restarts included).  ``bound_floor`` is the operator-norm bound
    :func:`residual_lower_bound` when the target is a scalar matrix, else 0;
    the Frobenius optimum is exactly sqrt(n) times it.  ``stop_reason`` says
    why the run ended: ``"target"`` (best residual at most
    ``target_residual``), ``"floor"`` (best residual certified optimal at the
    Frobenius floor), ``"stall"`` (the last restart stopped improving) or
    ``"budget"`` (the last restart used all of ``max_iterations``).
    """

    residual_history: np.ndarray
    final_factors: list
    best_residual: float
    bound_floor: float
    stop_reason: str


def _scalar_target(T: np.ndarray) -> complex | None:
    n = T.shape[0]
    lam = complex(np.trace(T)) / n
    if frob(T - lam * np.eye(n)) <= 1e-12 * max(1.0, frob(T)):
        return lam
    return None


def _block_solve(start: np.ndarray, fixed: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Approximately minimize ||X @ fixed - R||_F over PSD X, from ``start``.

    Takes :data:`_INNER_STEPS` least-squares gradient steps at the step size
    1/L, L = ||fixed||_2^2 the Lipschitz constant of the gradient, each
    projected back onto the cone by eigenvalue clipping.  The objective is
    convex and L-smooth, so such a step never increases it (the
    sufficient-decrease lemma; Beck, "First-Order Methods in Optimization",
    2017, ch. 10): from a PSD start the result is no worse, up to rounding.
    The problem min ||F X - R||_F of a right factor X is this one on
    adjoints, ||X F* - R*||_F, since X is Hermitian.
    """
    X = start
    L = max(np.linalg.norm(fixed, 2) ** 2, 1e-300)
    for _ in range(_INNER_STEPS):
        X = psd_project(X - ((X @ fixed - R) @ fixed.conj().T) / L)
    return X


def optimize_sum_of_products(T, config: OptimizationConfig) -> OptimizationTrace:
    """Minimize || sum_j A_j B_j - T ||_F over PSD factors by alternating steps.

    Each sweep updates A_1, B_1, ..., A_m, B_m in turn: the factor's convex
    block problem, with every other factor fixed, is solved approximately
    by :func:`_block_solve` (B_j's on adjoints), and the candidate is taken
    when the residual does not grow, else the factor is kept.  Multiple
    seeded restarts; the best factors are returned.  Non-convergence is an
    outcome, not an error.
    """
    T = as_square_matrix(T)
    rng = np.random.default_rng(config.seed)
    lam = _scalar_target(T)
    floor = residual_lower_bound(lam) if lam is not None else 0.0
    frob_floor = np.sqrt(T.shape[0]) * floor
    stop_at = max(config.target_residual, frob_floor * (1 + 1e-12))

    init_scale = np.sqrt(max(frob(T), 1.0) / config.m)
    best_resid = np.inf
    best_factors = None
    history = []

    for restart in range(config.restarts):
        if restart == 0:
            A = [init_scale * np.eye(T.shape[0], dtype=complex) for _ in range(config.m)]
            B = [psd_project(T) / (config.m * init_scale) for _ in range(config.m)]
        else:
            A = [random_psd(rng, T.shape[0], (0.2, 1.5)) * init_scale for _ in range(config.m)]
            B = [random_psd(rng, T.shape[0], (0.2, 1.5)) * init_scale for _ in range(config.m)]
        factors = [list(pair) for pair in zip(A, B)]

        products = [a @ b for a, b in factors]
        total = sum(products)
        cur = frob(total - T)
        since_improve = 0
        stop_reason = "budget"
        for _ in range(config.max_iterations):
            prev = cur
            for j, pair in enumerate(factors):
                for side in (0, 1):
                    R = T - (total - products[j])
                    old = pair[side]
                    # B_j's problem min ||A_j X - R|| is A_j's on adjoints,
                    # ||X A_j - R*||, as X and A_j are Hermitian
                    pair[side] = _block_solve(old, pair[1 - side], R.conj().T if side else R)
                    new_prod = pair[0] @ pair[1]
                    new_resid = frob(total - products[j] + new_prod - T)
                    if new_resid <= cur:
                        total = total - products[j] + new_prod
                        products[j] = new_prod
                        cur = new_resid
                    else:   # only rounding can make the full step grow the residual
                        pair[side] = old
            if cur < best_resid:
                best_resid = cur
                best_factors = [(a.copy(), b.copy()) for a, b in factors]
            history.append(best_resid)
            if len(history) >= 2 and not history[-1] <= history[-2]:
                raise RuntimeError("residual history must be non-increasing")
            if best_resid <= stop_at:
                stop_reason = "target" if best_resid <= config.target_residual else "floor"
                break
            since_improve = since_improve + 1 if cur > prev - _STALL_RTOL * max(1.0, prev) else 0
            if since_improve >= _STALL_ITERATIONS:
                stop_reason = "stall"
                break
        if best_resid <= stop_at:
            break

    if not best_resid >= frob_floor * (1 - 1e-9):
        raise RuntimeError(
            f"optimizer beat the analytic floor: {best_resid} < {frob_floor}")
    return OptimizationTrace(
        residual_history=np.asarray(history),
        final_factors=best_factors,
        best_residual=float(best_resid),
        bound_floor=float(floor),
        stop_reason=stop_reason,
    )


@dataclass(frozen=True)
class ExperimentRecord:
    """One cell of the conditioning study."""

    n: int
    trace_margin: float
    trial: int
    max_cond_s: float
    residual: float
    success: bool


def condition_study(sizes, trace_margins, trials: int, seed: int) -> list[ExperimentRecord]:
    """Conditioning of the four-summand pipeline toward the trace boundary.

    Feasibility of the constructive split needs Re trace(T) > 0; as the
    normalized margin Re trace(T) / n shrinks, the similarity factors
    degrade.  For each (n, margin, trial) a random target with
    Re trace = margin * n is decomposed and the largest similarity condition
    number and the reconstruction residual are recorded.  Each cell draws
    from its own generator keyed by (seed, n, margin, trial), so records are
    bit-identical for a fixed seed regardless of evaluation order.
    """
    records = []
    for n in sizes:
        if n % 2 != 0 or n < 2:
            raise ValueError(f"sizes must be even and >= 2, got {n}")
        for margin in trace_margins:
            # the generator key margin * 1e12 overflows above about 1.8e296
            if not 0.0 < margin * 1e12 < np.inf:
                raise ValueError(f"margins must be finite and positive, with margin * 1e12 "
                                 f"finite, got {margin}")
            for trial in range(trials):
                rng = np.random.default_rng(
                    [seed, n, int(round(margin * 1e12)), trial])
                T = random_real_trace(rng, n, margin * n)
                try:
                    result = four_summands(T)
                except (ValueError, RuntimeError):
                    result = None
                ok = isinstance(result, DecompositionResult)
                records.append(ExperimentRecord(
                    n=n, trace_margin=float(margin), trial=trial,
                    max_cond_s=max(s.condition_number for s in result.summands) if ok else float("nan"),
                    residual=result.reconstruction_residual if ok else float("nan"),
                    success=ok,
                ))
    records.sort(key=lambda r: (r.n, r.trace_margin, r.trial))
    return records


def study_to_csv(records, path):
    """Write study records as CSV (n, trace_margin, trial, max_cond_S, residual, success)."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["n", "trace_margin", "trial", "max_cond_S", "residual", "success"])
        for r in records:
            writer.writerow([r.n, repr(r.trace_margin), r.trial,
                             repr(r.max_cond_s), repr(r.residual),
                             1 if r.success else 0])


def trace_to_csv(trace: OptimizationTrace, path):
    """Write an optimizer residual history as CSV (iteration, residual)."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["iteration", "residual"])
        for i, r in enumerate(trace.residual_history):
            writer.writerow([i, repr(float(r))])
