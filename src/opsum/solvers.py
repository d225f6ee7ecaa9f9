"""Block, Sylvester and commutator equation solvers.

Three solvers live here; the decomposition pipelines call only the third
and its zero-diagonalization:

* :func:`block_inverse` inverts a 2x2 block matrix through the Schur
  complement of its leading block.
* :func:`sylvester_solve` solves A X - X B = C with LAPACK's Bartels-Stewart
  solver (Schur forms of both coefficients, then ``trsyl``) after checking
  that their spectra are disjoint (the dense vectorized solve is kept in
  the test suite as an oracle only).
* :func:`commutator_solve` factors a trace-zero matrix as X Y - Y X.  Every
  commutator has zero trace, and conversely every trace-zero matrix is a
  commutator; the construction first conjugates the target to zero diagonal
  (:func:`zero_diagonalize`), then reads Y off entrywise against a fixed
  diagonal X with unit gaps.  The zero-diagonalization works on the
  target's own diagonal, whose convex hull contains 0 because the trace is
  zero: each step zeroes one entry with one or two 2x2 unitary rotations
  of coordinate planes, each of O(n) cost, so the whole pass is O(n^2) and
  needs no eigendecomposition.

Each solver's margin is a fixed module constant: the spectral gap
:data:`GAP_MARGIN`, the block cap :data:`BLOCK_COND_CAP`, and the zero-trace
gate :data:`ZERO_TRACE_TOL` and zero-diagonal target
:data:`ZERO_DIAGONAL_TOL` of the zero-diagonalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import as_square_matrix, frob

__all__ = [
    "BlockMatrix2x2",
    "CommutatorSolution",
    "SingularBlockError",
    "SpectralGapError",
    "NonzeroTraceError",
    "block_inverse",
    "sylvester_solve",
    "zero_diagonalize",
    "commutator_solve",
]


#: Least distance between the spectra of the two Sylvester coefficients.
GAP_MARGIN = 1e-6
#: Condition estimate above which a block of :func:`block_inverse` is singular.
BLOCK_COND_CAP = 1e12
#: Zero-trace gate of :func:`zero_diagonalize`, relative to max(1, ||T0||_F).
ZERO_TRACE_TOL = 1e-10
#: Zero-diagonal target of :func:`zero_diagonalize`, on the same scale.
ZERO_DIAGONAL_TOL = 1e-10


class SingularBlockError(ValueError):
    """A required block (or its Schur complement) is numerically singular."""

    def __init__(self, block: str, cond: float, cap: float):
        self.block = block
        self.cond = cond
        super().__init__(
            f"block '{block}' is numerically singular: condition estimate "
            f"{cond:.3e} exceeds cap {cap:.1e}")


class SpectralGapError(ValueError):
    """Coefficient spectra overlap within :data:`GAP_MARGIN`."""

    def __init__(self, lam_a: complex, lam_b: complex, gap: float, margin: float):
        self.closest_pair = (lam_a, lam_b)
        self.gap = gap
        super().__init__(
            f"spectra overlap within margin {margin:.1e}: closest eigenvalue "
            f"pair {lam_a:.6g} and {lam_b:.6g} at distance {gap:.3e}")


class NonzeroTraceError(ValueError):
    """Input trace is not zero; no commutator factorization can exist."""

    def __init__(self, trace: complex, bound: float):
        self.trace = trace
        super().__init__(
            f"trace {trace:.6g} exceeds the zero-trace gate {bound:.3e}; "
            "every commutator X Y - Y X has zero trace, so a nonzero-trace "
            "matrix is not a commutator")


@dataclass(frozen=True)
class BlockMatrix2x2:
    """Blocks u (k x k), x (k x m), y (m x k), z (m x m)."""

    u: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        u = as_square_matrix(self.u, "u")
        z = as_square_matrix(self.z, "z")
        k, m = u.shape[0], z.shape[0]
        x = np.asarray(self.x, dtype=complex)
        y = np.asarray(self.y, dtype=complex)
        if x.shape != (k, m):
            raise ValueError(f"x must be {k}x{m}, got {x.shape}")
        if y.shape != (m, k):
            raise ValueError(f"y must be {m}x{k}, got {y.shape}")

    @classmethod
    def from_matrix(cls, M, k: int) -> "BlockMatrix2x2":
        A = as_square_matrix(M)
        if not 0 < k < A.shape[0]:
            raise ValueError(f"split index {k} out of range for {A.shape[0]}")
        return cls(A[:k, :k], A[:k, k:], A[k:, :k], A[k:, k:])

    def assemble(self) -> np.ndarray:
        return np.block([[self.u, self.x], [self.y, self.z]])


def block_inverse(S: BlockMatrix2x2) -> BlockMatrix2x2:
    """Invert a 2x2 block matrix via the Schur complement d = (z - y u^-1 x)^-1.

    Requires the leading block u and the Schur complement to be invertible
    (condition estimates at most :data:`BLOCK_COND_CAP`); the assembled
    inverse is::

        [[u^-1 (1 + x d y u^-1),  -u^-1 x d],
         [-d y u^-1,               d       ]]

    Raises
    ------
    SingularBlockError
        If u or the Schur complement fails the condition cap; the error
        carries the offending block's condition estimate.
    """
    u = np.asarray(S.u, dtype=complex)
    cond_u = float(np.linalg.cond(u))
    if not np.isfinite(cond_u) or cond_u > BLOCK_COND_CAP:
        raise SingularBlockError("u", cond_u, BLOCK_COND_CAP)
    u_inv = np.linalg.inv(u)
    schur = S.z - S.y @ u_inv @ S.x
    cond_d = float(np.linalg.cond(schur))
    if not np.isfinite(cond_d) or cond_d > BLOCK_COND_CAP:
        raise SingularBlockError("z - y u^-1 x", cond_d, BLOCK_COND_CAP)
    d = np.linalg.inv(schur)
    k = u.shape[0]
    return BlockMatrix2x2(
        u=u_inv @ (np.eye(k) + S.x @ d @ S.y @ u_inv),
        x=-u_inv @ S.x @ d,
        y=-d @ S.y @ u_inv,
        z=d,
    )


def _spectral_gap(A: np.ndarray, B: np.ndarray):
    wa = np.linalg.eigvals(A)
    wb = np.linalg.eigvals(B)
    dist = np.abs(wa[:, None] - wb[None, :])
    i, j = np.unravel_index(np.argmin(dist), dist.shape)
    return float(dist[i, j]), complex(wa[i]), complex(wb[j])


def sylvester_solve(A, B, C) -> np.ndarray:
    """Solve A X - X B = C, unique when the spectra of A and B are disjoint.

    After the spectral-gap check this is ``scipy.linalg.solve_sylvester(A,
    -B, C)``: both coefficients are reduced to Schur form and LAPACK
    ``trsyl`` solves the triangular system.  Cost is O(n^3) against O(n^6)
    for the dense vectorized solve.

    Raises
    ------
    SpectralGapError
        If min |lambda_A - lambda_B| falls below :data:`GAP_MARGIN`; the
        error carries the closest eigenvalue pair.
    """
    A = as_square_matrix(A, "A")
    B = as_square_matrix(B, "B")
    C = np.asarray(C, dtype=complex)
    p, q = A.shape[0], B.shape[0]
    if C.shape != (p, q):
        raise ValueError(f"C must be {p}x{q}, got {C.shape}")

    gap, la, lb = _spectral_gap(A, B)
    if gap < GAP_MARGIN:
        raise SpectralGapError(la, lb, gap, GAP_MARGIN)

    return scipy.linalg.solve_sylvester(A, -B, C)


@dataclass(frozen=True)
class CommutatorSolution:
    """Factors X, Y with X Y - Y X equal to the target within ``residual``."""

    X: np.ndarray
    Y: np.ndarray
    residual: float


# ---------------------------------------------------------------------------
# zero-diagonalization: find unit vectors with vanishing quadratic form
# ---------------------------------------------------------------------------

def _zero_form_vector_2x2(C: np.ndarray, tiny: float) -> np.ndarray:
    """Unit y in C^2 with y* C y ~ 0, assuming 0 lies in the numerical range.

    Splits C = H + iK into Hermitian parts.  The unit vectors annihilating
    the H-form lie on a circle parameterized by a phase; on that circle the
    K-form is an exact sinusoid, so its root is available in closed form.
    """
    H = (C + C.conj().T) / 2.0
    K = (C - C.conj().T) / 2.0j
    mu, U = np.linalg.eigh(H)
    lam_minus = max(-float(mu[0]), 0.0)
    lam_plus = max(float(mu[1]), 0.0)
    total = lam_plus + lam_minus

    if total <= tiny:
        # H ~ 0: kill the K-form across its own eigenvectors
        nu, W = np.linalg.eigh(K)
        span = float(nu[1] - nu[0])
        if span <= tiny:
            return U[:, 0]
        a = math.sqrt(max(float(nu[1]), 0.0) / span)
        b = math.sqrt(max(-float(nu[0]), 0.0) / span)
        return a * W[:, 0] + b * W[:, 1]

    u_plus, u_minus = U[:, 1], U[:, 0]
    amp_plus = math.sqrt(lam_minus / total)   # coefficient on u_plus
    amp_minus = math.sqrt(lam_plus / total)
    base = (amp_plus ** 2) * float(np.real(u_plus.conj() @ K @ u_plus)) \
        + (amp_minus ** 2) * float(np.real(u_minus.conj() @ K @ u_minus))
    kappa = complex(u_plus.conj() @ K @ u_minus)
    R = 2.0 * amp_plus * amp_minus * abs(kappa)
    # K-form along the circle: base + R*cos(arg(kappa) + psi); pick the root
    if R <= tiny:
        psi = 0.0
    else:
        c = min(1.0, max(-1.0, -base / R))
        psi = math.atan2(kappa.imag, kappa.real) - math.acos(c)
    y = amp_plus * np.exp(1j * psi) * u_plus + amp_minus * u_minus
    return y / np.linalg.norm(y)


def _hull_indices(diag: np.ndarray, act: np.ndarray, i: int):
    """Active indices whose diagonal entries put 0 within reach of diag[i].

    With u the direction of -diag[i], j and k are the angular neighbours of
    the ray {t u : t >= 0} on either side, found in one O(m) pass.  Returns
    ``([i, j, k], p)`` when 0 lies in the triangle of their entries, p being
    the point where the ray crosses [diag[j], diag[k]], and ``([i, j], None)``
    when 0 lies on the segment [diag[i], diag[j]] (j on the ray, a single
    other index, or a numerically collinear diagonal).
    """
    others = act[act != i]
    u = -diag[i] / abs(diag[i])
    rot = diag[others] * np.conj(u)   # the ray now points along +1
    phi = np.angle(rot)
    up = np.where(phi >= 0.0, phi, np.inf)
    down = np.where(phi < 0.0, phi, -np.inf)
    a, b = int(np.argmin(up)), int(np.argmax(down))
    if 0.0 < up[a] < np.pi and -np.pi < down[b]:   # both strictly off the line
        s = rot[a].imag / (rot[a].imag - rot[b].imag)
        p = rot[a] + s * (rot[b] - rot[a])
        if p.real >= 0.0:
            return [i, int(others[a]), int(others[b])], complex(p * u)
    j = a if up[a] <= -down[b] else b
    return [i, int(others[j])], None


def _rotate_plane(M: np.ndarray, U: np.ndarray, a: int, b: int,
                  target: complex, tiny: float) -> None:
    """Rotate the (a, b) coordinate plane of M in place so that M[a, a] ~ target.

    The first column y of the 2x2 unitary G = [[y0, -conj(y1)], [y1, conj(y0)]]
    has y* C y ~ target on the plane's compression C, which holds whenever
    target lies in the numerical range of C.  Rows and columns a, b of M and
    columns a, b of U change, at O(n) cost.
    """
    idx = [a, b]
    C = M[np.ix_(idx, idx)]
    y0, y1 = _zero_form_vector_2x2(C - target * np.eye(2), tiny)
    G = np.array([[y0, -np.conj(y1)], [y1, np.conj(y0)]])
    M[idx, :] = G.conj().T @ M[idx, :]
    M[:, idx] = M[:, idx] @ G
    U[:, idx] = U[:, idx] @ G


def zero_diagonalize(T0):
    """Similarity (in fact unitary) conjugation of a trace-zero matrix to zero diagonal.

    Returns ``(R, Z)`` with Z = R @ T0 @ R^-1, R unitary, and every diagonal
    entry of Z at most ``ZERO_DIAGONAL_TOL * max(1, ||T0||_F)`` (1e-10 on
    that scale).  The pass itself aims at ``ZERO_DIAGONAL_TOL * ||T0||_F``,
    so inputs of small norm are zeroed as closely, relative to their norm,
    as unit-norm ones, and it stops as soon as every remaining entry is
    within that aim.

    The diagonal entries are the Rayleigh values of the basis vectors and
    sum to the trace, so 0 lies in their convex hull (Fillmore 1969).  Each
    step takes the largest remaining entry d_i and one or two neighbours
    whose entries put 0 on a segment or in a triangle with d_i.  For a
    triangle (i, j, k), with p the point where the ray from d_i through 0
    crosses [d_j, d_k], a rotation of the (j, k) plane first makes entry j
    equal to p; then a rotation of the (i, j) plane, whose diagonal now has
    0 on its segment, makes entry i zero.  A segment needs only the second
    rotation.  Each rotation is the closed-form 2x2 solve of
    :func:`_rotate_plane`.  Entry i is then zero and never touched again,
    so each step costs O(n) and the whole pass O(n^2).

    Raises
    ------
    NonzeroTraceError
        If |trace(T0)| exceeds ``ZERO_TRACE_TOL * max(1, ||T0||_F)``, with
        ``ZERO_TRACE_TOL`` = 1e-10.
    """
    A = as_square_matrix(T0, "T0")
    n = A.shape[0]
    norm = frob(A)
    scale = max(1.0, norm)
    tr = complex(np.trace(A))
    if abs(tr) > ZERO_TRACE_TOL * scale:
        raise NonzeroTraceError(tr, ZERO_TRACE_TOL * scale)

    done = ZERO_DIAGONAL_TOL * norm
    if np.max(np.abs(np.diagonal(A))) <= done:
        return np.eye(n, dtype=complex), A.copy()

    M = A.copy()
    U = np.eye(n, dtype=complex)
    active = np.ones(n, dtype=bool)
    tiny = 1e-13 * norm   # plane-solve screening, relative to the matrix scale
    for _ in range(n - 1):
        act = np.flatnonzero(active)
        diag = np.diagonal(M)
        i = int(act[np.argmax(np.abs(diag[act]))])
        if abs(diag[i]) <= done:
            break
        idx, p = _hull_indices(diag, act, i)
        if p is not None:
            _rotate_plane(M, U, idx[1], idx[2], p, tiny)
        _rotate_plane(M, U, i, idx[1], 0.0, tiny)
        active[i] = False

    worst = float(np.max(np.abs(np.diagonal(M))))
    diag_bound = ZERO_DIAGONAL_TOL * scale
    if worst > diag_bound:
        raise RuntimeError(
            f"zero-diagonalization stalled: worst diagonal entry {worst:.3e} "
            f"exceeds target {diag_bound:.3e}")
    R = U.conj().T
    return R, M


def commutator_solve(T0) -> CommutatorSolution:
    """Factor a trace-zero matrix as a commutator X Y - Y X.

    After conjugating the target to zero diagonal, X is taken as the
    conjugate of diag(1, 2, ..., n) and Y is read off entrywise,
    Y_ij = Z_ij / (i - j) off the diagonal and 0 on it.  The unit gaps in X
    keep ||Y|| at the scale of ||Z|| without amplification.

    Raises
    ------
    NonzeroTraceError
        From :func:`zero_diagonalize`, for any input whose trace exceeds the
        zero-trace gate: every commutator has zero trace.
    """
    A = as_square_matrix(T0, "T0")
    n = A.shape[0]
    scale = max(1.0, frob(A))
    if not A.any():
        zero = np.zeros_like(A)
        return CommutatorSolution(zero, zero.copy(), 0.0)

    R, Z = zero_diagonalize(A)
    x = np.arange(1, n + 1, dtype=float)
    gaps = x[:, None] - x[None, :]
    np.fill_diagonal(gaps, 1.0)
    Yz = Z / gaps
    np.fill_diagonal(Yz, 0.0)
    Xz = np.diag(x).astype(complex)

    Rinv = R.conj().T   # R is unitary
    X = Rinv @ Xz @ R
    Y = Rinv @ Yz @ R
    residual = frob(X @ Y - Y @ X - A)
    bound = 1e-8 * scale
    if residual > bound:
        raise RuntimeError(
            f"commutator residual {residual:.3e} exceeds bound {bound:.3e}")
    return CommutatorSolution(X, Y, residual)
