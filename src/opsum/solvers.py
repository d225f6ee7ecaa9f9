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
  needs no eigendecomposition: each rotation comes from scalar arithmetic
  on the four entries of the plane's compression (its 2x2 Hermitian
  eigenpairs in closed form), and then updates two rows and two columns.

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

def _hermitian_eig_2x2(a: float, b: complex, c: float):
    """Eigenpairs of the Hermitian [[a, b], [conj(b), c]] in closed form.

    Returns ``(m, r, u_minus, u_plus)``: the eigenvalues are m - r <= m + r,
    and u_minus, u_plus are orthonormal eigenvectors as pairs of scalars.
    Each is scaled from the larger of d + r and r - d, d = (a - c) / 2, so
    no entry is formed by cancellation.
    """
    d = (a - c) / 2.0
    r = math.hypot(d, abs(b))
    if r == 0.0:
        return (a + c) / 2.0, 0.0, (1.0, 0.0), (0.0, 1.0)
    if d >= 0.0:
        s = math.sqrt(2.0 * r) * math.sqrt(r + d)
        u_plus, u_minus = ((d + r) / s, b.conjugate() / s), (-b / s, (d + r) / s)
    else:
        s = math.sqrt(2.0 * r) * math.sqrt(r - d)
        u_plus, u_minus = (b / s, (r - d) / s), ((r - d) / s, -b.conjugate() / s)
    return (a + c) / 2.0, r, u_minus, u_plus


def _form(k11: float, k12: complex, k22: float, u, v) -> complex:
    """u* K v for the Hermitian K = [[k11, k12], [conj(k12), k22]]."""
    return (u[0].conjugate() * (k11 * v[0] + k12 * v[1])
            + u[1].conjugate() * (k12.conjugate() * v[0] + k22 * v[1]))


def _zero_form_vector(c11: complex, c12: complex, c21: complex, c22: complex,
                      tiny: float):
    """Unit (y0, y1) with y* C y ~ 0 for C = [[c11, c12], [c21, c22]], assuming
    0 lies in the numerical range of C.

    Splits C = H + iK into Hermitian parts.  The unit vectors annihilating
    the H-form lie on a circle parameterized by a phase; on that circle the
    K-form is an exact sinusoid, so its root is available in closed form.
    Every step is scalar arithmetic on the four entries, the 2x2 eigenpairs
    included (:func:`_hermitian_eig_2x2`).
    """
    h12 = (c12 + c21.conjugate()) / 2.0
    k11, k12, k22 = c11.imag, (c12 - c21.conjugate()) / 2.0j, c22.imag
    m, r, u_minus, u_plus = _hermitian_eig_2x2(c11.real, h12, c22.real)
    lam_minus = max(r - m, 0.0)
    lam_plus = max(m + r, 0.0)
    total = lam_plus + lam_minus

    if total <= tiny:
        # H ~ 0: kill the K-form across its own eigenvectors
        mean, half, w_minus, w_plus = _hermitian_eig_2x2(k11, k12, k22)
        span = 2.0 * half
        if span <= tiny:
            return u_minus
        a = math.sqrt(max(mean + half, 0.0) / span)
        b = math.sqrt(max(half - mean, 0.0) / span)
        return a * w_minus[0] + b * w_plus[0], a * w_minus[1] + b * w_plus[1]

    amp_plus = math.sqrt(lam_minus / total)   # coefficient on u_plus
    amp_minus = math.sqrt(lam_plus / total)
    base = (amp_plus ** 2) * _form(k11, k12, k22, u_plus, u_plus).real \
        + (amp_minus ** 2) * _form(k11, k12, k22, u_minus, u_minus).real
    kappa = _form(k11, k12, k22, u_plus, u_minus)
    R = 2.0 * amp_plus * amp_minus * abs(kappa)
    # K-form along the circle: base + R*cos(arg(kappa) + psi); the root
    # psi = arg(kappa) - acos(-base / R) gives the phase e^{i psi}
    if R <= tiny:
        phase = 1.0
    else:
        c = min(1.0, max(-1.0, -base / R))
        phase = kappa / abs(kappa) * complex(c, -math.sqrt(1.0 - c * c))
    y0 = amp_plus * phase * u_plus[0] + amp_minus * u_minus[0]
    y1 = amp_plus * phase * u_plus[1] + amp_minus * u_minus[1]
    norm = math.hypot(abs(y0), abs(y1))
    return y0 / norm, y1 / norm


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


def _rotate_plane(M: np.ndarray, Ut: np.ndarray, a: int, b: int,
                  target: complex, tiny: float) -> None:
    """Rotate the (a, b) coordinate plane of M in place so that M[a, a] ~ target.

    The first column y of the 2x2 unitary G = [[y0, -conj(y1)], [y1, conj(y0)]]
    has y* C y ~ target on the plane's compression C, which holds whenever
    target lies in the numerical range of C.  Rows and columns a, b of M and
    rows a, b of Ut, the transposed accumulated unitary, change, at O(n) cost.
    """
    y0, y1 = _zero_form_vector(M.item(a, a) - target, M.item(a, b),
                               M.item(b, a), M.item(b, b) - target, tiny)
    if a < b:
        G = np.array([[y0, -y1.conjugate()], [y1, y0.conjugate()]])
    else:   # the same rotation with the plane's coordinates in increasing order
        a, b = b, a
        G = np.array([[y0.conjugate(), y1], [-y1.conjugate(), y0]])
    plane = slice(a, b + 1, b - a)   # a view of rows or columns a and b
    M[plane] = G.conj().T @ M[plane]
    M[:, plane] = M[:, plane] @ G
    Ut[plane] = G.T @ Ut[plane]


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
    :func:`_rotate_plane`, scalar arithmetic that calls nothing in
    ``numpy.linalg``.  Entry i is then zero and never touched again, so
    each step costs O(n) and the whole pass O(n^2).  In the last step the
    two entries left sum to about 0, so their moduli tie; the lower index
    is rotated there, so the pass does not depend on how the tie rounds.

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
    Ut = np.eye(n, dtype=complex)   # U transposed, so rotations update its rows
    active = np.ones(n, dtype=bool)
    tiny = 1e-13 * norm   # plane-solve screening, relative to the matrix scale
    for _ in range(n - 1):
        act = np.flatnonzero(active)
        diag = np.diagonal(M)
        mod = np.abs(diag[act])
        top = int(np.argmax(mod))
        if mod[top] <= done:
            break
        # the last two entries sum to about 0, so their moduli tie and argmax
        # would pick one by rounding: rotate the lower index there
        i = int(act[0] if act.size == 2 else act[top])
        idx, p = _hull_indices(diag, act, i)
        if p is not None:
            _rotate_plane(M, Ut, idx[1], idx[2], p, tiny)
        _rotate_plane(M, Ut, i, idx[1], 0.0, tiny)
        active[i] = False

    worst = float(np.max(np.abs(np.diagonal(M))))
    diag_bound = ZERO_DIAGONAL_TOL * scale
    if worst > diag_bound:
        raise RuntimeError(
            f"zero-diagonalization stalled: worst diagonal entry {worst:.3e} "
            f"exceeds target {diag_bound:.3e}")
    return Ut.conj(), M


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

    Rinv = R.conj().T   # R is unitary
    X = (Rinv * x) @ R   # Rinv diag(x) R
    Y = Rinv @ Yz @ R
    residual = frob(X @ Y - Y @ X - A)
    bound = 1e-8 * scale
    if residual > bound:
        raise RuntimeError(
            f"commutator residual {residual:.3e} exceeds bound {bound:.3e}")
    return CommutatorSolution(X, Y, residual)
