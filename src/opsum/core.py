"""Spectral predicates and certificates for dense complex matrices.

Everything downstream (equation solvers, summand decompositions, elementary
operators) is built on the primitives in this module: eigenvalue reports,
positive-semidefiniteness tests, similarity-to-positive certificates, the
trace inner product, and the distance of a complex number to the
nonnegative real axis.

All operations are pure functions of their inputs.  Tolerances are relative
to an operator-norm estimate of the operand and every certificate records
the tolerance it was issued at and the operator norm it scaled by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_COND_CAP",
    "ShapeError",
    "SpectrumReport",
    "PsdCertificate",
    "as_square_matrix",
    "as_matrix",
    "frob",
    "op_norm",
    "dist_to_rplus",
    "eig",
    "sorted_eigenvalues",
    "matching_distance",
    "is_psd",
    "hermitian_part",
    "positivity_certificate",
    "is_similar_to_positive",
    "hs_inner",
]

#: Default relative tolerance for all spectral verdicts.
DEFAULT_TOL = 1e-9

#: Eigenvector-matrix condition number above which a matrix is treated as
#: numerically non-diagonalizable.
DEFAULT_COND_CAP = 1e8


class ShapeError(ValueError):
    """Raised when an operand has the wrong shape for an operation."""


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D complex array, raising on bad input."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ShapeError(f"{name} must be a nonempty 2-D array, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def as_square_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite square complex array, raising on bad input."""
    A = as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {A.shape}")
    return A


def frob(M) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(M)))


def op_norm(M) -> float:
    """Operator (spectral) norm, the largest singular value."""
    return float(np.linalg.norm(np.asarray(M), 2))


def hermitian_part(M: np.ndarray) -> np.ndarray:
    return (M + M.conj().T) / 2.0


def dist_to_rplus(z):
    """Distance from ``z`` to the half line [0, inf) on the real axis.

    Accepts scalars or arrays; returns ``hypot(min(Re z, 0), Im z)``.
    """
    z = np.asarray(z, dtype=complex)
    d = np.hypot(np.minimum(z.real, 0.0), z.imag)
    return float(d) if d.ndim == 0 else d


def sorted_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Sort eigenvalues by (real part, imaginary part) for determinism."""
    w = np.asarray(w, dtype=complex)
    return w[np.lexsort((w.imag, w.real))]


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue multiset of a square matrix plus its distance to [0, inf).

    ``max_dist_to_rplus`` is the largest distance of an eigenvalue to the
    nonnegative real axis; ``is_real_nonnegative`` holds iff that distance
    stays within ``tolerance`` times max(1, operator norm of the subject).
    """

    eigenvalues: np.ndarray
    max_dist_to_rplus: float
    is_real_nonnegative: bool
    tolerance: float

    @property
    def dimension(self) -> int:
        return len(self.eigenvalues)


def eig(M, tol: float = DEFAULT_TOL) -> SpectrumReport:
    """Dense eigensolve returning a :class:`SpectrumReport`.

    Parameters
    ----------
    M : array_like, square
        Matrix to analyze.
    tol : float
        Relative tolerance used for the containment verdict.

    Returns
    -------
    SpectrumReport
        All eigenvalues with multiplicity, sorted by (Re, Im).
    """
    A = as_square_matrix(M)
    return _spectrum_report(sorted_eigenvalues(np.linalg.eigvals(A)), op_norm(A), tol)


def _spectrum_report(w: np.ndarray, scale: float, tol: float) -> SpectrumReport:
    """The :func:`eig` report for sorted eigenvalues ``w`` of a matrix of norm ``scale``."""
    maxdist = float(np.max(dist_to_rplus(w)))
    return SpectrumReport(
        eigenvalues=w,
        max_dist_to_rplus=maxdist,
        is_real_nonnegative=bool(maxdist <= tol * max(1.0, scale)),
        tolerance=tol,
    )


def matching_distance(w1, w2) -> float:
    """Optimal-matching distance between two eigenvalue multisets.

    Pairs the two multisets (same cardinality) to minimize the largest
    pairwise distance, via the Hungarian assignment on |w1_i - w2_j|.
    This is the Hausdorff-style metric used for all spectrum comparisons.
    """
    a = np.asarray(w1, dtype=complex).ravel()
    b = np.asarray(w2, dtype=complex).ravel()
    if a.shape != b.shape:
        raise ShapeError(f"multisets must have equal size, got {a.size} and {b.size}")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) if a.size else 0.0


def is_psd(M, tol: float = DEFAULT_TOL) -> bool:
    """Test positive semidefiniteness at a relative tolerance.

    True iff ``M`` is Hermitian within ``tol * ||M||`` and the smallest
    eigenvalue of its Hermitian part is at least ``-tol * ||M||``.
    """
    A = as_square_matrix(M)
    return _psd_test(A, tol, op_norm(A))


def _psd_test(A: np.ndarray, tol: float, scale: float, lam_min: float | None = None) -> bool:
    """The PSD verdict of :func:`is_psd` given ``scale = ||A||``.

    ``lam_min``, the smallest eigenvalue of the Hermitian part, is computed
    here only when the Hermitian test passes and the caller does not have it.
    """
    if scale == 0.0:
        return True
    if op_norm(A - A.conj().T) > tol * scale:
        return False
    if lam_min is None:
        lam_min = float(np.linalg.eigvalsh(hermitian_part(A))[0])
    return lam_min >= -tol * scale


@dataclass(frozen=True)
class PsdCertificate:
    """Positivity classification of a square matrix.

    ``kind`` is one of ``"positive-semidefinite"``, ``"similar-to-positive"``
    or ``"neither"``.  For the similarity kinds, ``witness`` holds an
    invertible V with V^-1 @ subject @ V diagonal, real and nonnegative
    (within tolerance); ``witness_residual`` is the verified reconstruction
    error ``||V D V^-1 - subject||`` and ``witness_condition`` is cond(V).
    ``min_eigenvalue`` always refers to the Hermitian part,
    ``diagonalizability_gap`` is the smallest distance between two distinct
    eigenvalues (a conditioning diagnostic, inf for 1x1).  ``tolerance`` is
    the relative tolerance the verdict was issued at and ``scale`` the
    operator norm ``||subject||`` it was scaled by: spectral distances are
    compared with ``tolerance * max(1, scale)``.  ``eigenvalues`` holds the
    subject's eigenvalues sorted by (Re, Im).
    """

    subject: np.ndarray
    kind: str
    witness: np.ndarray | None
    min_eigenvalue: float
    diagonalizability_gap: float
    tolerance: float
    witness_condition: float | None = None
    witness_residual: float | None = None
    diagnostics: str = ""
    eigenvalues: np.ndarray = field(default=None, repr=False)
    scale: float | None = None


def is_similar_to_positive(cert: PsdCertificate) -> bool:
    """A PSD matrix is trivially similar to a positive one; accept both kinds."""
    return cert.kind in ("positive-semidefinite", "similar-to-positive")


def _pairwise_gap(w: np.ndarray) -> float:
    if len(w) < 2:
        return math.inf
    diff = np.abs(w[:, None] - w[None, :])
    np.fill_diagonal(diff, np.inf)
    return float(diff.min())


def positivity_certificate(
    M,
    tol: float = DEFAULT_TOL,
    cond_cap: float = DEFAULT_COND_CAP,
) -> PsdCertificate:
    """Classify a matrix as PSD, similar to a positive matrix, or neither.

    A square matrix is similar to a positive semidefinite one exactly when it
    is diagonalizable with spectrum in [0, inf).  Numerically the spectrum
    condition is ``dist(lambda, R+) <= tol * max(1, ||M||)`` for every
    eigenvalue, and diagonalizability means some eigenvector matrix has
    condition number at most ``cond_cap``.  The one basis tried is the
    eigenvector matrix from ``numpy.linalg.eig``; when its condition number
    exceeds ``cond_cap`` the matrix is treated as non-diagonalizable and
    reported as ``"neither"`` with a diagnostic string.  The certificate
    records ``tol`` as ``tolerance`` and ``||M||`` as ``scale``.

    The witness reconstruction ``||V D V^-1 - M||`` is checked against
    ``tol * cond(V) * max(1, ||M||)``; the conditioning factor is required
    because a residual bound independent of cond(V) is not achievable in
    floating point near the condition cap.
    """
    A = as_square_matrix(M)
    scale = op_norm(A)
    tol_abs = tol * max(1.0, scale)
    min_eig = float(np.linalg.eigvalsh(hermitian_part(A))[0])

    w = sorted_eigenvalues(np.linalg.eigvals(A))
    gap = _pairwise_gap(w)
    maxdist = float(np.max(dist_to_rplus(w)))
    issue = partial(PsdCertificate, subject=A, min_eigenvalue=min_eig,
                    diagonalizability_gap=gap, tolerance=tol, eigenvalues=w, scale=scale)

    if _psd_test(A, tol, scale, min_eig):
        d, V = np.linalg.eigh(hermitian_part(A))
        resid = op_norm(V @ np.diag(np.maximum(d, 0.0)) @ V.conj().T - A)
        return issue(kind="positive-semidefinite", witness=V,
                     witness_condition=1.0, witness_residual=float(resid))

    if maxdist > tol_abs:
        return issue(kind="neither", witness=None,
                     diagnostics=f"spectrum leaves [0, inf): max distance {maxdist:.3e} "
                                 f"exceeds {tol_abs:.3e}")

    we, V = np.linalg.eig(A)
    sv = np.linalg.svd(V, compute_uv=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    if cond > cond_cap:
        return issue(kind="neither", witness=None,
                     diagnostics="no eigenvector basis with condition number below "
                                 f"{cond_cap:.1e}; treating as non-diagonalizable "
                                 f"(closest eigenvalue pair {gap:.3e} apart)")

    resid = op_norm(V @ np.diag(we.real) @ np.linalg.inv(V) - A)
    allowed = tol * max(1.0, cond) * max(1.0, scale)
    if resid > allowed:
        return issue(kind="neither", witness=None,
                     diagnostics=f"witness reconstruction residual {resid:.3e} exceeds "
                                 f"{allowed:.3e}")
    return issue(kind="similar-to-positive", witness=V,
                 witness_condition=cond, witness_residual=float(resid))


def hs_inner(X, Y) -> complex:
    """Trace inner product <X, Y> = trace(Y* X).

    Conjugate symmetric and positive on nonzero X; the inner product under
    which elementary operators with PSD coefficients are positive maps in
    finite dimension.
    """
    A = as_matrix(X, "X")
    B = as_matrix(Y, "Y")
    if A.shape != B.shape:
        raise ShapeError(f"shape mismatch: {A.shape} vs {B.shape}")
    return complex(np.vdot(B, A))
