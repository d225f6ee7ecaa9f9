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
    """Frobenius norm.

    ``np.linalg.norm`` squares the entries, so for finite nonzero input its
    result can underflow to 0 or overflow to inf; a result outside
    [1e-150, 1e150] is recomputed with the entries scaled by the largest
    modulus.
    """
    M = np.asarray(M)
    with np.errstate(over="ignore"):
        f = float(np.linalg.norm(M))
    if 1e-150 <= f <= 1e150 or not M.any():
        return f
    a = np.abs(M)   # real, so the scaling below is a real division
    m = float(a.max())
    return m * float(np.linalg.norm(a / m)) if np.isfinite(m) else f


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


def eig(M) -> SpectrumReport:
    """Dense eigensolve returning a :class:`SpectrumReport`.

    Parameters
    ----------
    M : array_like, square
        Matrix to analyze.

    Returns
    -------
    SpectrumReport
        All eigenvalues with multiplicity, sorted by (Re, Im), with the
        containment verdict at the relative tolerance :data:`DEFAULT_TOL`.
    """
    A = as_square_matrix(M)
    return _spectrum_report(sorted_eigenvalues(np.linalg.eigvals(A)), op_norm(A), DEFAULT_TOL)


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
    """Largest distance in a minimum-sum matching of two eigenvalue multisets.

    Pairs the two multisets (same cardinality) by the Hungarian assignment
    on |w1_i - w2_j|, which minimizes the sum of the pairwise distances,
    and returns the largest distance in that pairing.  This is an upper
    bound on the bottleneck distance (the least largest distance over all
    pairings), not always equal to it: [0, 2] against [0, 2j] gives 2√2,
    while 0 <-> 2j, 2 <-> 0 has largest distance 2.  It is the metric used
    for all spectrum comparisons, so each one is at least as strict as the
    bottleneck distance would make it.
    """
    from scipy.optimize import linear_sum_assignment   # 0.3 s to import; no pipeline calls this

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
    eigenvalue of its Hermitian part is at least ``-tol * ||M||``.  A
    diagonal ``M`` is decided from its diagonal in O(n) after one count of
    its nonzero entries.  For any other ``M`` both comparisons are screened
    in O(n^2) before any SVD runs, and an exactly Hermitian ``M`` that one
    shifted Cholesky factorization (``np.linalg.cholesky``) proves PSD needs
    no eigensolve (see :func:`_psd_test`); the verdict is the one the exact
    norms give.
    """
    return _psd_test(as_square_matrix(M), tol)


#: Relative margin by which an O(n^2) screen of :func:`_psd_test` must clear
#: its threshold; closer calls, rounding ties included, go to the exact SVDs.
_SCREEN_MARGIN = 1e-6


def _psd_test(A: np.ndarray, tol: float, scale: float | None = None,
              lam_min: float | None = None) -> bool:
    """The PSD verdict of :func:`is_psd`, given ``scale = ||A||`` and ``lam_min``,
    the smallest eigenvalue of the Hermitian part, when the caller has them.

    A diagonal ``A`` goes to :func:`_diagonal_psd_test`, which reads the
    exact norms off the diagonal.  For any other ``A`` both comparisons with
    ``tol * ||A||`` are screened in O(n^2) first.  The defect ``||A - A*||``
    lies in [F / sqrt(n), F] with F = ||A - A*||_F.  Without ``scale``,
    ``||A||`` lies in [||A||_F / sqrt(n), ||A||_F] and within F / 2 of the
    largest eigenvalue modulus h of the Hermitian part, which the spectrum
    for ``lam_min`` yields.  A screen decides only when it clears its
    threshold by the relative margin ``_SCREEN_MARGIN``; otherwise the exact
    SVDs run.

    Without ``lam_min``, an exactly Hermitian ``A`` is first offered to
    :func:`_cholesky_clears` with the lower bound of the PSD threshold: a
    factorization proves the verdict True without an eigensolve.  A failed
    one proves nothing, and ``eigvalsh`` runs as for any other subject.
    """
    if not A.any():
        return True
    d = np.diagonal(A)
    if np.count_nonzero(A) == np.count_nonzero(d):
        return _diagonal_psd_test(d, tol, scale, lam_min)
    margin = _SCREEN_MARGIN
    root_n = math.sqrt(A.shape[0])
    D = A - A.conj().T
    defect = frob(D)
    if scale is None:
        hi = frob(A)
        lo = hi / root_n
    else:
        lo = hi = scale
    if defect / root_n > tol * hi * (1.0 + margin):
        return False
    if lam_min is None:
        if defect == 0.0 and _cholesky_clears(A, tol * lo * (1.0 - margin)):
            return True
        w = np.linalg.eigvalsh(hermitian_part(A))
        lam_min = float(w[0])
        h = max(-w[0], w[-1])
        lo, hi = max(lo, h - defect / 2.0), min(hi, h + defect / 2.0)
    if defect * (1.0 + margin) > tol * lo:
        if defect / root_n > tol * hi * (1.0 + margin):
            return False
        if scale is None:
            scale = op_norm(A)
        lo = hi = scale
        if op_norm(D) > tol * scale:
            return False
    if lam_min >= -tol * lo * (1.0 - margin):
        return True
    if lam_min < -tol * hi * (1.0 + margin):
        return False
    if scale is None:
        scale = op_norm(A)
    return lam_min >= -tol * scale


def _diagonal_psd_test(d: np.ndarray, tol: float, scale: float | None = None,
                       lam_min: float | None = None) -> bool:
    """:func:`_psd_test` of diag(d), from the exact norms in O(n).

    ||diag(d)|| = max |d_i|, the defect ||diag(d) - diag(d)*|| is
    2 max |Im d_i| and the Hermitian part diag(Re d) has smallest eigenvalue
    min Re d_i; ``scale`` and ``lam_min`` stand in for the first and the
    last when the caller has them.
    """
    if scale is None:
        scale = float(np.abs(d).max())
    if 2.0 * float(np.abs(d.imag).max()) > tol * scale:
        return False
    if lam_min is None:
        lam_min = float(d.real.min())
    return lam_min >= -tol * scale


def _cholesky_clears(H: np.ndarray, bound: float) -> bool:
    """True if a Cholesky factorization proves lam_min(H) >= -bound, for an
    exactly Hermitian H, which is left unmodified.

    Factorizing fl(H + cI), c = bound - slack, runs to completion with a
    factor R whose R* R equals H + cI + E, where E holds the rounding of the
    shift and Cholesky's backward error |E_2| <= gamma_(n+1) |R*| |R|
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3).  So
    ||E_2|| <= gamma ||R||_F^2, and ||R||_F^2 = tr(R* R) is at most
    (sum |h_ii| + n c) / (1 - gamma).  With gamma = 8 (n + 1) eps, over four
    times the complex-arithmetic constant, ``slack`` = 2 gamma
    (sum |h_ii| + n bound) covers ||E||, and R* R >= 0 gives
    lam_min(H) >= -c - ||E|| >= -bound.  When ``slack`` leaves no room the
    factorization is not tried.  ``np.linalg.cholesky`` factors one shifted
    copy of H, and the ``LinAlgError`` it raises when a pivot is not
    positive is the failed screen.
    """
    n = H.shape[0]
    gamma = 8.0 * (n + 1) * np.finfo(float).eps
    slack = 2.0 * gamma * (float(np.abs(np.diagonal(H)).sum()) + n * bound)
    if not slack < bound:
        return False
    C = H.copy()
    C.flat[::n + 1] += bound - slack
    try:
        np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class PsdCertificate:
    """Positivity classification of a square matrix.

    ``kind`` is one of ``"positive-semidefinite"``, ``"similar-to-positive"``
    or ``"neither"``.  For the similarity kinds, ``witness`` holds an
    invertible V with V^-1 @ subject @ V diagonal, real and nonnegative
    (within tolerance): the eigenvectors of the Hermitian part for the PSD
    kind, the eigenvector matrix from ``eig`` for ``"similar-to-positive"``.
    ``witness_residual`` is the verified reconstruction error
    ``||V D V^-1 - subject||`` and ``witness_condition`` is cond(V).  For
    the PSD kind, with D = max(d, 0) on the eigenvalues d of the Hermitian
    part, the residual is the Frobenius norm, an upper bound on the
    operator norm.
    ``min_eigenvalue`` always refers to the Hermitian part,
    ``diagonalizability_gap`` is the smallest distance between two distinct
    entries of ``eigenvalues`` (a conditioning diagnostic, inf for 1x1).
    ``tolerance`` is the relative tolerance the verdict was issued at and
    ``scale`` the operator norm ``||subject||`` it was scaled by: spectral
    distances are compared with ``tolerance * max(1, scale)``.
    ``eigenvalues`` holds the subject's eigenvalues sorted by (Re, Im).
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


def positivity_certificate(M, tol: float = DEFAULT_TOL) -> PsdCertificate:
    """Classify a matrix as PSD, similar to a positive matrix, or neither.

    A square matrix is similar to a positive semidefinite one exactly when it
    is diagonalizable with spectrum in [0, inf).  Numerically the spectrum
    condition is ``dist(lambda, R+) <= tol * max(1, ||M||)`` for every
    eigenvalue, and diagonalizability means some basis V of condition number
    at most the fixed cap :data:`DEFAULT_COND_CAP` (1e8) reconstructs ``M``
    as ``V diag(d) V^-1`` to within ``tol * cond(V) * max(1, ||M||)``; the
    conditioning factor is required because a residual bound independent of
    cond(V) is not achievable in floating point near the cap.  The
    certificate records ``tol`` as ``tolerance`` and ``||M||`` as ``scale``.

    ``numpy.linalg.eigvals`` decides the spectrum condition, and only when
    it lies in [0, inf) is the eigenvector matrix from ``numpy.linalg.eig``
    tried.  A basis above the cap makes the matrix count as
    non-diagonalizable, reported as ``"neither"`` with a diagnostic string.
    """
    A = as_square_matrix(M)
    return _certificate(A, tol, op_norm(A))[0]


def _certificate(A: np.ndarray, tol: float, scale: float,
                 eigenvalues: np.ndarray | None = None,
                 eigh: tuple[np.ndarray, np.ndarray] | None = None,
                 ) -> tuple[PsdCertificate, np.ndarray | None]:
    """:func:`positivity_certificate` of a validated ``A`` with ``scale = ||A||``,
    and the inverse of its witness when the ``eig`` path formed one (else None).

    A caller that has factored ``A`` passes what it knows: ``eigenvalues``,
    the spectrum of ``A``, stands in for ``eigvals``; ``eigh``, the pair
    ``(d, V)`` of ``numpy.linalg.eigh(A)`` for an exactly Hermitian ``A``
    (whose Hermitian part is ``A`` itself), supplies ``min_eigenvalue``, the
    PSD witness and the eigenvector basis, so no eigensolve runs.
    """
    tol_abs = tol * max(1.0, scale)
    if eigh is None:
        min_eig = float(np.linalg.eigvalsh(hermitian_part(A))[0])
    else:
        min_eig = float(eigh[0][0])
    issue = partial(PsdCertificate, subject=A, min_eigenvalue=min_eig,
                    tolerance=tol, scale=scale)

    w = np.linalg.eigvals(A) if eigenvalues is None else eigenvalues
    w = sorted_eigenvalues(w)
    fields = {"eigenvalues": w, "diagonalizability_gap": _pairwise_gap(w)}

    if _psd_test(A, tol, scale, min_eig):
        d, V = np.linalg.eigh(hermitian_part(A)) if eigh is None else eigh
        resid = frob((V * np.maximum(d, 0.0)) @ V.conj().T - A)
        return issue(kind="positive-semidefinite", witness=V, witness_condition=1.0,
                     witness_residual=resid, **fields), None

    neither = partial(issue, kind="neither", witness=None, **fields)
    maxdist = float(np.max(dist_to_rplus(w)))
    if maxdist > tol_abs:
        return neither(diagnostics=f"spectrum leaves [0, inf): max distance "
                                   f"{maxdist:.3e} exceeds {tol_abs:.3e}"), None

    we, V = np.linalg.eig(A) if eigh is None else eigh
    cond = float(np.linalg.cond(V))   # inf for a singular V
    if cond > DEFAULT_COND_CAP:
        return neither(diagnostics=f"no eigenvector basis with condition number "
                                   f"below {DEFAULT_COND_CAP:.1e}; treating as non-diagonalizable "
                                   f"(closest eigenvalue pair "
                                   f"{fields['diagonalizability_gap']:.3e} apart)"), None

    V_inv = np.linalg.inv(V)
    resid = op_norm(V @ np.diag(we.real) @ V_inv - A)
    allowed = tol * max(1.0, cond) * max(1.0, scale)
    if resid > allowed:
        return neither(diagnostics=f"witness reconstruction residual {resid:.3e} "
                                   f"exceeds {allowed:.3e}"), None
    return issue(kind="similar-to-positive", witness=V, witness_condition=cond,
                 witness_residual=float(resid), **fields), V_inv


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
