"""Elementary operators X -> sum_j A_j X B_j and Lüders operations.

A Lüders operation is the special case with A_j = B_j all positive
semidefinite.  In finite dimension the matrix algebra is a Hilbert space
under the trace inner product, and an elementary operator with PSD
coefficients is a positive operator on that space, so its spectrum lies in
[0, inf).  This module provides the vectorized (superoperator) matrix, the
spectrum, positivity certificates on the trace inner product, pseudospectra,
and the block construction that plants a prescribed eigenvalue.

Vectorization convention (fixed repo-wide): column-major stacking, so that
``vec(A X B) = (B^T kron A) vec(X)``.  The transpose, not the conjugate
transpose, appears on the B side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    DEFAULT_TOL,
    PsdCertificate,
    ShapeError,
    SpectrumReport,
    _certificate,
    _spectrum_report,
    as_square_matrix,
    dist_to_rplus,
    frob,
    is_psd,
    op_norm,
    sorted_eigenvalues,
)

__all__ = [
    "ElementaryOperator",
    "HsPositivityReport",
    "LudersEigenvalueDemo",
    "UnattainableEigenvalueError",
    "GridSpec",
    "PseudospectrumGrid",
    "hs_positivity",
    "plant_luders_eigenvalue",
    "pseudospectrum",
]


class UnattainableEigenvalueError(ValueError):
    """An eigenvalue off [0, inf) was requested for a PSD-coefficient operator.

    Carries ``bound``, the analytic lower bound dist(lambda, R+) on how far
    any sum of products of PSD matrices stays from lambda * I; see
    :func:`opsum.lab.residual_lower_bound`.
    """

    def __init__(self, lam: complex, bound: float):
        self.lam = lam
        self.bound = bound
        super().__init__(
            f"lambda = {lam:.6g} is not attainable in finite dimension: sums "
            f"of products of PSD matrices have nonnegative real trace, which "
            f"keeps any such operator at distance >= {bound:.6g} from "
            f"lambda * I (the residual lower bound)")


def _scipy_linalg():
    """``scipy.linalg``, with the BLAS and LAPACK kernels this module calls.

    Imported here, on first use, which :meth:`ElementaryOperator.build`
    makes: loading scipy.linalg takes most of a cold ``import opsum``, and
    the decomposition pipelines run on numpy alone.
    """
    import scipy.linalg

    return scipy.linalg


def _read_only(X: np.ndarray) -> np.ndarray:
    X.setflags(write=False)
    return X


def _square_pairs(pairs) -> list:
    """Pairs (A_j, B_j) as complex square arrays, all of one dimension.

    Raises
    ------
    ShapeError
        Naming the first pair whose A and B differ in shape, or whose
        dimension differs from that of pair 0.
    """
    squared = []
    for i, (A, B) in enumerate(pairs):
        A = as_square_matrix(A, f"A_{i}")
        B = as_square_matrix(B, f"B_{i}")
        if A.shape != B.shape:
            raise ShapeError(f"pair {i}: A is {A.shape}, B is {B.shape}")
        dim = squared[0][0].shape[0] if squared else A.shape[0]
        if A.shape[0] != dim:
            raise ShapeError(f"pair {i} has dimension {A.shape[0]}, expected {dim}")
        squared.append((A, B))
    return squared


@dataclass(frozen=True)
class ElementaryOperator:
    """Ordered coefficient pairs (A_j, B_j) defining X -> sum_j A_j X B_j.

    The superoperator matrix M, its operator norm and one spectral
    factorization of M are computed on first use and kept, read-only, on
    the instance: :meth:`spectrum`, :func:`hs_positivity` and
    :func:`pseudospectrum` all read the same factorization.  It is
    ``numpy.linalg.eigh`` when M is exactly Hermitian (every operator whose
    coefficients are exactly Hermitian, every Lüders operation among them),
    whose largest |eigenvalue| is then ||M||, and otherwise the upper
    triangular factor T of a complex Schur form M = Z T Z*, Z not formed.

    The Schur form and the pseudospectrum's triangular solves and
    tridiagonal eigensolves are scipy's LAPACK and BLAS kernels, which the
    first :meth:`build` imports; ``import opsum`` and the decomposition
    pipelines load numpy alone.
    """

    pairs: tuple
    dim: int
    is_luders: bool

    @classmethod
    def build(cls, pairs) -> "ElementaryOperator":
        """Validate coefficient pairs and detect the Lüders case.

        ``is_luders`` is true iff every A_j equals B_j and all coefficients
        are PSD, both at the relative tolerance
        :data:`~opsum.core.DEFAULT_TOL`.  The coefficients are copied and
        kept read-only, so later changes to the caller's arrays do not reach
        the operator.
        """
        if not pairs:
            raise ValueError("coefficient list must be nonempty")
        _scipy_linalg()   # the import, paid once, with the first operator
        validated = [(_read_only(A.copy()), _read_only(B.copy()))
                     for A, B in _square_pairs(pairs)]
        dim = validated[0][0].shape[0]
        luders = all(
            op_norm(A - B) <= DEFAULT_TOL * max(1.0, op_norm(A)) and is_psd(A)
            for A, B in validated)
        return cls(pairs=tuple(validated), dim=dim, is_luders=luders)

    @property
    def length(self) -> int:
        return len(self.pairs)

    def apply(self, X) -> np.ndarray:
        """Evaluate sum_j A_j X B_j; linear in X."""
        X = as_square_matrix(X, "X")
        if X.shape[0] != self.dim:
            raise ShapeError(f"X must be {self.dim}x{self.dim}, got {X.shape}")
        out = np.zeros_like(X)
        for A, B in self.pairs:
            out += A @ X @ B
        return out

    __call__ = apply

    def to_matrix(self) -> np.ndarray:
        """Superoperator matrix M = sum_j B_j^T kron A_j (column stacking)."""
        n = self.dim
        M = np.zeros((n * n, n * n), dtype=complex)
        for A, B in self.pairs:
            M += np.kron(B.T, A)
        return M

    @cached_property
    def _matrix(self) -> np.ndarray:
        return _read_only(self.to_matrix())

    @cached_property
    def _norm(self) -> float:
        """||M||: the largest |eigenvalue| of a Hermitian M, else an SVD."""
        eigh = self._eigh
        return float(max(-eigh[0][0], eigh[0][-1])) if eigh is not None else op_norm(self._matrix)

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``eigh`` of M when M is exactly Hermitian, else None."""
        M = self._matrix
        if not np.array_equal(M, M.conj().T):
            return None
        d, V = np.linalg.eigh(M)
        return _read_only(d), _read_only(V)

    @cached_property
    def _schur(self) -> np.ndarray:
        """T of a complex Schur form M = Z T Z* of a non-Hermitian M:
        LAPACK ``zgees`` without the Schur vectors Z, which nothing reads."""
        zgees = _scipy_linalg().lapack.zgees
        T, _, _, _, _, info = zgees(lambda w: None, self._matrix, compute_v=0)
        if info != 0:
            raise RuntimeError(f"LAPACK zgees failed with info = {info}")
        return _read_only(T)

    @cached_property
    def _eigenvalues(self) -> np.ndarray:
        eigh = self._eigh
        w = eigh[0] if eigh is not None else np.diagonal(self._schur)
        return _read_only(sorted_eigenvalues(w))

    def spectrum(self, tol: float = DEFAULT_TOL) -> SpectrumReport:
        """Eigenvalues of the superoperator matrix, with the R+ verdict.

        The eigenvalues, sorted by (Re, Im), are those of the operator's one
        factorization of M: exactly real from ``eigh`` for an exactly
        Hermitian M, else the diagonal of the Schur factor T.  The verdict
        follows :func:`opsum.core.eig` with the cached ||M|| as the scale.
        The eigenvalue array is shared with the operator and read-only.
        """
        return _spectrum_report(self._eigenvalues, self._norm, tol)

    def coefficients_psd(self) -> bool:
        return all(is_psd(A) and is_psd(B) for A, B in self.pairs)


@dataclass(frozen=True)
class HsPositivityReport:
    """Positivity of an elementary operator on the trace inner product.

    ``certificate`` classifies the superoperator matrix on the n^2-dim
    space.  When the operator has length 2 with one commuting coefficient
    side, ``commuting_side`` names it ('left' or 'right'), and the spectrum
    distance to [0, inf) verifies the containment for that configuration.
    """

    certificate: PsdCertificate
    spectrum: SpectrumReport
    coefficients_psd: bool
    commuting_side: str | None


def _commuting_side(op: ElementaryOperator) -> str | None:
    if op.length != 2:
        return None
    (A1, B1), (A2, B2) = op.pairs
    scale_a = max(1.0, op_norm(A1) * op_norm(A2))
    scale_b = max(1.0, op_norm(B1) * op_norm(B2))
    if op_norm(A1 @ A2 - A2 @ A1) <= DEFAULT_TOL * scale_a:
        return "left"
    if op_norm(B1 @ B2 - B2 @ B1) <= DEFAULT_TOL * scale_b:
        return "right"
    return None


def hs_positivity(op: ElementaryOperator) -> HsPositivityReport:
    """Certify positivity of the vectorized operator on the trace inner product.

    With all coefficients PSD the superoperator matrix is Hermitian PSD, so
    the spectrum is contained in [0, inf); non-PSD coefficients typically
    yield kind ``"neither"`` with diagnostics.  Every verdict in the report
    is issued at the relative tolerance :data:`~opsum.core.DEFAULT_TOL`.

    The certificate is :func:`opsum.core.positivity_certificate` of M, built
    from the operator's cached M, ||M|| and eigenvalues, which
    :meth:`ElementaryOperator.spectrum` also reports.  For an exactly
    Hermitian M the ``eigh`` pair supplies ``min_eigenvalue`` and the
    witness, so no further eigensolve runs, and the witness residual of the
    PSD kind is a Frobenius norm, with no SVD of the N x N residual.  The
    certificate's ``subject`` is the operator's read-only M, and an ``eigh``
    witness its read-only eigenvector matrix.
    """
    cert = _certificate(op._matrix, DEFAULT_TOL, op._norm, op._eigenvalues, op._eigh)[0]
    return HsPositivityReport(
        certificate=cert,
        spectrum=_spectrum_report(cert.eigenvalues, cert.scale, DEFAULT_TOL),
        coefficients_psd=op.coefficients_psd(),
        commuting_side=_commuting_side(op),
    )


@dataclass(frozen=True)
class LudersEigenvalueDemo:
    """A Lüders operation with a planted eigenvalue.

    Given PSD pairs with sum_j A_j B_j = lam * I, the block coefficients
    T_j = diag(A_j, B_j) are PSD and the Lüders operation
    Phi(X) = sum_j T_j X T_j satisfies Phi(X0) = lam * X0 for the strictly
    upper block matrix X0 = [[0, I], [0, 0]].
    """

    lam: float
    operator: ElementaryOperator
    block_coefficients: tuple
    eigenvector: np.ndarray
    eigen_residual: float


#: Relative tolerance of the product-sum check in :func:`plant_luders_eigenvalue`.
PLANT_TOL = 1e-8


def plant_luders_eigenvalue(lam, pairs) -> LudersEigenvalueDemo:
    """Build a Lüders operation with the prescribed eigenvalue ``lam``.

    Parameters
    ----------
    lam : real scalar >= 0
        The eigenvalue to plant.  Values off [0, inf) are rejected: the
        trace bound keeps PSD product sums away from lam * I, and the
        raised error carries that exact bound.
    pairs : list of (A_j, B_j)
        PSD matrices of a common size k with ||sum A_j B_j - lam I||_F
        within 1e-8 max(1, |lam|) (:data:`PLANT_TOL`).

    Raises
    ------
    UnattainableEigenvalueError
        If dist(lam, R+) > 0.
    ShapeError
        If a pair's matrices are not square of one common size, before any
        product is formed.
    ValueError
        If ``lam`` is not finite, or the pairs fail the PSD or product-sum
        check.
    """
    lam = complex(lam)
    if not np.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    bound = dist_to_rplus(lam)
    if bound > 0.0:
        raise UnattainableEigenvalueError(lam, bound)
    lam = float(lam.real)

    if not pairs:
        raise ValueError("need at least one coefficient pair")
    pairs = _square_pairs(pairs)
    k = pairs[0][0].shape[0]
    total = np.zeros((k, k), dtype=complex)
    for i, (A, B) in enumerate(pairs):
        if not is_psd(A) or not is_psd(B):
            raise ValueError(f"pair {i} is not PSD at the default tolerance")
        total += A @ B
    gap = frob(total - lam * np.eye(k))
    allowed = PLANT_TOL * max(1.0, abs(lam))
    if gap > allowed:
        raise ValueError(
            f"sum of products misses lam * I by {gap:.3e} (allowed {allowed:.3e})")

    blocks = tuple(
        np.block([[A, np.zeros((k, k))], [np.zeros((k, k)), B]])
        for A, B in pairs)
    op = ElementaryOperator.build([(T, T) for T in blocks])
    X0 = np.zeros((2 * k, 2 * k), dtype=complex)
    X0[:k, k:] = np.eye(k)
    residual = frob(op.apply(X0) - lam * X0)
    if residual > 1e-10 * max(1.0, abs(lam)):
        raise RuntimeError(
            f"planted eigenvalue residual {residual:.3e} exceeds bound")
    return LudersEigenvalueDemo(
        lam=lam, operator=op, block_coefficients=blocks,
        eigenvector=X0, eigen_residual=residual)


@dataclass(frozen=True)
class GridSpec:
    """Rectangle [re0, re1] x [im0, im1] sampled on a steps x steps lattice."""

    re0: float
    re1: float
    im0: float
    im1: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("grid must have at least one step")
        if not np.all(np.isfinite([self.re0, self.re1, self.im0, self.im1])):
            raise ValueError("grid corners must be finite")


@dataclass(frozen=True)
class PseudospectrumGrid:
    """Field of smallest singular values of (M - lambda I) over a grid."""

    re: np.ndarray
    im: np.ndarray
    sigma_min: np.ndarray   # shape (len(im), len(re))

    def rows(self):
        """Yield (re, im, sigma_min) rows, row-major over the grid."""
        for i, b in enumerate(self.im):
            for j, a in enumerate(self.re):
                yield float(a), float(b), float(self.sigma_min[i, j])


def pseudospectrum(op: ElementaryOperator, grid: GridSpec) -> PseudospectrumGrid:
    """Smallest singular value of (vectorized op - lambda I) over a grid.

    Method (Trefethen, "Computation of pseudospectra", Acta Numerica 8,
    1999, the approach of EigTool): the grid reads the operator's one
    spectral factorization of the superoperator matrix M (N = n^2), the one
    :meth:`ElementaryOperator.spectrum` reports.  Singular values are
    unitarily invariant, so each point costs at most O(N^2) per step
    instead of an O(N^3) SVD.

    - Exactly Hermitian M (every operator whose coefficients are exactly
      Hermitian, every Lüders operation): sigma_min(M - zI) is the distance
      min_i |d_i - z| to the eigenvalues d of ``eigh``, for the whole grid
      at once.
    - Otherwise M = Z T Z* in complex Schur form (only T is formed) and
      sigma_min(M - zI) = sigma_min(T - zI).  For a normal M, when the
      strictly upper part E of T has ||E||_F <= N eps ||T||_F, the result
      is the distance min_i |T_ii - z| to the Schur diagonal; by Weyl's
      bound for singular values it differs from sigma_min(T - zI) by at
      most ||E||_2 <= ||E||_F.
    - Otherwise each point runs inverse Lanczos on (R* R)^-1 with
      R = T - zI upper triangular, applied through two triangular solves:
      the plain three-term recurrence, O(N) memory, from a fixed
      pseudorandom unit start vector (seed 0).  It stops when the residual
      bound beta_k |s_k| of the largest Ritz value theta is at most
      1e-14 theta; then sigma_min = theta^(-1/2).  Without
      reorthogonalization the basis loses orthogonality, but by Paige's
      analysis (1976, 1980) a Ritz value with a small residual bound still
      lies within that bound of an eigenvalue, and the largest one
      converges first.  A point not converged after 4N steps takes the SVD
      of R.  An exactly zero diagonal entry of R gives sigma_min = 0.

    Accuracy: about N eps ||M|| absolute, the order of the backward error
    of an SVD of M - zI (and of ``eigh``).  Deterministic; grid points are
    independent, so the evaluation order does not affect the result.
    """
    re = np.linspace(grid.re0, grid.re1, grid.steps)
    im = np.linspace(grid.im0, grid.im1, grid.steps)
    z = re[None, :] + 1j * im[:, None]
    if op._eigh is not None:
        d, T = op._eigh[0], None
    else:
        T = op._schur
        d = np.diagonal(T)
        if frob(np.triu(T, 1)) <= T.shape[0] * np.finfo(float).eps * frob(T):
            T = None
    if T is None:
        out = np.abs(z[..., None] - d).min(axis=-1)
        return PseudospectrumGrid(re=re, im=im, sigma_min=out)

    N = T.shape[0]
    # a private copy: the loop below overwrites its diagonal
    R = np.array(T, order="F")
    diag = np.diag_indices(N)
    # A structured start such as ones / sqrt(N) can be orthogonal to the
    # wanted singular vector (A = [[1.3, 0.6], [0, 1.1]], B = I, z = 0.3),
    # and Lanczos then stops on the wrong Ritz value.
    start = np.random.default_rng(0).standard_normal((2, N)).T @ np.array([1.0, 1j])
    start /= np.linalg.norm(start)
    # the tridiagonal, allocated once per call; its length caps the steps
    alpha, beta = np.empty((2, LANCZOS_STEPS * N))
    out = np.empty(z.shape)
    for idx, point in np.ndenumerate(z):
        R[diag] = d - point
        out[idx] = 0.0 if np.any(d == point) else _sigma_min_upper(R, start, alpha, beta)
    return PseudospectrumGrid(re=re, im=im, sigma_min=out)


# inverse Lanczos steps per unit of N before a grid point falls back to an SVD
LANCZOS_STEPS = 4


def _sigma_min_upper(R: np.ndarray, start: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> float:
    """sigma_min of a nonsingular upper triangular R by inverse Lanczos.

    Lanczos on the Hermitian positive definite (R* R)^-1, whose largest
    eigenvalue is sigma_min(R)^-2, from the unit vector ``start``; after
    len(alpha) steps ``svdvals(R)``.  ``alpha``, ``beta`` are workspace.
    """
    linalg = _scipy_linalg()
    blas, dstemr = linalg.blas, linalg.lapack.dstemr
    ztrsv, zdotc, zaxpy, dznrm2 = blas.ztrsv, blas.zdotc, blas.zaxpy, blas.dznrm2
    q, q_prev, b = start, start, 0.0
    for k in range(alpha.size):
        w = ztrsv(R, ztrsv(R, q, trans=2), overwrite_x=1)
        alpha[k] = zdotc(q, w).real
        # w -= alpha_k q_k + beta_{k-1} q_{k-1}, in place (b = 0 at k = 0)
        w = zaxpy(q_prev, zaxpy(q, w, a=-alpha[k]), a=-b)
        b = dznrm2(w)
        # top eigenpair of the tridiagonal; dstemr overwrites e, hence the copy
        _, theta, s, info = dstemr(alpha[:k + 1], beta[:k + 1].copy(), 2, 0.0, 0.0, k + 1, k + 1)
        if info != 0:
            raise RuntimeError(f"LAPACK dstemr failed with info = {info}")
        if b * abs(s[k, 0]) <= 1e-14 * theta[0]:
            return float(1.0 / np.sqrt(theta[0]))
        beta[k] = b
        q_prev, q = q, w / b
    return float(linalg.svdvals(R)[-1])
