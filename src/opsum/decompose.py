"""Decompositions into summands similar to positive matrices.

A matrix is similar to a positive one iff it is diagonalizable with spectrum
in [0, inf); each such summand S P S^-1 is also a product of two PSD
matrices, (S S*) ((S^-1)* P S^-1).  Sums of such summands always have real
nonnegative trace, which gives the obstruction certificates: targets with
non-real or nonpositive real trace cannot be decomposed at any summand
count.

Pipelines
---------
* :func:`four_summands` is constructive, in exact arithmetic, for any
  even-dimensional target with real positive trace (numerically its
  similarities degrade toward the trace boundary).  Split T into 2x2
  blocks [[A, B], [C, D]] over halves of the space and look for summands
  S_j (a_j + b_j) S_j^-1 with block-diagonal PSD middles and
  unit-Schur-complement similarities

      S_j = [[1, x_j], [y_j, 1 + y_j x_j]].

  With y_1 = 0, x_2 = 0, y_3 = 1, b_1 = 0 and positive scalars a_j, b_j
  (j >= 2) satisfying a_j - b_j = delta, matching the diagonal blocks
  reduces to a single commutator equation

      x_4 y_4 - y_4 x_4 = (A + D - a_1 - (2 beta + 3 delta)) / delta

  whose right side has zero trace exactly when the scalar parameters absorb
  the trace of T; the off-diagonal blocks are then matched by back-solving
  x_1 and y_2.  The scalars come from one fixed table in trace(T), so
  every real positive trace is feasible and the four spectra stay
  disjoint.
* :func:`three_summands` and :func:`two_summands`: in finite dimension T
  is a sum of two matrices similar to positive exactly when T = 0 or
  trace(T) is real and positive.  Targets already (similar to) PSD take a
  shortcut; the rest take the triangular split of :func:`_triangular`,
  whose cond(S) grows exponentially in n at a fixed trace(T) / n.  Past a
  cond(S) gate the split declines, and the pipeline raises
  :class:`DeclinedError` with the reason.

Every pipeline builds its result in one place, which reads each summand's
spectrum off its Hermitian middle P (S P S^-1 and P share their spectrum).
The product form comes as Gram factors, exactly Hermitian: for a diagonal
P >= 0, A = S S* and B = (sqrt(P) S^-1)* (sqrt(P) S^-1), one ``zherk``
each, from the S^-1 the summand was built with; for a four-summand table
row, block by block from the k x k blocks of S and its closed-form S^-1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import zherk

from .core import (
    _SCREEN_MARGIN,
    DEFAULT_COND_CAP,
    DEFAULT_TOL,
    ShapeError,
    _certificate,
    _diagonal_psd_test,
    _psd_test,
    as_square_matrix,
    frob,
    hermitian_part,
    is_psd,
    is_similar_to_positive,
    op_norm,
    positivity_certificate,
)
from .solvers import NonzeroTraceError, commutator_solve, zero_diagonalize

__all__ = [
    "SimilaritySummand",
    "DecompositionResult",
    "ObstructionCertificate",
    "DecompConfig",
    "DeclinedError",
    "ParameterError",
    "VerificationReport",
    "make_summand",
    "check_obstruction",
    "four_summands",
    "three_summands",
    "two_summands",
    "to_positive_product",
    "sum_of_products",
    "verify_decomposition",
]

#: Relative threshold on |Im trace| for the realness gate.
TRACE_TOL = 1e-9


class ParameterError(ValueError):
    """Raised when the four-summand middles cannot be placed: a trace so
    small that delta underflows."""


class DeclinedError(RuntimeError):
    """Raised when the two- or three-summand construction declines a target
    that has no trace obstruction; the message carries the decline reason."""


def _times_middle(X, P):
    """X P: a column scaling of X when P is diagonal, else a product."""
    p = np.diagonal(P)
    return X * p if np.count_nonzero(P) == np.count_nonzero(p) else X @ P


@dataclass(frozen=True)
class SimilaritySummand:
    """A summand S P S^-1 with S invertible and P positive semidefinite.

    ``S_inv`` is the S^-1 the summand was built with: ``inv(S)`` from
    :func:`make_summand`, the closed form from the four-summand table.
    ``value``, not an argument, is formed once from them as (S P) S_inv.
    """

    S: np.ndarray
    P: np.ndarray
    condition_number: float
    S_inv: np.ndarray
    value: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "value", _times_middle(self.S, self.P) @ self.S_inv)


def make_summand(S, P) -> SimilaritySummand:
    """Build a summand with S^-1 = inv(S) and its similarity conditioning."""
    S = as_square_matrix(S, "S")
    return SimilaritySummand(S, as_square_matrix(P, "P"), float(np.linalg.cond(S)),
                             np.linalg.inv(S))


@dataclass(frozen=True)
class ObstructionCertificate:
    """Machine-checkable reason a decomposition cannot exist.

    Issued by the trace argument: ``non-real-trace`` or ``nonpositive-real-trace``.
    """

    reason: str
    trace_value: complex
    explanation: str


@dataclass(frozen=True)
class DecompositionResult:
    """Summands, aggregate diagnostics, and the PSD product form."""

    summands: tuple
    reconstruction_residual: float
    spectra_point_counts: tuple
    pairwise_spectra_gap: float
    product_form: tuple
    method: str
    diagnostics: dict = field(default_factory=dict)


def check_obstruction(T) -> ObstructionCertificate | None:
    """Trace obstruction to being a sum of matrices similar to positive ones.

    Every matrix similar to a positive one has real nonnegative trace (its
    spectrum lies in [0, inf)), and the trace of a sum of nonzero such
    summands is strictly positive unless all summands vanish.  Returns a
    certificate for non-real trace (|Im trace(T)| above :data:`TRACE_TOL`
    times ||T||_F) or nonpositive real trace, else None.  None
    means a two-summand split exists: T = 0, or real positive trace, where
    the triangular split of :func:`two_summands` is exact in exact
    arithmetic (numerically it may be too ill-conditioned to build).
    """
    A = as_square_matrix(T)
    tr = complex(np.trace(A))
    if not A.any():
        return None
    scale = frob(A)
    if abs(tr.imag) > TRACE_TOL * scale:
        return ObstructionCertificate(
            reason="non-real-trace", trace_value=tr,
            explanation=(
                f"trace {tr:.6g} has imaginary part {tr.imag:.3e}; every sum "
                "of matrices similar to positive ones has real trace"))
    if tr.real <= 0.0:
        return ObstructionCertificate(
            reason="nonpositive-real-trace", trace_value=tr,
            explanation=(
                f"trace {tr:.6g} has nonpositive real part; a nonzero sum of "
                "matrices similar to positive ones has positive trace"))
    return None


def _zero_result(n: int, m: int, method: str) -> DecompositionResult:
    zero, eye = np.zeros((n, n), dtype=complex), np.eye(n, dtype=complex)
    summands = (SimilaritySummand(eye, zero, 1.0, eye),) * m
    return _finish(zero, summands, method, {"note": "zero target"})


def _distinct_points(values, resolution) -> int:
    """Greedy count of points: each value further than ``resolution`` from
    every point counted before it counts as a new point.

    A repeated value never counts twice, so for sorted ``values`` (both
    callers pass sorted spectra) walking ``np.unique(values)``, which keeps
    their order, gives the count that walking every value gives.
    """
    pts: list[complex] = []
    for v in np.unique(np.asarray(values, dtype=complex)):
        if not any(abs(v - p) <= resolution for p in pts):
            pts.append(v)
    return len(pts)


def _summand_statistics(spectra, T) -> tuple[tuple, float]:
    """Distinct spectrum sizes per summand and the min cross-summand gap.

    Points within 1e-7 max(1, ||T||_2) count as one; ||T||_2, in
    [||T||_F / sqrt(n), ||T||_F], takes an SVD only when two points of one
    spectrum lie at a distance in the range this leaves."""
    F = frob(T)
    lo, res = 1e-7 * max(1.0, F / math.sqrt(T.shape[0])), 1e-7 * max(1.0, F)
    points = [np.unique(w) for w in spectra]   # the distances below are those of the spectra
    for u in points:
        d = np.abs(u[:, None] - u)
        if np.any((d >= lo * (1.0 - _SCREEN_MARGIN)) & (d <= res * (1.0 + _SCREEN_MARGIN))):
            res = 1e-7 * max(1.0, op_norm(T))
            break
    counts = tuple(_distinct_points(u, res) for u in points)
    gap = math.inf
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = np.abs(points[i][:, None] - points[j][None, :]).min()
            gap = min(gap, float(d))
    return counts, gap


#: cond(S) above which :func:`to_positive_product` treats S as singular.
PRODUCT_COND_CAP = 1e12


def to_positive_product(S, P):
    """Express S P S^-1 as a product of two PSD matrices.

    Returns (A, B) = (S S*, (S^-1)* P S^-1); the product A B collapses to
    S P S^-1 identically.

    Raises on a numerically singular S (cond(S) above
    :data:`PRODUCT_COND_CAP`) or a non-PSD P.
    """
    S = as_square_matrix(S, "S")
    P = as_square_matrix(P, "P")
    cond = float(np.linalg.cond(S))
    _check_product_cond(cond)   # before inv can meet a singular S
    return _positive_product(SimilaritySummand(S, P, cond, np.linalg.inv(S)))


def _check_product_cond(cond: float):
    if not cond <= PRODUCT_COND_CAP:   # nan included
        raise ValueError(f"S is numerically singular (cond {cond:.3e})")


def _positive_product(s: SimilaritySummand):
    """(S S*, (S^-1)* P S^-1) of a summand, from its own S^-1.

    A diagonal P >= 0 gives Gram factors, one ``zherk`` each:
    A = S S* and B = (D S^-1)* (D S^-1) with D = sqrt(P), both exactly
    Hermitian.  Any other P, which only :func:`to_positive_product` can
    pass, is tested PSD and takes the dense products and their Hermitian
    parts.
    """
    _check_product_cond(s.condition_number)
    p = np.diagonal(s.P)
    if (np.count_nonzero(s.P) == np.count_nonzero(p) and not p.imag.any()
            and np.all(p.real >= 0.0)):
        return (_mirror(_lower_gram(s.S)),
                _mirror(_lower_cogram(np.sqrt(p.real)[:, None] * s.S_inv)))
    if not is_psd(s.P):
        raise ValueError("P is not positive semidefinite")
    A = s.S @ s.S.conj().T
    B = _times_middle(s.S_inv.conj().T, s.P) @ s.S_inv
    return hermitian_part(A), hermitian_part(B)


def _is_array(b) -> bool:
    return isinstance(b, np.ndarray)


def _lower_gram(M, alpha=1.0):
    """The lower triangle of alpha M M*, from one ``zherk``; zero above it.
    A number M stands for M I, and gives the number alpha |M|^2."""
    if not _is_array(M):
        return alpha * abs(M) ** 2
    # zherk on the Fortran-order view M.T forms conj(M M*) = (M M*).T
    return zherk(alpha, M.T, trans=2).T


def _lower_cogram(M, alpha=1.0):
    """The lower triangle of alpha M* M, as :func:`_lower_gram`."""
    if not _is_array(M):
        return alpha * abs(M) ** 2
    return zherk(alpha, M.T, trans=0).T


def _mirror(H):
    """H with its lower triangle mirrored above the diagonal: exactly Hermitian."""
    np.copyto(H, H.conj().T, where=~np.tri(H.shape[0], dtype=bool))
    return H


def _checked_pairs(pairs, count: int, n: int):
    """The product pairs as finite complex n x n arrays, and "" or the
    reason they cannot be the product form of ``count`` summands."""
    if len(pairs) != count:
        return [], f"{len(pairs)} product pairs for {count} summands"
    checked = []
    for i, pair in enumerate(pairs):
        if len(pair) != 2:
            return [], f"pair {i} has {len(pair)} factors, not 2"
        try:
            A, B = (as_square_matrix(M, f"pair {i} factor") for M in pair)
        except ValueError as err:   # ShapeError included
            return [], str(err)
        if A.shape != (n, n) or B.shape != (n, n):
            return [], (f"pair {i} has factors of shape {A.shape} and {B.shape}, "
                        f"summands {(n, n)}")
        checked.append((A, B))
    return checked, ""


def _product_form_check(S, pair, value, cond_bounds) -> tuple[float, bool]:
    """Verify's product-form test of one summand, whose pair holds two
    finite matrices of its shape: ``(ratio, psd)``, passed when ratio <= 1
    and psd.

    ratio is ||A B - value||_F / max(1, ||value||_F) over the allowance
    max(1e-8, 100 eps cond(S)^2): forming S S* and (S^-1)* P S^-1 squares
    the conditioning of S.  cond(S) comes from the bounds
    lo <= cond(S) <= hi unless the deviation lies between their allowances,
    and then from an SVD.  psd says whether A and B pass ``is_psd`` at 1e-8.
    """
    def allowance(cond):
        return max(1e-8, 100.0 * np.finfo(float).eps * cond * cond)

    A, B = pair
    dev = frob(A @ B - value) / max(1.0, frob(value))
    lo, hi = cond_bounds
    margin = _SCREEN_MARGIN + S.shape[0] * np.finfo(float).eps * hi
    cond = lo * max(0.0, 1.0 - margin)   # the least cond(S) the bounds allow
    if allowance(cond) < dev <= allowance(hi * (1.0 + margin)):
        cond = float(np.linalg.cond(S))
    return dev / allowance(cond), is_psd(A, 1e-8) and is_psd(B, 1e-8)


def _finish(T, summands, method: str, diagnostics: dict,
            product_form=None) -> DecompositionResult:
    """Residual, spectrum statistics and product form of finished summands.

    Each value (S P) S_inv has the spectrum of its middle P, and every
    pipeline builds a diagonal P, so the statistics read each spectrum off
    the sorted diagonal of P.  Without a ``product_form`` from the caller
    (the four-summand table builds its own from blocks), each summand's
    comes from :func:`_positive_product`, which reuses the cond(S) and S^-1
    the summand carries.
    """
    summands = tuple(summands)
    residual = frob(sum(s.value for s in summands) - T) / max(frob(T), 1e-300)
    counts, gap = _summand_statistics(
        [np.sort(np.diagonal(s.P).real) for s in summands], T)
    if product_form is None:
        product_form = tuple(map(_positive_product, summands))
    return DecompositionResult(
        summands=summands, reconstruction_residual=float(residual),
        spectra_point_counts=counts, pairwise_spectra_gap=gap,
        product_form=tuple(product_form), method=method, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# four summands (constructive)
# ---------------------------------------------------------------------------

#: Fractions of beta given to b_2, b_3, b_4.
B_WEIGHTS = (0.2, 0.3, 0.5)


# A block of a table similarity is a k x k array or a number c standing for
# c I, so the 0 and I blocks of the rows (x1, 0), (0, y2) and (x3, I) cost no
# product.

def _bmul(a, b):
    """The product of two blocks."""
    if _is_array(a) and _is_array(b):
        return a @ b
    if not (_is_array(a) or _is_array(b)):
        return a * b
    c, M = (a, b) if _is_array(b) else (b, a)
    return c * M if c else 0.0


def _badd(a, b):
    """The sum of two blocks."""
    if _is_array(a) == _is_array(b):
        return a + b
    c, M = (a, b) if _is_array(b) else (b, a)
    if not c:
        return M
    M = M.copy()
    M.flat[::M.shape[0] + 1] += c
    return M


def _put(view, b):
    """Write block b into ``view``, which holds zeros."""
    if _is_array(b):
        view[...] = b
    elif b:
        np.fill_diagonal(view, b)


def _add_to(view, b):
    """Add block b to ``view`` in place."""
    if _is_array(b):
        view += b
    elif b:
        view.flat[::view.shape[0] + 1] += b


def _hermitian(h11, h21, h22, k: int) -> np.ndarray:
    """The Hermitian [[h11, h21*], [h21, h22]], from the lower triangles of
    h11 and h22 and the block h21."""
    H = np.zeros((2 * k, 2 * k), dtype=complex)
    _put(H[:k, :k], h11)
    _put(H[k:, :k], h21)
    _put(H[k:, k:], h22)
    return _mirror(H)


def _table_summand(x, y, p: float, q: float, cond: float | None = None):
    """The summand S diag(p I, q I) S^-1 with S = [[I, x], [y, I + y x]], and
    its product form.

    x and y are blocks: k x k arrays, or 0 and 1 for a zero and an identity
    block.  The leading block of S and its Schur complement are both I, so
    S^-1 = [[I + x y, -x], [-y, I]] in closed form: neither the value nor
    the product form factors S.  S, S^-1 and P are filled block by block in
    place, with the entries ``np.block`` gives them (I + y x adds y x to an
    I, and a zero block of -x or -y holds -0).  ``cond`` is cond_2(S) when
    the caller has it in closed form (:func:`_unit_triangular_cond`,
    :func:`_identity_row_cond`); otherwise an SVD of S gives it.

    The product form is a pair of Gram factors, exactly Hermitian:
    A = S S* = L L* + R R* over the column blocks L = [I; y] and
    R = [x; W] of S, W = I + y x, and B = p Rt* Rt + q Rb* Rb over the row
    blocks Rt = [U, -x] and Rb = [-y, I] of S^-1, U = I + x y.  Each
    diagonal block is one ``zherk`` per term and each off-diagonal block one
    k x k product; a 0 or I block costs none.
    """
    k = next(b.shape[0] for b in (x, y) if _is_array(b))
    n = 2 * k
    S = np.zeros((n, n), dtype=complex)
    S_inv = np.zeros((n, n), dtype=complex)
    P = np.zeros((n, n), dtype=complex)
    S.flat[::n + 1] = 1.0
    S_inv.flat[::n + 1] = 1.0
    P.flat[::n + 1] = np.repeat([p, q], k)
    yx, xy = _bmul(y, x), _bmul(x, y)
    _put(S[:k, k:], x)
    _put(S[k:, :k], y)
    _add_to(S[k:, k:], yx)
    _add_to(S_inv[:k, :k], xy)
    for view, b in ((S_inv[:k, k:], x), (S_inv[k:, :k], y)):
        _put(view, b)
        np.negative(view, out=view)
    cond = float(np.linalg.cond(S)) if cond is None else cond
    summand = SimilaritySummand(S, P, cond, S_inv)

    _check_product_cond(cond)
    W = S[k:, k:] if _is_array(yx) else 1.0 + yx
    U = S_inv[:k, :k] if _is_array(xy) else 1.0 + xy
    xh = x.conj().T if _is_array(x) else x
    A = _hermitian(_badd(_lower_gram(x), 1.0), _badd(y, _bmul(W, xh)),
                   _badd(_lower_gram(y), _lower_gram(W)), k)
    B = _hermitian(_badd(_lower_cogram(U, p), _lower_cogram(y, q)),
                   -_badd(p * _bmul(xh, U), q * y),
                   _badd(_lower_cogram(x, p), q), k)
    return summand, (A, B)


def _unit_triangular_cond(x) -> float:
    """cond_2 of [[I, x], [0, I]], and of [[I, 0], [x, I]].

    Each singular value s of x gives the 2x2 block [[1, s], [0, 1]], with
    singular values (sqrt(s^2 + 4) +- s) / 2 and determinant 1, so with
    s = ||x||_2 the condition number is ((s + sqrt(s^2 + 4)) / 2)^2.
    """
    s = float(np.linalg.norm(x, 2))
    return ((s + math.sqrt(s * s + 4.0)) / 2.0) ** 2


def _identity_row_cond(x) -> float:
    """cond_2 of S = [[I, x], [I, I + x]].

    The unitary (1/sqrt 2) [[I, I], [I, -I]] maps S to
    (1/sqrt 2) [[2I, W], [0, -I]] with W = I + 2x; each singular value w of
    W gives a 2x2 block of determinant 1 whose Gram matrix has trace a / 2,
    a = 5 + w^2.  With w = ||W||_2 the condition number is
    (a + sqrt(a^2 - 16)) / 4.
    """
    w = float(np.linalg.norm(np.eye(x.shape[0]) + 2.0 * x, 2))
    a = 5.0 + w * w
    return (a + math.sqrt(a * a - 16.0)) / 4.0


def four_summands(T):
    """Split an even-dimensional matrix into four summands similar to positive.

    Requires real positive trace (otherwise an :class:`ObstructionCertificate`
    is returned).  Each summand's middle block is diagonal PSD with at most
    two distinct eigenvalues.  The middles come in closed form from
    t = Re trace(T) and k = n / 2: trace(a1) = max(min(k, t/2), t/4),
    delta = (t - trace(a1)) / 6k and beta = 1.5 delta from the trace
    identity, alpha = trace(a1) / k and b_j = beta * :data:`B_WEIGHTS`.  In
    units of delta, alpha lies in [2, 6] and the other middles are
    {1.3, 0.3}, {1.45, 0.45} and {1.75, 0.75}, so distinct summands have
    disjoint spectra with a gap of at least 0.15 delta, 1.5 times the
    recorded margin min(1e-3, beta/10, delta/10).  Each S_j^-1 is known in
    closed form; so is cond(S_j) for the three similarities with a 0 or I
    block, from one k x k 2-norm, and only (x4, y4) takes an n x n SVD.

    Returns
    -------
    DecompositionResult or ObstructionCertificate

    Raises
    ------
    ShapeError
        For odd dimension (never padded: padding would change the target).
    ParameterError
        When the trace is so small that delta underflows.
    """
    A_full = as_square_matrix(T)
    n = A_full.shape[0]
    if n % 2 != 0:
        raise ShapeError(f"four-summand split needs even dimension, got {n}")

    cert = check_obstruction(A_full)
    if cert is not None:
        return cert
    if not A_full.any():
        return _zero_result(n, 4, "four-term")

    k = n // 2
    t = float(np.trace(A_full).real)
    # the trace identity t = trace(a1) + 2 beta k + 3 delta k fixes beta
    tr_a1 = max(min(float(k), t / 2.0), t / 4.0)
    delta = (t - tr_a1) / (6.0 * k)
    beta = (t - tr_a1 - 3.0 * delta * k) / (2.0 * k)
    if not delta >= np.finfo(float).tiny:
        raise ParameterError(
            f"trace {t!r} is too small: delta = {delta!r} underflows")
    alpha = tr_a1 / k   # the first middle's top block is alpha I

    sep_goal = min(1e-3, beta / 10.0, delta / 10.0)
    # middle j is diag(p_j I, q_j I), listed as (p_j, q_j)
    middles = [(alpha, 0.0)] + [(b + delta, b) for b in beta * np.asarray(B_WEIGHTS)]

    A = A_full[:k, :k]
    B = A_full[:k, k:]
    C = A_full[k:, :k]
    D = A_full[k:, k:]
    eye = np.eye(k, dtype=complex)

    T0 = (A + D - alpha * eye - (2.0 * beta + 3.0 * delta) * eye) / delta
    T0 = T0 - (np.trace(T0) / k) * eye   # absorb the (tiny) residual trace
    comm = commutator_solve(T0)
    x4, y4 = comm.X, comm.Y

    x3 = (A - alpha * eye - (beta + 3.0 * delta) * eye) / delta - x4 @ y4
    x1 = -(B + delta * (x3 + x4)) / alpha
    y2 = C / delta - (eye + x3 + y4 + y4 @ x4 @ y4)

    # the second diagonal block closes automatically; kept as a regression
    # check on the derivation
    block_identity = frob(beta * eye - delta * (x3 + y4 @ x4) - D)
    scale = max(1.0, frob(A_full))
    if block_identity > 1e-8 * scale:
        raise RuntimeError(
            f"internal block identity violated: {block_identity:.3e}")

    # similarity pairs (x_j, y_j) of the table summands and their cond(S_j):
    # in closed form from one k x k norm where a block is 0 or I
    similarities = ((x1, 0.0, _unit_triangular_cond(x1)),
                    (0.0, y2, _unit_triangular_cond(y2)),
                    (x3, 1.0, _identity_row_cond(x3)),
                    (x4, y4, None))
    summands, product_form = zip(*(_table_summand(x, y, p, q, cond)
                                   for (x, y, cond), (p, q) in zip(similarities, middles)))
    return _finish(A_full, summands, "four-term", {
        "delta": delta, "beta": beta, "trace_a1": tr_a1,
        "b_weights": B_WEIGHTS,
        "sep_margin": sep_goal,
        "block_identity_residual": float(block_identity),
        "commutator_residual": comm.residual,
    }, product_form)


# ---------------------------------------------------------------------------
# three / two summands
# ---------------------------------------------------------------------------

#: The triangular split's largest relative reconstruction residual.
CONSTRUCTIVE_TOL = 1e-6


@dataclass(frozen=True)
class DecompConfig:
    """Deprecated configuration of the two- and three-summand pipelines.

    No pipeline reads ``allow_search_fallback``, ``search`` or ``seed``;
    setting one away from its default issues a :class:`DeprecationWarning`.
    """

    allow_search_fallback: bool = False
    search: object = None
    seed: int = 0

    def __post_init__(self):
        # the class attributes hold the field defaults
        for name in ("allow_search_fallback", "search", "seed"):
            if getattr(self, name) != getattr(DecompConfig, name):
                warnings.warn(f"DecompConfig.{name} is deprecated and ignored; "
                              "it will be removed", DeprecationWarning, stacklevel=3)


def _shortcut(A, m: int):
    """Certificate or result for targets that need no construction, else None.

    Trace obstructions and the zero target come first.  A target similar to
    positive, V^-1 A V = diag(d), splits inside the witness basis V: into
    (d - min d) + min d for m = 2, into m equal parts (one summand,
    repeated) otherwise; V is inverted, and cond(V) computed, once: by the
    certificate when its ``eig`` path checked V.
    """
    cert = check_obstruction(A)
    if cert is not None:
        return cert
    if not A.any():
        return _zero_result(A.shape[0], m, "shortcut")
    pc, V_inv = _certificate(A, DEFAULT_TOL, op_norm(A))
    if not is_similar_to_positive(pc):
        return None
    V, cond = pc.witness, pc.witness_condition   # the eig path took cond(V)
    if V_inv is None:   # the PSD kind's eigh basis, whose witness_condition is nominal
        V_inv, cond = np.linalg.inv(V), float(np.linalg.cond(V))
    d = np.maximum(np.real(V_inv @ A @ V).diagonal(), 0.0)
    if m == 2:
        middles = (d - d.min(), np.full_like(d, d.min()))
        note = "smallest-eigenvalue split of a positive-like target"
    else:
        middles = (d / m,)
        note = f"target already {pc.kind}; split into {m} equal parts"
    summands = [SimilaritySummand(V, np.diag(p).astype(complex), cond, V_inv) for p in middles]
    summands += summands[-1:] * (m - len(summands))
    return _finish(A, summands, "shortcut", {"note": note})


def _triangular(T, m: int):
    """Two or three summands from the zero-diagonal form of T - cI, c = tr T / n.

    Unitary zero-diagonalization gives T = R* (cI + L + U) R with L strictly
    lower and U strictly upper triangular.  With a_i = c i / (n + 1) and
    b = c - a, both L + diag(a) and U + diag(b) are triangular with distinct
    positive diagonals, hence similar to positive; m = 3 halves the second,
    which keeps every cond(S_j) at its m = 2 value.  Returns
    ``(result, None)``, or ``(None, reason)`` when a cond(S_j) exceeds the
    diagonalizability cap (above it verify could not certify the summand),
    the reconstruction misses :data:`CONSTRUCTIVE_TOL`, the product form
    fails verify's test (:func:`_product_form_check`) or the
    zero-diagonalization fails.
    """
    n = T.shape[0]
    tr = complex(np.trace(T))
    T0 = T - (tr / n) * np.eye(n)
    T0 -= (np.trace(T0) / n) * np.eye(n)   # rounding leaves a trace of order eps |tr T|
    try:
        R, Z = zero_diagonalize(T0)
    except (NonzeroTraceError, RuntimeError) as err:
        return None, f"zero-diagonalization failed: {err}"
    c = tr.real / n   # the trace gate allows a negligible imaginary part
    a = c * np.arange(1, n + 1) / (n + 1)
    b = c - a
    parts = [np.tril(Z, -1) + np.diag(a), (np.triu(Z, 1) + np.diag(b)) / (m - 1)]
    summands = []
    for X in parts:
        w, V = np.linalg.eig(X)
        S = R.conj().T @ V
        cond = float(np.linalg.cond(S))
        # gate before inv: eig may return an exactly singular V
        if not cond <= DEFAULT_COND_CAP:
            return None, f"cond(S) {cond:.1e} above {DEFAULT_COND_CAP:.0e}"
        P = np.diag(w.real).astype(complex)
        summands.append(SimilaritySummand(S, P, cond, np.linalg.inv(S)))
    summands += summands[-1:] * (m - 2)   # for m = 3 the two halves are one summand
    result = _finish(T, summands, "constructive",
                     {"note": "triangular split of the zero-diagonal form"})
    residual = result.reconstruction_residual
    if not residual <= CONSTRUCTIVE_TOL:
        return None, f"reconstruction {residual:.1e} above {CONSTRUCTIVE_TOL:.0e}"
    for s, pair in zip(summands[:2], result.product_form):
        cond = s.condition_number
        ratio, psd = _product_form_check(s.S, pair, s.value, (cond, cond))
        if not (ratio <= 1.0 and psd):   # nan included
            return None, (f"product form fails verify's test: ratio {ratio:.1e}, "
                          f"PSD factors {psd}, cond(S) {cond:.1e}")
    return result, None


def _best_effort(T, m: int):
    """Shortcut, then the triangular split (m = 2 or 3); raises its decline."""
    A = as_square_matrix(T)
    result = _shortcut(A, m)
    if result is not None:
        return result
    result, reason = _triangular(A, m)
    if result is None:
        raise DeclinedError(f"constructive {m}-summand path declined ({reason})")
    return result


def three_summands(T, config: DecompConfig | None = None):
    """Split into three summands similar to positive matrices.

    Order of attempts: trace certificates; equal split when the target is
    itself (similar to) PSD; the triangular split, in any dimension.  When a
    triangular similarity is too ill-conditioned (cond(S) above 1e8), the
    reconstruction misses :data:`CONSTRUCTIVE_TOL`, the product form fails
    verify's test or the zero-diagonalization fails, raises
    :class:`DeclinedError` (a ``RuntimeError``) whose message gives the
    reason.  ``config`` is deprecated and unread.
    """
    return _best_effort(T, 3)


def two_summands(T, config: DecompConfig | None = None):
    """Split into two summands similar to positive matrices.

    PSD targets split as (T - lam_min I) + lam_min I; targets similar to
    positive split the same way inside the witness basis.  The rest take
    the triangular split and decline as in :func:`three_summands`.
    ``config`` is deprecated and unread.
    """
    return _best_effort(T, 2)


def sum_of_products(T, m: int, config: DecompConfig | None = None):
    """Express T as m products of PSD pairs, T = sum_j A_j B_j.

    m = 4 routes through :func:`four_summands` (even dimension, middles from
    its fixed table), m = 3 and m = 2 through :func:`three_summands` and
    :func:`two_summands`, which raise :class:`DeclinedError` when their
    construction declines.  Returns
    the list of PSD pairs or an :class:`ObstructionCertificate`.  ``config``
    is deprecated and unread.
    """
    if m not in (2, 3, 4):
        raise ValueError(f"summand count must be 2, 3 or 4, got {m}")
    result = four_summands(T) if m == 4 else _best_effort(T, m)
    if isinstance(result, ObstructionCertificate):
        return result
    return list(result.product_form)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationCheck:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    passed: bool

    def failures(self):
        return [c for c in self.checks if not c.passed]


@dataclass(frozen=True)
class _SummandCertificate:
    """Verify's verdict on a summand S P S^-1 (see :func:`_certify`)."""

    value: np.ndarray      # S P S^-1: (S P) S_inv when certified, else from ``solve``
    kind: str              # a PsdCertificate kind, "similar-to-positive" when certified
    spectrum: np.ndarray   # the sorted spectrum of value
    cond_bounds: tuple     # lo <= cond_2(S) <= hi
    psd: bool              # is_psd(P)
    failure: str = ""      # why the inverse certificate does not cover the summand
    diagnostics: str = ""  # the fallback's, when it runs


def _certify(s: SimilaritySummand) -> _SummandCertificate:
    """Certify S P S^-1 similar to positive from the summand's own S^-1.

    With S scaled to unit columns, V = S D^-1 and V_inv = D S_inv, one
    product gives E = V_inv V - I.  S_inv is used only when ||E||_F is
    within that product's rounding bound rho = 8 (n + 1) eps sqrt(n)
    ||V_inv||_F (over four times Higham's complex-product constant) and
    rho < 1/2: S_inv is then S^-1 to working precision, and
    e = ||E||_F + rho < 1 proves S invertible (Neumann series; Rump, Acta
    Numerica 2010).  An exactly Hermitian PSD P then makes S P S^-1 similar
    to positive with the spectrum of P, and r = ||V_inv||_F e / ((1 - e)
    min D) >= ||S^-1 - S_inv||_2 bounds cond(S) by norms.  The cap
    :data:`~opsum.core.DEFAULT_COND_CAP` applies to the diagonalizing basis
    with unit columns: V for a diagonal P, with an SVD only when
    cond(V) <= sqrt(n) ||V_inv||_F / (1 - e) does not clear it, else S W
    with P = W diag(p) W*.  An uncovered summand takes its value from
    ``solve`` and its kind from :func:`~opsum.core.positivity_certificate`
    ("neither" for an exactly singular S).
    """
    S, P, S_inv = s.S, s.P, s.S_inv
    n = S.shape[0]
    norms = np.linalg.norm(S, axis=0)
    norms = np.where(norms > 0.0, norms, 1.0)   # a zero column leaves E = -I there
    V_inv_frob = frob(norms[:, None] * S_inv)
    E = S_inv @ S
    E.flat[::n + 1] -= 1.0
    resid = frob(norms[:, None] * E / norms)
    rho = 8.0 * (n + 1) * np.finfo(float).eps * math.sqrt(n) * V_inv_frob
    p = np.diagonal(P)
    diagonal = np.count_nonzero(P) == np.count_nonzero(p)
    if diagonal:   # is_psd(P) and the Hermitian test read off the diagonal
        SP, psd, hermitian = S * p, _diagonal_psd_test(p, DEFAULT_TOL), not p.imag.any()
    else:
        SP, psd, hermitian = S @ P, is_psd(P), np.array_equal(P, P.conj().T)
    cond_bounds, failure = (1.0, math.inf), ""
    if not resid <= rho < 0.5:   # nan included
        failure = (f"S_inv is not S^-1 to working precision: ||S_inv S - I||_F = "
                   f"{resid:.3e}, rounding bound {rho:.3e}")
    else:
        e = resid + rho
        r = V_inv_frob * e / ((1.0 - e) * norms.min())
        lo = norms.max() * (np.linalg.norm(S_inv, axis=1).max() - r)
        cond_bounds = (max(1.0, lo), frob(S) * (frob(S_inv) + r))
        if not (psd and hermitian):
            failure = "P is not Hermitian PSD"
        else:
            if diagonal:
                spectrum, V = np.sort(p.real), S
                hi = math.sqrt(n) * V_inv_frob / (1.0 - e)
                cleared = hi <= DEFAULT_COND_CAP * (
                    1.0 - _SCREEN_MARGIN - n * np.finfo(float).eps * hi)
            else:
                spectrum, W = np.linalg.eigh(P)
                V, cleared = S @ W, False
            cond = 1.0 if cleared else float(np.linalg.cond(V / np.linalg.norm(V, axis=0)))
            if cond <= DEFAULT_COND_CAP:
                return _SummandCertificate(SP @ S_inv, "similar-to-positive", spectrum,
                                           cond_bounds, psd)
            failure = (f"condition number {cond:.3e} of the diagonalizing basis with unit "
                       f"columns above {DEFAULT_COND_CAP:.1e}")
    try:   # backward stable: the eig of (S P) inv(S) can lose the verdict near the cap
        v, singular = np.linalg.solve(S.T, SP.T).T, ""
    except np.linalg.LinAlgError:
        v, singular = SP @ S_inv, "S is singular; "
    cert = positivity_certificate(v, tol=1e-8)
    return _SummandCertificate(v, "neither" if singular else cert.kind, cert.eigenvalues,
                               cond_bounds, psd, failure, singular + cert.diagnostics)


def _summand_kind(s: SimilaritySummand) -> tuple[str, float]:
    """The kind and min_eigenvalue ``positivity_certificate(s.value, tol=1e-8)``
    reports, with the similarity verdict of :func:`_certify` in place of its
    ``eig``."""
    min_eig = float(np.linalg.eigvalsh(hermitian_part(s.value))[0])
    if _psd_test(s.value, 1e-8, None, min_eig):
        return "positive-semidefinite", min_eig
    return _certify(s).kind, min_eig


def verify_decomposition(
    T,
    result: DecompositionResult,
    tol: float = 1e-6,
    max_spectrum_points: int | None = None,
    min_pairwise_gap: float | None = None,
) -> VerificationReport:
    """Recompute every claim of a decomposition from scratch.

    Nothing cached in the result is trusted: each summand is read as S, P
    and S_inv, never through its ``value``.  Each summand is certified
    from its own S^-1 with matrix products (:func:`_certify`), which uses
    S_inv only once S_inv S - I shows it is S^-1 to working precision, and
    its value recomputed as (S P) S_inv; one the certificate does not cover
    takes its value from ``solve`` and its verdict from
    :func:`~opsum.core.positivity_certificate`.  The reconstruction is
    recomputed, each middle block re-tested for positive semidefiniteness
    and the product form re-multiplied, its cond(S)-aware allowance decided
    from norm bounds on cond(S) unless they leave it open.  A four-summand
    result thus takes no SVD or eigensolve.  Product pairs that number
    other than the summands, or that are not two finite matrices of the
    target's shape, fail ``product-form`` with the reason as its detail.
    Optional spectrum-count and gap thresholds cover the four-summand
    contract.  Failures are report entries, not exceptions.
    """
    A = as_square_matrix(T)
    certificates = [_certify(s) for s in result.summands]
    values = [c.value for c in certificates]
    failed = "".join(f"summand {i}: {c.kind} (no inverse certificate: {c.failure}; "
                     f"{c.diagnostics}); " for i, c in enumerate(certificates)
                     if c.kind == "neither")

    recon = frob(sum(values) - A) / max(frob(A), 1e-300) if values else frob(A)
    checks = [VerificationCheck(
        "reconstruction", recon <= tol, recon, tol,
        "relative Frobenius distance between the summand total and the target")]

    worst_min = min([0.0] + [float(np.linalg.eigvalsh(hermitian_part(s.P)).min())
                             for s, c in zip(result.summands, certificates) if not c.psd])
    checks.append(VerificationCheck(
        "middle-blocks-psd", all(c.psd for c in certificates), worst_min, 0.0,
        "every middle block P must be PSD"))

    checks.append(VerificationCheck(
        "summands-similar-to-positive", not failed, 1.0 if failed else 0.0, 0.0,
        failed or "all summands certified"))

    pairs, defect = _checked_pairs(result.product_form, len(certificates), A.shape[0])
    prod_ratio, prod_psd = (math.inf, False) if defect else (0.0, True)
    for s, c, pair, v in zip(result.summands, certificates, pairs, values):
        ratio, psd = _product_form_check(s.S, pair, v, c.cond_bounds)
        prod_ratio = max(prod_ratio, ratio)
        prod_psd = prod_psd and psd
    checks.append(VerificationCheck(
        "product-form", prod_ratio <= 1.0 and prod_psd, prod_ratio, 1.0,
        defect or "A_j B_j must reproduce each summand (ratio to the cond-aware bound) "
        "with PSD factors"))

    counts, gap = _summand_statistics([c.spectrum for c in certificates], A)
    if max_spectrum_points is not None:
        worst = max(counts) if counts else 0
        checks.append(VerificationCheck(
            "spectrum-point-counts", worst <= max_spectrum_points,
            float(worst), float(max_spectrum_points),
            f"distinct eigenvalues per summand: {counts}"))
    if min_pairwise_gap is not None:
        checks.append(VerificationCheck(
            "pairwise-spectra-gap", gap >= min_pairwise_gap, gap, min_pairwise_gap,
            "smallest distance between spectra of distinct summands"))

    return VerificationReport(checks=tuple(checks), passed=all(c.passed for c in checks))
