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
spectrum off its Hermitian middle P (S P S^-1 and P share their spectrum)
and forms its product form from the S^-1 the summand was built with.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_COND_CAP,
    DEFAULT_TOL,
    ShapeError,
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


@dataclass(frozen=True)
class SimilaritySummand:
    """A summand S P S^-1 with S invertible and P positive semidefinite.

    ``S_inv`` is the S^-1 the summand was built with: ``inv(S)`` from
    :func:`make_summand`, the closed form from the four-summand table.
    """

    S: np.ndarray
    P: np.ndarray
    value: np.ndarray
    condition_number: float
    S_inv: np.ndarray

    def candidate_witness(self) -> np.ndarray:
        """S W with P = W diag(p) W* from ``eigh``: a basis that diagonalizes
        S P S^-1 when P is Hermitian, for :func:`positivity_certificate`.

        For a diagonal P, W = I serves, so the candidate is a copy of S and
        no eigensolve runs.  The certificate reads no meaning into the order
        of the columns.
        """
        p = np.diagonal(self.P)
        if np.count_nonzero(self.P) == np.count_nonzero(p):
            return self.S.copy()
        return self.S @ np.linalg.eigh(self.P)[1]


def make_summand(S, P) -> SimilaritySummand:
    """Build a summand, caching its value, S^-1 and the similarity conditioning."""
    S = as_square_matrix(S, "S")
    return _summand(S, as_square_matrix(P, "P"), float(np.linalg.cond(S)))


def _summand(S, P, cond: float, S_inv: np.ndarray | None = None) -> SimilaritySummand:
    """:func:`make_summand` with cond(S), and possibly S^-1, known; the value
    keeps the backward-stable ``solve``, more accurate than (S P) inv(S)."""
    value = np.linalg.solve(S.T, (S @ P).T).T   # (S P) S^-1
    return SimilaritySummand(S=S, P=P, value=value, condition_number=cond,
                             S_inv=np.linalg.inv(S) if S_inv is None else S_inv)


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
    zero = np.zeros((n, n), dtype=complex)
    summands = (make_summand(np.eye(n, dtype=complex), zero),) * m
    return _finish(zero, summands, method, {"note": "zero target"})


def _distinct_points(values, resolution) -> int:
    pts: list[complex] = []
    for v in np.asarray(values, dtype=complex).ravel():
        if not any(abs(v - p) <= resolution for p in pts):
            pts.append(v)
    return len(pts)


def _summand_statistics(spectra, scale) -> tuple[tuple, float]:
    """Distinct spectrum sizes per summand and the min cross-summand gap."""
    res = 1e-7 * max(1.0, scale)
    counts = tuple(_distinct_points(w, res) for w in spectra)
    gap = math.inf
    for i in range(len(spectra)):
        for j in range(i + 1, len(spectra)):
            d = np.abs(spectra[i][:, None] - spectra[j][None, :]).min()
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
    _check_product_cond(cond)   # before solve and inv can meet a singular S
    return _positive_product(_summand(S, P, cond))


def _check_product_cond(cond: float):
    if not cond <= PRODUCT_COND_CAP:   # nan included
        raise ValueError(f"S is numerically singular (cond {cond:.3e})")


def _positive_product(s: SimilaritySummand):
    """(S S*, (S^-1)* P S^-1) of a summand, from its own S^-1."""
    _check_product_cond(s.condition_number)
    if not is_psd(s.P):
        raise ValueError("P is not positive semidefinite")
    A = s.S @ s.S.conj().T
    B = s.S_inv.conj().T @ s.P @ s.S_inv
    return hermitian_part(A), hermitian_part(B)


def _finish(T, summands, method: str, diagnostics: dict) -> DecompositionResult:
    """Residual, spectrum statistics and product form of finished summands.

    Each value S P S^-1 has the spectrum of its middle P, and every pipeline
    builds P with ``np.diag``, so the statistics read each spectrum off the
    sorted diagonal of P; the product form reuses the cached cond(S) and
    S^-1 of every summand.
    """
    summands = tuple(summands)
    residual = frob(sum(s.value for s in summands) - T) / max(frob(T), 1e-300)
    counts, gap = _summand_statistics(
        [np.sort(np.diagonal(s.P).real) for s in summands], op_norm(T))
    return DecompositionResult(
        summands=summands, reconstruction_residual=float(residual),
        spectra_point_counts=counts, pairwise_spectra_gap=gap,
        product_form=tuple(map(_positive_product, summands)),
        method=method, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# four summands (constructive)
# ---------------------------------------------------------------------------

#: Fractions of beta given to b_2, b_3, b_4.
B_WEIGHTS = (0.2, 0.3, 0.5)


def _table_summand(x, y, p: float, q: float) -> SimilaritySummand:
    """The summand S diag(p I, q I) S^-1 with S = [[I, x], [y, I + y x]].

    The leading block of S and its Schur complement are both I, so
    S^-1 = [[I + x y, -x], [-y, I]] in closed form: neither the value nor
    the product form factors S.
    """
    eye = np.eye(x.shape[0], dtype=complex)
    S = np.block([[eye, x], [y, eye + y @ x]])
    S_inv = np.block([[eye + x @ y, -x], [-y, eye]])
    d = np.repeat([p, q], x.shape[0])
    return SimilaritySummand(
        S=S, P=np.diag(d).astype(complex), value=(S * d) @ S_inv,
        condition_number=float(np.linalg.cond(S)), S_inv=S_inv)


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
    recorded margin min(1e-3, beta/10, delta/10).

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

    # similarity pairs (x_j, y_j) of the table summands
    zero = np.zeros((k, k), dtype=complex)
    similarities = ((x1, zero), (zero, y2), (x3, eye), (x4, y4))
    summands = tuple(_table_summand(x, y, p, q)
                     for (x, y), (p, q) in zip(similarities, middles))
    return _finish(A_full, summands, "four-term", {
        "delta": delta, "beta": beta, "trace_a1": tr_a1,
        "b_weights": B_WEIGHTS,
        "sep_margin": sep_goal,
        "block_identity_residual": float(block_identity),
        "commutator_residual": comm.residual,
    })


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
    repeated) otherwise; V is inverted once.
    """
    cert = check_obstruction(A)
    if cert is not None:
        return cert
    if not A.any():
        return _zero_result(A.shape[0], m, "shortcut")
    pc = positivity_certificate(A)
    if not is_similar_to_positive(pc):
        return None
    V = pc.witness
    V_inv = np.linalg.inv(V)
    d = np.maximum(np.real(V_inv @ A @ V).diagonal(), 0.0)
    if m == 2:
        middles = (d - d.min(), np.full_like(d, d.min()))
        note = "smallest-eigenvalue split of a positive-like target"
    else:
        middles = (d / m,)
        note = f"target already {pc.kind}; split into {m} equal parts"
    cond = float(np.linalg.cond(V))
    summands = [_summand(V, np.diag(p).astype(complex), cond, V_inv) for p in middles]
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
    the reconstruction misses :data:`CONSTRUCTIVE_TOL` or the
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
        # gate before solve and inv: eig may return an exactly singular V
        if not cond <= DEFAULT_COND_CAP:
            return None, f"cond(S) {cond:.1e} above {DEFAULT_COND_CAP:.0e}"
        summands.append(_summand(S, np.diag(w.real).astype(complex), cond))
    summands += summands[-1:] * (m - 2)   # for m = 3 the two halves are one summand
    result = _finish(T, summands, "constructive",
                     {"note": "triangular split of the zero-diagonal form"})
    residual = result.reconstruction_residual
    if not residual <= CONSTRUCTIVE_TOL:
        return None, f"reconstruction {residual:.1e} above {CONSTRUCTIVE_TOL:.0e}"
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
    reconstruction misses :data:`CONSTRUCTIVE_TOL` or the
    zero-diagonalization fails, raises :class:`DeclinedError` (a
    ``RuntimeError``) whose message gives the reason.  ``config`` is
    deprecated and unread.
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


def verify_decomposition(
    T,
    result: DecompositionResult,
    tol: float = 1e-6,
    max_spectrum_points: int | None = None,
    min_pairwise_gap: float | None = None,
) -> VerificationReport:
    """Recompute every claim of a decomposition from scratch.

    Nothing cached in the result is trusted: summand values are rebuilt from
    (S, P), the reconstruction residual is recomputed, each middle block is
    re-tested for positive semidefiniteness, each summand value is
    re-certified similar to positive (the candidate witness S W, with W from
    ``eigh(P)`` or S itself for a diagonal P, is checked against the
    recomputed value, and ``eig`` runs only when it fails), and the product
    form is re-multiplied.
    Optional spectrum-count and gap thresholds cover the four-summand
    contract.  Failures are report entries, not exceptions.
    """
    A = as_square_matrix(T)
    scale = max(1.0, frob(A))
    checks = []

    values = []
    cache_dev = 0.0
    for s in result.summands:
        v = np.linalg.solve(s.S.T, (s.S @ s.P).T).T
        values.append(v)
        cache_dev = max(cache_dev, frob(v - s.value) / max(1.0, frob(v)))
    checks.append(VerificationCheck(
        "cached-values", cache_dev <= 1e-10, cache_dev, 1e-10,
        "recomputed S P S^-1 against cached summand values"))

    recon = frob(sum(values) - A) / max(frob(A), 1e-300) if values else frob(A)
    checks.append(VerificationCheck(
        "reconstruction", recon <= tol, recon, tol,
        "relative Frobenius distance between the summand total and the target"))

    psd_ok, worst_min = True, 0.0
    for s in result.summands:
        if not is_psd(s.P, DEFAULT_TOL):
            psd_ok = False
            worst_min = min(worst_min,
                            float(np.linalg.eigvalsh(hermitian_part(s.P)).min()))
    checks.append(VerificationCheck(
        "middle-blocks-psd", psd_ok, worst_min, 0.0,
        "every middle block P must be PSD"))

    sim_ok = True
    worst_kind = ""
    spectra = []
    for i, (s, v) in enumerate(zip(result.summands, values)):
        cert = positivity_certificate(v, tol=1e-8, witness=s.candidate_witness())
        spectra.append(cert.eigenvalues)
        if not is_similar_to_positive(cert):
            sim_ok = False
            worst_kind += f"summand {i}: {cert.kind} ({cert.diagnostics}); "
    checks.append(VerificationCheck(
        "summands-similar-to-positive", sim_ok, 0.0 if sim_ok else 1.0, 0.0,
        worst_kind or "all summands certified"))

    # forming S S* and (S^-1)* P S^-1 squares the conditioning of S, so the
    # product residual is checked against a cond(S)^2-aware floor
    prod_ratio = 0.0
    prod_psd = True
    for s, (Af, Bf), v in zip(result.summands, result.product_form, values):
        cond = float(np.linalg.cond(s.S))
        allowed = max(1e-8, 100.0 * np.finfo(float).eps * cond * cond)
        dev = frob(Af @ Bf - v) / max(1.0, frob(v))
        prod_ratio = max(prod_ratio, dev / allowed)
        prod_psd = prod_psd and is_psd(Af, 1e-8) and is_psd(Bf, 1e-8)
    checks.append(VerificationCheck(
        "product-form", prod_ratio <= 1.0 and prod_psd, prod_ratio, 1.0,
        "A_j B_j must reproduce each summand (ratio to the cond-aware bound) "
        "with PSD factors"))

    counts, gap = _summand_statistics(spectra, op_norm(A))
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
