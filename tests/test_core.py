import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opsum import core
from opsum.decompose import (
    DecompositionResult,
    SimilaritySummand,
    _certify,
    make_summand,
    verify_decomposition,
)
from opsum.randmat import random_complex, random_invertible, random_psd, random_unitary

from conftest import eigenvalues_by_companion


@pytest.mark.parametrize("scale", [1e-170, 1e-320, 1e200, 1e300])
def test_frob_no_underflow_or_overflow(scale):
    M = np.array([[3.0, 0.0], [4.0j, 0.0]])
    assert core.frob(scale * M) == pytest.approx(5.0 * scale, rel=1e-15 if scale > 1e-300 else 1e-3)


def test_frob_keeps_numpy_bits_in_range(rng):
    for M in (random_complex(rng, 7), 1e-140 * random_complex(rng, 3),
              1e140 * random_complex(rng, 3)):
        assert core.frob(M) == float(np.linalg.norm(M))
    assert core.frob(np.zeros((3, 3))) == 0.0
    assert core.frob(np.array([[np.inf, 1.0]])) == np.inf
    assert np.isnan(core.frob(np.array([[np.nan, 1e-200]])))


def test_eig_diagonal():
    report = core.eig(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(report.eigenvalues, [1.0, 2.0, 3.0])
    assert report.is_real_nonnegative
    assert report.max_dist_to_rplus == 0.0


def test_eig_nilpotent():
    report = core.eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(report.eigenvalues, [0.0, 0.0])
    assert report.dimension == 2


def test_eig_matches_companion_oracle(rng):
    M = random_complex(rng, 5)
    w = core.eig(M).eigenvalues
    w_oracle = eigenvalues_by_companion(M)
    assert core.matching_distance(w, w_oracle) < 1e-8


def test_eig_rejects_bad_input():
    with pytest.raises(core.ShapeError):
        core.eig(np.ones((2, 3)))
    with pytest.raises(ValueError):
        core.eig(np.array([[np.inf, 0], [0, 1.0]]))


def test_eig_similarity_invariant(rng):
    for n in (2, 5, 16):
        M = random_complex(rng, n)
        U = random_invertible(rng, n, cond=50.0)
        w1 = core.eig(M).eigenvalues
        w2 = core.eig(U @ M @ np.linalg.inv(U)).eigenvalues
        assert core.matching_distance(w1, w2) <= 1e-7 * max(1.0, core.op_norm(M))


def test_eig_deterministic(rng):
    M = random_complex(rng, 6)
    r1, r2 = core.eig(M), core.eig(M)
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)


def test_dist_to_rplus_values():
    assert core.dist_to_rplus(-1.0) == 1.0
    assert core.dist_to_rplus(1j) == 1.0
    assert core.dist_to_rplus(-3 + 4j) == 5.0
    assert core.dist_to_rplus(2.5) == 0.0
    assert core.dist_to_rplus(0.0) == 0.0


def test_is_psd_basics(rng):
    assert core.is_psd(np.eye(3))
    assert not core.is_psd(np.diag([1.0, -1e-3]), tol=1e-9)
    Q = random_complex(rng, 4)
    assert core.is_psd(Q.conj().T @ Q)          # Gram construction oracle
    assert core.is_psd(np.zeros((2, 2)))


def test_is_psd_sum_closure(rng):
    for _ in range(20):
        A = random_psd(rng, 4)
        B = random_psd(rng, 4)
        assert core.is_psd(A + B)


def test_positivity_certificate_kinds():
    cert = core.positivity_certificate(np.array([[1.0, 1.0], [0.0, 2.0]]))
    assert cert.kind == "similar-to-positive"
    assert cert.witness is not None
    V = cert.witness
    D = np.linalg.inv(V) @ cert.subject @ V
    assert np.linalg.norm(D - np.diag(np.diagonal(D))) < 1e-8

    assert core.positivity_certificate(np.array([[0.0, 1.0], [0.0, 0.0]])).kind == "neither"
    assert core.positivity_certificate(np.diag([-1.0, 1.0])).kind == "neither"
    assert core.positivity_certificate(np.eye(2)).kind == "positive-semidefinite"


def test_positivity_certificate_repeated_eigenvalues(rng):
    # exact multiplicities stress the witness construction
    S = random_invertible(rng, 6, cond=8.0)
    M = S @ np.diag([2.0, 2.0, 2.0, 0.0, 0.0, 1.0]) @ np.linalg.inv(S)
    cert = core.positivity_certificate(M)
    assert core.is_similar_to_positive(cert)
    V = cert.witness
    D = np.real(np.linalg.inv(V) @ M @ V).diagonal()
    assert np.linalg.norm(V @ np.diag(D) @ np.linalg.inv(V) - M) < 1e-7 * core.op_norm(M)


def test_positivity_certificate_planted_family(rng):
    for n in (2, 5, 16):
        for cond in (10.0, 1e3, 1e4):
            for _ in range(5):
                V = random_invertible(rng, n, cond=cond)
                d = rng.uniform(0.0, 3.0, size=n)
                M = V @ np.diag(d) @ np.linalg.inv(V)
                cert = core.positivity_certificate(M)
                assert core.is_similar_to_positive(cert), (n, cond, cert.diagnostics)


def test_positivity_certificate_jordan_block():
    # defective: eig's eigenvector matrix is singular to working precision
    J = np.array([[1.0, 1.0], [0.0, 1.0]])
    cert = core.positivity_certificate(J)
    assert cert.kind == "neither"
    assert cert.witness is None
    assert cert.diagnostics.startswith("no eigenvector basis with condition number below")


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 8), mult=st.integers(2, 8),
       cond=st.sampled_from([1.0, 10.0, 1e2, 1e3, 1e4]), seed=st.integers(0, 2**32 - 1))
def test_positivity_certificate_repeated_eigenvalue_property(n, mult, cond, seed):
    # one eigenvalue of multiplicity >= 2 under a similarity of cond <= 1e4:
    # eig's eigenvector basis alone must certify it
    rng = np.random.default_rng(seed)
    S = random_invertible(rng, n, cond=cond)
    d = rng.uniform(0.0, 3.0, size=n)
    d[:min(mult, n)] = d[0]
    A = (S * d) @ np.linalg.inv(S)
    cert = core.positivity_certificate(A)
    assert core.is_similar_to_positive(cert), cert.diagnostics
    assert cert.scale == core.op_norm(A)


def test_certificate_records_tolerance():
    cert = core.positivity_certificate(np.eye(2), tol=1e-7)
    assert cert.tolerance == 1e-7


def test_hs_inner_identities(rng):
    n = 4
    assert core.hs_inner(np.eye(n), np.eye(n)) == pytest.approx(n)
    X = random_complex(rng, n)
    assert core.hs_inner(X, X) == pytest.approx(np.sum(np.abs(X) ** 2))
    Y = random_complex(rng, n)
    assert core.hs_inner(X, Y) == pytest.approx(np.conj(core.hs_inner(Y, X)))
    with pytest.raises(core.ShapeError):
        core.hs_inner(np.eye(2), np.eye(3))


def test_hs_inner_cauchy_schwarz(rng):
    for _ in range(25):
        X = random_complex(rng, 3)
        Y = random_complex(rng, 3)
        lhs = abs(core.hs_inner(X, Y)) ** 2
        rhs = core.hs_inner(X, X).real * core.hs_inner(Y, Y).real
        assert lhs <= rhs * (1 + 1e-10)


def test_hs_inner_positive_on_luders(rng):
    # <Phi(X), X> >= 0 checked against the vectorized quadratic form
    from opsum.elementary import ElementaryOperator
    n = 3
    op = ElementaryOperator.build(
        [(P, P) for P in (random_psd(rng, n), random_psd(rng, n))])
    Mv = op.to_matrix()
    for _ in range(10):
        X = random_complex(rng, n)
        val = core.hs_inner(op.apply(X), X).real
        x = X.flatten(order="F")
        assert val >= -1e-10
        assert val == pytest.approx(np.real(x.conj() @ Mv @ x), rel=1e-10, abs=1e-10)


def test_matching_distance():
    assert core.matching_distance([1.0, 2.0], [2.0, 1.0]) == 0.0
    assert core.matching_distance([1.0, 2.0], [1.1, 2.0]) == pytest.approx(0.1)
    with pytest.raises(core.ShapeError):
        core.matching_distance([1.0], [1.0, 2.0])
    # the minimum-sum matching 0 <-> 0, 2 <-> 2j (sum 2√2) beats the
    # bottleneck matching 0 <-> 2j, 2 <-> 0 (sum 4, largest distance 2),
    # so the value is 2√2, an upper bound on the bottleneck distance 2
    assert core.matching_distance([0, 2], [0, 2j]) == abs(2 - 2j)


def _psd_test_subject(kind, n, seed, tol=1e-9):
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((n, n), dtype=complex)
    if kind == "non-hermitian":
        return random_complex(rng, n)
    G = random_complex(rng, n)
    if kind == "hermitian":
        return G + G.conj().T
    if kind == "psd":
        return random_psd(rng, n)
    # near-PSD: smallest eigenvalue +-1e-10 at unit norm, either side of
    # the verdict for the tolerances drawn below
    U = random_unitary(rng, n)
    d = rng.uniform(0.5, 1.0, size=n)
    d[0] = 1e-10 if kind in ("near-psd-above", "band") else -1e-10
    if kind.startswith("edge"):
        # exactly Hermitian, smallest eigenvalue -(1 -+ 1e-3) tol ||M||: just
        # inside ("edge-in") or just outside ("edge-out") the PSD threshold
        d[0] = -(1.0 - 1e-3 if kind == "edge-in" else 1.0 + 1e-3) * tol * d.max()
    M = (U * d) @ U.conj().T
    M = (M + M.conj().T) / 2.0
    if not kind.startswith(("skew", "band")):
        return M
    # near-Hermitian: M + K with K skew-Hermitian, so the defect ||A - A*|| is
    # 2 ||K||.  "skew-<c>" sets it to c tol ||M||; "band" spreads the
    # singular values of K and puts tol ||M|| at a random point between
    # ||A - A*||_F / sqrt(n) and ||A - A*||_F, where no O(n^2) bound decides
    V = random_unitary(rng, n)
    if kind == "band":
        s = rng.uniform(0.0, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        s[0] = 1.0
        K = 1j * (V * s) @ V.conj().T
        F = 2.0 * np.linalg.norm(K)
        target = tol * core.op_norm(M)
        return M + K * target / (F * rng.uniform(1.0 / np.sqrt(n), 1.0))
    c = float(kind.split("-")[1])
    K = 1j * (V[:, :1] * rng.choice([-1.0, 1.0])) @ V[:, :1].conj().T
    return M + K * c * tol * core.op_norm(M) / 2.0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["hermitian", "psd", "near-psd-above", "near-psd-below",
                             "non-hermitian", "zero"]),
       n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       tol=st.sampled_from([1e-12, 1e-10, 1e-9, 1e-8]))
def test_is_psd_agrees_with_certificate(kind, n, seed, tol):
    M = _psd_test_subject(kind, n, seed)
    cert = core.positivity_certificate(M, tol)
    assert core.is_psd(M, tol) == (cert.kind == "positive-semidefinite")
    assert cert.min_eigenvalue == np.linalg.eigvalsh(core.hermitian_part(M))[0]


def _is_psd_two_svds(M, tol):
    """The PSD verdict from the exact norms ||M|| and ||M - M*||, two SVDs."""
    scale = np.linalg.norm(M, 2)
    if scale == 0.0:
        return True
    if np.linalg.norm(M - M.conj().T, 2) > tol * scale:
        return False
    return np.linalg.eigvalsh((M + M.conj().T) / 2.0)[0] >= -tol * scale


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["skew-0.5", "skew-0.99", "skew-1.01", "skew-2", "band",
                             "hermitian", "psd", "near-psd-above", "near-psd-below",
                             "edge-in", "edge-out", "non-hermitian", "zero"]),
       n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       tol=st.sampled_from([1e-12, 1e-10, 1e-9, 1e-8]))
def test_is_psd_screens_agree_with_exact_norms(kind, n, seed, tol):
    # the O(n^2) screens decide only with room to spare, so every verdict,
    # near-Hermitian subjects on either side of the defect threshold included,
    # is the one two SVDs give
    M = _psd_test_subject(kind, n, seed, tol)
    assert core.is_psd(M, tol) == _is_psd_two_svds(M, tol)
    assert (core.positivity_certificate(M, tol).kind == "positive-semidefinite") \
        == _is_psd_two_svds(M, tol)


@pytest.mark.parametrize("n", [2, 16, 64, 128, 256])
@pytest.mark.parametrize("tol", [1e-9, 1e-8])
@pytest.mark.parametrize("kind", ["edge-in", "edge-out"])
def test_is_psd_cholesky_screen_at_the_threshold(kind, n, tol):
    # exactly Hermitian subjects take the Cholesky screen; it must never
    # accept a subject that the two-SVD oracle rejects
    for seed in range(3):
        M = _psd_test_subject(kind, n, seed, tol)
        assert np.array_equal(M, M.conj().T)
        expected = _is_psd_two_svds(M, tol)
        assert expected == (kind == "edge-in")
        assert core.is_psd(M, tol) == expected
        if not expected:
            assert not core._cholesky_clears(M, tol * core.op_norm(M))


@pytest.mark.parametrize("n", [2, 16, 64, 256])
def test_cholesky_screen_accepts_psd_and_proves_its_bound(n):
    # a factorization proves lam_min >= -bound; the screen accepts PSD
    # subjects, spread spectra included, and rejects a negative eigenvalue
    # beyond the bound
    rng = np.random.default_rng(n)
    U = random_unitary(rng, n)
    for d in (rng.uniform(0.5, 1.0, n), np.logspace(-12, 0, n), np.zeros(n)):
        d = d.copy()
        d[0] = 0.0
        M = (U * d) @ U.conj().T
        M = (M + M.conj().T) / 2.0
        if d.any():
            assert core._cholesky_clears(M, 1e-9)
            assert core.is_psd(M)
        d[0] = -2e-9
        M = (U * d) @ U.conj().T
        assert not core._cholesky_clears((M + M.conj().T) / 2.0, 1e-9)


@pytest.mark.parametrize("c, expected", [(0.5, True), (0.99, True), (1.01, False), (2.0, False)])
def test_is_psd_defect_threshold(c, expected):
    # the skew subjects land on the side of the threshold that c says
    M = _psd_test_subject(f"skew-{c}", 6, 3, 1e-9)
    assert core.is_psd(M, 1e-9) is expected


def test_is_psd_tiny_entries_keep_exact_verdict():
    # a defect whose squares underflow in a plain Frobenius norm
    M = 1e-170 * np.array([[1.0, 1.0], [0.0, 1.0]])
    assert not core.is_psd(M)
    assert core.is_psd(1e-170 * np.eye(3))


def _lifted_summand(y_scale):
    """S P S^-1 for S = [[I, x], [y, I + y x]], P = diag(0.3 I, 0.8 I), k = 32."""
    k = 32
    rng = np.random.default_rng(32)
    x = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    y = y_scale * (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    eye = np.eye(k)
    S = np.block([[eye, x], [y, eye + y @ x]])
    P = np.diag(np.repeat([0.3, 0.8], k)).astype(complex)
    return S, P, np.linalg.solve(S.T, (S @ P).T).T


def _similarity_check(s):
    """verify's summands-similar-to-positive check of the one-summand result
    s, with its own value as the target."""
    n = s.S.shape[0]
    result = DecompositionResult(
        summands=(s,), reconstruction_residual=0.0, spectra_point_counts=(1,),
        pairwise_spectra_gap=np.inf, product_form=((np.eye(n), s.value),),
        method="hand-built")
    checks = {c.name: c for c in verify_decomposition(s.value, result).checks}
    return checks["summands-similar-to-positive"]


def test_certificate_accepts_summand_witness_where_eig_basis_fails():
    # eig picks an arbitrary basis of each 32-dimensional eigenspace, above
    # the cap; the summand's own S, proven invertible by its S^-1 and below
    # the cap with unit columns, certifies it with no eigensolve
    S, P, v = _lifted_summand(100.0)
    assert core.positivity_certificate(v, 1e-8).kind == "neither"
    s = make_summand(S, P)
    cert = _certify(s)
    assert cert.failure == ""
    assert np.array_equal(cert.spectrum, np.sort(np.diagonal(P).real))
    sim = _similarity_check(s)
    assert sim.passed, sim.detail


def test_certificate_witness_cannot_rescue_near_singular_similarity():
    S, P, v = _lifted_summand(1000.0)
    assert np.linalg.cond(S) > 1e10
    assert core.positivity_certificate(v, 1e-8).kind == "neither"
    s = make_summand(S, P)
    assert _certify(s).failure.startswith("condition number")
    sim = _similarity_check(s)
    assert not sim.passed
    assert sim.detail.startswith("summand 0: neither (no inverse certificate: condition number")


@pytest.mark.parametrize("subject", ["similar", "spectrum-off", "jordan", "psd"])
def test_certificate_wrong_witness_changes_nothing(subject, rng):
    # the summand S P S^-1 = M with S = I and P = M, carried with a wrong
    # S^-1: the inverse certificate fails and verify gives M's own verdict
    n = 6
    if subject == "similar":
        V = random_invertible(rng, n, cond=50.0)
        M = (V * rng.uniform(0.0, 3.0, size=n)) @ np.linalg.inv(V)
    elif subject == "spectrum-off":
        M = random_complex(rng, n)
    elif subject == "jordan":
        M = np.eye(n) + np.diag(np.ones(n - 1), 1)
    else:
        M = random_psd(rng, n)
    M = M.astype(complex)
    plain = core.positivity_certificate(M, 1e-8)
    for _ in range(5):
        s = SimilaritySummand(S=np.eye(n, dtype=complex), P=M, condition_number=1.0,
                              S_inv=random_complex(rng, n))
        assert _certify(s).failure.startswith("S_inv is not S^-1 to working precision")
        assert _similarity_check(s).passed == core.is_similar_to_positive(plain)


def test_certificate_witness_column_scaling_is_irrelevant(rng):
    # the certificate scales S to unit columns, so scaling the columns of S,
    # which leaves S P S^-1 unchanged for a diagonal P, changes no verdict
    for y_scale in (1.0, 100.0, 1000.0):
        S, P, v = _lifted_summand(y_scale)
        base = _certify(make_summand(S, P)).failure == ""
        assert base == (y_scale < 1000.0)
        for _ in range(3):
            f = np.exp(rng.uniform(-8.0, 8.0, size=S.shape[1]))
            assert (_certify(make_summand(S * f, P)).failure == "") == base


def test_candidate_witness_condition_cap_is_1e8():
    # unit columns at angle 2 / c apart have condition number c; the inverse
    # certificate caps cond(S) with unit columns at 1e8
    def basis(cond):
        return np.array([[1.0, np.cos(2.0 / cond)], [0.0, np.sin(2.0 / cond)]])
    s = make_summand(basis(0.99e8), np.diag([1.0, 2.0]))
    assert _certify(s).failure == ""
    assert _similarity_check(s).passed
    V = basis(1.01e8)
    s = make_summand(V, np.diag([1.0, 2.0]))
    assert _certify(s).failure == (
        "condition number 1.010e+08 of the diagonalizing basis with unit columns above 1.0e+08")
    assert not _similarity_check(s).passed
    # for a non-diagonal P the cap applies to S W, P = W diag(p) W*, with
    # unit columns: here S itself has unit-column condition number near 1
    W = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    P = np.array([[1.5, -0.5], [-0.5, 1.5]])
    for cond, passed in ((0.99e8, True), (1.01e8, False)):
        S = basis(cond) @ W.T
        assert np.linalg.cond(S / np.linalg.norm(S, axis=0)) < 10.0
        s = make_summand(S, P)
        assert (_certify(s).failure == "") == passed
        assert _similarity_check(s).passed == passed
    assert _certify(s).failure.startswith("condition number 1.01")
    # positivity_certificate takes no candidate witness
    M = s.value
    with pytest.raises(TypeError):
        core.positivity_certificate(M, cond_cap=1e9)
    with pytest.raises(TypeError):
        core.positivity_certificate(M, witness=V)
    with pytest.raises(TypeError):
        core.positivity_certificate(M, 1e-9, V)
