import time

import numpy as np
import pytest
import scipy.linalg

from opsum import core, elementary
from opsum.core import ShapeError, dist_to_rplus, eig, frob, matching_distance, op_norm
from opsum.elementary import (
    ElementaryOperator,
    GridSpec,
    UnattainableEigenvalueError,
    hs_positivity,
    plant_luders_eigenvalue,
    pseudospectrum,
)
from opsum.randmat import random_complex, random_psd, random_unitary, scalar_product_pairs

from conftest import superop_by_matrix_units


def luders_from(rng, n, m):
    return ElementaryOperator.build([(P, P) for P in (random_psd(rng, n) for _ in range(m))])


# --- construction -----------------------------------------------------------

def test_build_identity_is_luders():
    op = ElementaryOperator.build([(np.eye(2), np.eye(2))])
    assert op.is_luders and op.length == 1 and op.dim == 2


def test_build_projection_is_luders():
    P = np.diag([1.0, 0.0])
    assert ElementaryOperator.build([(P, P)]).is_luders


def test_build_non_psd_not_luders():
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert not ElementaryOperator.build([(N, np.eye(2))]).is_luders


def test_build_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ElementaryOperator.build([])
    with pytest.raises(ShapeError):
        ElementaryOperator.build([(np.eye(2), np.eye(3))])
    with pytest.raises(ShapeError):
        ElementaryOperator.build([(np.eye(2), np.eye(2)), (np.eye(3), np.eye(3))])


# --- apply / vectorize ------------------------------------------------------

def test_apply_identity_map(rng):
    op = ElementaryOperator.build([(np.eye(3), np.eye(3))])
    X = random_complex(rng, 3)
    assert np.allclose(op.apply(X), X)


def test_apply_linear(rng):
    op = luders_from(rng, 3, 2)
    X, Y = random_complex(rng, 3), random_complex(rng, 3)
    a, b = 0.7 - 0.2j, -1.1 + 0.4j
    lhs = op.apply(a * X + b * Y)
    rhs = a * op.apply(X) + b * op.apply(Y)
    assert frob(lhs - rhs) <= 1e-12 * max(1.0, frob(rhs))


def test_vectorize_identity():
    op = ElementaryOperator.build([(np.eye(3), np.eye(3))])
    assert np.allclose(op.to_matrix(), np.eye(9))


def test_vectorize_matches_application(rng):
    A, B = random_complex(rng, 3), random_complex(rng, 3)
    op = ElementaryOperator.build([(A, B)])
    M = op.to_matrix()
    X = random_complex(rng, 3)
    lhs = M @ X.flatten(order="F")
    rhs = (A @ X @ B).flatten(order="F")
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))


def test_vectorize_additive(rng):
    pairs = [(random_complex(rng, 2), random_complex(rng, 2)) for _ in range(2)]
    M = ElementaryOperator.build(pairs).to_matrix()
    M_sum = sum(ElementaryOperator.build([p]).to_matrix() for p in pairs)
    assert np.allclose(M, M_sum)


# --- spectrum ---------------------------------------------------------------

def test_spectrum_left_multiplication():
    A = np.diag([1.0, 2.0])
    op = ElementaryOperator.build([(A, np.eye(2))])
    w = op.spectrum().eigenvalues
    assert matching_distance(w, [1.0, 1.0, 2.0, 2.0]) < 1e-12


def test_spectrum_identity_n3():
    op = ElementaryOperator.build([(np.eye(3), np.eye(3))])
    assert matching_distance(op.spectrum().eigenvalues, np.ones(9)) < 1e-12


def test_spectrum_matches_matrix_unit_oracle(rng):
    for n, m in [(2, 1), (3, 2), (4, 3), (6, 4)]:
        pairs = [(random_complex(rng, n), random_complex(rng, n)) for _ in range(m)]
        op = ElementaryOperator.build(pairs)
        M_oracle = superop_by_matrix_units(op.apply, n)
        w1 = op.spectrum().eigenvalues
        w2 = np.linalg.eigvals(M_oracle)
        assert matching_distance(w1, w2) <= 1e-8


def test_spectrum_scaling_covariance(rng):
    op = luders_from(rng, 3, 2)
    c = 0.8 - 1.3j
    scaled = ElementaryOperator.build([(c * A, B) for A, B in op.pairs])
    w1 = c * op.spectrum().eigenvalues
    w2 = scaled.spectrum().eigenvalues
    assert matching_distance(w1, w2) <= 1e-9 * max(1.0, np.abs(w1).max())


def test_spectrum_psd_coefficients_nonnegative(rng):
    for _ in range(15):
        op = luders_from(rng, 4, 3)
        report = op.spectrum()
        assert report.max_dist_to_rplus <= 1e-9 * max(1.0, op_norm(op.to_matrix()))


# --- positivity on the trace inner product ----------------------------------

def test_hs_positivity_luders(rng):
    for n, m in [(2, 2), (4, 3), (6, 4)]:
        op = luders_from(rng, n, m)
        rep = hs_positivity(op)
        M = op.to_matrix()
        assert op_norm(M - M.conj().T) <= 1e-10 * max(1.0, op_norm(M))
        assert rep.certificate.min_eigenvalue >= -1e-10 * max(1.0, op_norm(M))
        assert rep.coefficients_psd


def test_hs_positivity_psd_residual_takes_no_svd(rng, monkeypatch):
    # the PSD witness residual is the Frobenius norm of (V * max(d, 0)) V* - M,
    # an upper bound on its operator norm; no N x N op_norm runs
    n = 4
    op = ElementaryOperator.build([(random_psd(rng, n), random_psd(rng, n)) for _ in range(2)])
    M = op.to_matrix()
    assert np.array_equal(M, M.conj().T)
    sizes = []
    original = core.op_norm
    monkeypatch.setattr(core, "op_norm",
                        lambda X: sizes.append(np.shape(X)[0]) or original(X))
    cert = hs_positivity(op).certificate
    assert n * n not in sizes
    assert cert.kind == "positive-semidefinite"
    d, V = np.linalg.eigh(M)
    assert np.array_equal(cert.witness, V)
    R = (V * np.maximum(d, 0.0)) @ V.conj().T - M
    assert cert.witness_residual == frob(R)
    assert cert.witness_residual >= original(R)


def test_hs_positivity_commuting_side(rng):
    # two-sided operator with commuting left coefficients, PSD everywhere
    n = 3
    U = random_unitary(rng, n)
    A1 = (U * rng.uniform(0.5, 2.0, n)) @ U.conj().T
    A2 = (U * rng.uniform(0.5, 2.0, n)) @ U.conj().T
    B1, B2 = random_psd(rng, n), random_psd(rng, n)
    op = ElementaryOperator.build([(A1, B1), (A2, B2)])
    rep = hs_positivity(op)
    assert rep.commuting_side == "left"
    assert rep.spectrum.max_dist_to_rplus <= 1e-9 * max(1.0, op_norm(op.to_matrix()))


def test_hs_positivity_commuting_right_side(rng):
    # the length-two case with generic PSD A_j and commuting diagonal PSD B_j
    n = 3
    A1, A2 = random_psd(rng, n), random_psd(rng, n)
    B1, B2 = np.diag(rng.uniform(0.5, 2.0, n)), np.diag(rng.uniform(0.5, 2.0, n))
    op = ElementaryOperator.build([(A1, B1), (A2, B2)])
    rep = hs_positivity(op)
    assert rep.commuting_side == "right"
    assert rep.spectrum.is_real_nonnegative


def test_hs_positivity_certificate_records_scale(rng):
    op = ElementaryOperator.build([(random_complex(rng, 3), random_psd(rng, 3))
                                   for _ in range(2)])
    assert hs_positivity(op).certificate.scale == op_norm(op.to_matrix())


def test_hs_positivity_non_psd_coefficient():
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    op = ElementaryOperator.build([(N, np.eye(2))])
    rep = hs_positivity(op)
    assert rep.certificate.kind == "neither"
    assert not rep.coefficients_psd


@pytest.mark.parametrize("psd", [True, False])
def test_hs_positivity_spectrum_is_eig_report(psd, rng):
    # built from the certificate's eigenvalues, bit for bit what eig reports
    n = 4
    draw = random_psd if psd else random_complex
    op = ElementaryOperator.build([(draw(rng, n), draw(rng, n)) for _ in range(2)])
    got, want = hs_positivity(op).spectrum, op.spectrum()
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert got.max_dist_to_rplus == want.max_dist_to_rplus
    assert got.is_real_nonnegative == want.is_real_nonnegative
    assert got.tolerance == want.tolerance
    assert got.is_real_nonnegative is psd


# --- planted eigenvalue -----------------------------------------------------

def test_plant_eigenvalue_scalar_case():
    demo = plant_luders_eigenvalue(2.0, [(np.array([[2.0]]), np.array([[1.0]]))])
    assert np.allclose(demo.block_coefficients[0], np.diag([2.0, 1.0]))
    assert demo.eigen_residual <= 1e-10 * 2.0
    out = demo.operator.apply(demo.eigenvector)
    assert frob(out - 2.0 * demo.eigenvector) <= 1e-12


def test_plant_eigenvalue_zero():
    demo = plant_luders_eigenvalue(0.0, [(np.zeros((1, 1)), np.zeros((1, 1)))])
    assert demo.eigen_residual == 0.0


def test_plant_eigenvalue_random_pairs(rng):
    for lam in (0.5, 2.0, 7.0):
        pairs = scalar_product_pairs(lam, k=3, m=3, rng=rng)
        demo = plant_luders_eigenvalue(lam, pairs)
        assert demo.eigen_residual <= 1e-10 * max(1.0, lam)
        assert demo.operator.is_luders
        # lam really is an eigenvalue of the vectorized operator
        w = demo.operator.spectrum().eigenvalues
        assert np.min(np.abs(w - lam)) <= 1e-8 * max(1.0, lam)


@pytest.mark.parametrize("lam", [-1.0, 1j, -2 + 1j])
def test_plant_eigenvalue_rejects_off_axis(lam):
    pairs = [(np.eye(2), np.eye(2))]
    with pytest.raises(UnattainableEigenvalueError) as err:
        plant_luders_eigenvalue(lam, pairs)
    assert err.value.bound == dist_to_rplus(lam)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), complex(1.0, float("nan"))])
def test_plant_eigenvalue_rejects_non_finite(lam):
    # nan and 1+nanj used to slip past the trace bound (dist_to_rplus is nan)
    with pytest.raises(ValueError, match="lambda must be finite"):
        plant_luders_eigenvalue(lam, scalar_product_pairs(1.0, 2, 3))


@pytest.mark.parametrize("pairs, message", [
    ([(np.eye(2), np.eye(3)), (np.eye(2), np.eye(2))], r"pair 0: A is \(2, 2\), B is \(3, 3\)"),
    ([(np.eye(2), np.eye(2)), (np.eye(3), np.eye(3))], "pair 1 has dimension 3, expected 2"),
    ([(np.eye(2), np.eye(2)), (np.ones((2, 3)), np.eye(2))], r"A_1 must be square"),
])
def test_plant_eigenvalue_names_bad_shapes(monkeypatch, pairs, message):
    # the shape check names the pair, as ElementaryOperator.build does, and
    # comes before the PSD screen and any product
    monkeypatch.setattr(elementary, "is_psd", lambda *a: pytest.fail("is_psd called"))
    with pytest.raises(ShapeError, match=f"^{message}"):
        plant_luders_eigenvalue(1.0, pairs)


def test_plant_eigenvalue_rejects_bad_pairs():
    with pytest.raises(ValueError):
        plant_luders_eigenvalue(2.0, [(np.eye(2), np.eye(2))])   # sums to I != 2I
    with pytest.raises(ValueError):
        plant_luders_eigenvalue(1.0, [(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))])


# --- pseudospectrum ---------------------------------------------------------

def test_pseudospectrum_hits_eigenvalue(rng):
    op = luders_from(rng, 2, 2)
    lam = float(op.spectrum().eigenvalues[0].real)
    grid = pseudospectrum(op, GridSpec(lam, lam, 0.0, 0.0, 1))
    assert grid.sigma_min[0, 0] <= 1e-8 * max(1.0, op_norm(op.to_matrix()))


def test_pseudospectrum_hermitian_resolvent_bound(rng):
    op = luders_from(rng, 2, 2)
    grid = pseudospectrum(op, GridSpec(-1.0, -1.0, 0.0, 0.0, 1))
    # Hermitian PSD superoperator: sigma_min(M + I) = 1 + lambda_min >= 1
    assert grid.sigma_min[0, 0] >= 1.0 - 1e-8


def test_pseudospectrum_matches_svd_oracle(rng):
    op = luders_from(rng, 2, 2)
    M = op.to_matrix()
    grid = pseudospectrum(op, GridSpec(-0.5, 1.5, -0.5, 0.5, 4))
    for re, im, smin in grid.rows():
        shifted = M - (re + 1j * im) * np.eye(M.shape[0])
        oracle = np.sqrt(max(np.linalg.eigvalsh(shifted.conj().T @ shifted)[0], 0.0))
        assert abs(smin - oracle) <= 1e-9 * max(1.0, oracle)


def test_pseudospectrum_rejects_empty_grid():
    with pytest.raises(ValueError):
        GridSpec(0, 1, 0, 1, 0)


@pytest.mark.parametrize("corners", [
    (float("nan"), 1, 0, 1), (0, float("inf"), 0, 1), (0, 1, float("-inf"), 1),
    (0, 1, 0, float("nan"))])
def test_grid_rejects_non_finite_corners(corners):
    with pytest.raises(ValueError, match="grid corners must be finite"):
        GridSpec(*corners, 3)


def _svd_sigma_min(M, grid):
    """Per-point SVD of M - zI over the grid: the definition, as an oracle."""
    re = np.linspace(grid.re0, grid.re1, grid.steps)
    im = np.linspace(grid.im0, grid.im1, grid.steps)
    eye = np.eye(M.shape[0])
    return np.array([[np.linalg.svd(M - (a + 1j * b) * eye, compute_uv=False)[-1]
                      for a in re] for b in im])


def _shift(n):
    return np.diag(np.ones(n - 1), 1)


def _pairs(kind, rng, n):
    if kind == "generic":
        return [(random_complex(rng, n), random_complex(rng, n)) for _ in range(2)]
    if kind == "mixed":
        return [(random_psd(rng, n), random_complex(rng, n)) for _ in range(2)]
    if kind == "nilpotent":
        return [(_shift(n), np.eye(n)), (np.eye(n), _shift(n).T)]
    if kind == "jordan":
        return [(0.5 * np.eye(n) + _shift(n), 0.3 * np.eye(n) + _shift(n))]
    if kind == "luders":
        return [(P, P) for P in (random_psd(rng, n) for _ in range(3))]
    raise ValueError(kind)


@pytest.mark.parametrize("kind", ["generic", "mixed", "nilpotent", "jordan", "luders"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pseudospectrum_matches_per_point_svd(kind, n, rng):
    op = ElementaryOperator.build(_pairs(kind, rng, n))
    M = op.to_matrix()
    scale = max(1.0, op_norm(M))
    # a grid around the whole spectrum and a fine one near the origin
    for grid in (GridSpec(-0.3 * scale, 1.2 * scale, -0.6 * scale, 0.6 * scale, 7),
                 GridSpec(-0.05, 0.07, -0.03, 0.04, 5)):
        got = pseudospectrum(op, grid).sigma_min
        assert np.max(np.abs(got - _svd_sigma_min(M, grid))) <= 1e-12 * scale


def test_pseudospectrum_triangular_coefficient():
    # at z = 0.3 the smallest right singular vector of the Schur factor
    # T - zI is orthogonal to the all-ones vector, which a ones start
    # vector for Lanczos would miss
    op = ElementaryOperator.build([(np.array([[1.3, 0.6], [0.0, 1.1]]), np.eye(2))])
    grid = GridSpec(0.0, 1.0, 0.0, 0.0, 11)
    got = pseudospectrum(op, grid).sigma_min
    assert np.max(np.abs(got - _svd_sigma_min(op.to_matrix(), grid))) <= 1e-12 * 2.0


@pytest.mark.parametrize("kind", ["generic", "luders"])
def test_pseudospectrum_zero_on_schur_diagonal(kind, rng):
    # the points are the eigenvalues of the factorization the grid reads:
    # the Schur diagonal, or eigh's for the Hermitian Lüders superoperator
    op = ElementaryOperator.build(_pairs(kind, rng, 3))
    for lam in op.spectrum().eigenvalues[::2]:
        grid = GridSpec(lam.real, lam.real, lam.imag, lam.imag, 1)
        assert pseudospectrum(op, grid).sigma_min[0, 0] == 0.0


@pytest.mark.parametrize("a, b", [(2.0, 3.0), (1 + 2j, -0.5j), (0.0, 1.0)])
def test_pseudospectrum_scalar_coefficients(a, b):
    op = ElementaryOperator.build([(np.array([[a]]), np.array([[b]]))])
    grid = pseudospectrum(op, GridSpec(-1.0, 2.0, -1.0, 1.0, 5))
    z = grid.re[None, :] + 1j * grid.im[:, None]
    assert np.max(np.abs(grid.sigma_min - np.abs(a * b - z))) <= 1e-15 * max(1.0, abs(a * b))


def test_pseudospectrum_near_normal_matches_svd(rng):
    # Hermitian superoperator plus a 1e-6 non-normal part: far above the
    # N eps ||T||_F the distance-to-diagonal shortcut allows
    n = 4
    H = random_psd(rng, n)
    op = ElementaryOperator.build([(H, np.eye(n)), (1e-6 * _shift(n), np.eye(n))])
    M = op.to_matrix()
    scale = max(1.0, op_norm(M))
    for grid in (GridSpec(-0.5, 1.5 * scale, -0.5, 0.5, 9),
                 GridSpec(0.0, 0.4, -1e-5, 1e-5, 9)):
        got = pseudospectrum(op, grid).sigma_min
        assert np.max(np.abs(got - _svd_sigma_min(M, grid))) <= 1e-12 * scale


@pytest.mark.parametrize("kind", ["generic", "luders"])
def test_pseudospectrum_deterministic(kind, rng):
    op = ElementaryOperator.build(_pairs(kind, rng, 4))
    grid = GridSpec(-1.0, 3.0, -1.0, 1.0, 6)
    first = pseudospectrum(op, grid).sigma_min
    assert np.array_equal(first, pseudospectrum(op, grid).sigma_min)


def _lanczos_steps(monkeypatch):
    """Record the inverse Lanczos steps of each grid point (one dstemr each)."""
    steps = []
    dstemr, upper = elementary.dstemr, elementary._sigma_min_upper

    def counted_dstemr(*args, **kwargs):
        steps[-1] += 1
        return dstemr(*args, **kwargs)

    def counted_upper(*args):
        steps.append(0)
        return upper(*args)
    monkeypatch.setattr(elementary, "dstemr", counted_dstemr)
    monkeypatch.setattr(elementary, "_sigma_min_upper", counted_upper)
    return steps


def _count_svdvals(monkeypatch):
    calls = []
    svdvals = scipy.linalg.svdvals
    monkeypatch.setattr(scipy.linalg, "svdvals", lambda a: calls.append(a.shape) or svdvals(a))
    return calls


def test_pseudospectrum_n12_matches_per_point_svd(rng, monkeypatch):
    # the operators benchmark's scale: N = 144, three generic pairs, every
    # point of a grid over the spectrum on the inverse Lanczos path
    n = 12
    op = ElementaryOperator.build([(random_complex(rng, n), random_complex(rng, n))
                                   for _ in range(3)])
    M = op.to_matrix()
    w = op.spectrum().eigenvalues
    grid = GridSpec(w.real.min(), w.real.max(), w.imag.min(), w.imag.max(), 5)
    steps, svd_calls = _lanczos_steps(monkeypatch), _count_svdvals(monkeypatch)
    got = pseudospectrum(op, grid).sigma_min
    assert len(steps) == 25 and not svd_calls
    assert np.max(np.abs(got - _svd_sigma_min(M, grid))) <= 1e-12 * max(1.0, op_norm(M))


def _past_n_steps_case():
    # without reorthogonalization a point may need more than N steps: three
    # points of this grid take N + 1 = 10, where an exit at step N would
    # return a value whose stop test failed (the most seen on the _pairs
    # families generic, mixed, nilpotent and jordan at n = 2-8, seeds 0-39,
    # both grids of test_pseudospectrum_matches_per_point_svd, is 1.11 N)
    op = ElementaryOperator.build(_pairs("mixed", np.random.default_rng(14), 3))
    scale = max(1.0, op_norm(op.to_matrix()))
    return op, scale, GridSpec(-0.3 * scale, 1.2 * scale, -0.6 * scale, 0.6 * scale, 7)


def test_pseudospectrum_point_past_n_steps(monkeypatch):
    op, scale, grid = _past_n_steps_case()
    steps, svd_calls = _lanczos_steps(monkeypatch), _count_svdvals(monkeypatch)
    got = pseudospectrum(op, grid).sigma_min
    assert max(steps) > op.dim ** 2 and not svd_calls
    assert np.max(np.abs(got - _svd_sigma_min(op.to_matrix(), grid))) <= 1e-12 * scale


@pytest.mark.parametrize("cap", [0, 1])
def test_pseudospectrum_svd_fallback(cap, monkeypatch):
    # a point not converged after LANCZOS_STEPS * N steps takes svdvals(R):
    # with the cap at N the points that need more than N steps do, with 0
    # every point does
    op, scale, grid = _past_n_steps_case()
    with monkeypatch.context() as m:
        steps = _lanczos_steps(m)
        pseudospectrum(op, grid)
    want = sum(k > op.dim ** 2 for k in steps) if cap else len(steps)
    assert want > 0
    monkeypatch.setattr(elementary, "LANCZOS_STEPS", cap)
    svd_calls = _count_svdvals(monkeypatch)
    got = pseudospectrum(op, grid).sigma_min
    assert len(svd_calls) == want
    assert np.max(np.abs(got - _svd_sigma_min(op.to_matrix(), grid))) <= 1e-12 * scale


def test_pseudospectrum_n16_runtime_cap(rng):
    # N = 256, 121 points, on a 2-core x86-64 container: 2.2-2.4 s with an
    # SVD per point, 0.3-0.4 s with one Schur form and the three-term
    # inverse Lanczos.  The faster of two calls is timed, so one stall on a
    # shared machine does not fail the test.
    cap = 1.5
    n = 16
    pairs = [(random_complex(rng, n), random_complex(rng, n)) for _ in range(3)]
    op = ElementaryOperator.build(pairs)
    r = sum(op_norm(A) * op_norm(B) for A, B in pairs)
    grid = GridSpec(-0.25 * r, 1.25 * r, -0.5 * r, 0.5 * r, 11)
    elapsed = []
    for _ in range(2):
        start = time.perf_counter()
        pseudospectrum(op, grid)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < cap, f"n = 16 grid took {min(elapsed):.2f}s, cap {cap}s"


# --- one cached factorization -----------------------------------------------

def _operator_pairs(kind, rng, n):
    if kind == "psd":
        return [(random_psd(rng, n), random_psd(rng, n)) for _ in range(2)]
    return _pairs(kind, rng, n)


def _three_answers(op, grid):
    return op.spectrum(), hs_positivity(op), pseudospectrum(op, grid)


def _assert_same_answers(got, want):
    (spec, hs, grid), (spec0, hs0, grid0) = got, want
    assert np.array_equal(spec.eigenvalues, spec0.eigenvalues)
    assert spec.max_dist_to_rplus == spec0.max_dist_to_rplus
    cert, cert0 = hs.certificate, hs0.certificate
    assert (cert.kind, cert.min_eigenvalue, cert.scale, cert.witness_residual) == \
        (cert0.kind, cert0.min_eigenvalue, cert0.scale, cert0.witness_residual)
    assert np.array_equal(cert.subject, cert0.subject)
    assert np.array_equal(cert.eigenvalues, cert0.eigenvalues)
    assert np.array_equal(grid.sigma_min, grid0.sigma_min)


@pytest.mark.parametrize("kind, factorization", [
    ("generic", "schur"), ("mixed", "schur"), ("psd", "eigh"), ("luders", "eigh")])
def test_one_factorization_serves_three_calls(kind, factorization, rng, monkeypatch):
    # spectrum -> hs_positivity -> pseudospectrum factor the N x N
    # superoperator once: eigh when it is exactly Hermitian, else one Schur
    # form (LAPACK zgees, whose matrix is its second argument); the only
    # other N x N eigensolve is the eigvalsh of the Hermitian part of a
    # non-Hermitian M, for the certificate's min_eigenvalue
    n = 3
    op = ElementaryOperator.build(_operator_pairs(kind, rng, n))
    calls = []

    def count(owner, name, arg=0):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            if np.shape(args[arg])[0] == n * n:
                calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for name in ("eig", "eigvals", "eigh", "eigvalsh"):
        count(np.linalg, name)
    count(scipy.linalg, "schur")
    count(elementary, "zgees", arg=1)
    to_matrix = ElementaryOperator.to_matrix
    built = []
    monkeypatch.setattr(ElementaryOperator, "to_matrix",
                        lambda self: built.append(self) or to_matrix(self))
    _three_answers(op, GridSpec(-1.0, 3.0, -1.0, 1.0, 5))
    want = ["eigh"] if factorization == "eigh" else ["zgees", "eigvalsh"]
    assert sorted(calls) == sorted(want)
    assert len(built) == 1 and built[0] is op


@pytest.mark.parametrize("kind", ["generic", "psd", "luders"])
def test_cached_factorization_ignores_later_writes(kind, rng):
    # the caller's coefficient arrays and the array to_matrix() returns may
    # be written to; the operator's answers do not move
    pairs = [(np.array(A, dtype=complex), np.array(B, dtype=complex))
             for A, B in _operator_pairs(kind, rng, 3)]
    grid = GridSpec(-1.0, 3.0, -1.0, 1.0, 4)
    want = _three_answers(ElementaryOperator.build([(A.copy(), B.copy()) for A, B in pairs]),
                          grid)
    op = ElementaryOperator.build(pairs)
    for A, B in pairs:
        A[0, 0] += 5.0
        B[:] = 0.0
    M = op.to_matrix()
    M[:] = 1.0
    _assert_same_answers(_three_answers(op, grid), want)
    M = op.to_matrix()
    assert M.flags.writeable and not np.array_equal(M, np.ones_like(M))
    M[:] = 1.0
    _assert_same_answers(_three_answers(op, grid), want)


@pytest.mark.parametrize("kind", ["generic", "psd", "luders"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_spectrum_matches_dense_eig(kind, n, rng):
    op = ElementaryOperator.build(_operator_pairs(kind, rng, n))
    M = op.to_matrix()
    got, want = op.spectrum(), eig(M)
    assert matching_distance(got.eigenvalues, want.eigenvalues) <= 1e-10 * op_norm(M)
    assert got.is_real_nonnegative == want.is_real_nonnegative
    if kind != "generic":
        assert not got.eigenvalues.imag.any()
