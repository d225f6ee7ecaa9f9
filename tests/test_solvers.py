import time

import numpy as np
import pytest

import opsum
from opsum import solvers
from opsum.core import frob, matching_distance
from opsum.randmat import random_complex, random_psd, random_real_trace, random_trace_zero
from opsum.solvers import (
    BlockMatrix2x2,
    NonzeroTraceError,
    SingularBlockError,
    SpectralGapError,
    block_inverse,
    commutator_solve,
    sylvester_solve,
    zero_diagonalize,
)

from conftest import random_block_system, sylvester_by_kron, zero_form_vector_by_eigh


# --- block inverse ----------------------------------------------------------

def test_block_inverse_block_diagonal():
    S = BlockMatrix2x2(np.array([[2.0]]), np.zeros((1, 1)), np.zeros((1, 1)),
                       np.array([[3.0]]))
    inv = block_inverse(S).assemble()
    assert np.allclose(inv, np.diag([0.5, 1 / 3.0]))


def test_block_inverse_2x2_oracle():
    # all-ones leading data: direct 2x2 inversion gives [[2, -1], [-1, 1]]
    S = BlockMatrix2x2(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]),
                       np.array([[2.0]]))
    inv = block_inverse(S).assemble()
    assert np.allclose(inv, np.array([[2.0, -1.0], [-1.0, 1.0]]), atol=1e-14)


def test_block_inverse_matches_dense(rng):
    M = random_block_system(rng, 4, 4)
    S = BlockMatrix2x2.from_matrix(M, 4)
    inv = block_inverse(S).assemble()
    dense = np.linalg.inv(M)
    assert frob(inv - dense) <= 1e-9 * frob(dense)
    assert frob(M @ inv - np.eye(8)) <= 1e-9 * np.linalg.cond(M)


def test_block_inverse_uneven_split(rng):
    M = random_block_system(rng, 3, 5)
    inv = block_inverse(BlockMatrix2x2.from_matrix(M, 3)).assemble()
    assert frob(M @ inv - np.eye(8)) <= 1e-9 * np.linalg.cond(M)


def test_block_inverse_singular_u():
    S = BlockMatrix2x2(np.zeros((1, 1)), np.array([[1.0]]), np.array([[1.0]]),
                       np.array([[1.0]]))
    with pytest.raises(SingularBlockError) as err:
        block_inverse(S)
    assert err.value.block == "u"


def test_block_inverse_condition_cap_is_1e12():
    def blocks(cond):
        return BlockMatrix2x2(np.diag([1.0, 1.0 / cond]), np.zeros((2, 1)),
                              np.zeros((1, 2)), np.eye(1))
    block_inverse(blocks(0.99e12))
    with pytest.raises(SingularBlockError, match="exceeds cap 1.0e[+]12") as err:
        block_inverse(blocks(1.01e12))
    assert err.value.block == "u"
    with pytest.raises(TypeError):
        block_inverse(blocks(2.0), config=None)


def test_retired_solver_settings_are_gone():
    assert not hasattr(solvers, "SolverConfig")
    assert not hasattr(solvers, "DEFAULT_SOLVER_CONFIG")
    assert not hasattr(opsum, "SolverConfig")
    assert "similarity_used" not in solvers.CommutatorSolution.__dataclass_fields__
    T0 = np.array([[0.0, 1.0], [0.0, 0.0]])
    for solve in (zero_diagonalize, commutator_solve):
        with pytest.raises(TypeError):
            solve(T0, config=None)


def test_block_inverse_singular_schur():
    # u = 1, x = y = 1, z = 1 makes z - y u^-1 x = 0
    S = BlockMatrix2x2(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]),
                       np.array([[1.0]]))
    with pytest.raises(SingularBlockError) as err:
        block_inverse(S)
    assert "z - y" in err.value.block


def test_block_shapes_validated():
    with pytest.raises(ValueError):
        BlockMatrix2x2(np.eye(2), np.ones((3, 2)), np.ones((2, 2)), np.eye(2))


# --- sylvester --------------------------------------------------------------

def test_sylvester_scalar():
    X = sylvester_solve(np.array([[2.0]]), np.array([[0.0]]), np.array([[4.0]]))
    assert np.allclose(X, [[2.0]])


def test_sylvester_diagonal_decoupling():
    X = sylvester_solve(np.diag([1.0, 2.0]), np.array([[0.0]]),
                        np.array([[1.0], [1.0]]))
    assert np.allclose(X, [[1.0], [0.5]])


@pytest.mark.parametrize("p,q", [(3, 3), (5, 2), (2, 7), (12, 12)])
def test_sylvester_matches_kron_oracle(rng, p, q):
    A = random_complex(rng, p) * 0.4 + 2.0 * np.eye(p)   # spectrum near 2
    B = random_complex(rng, q) * 0.4                     # spectrum in a small disk
    C = random_complex(rng, p, q)
    X = sylvester_solve(A, B, C)
    assert frob(A @ X - X @ B - C) <= 1e-8 * max(1.0, frob(C))
    X_oracle = sylvester_by_kron(A, B, C)
    assert frob(X - X_oracle) <= 1e-7 * max(1.0, frob(X_oracle))


def test_sylvester_gap_rejection(rng):
    A = np.diag([1.0, 2.0])
    B = np.diag([2.0 + 1e-9])
    with pytest.raises(SpectralGapError) as err:
        sylvester_solve(A, B, np.ones((2, 1)))
    la, lb = err.value.closest_pair
    assert abs(la - 2.0) < 1e-6 and abs(lb - 2.0) < 1e-6


def test_sylvester_gap_margin_fixed():
    A = np.diag([1.0])
    C = np.ones((1, 1))
    sylvester_solve(A, np.diag([1.0 + 1e-4]), C)   # the 1e-6 margin accepts
    sylvester_solve(A, np.diag([1.0 + 2e-6]), C)
    with pytest.raises(SpectralGapError, match="within margin 1.0e-06"):
        sylvester_solve(A, np.diag([1.0 + 5e-7]), C)
    with pytest.raises(TypeError):
        sylvester_solve(A, np.diag([1.0 + 1e-4]), C, config=None)


# --- zero diagonalization ---------------------------------------------------

def test_zero_diagonalize_already_zero():
    T0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    R, Z = zero_diagonalize(T0)
    assert np.array_equal(R, np.eye(2))
    assert np.array_equal(Z, T0)


def test_zero_diagonalize_diag_pm1():
    T0 = np.diag([1.0, -1.0]).astype(complex)
    R, Z = zero_diagonalize(T0)
    assert np.max(np.abs(np.diagonal(Z))) <= 1e-10
    assert frob(R @ T0 @ np.linalg.inv(R) - Z) <= 1e-10


def assert_zero_diagonal(T0, R, Z):
    k = T0.shape[0]
    scale = max(1.0, frob(T0))
    assert np.max(np.abs(np.diagonal(Z))) <= 1e-10 * scale
    assert frob(R @ T0 @ np.linalg.inv(R) - Z) <= 1e-10 * scale
    assert frob(R @ R.conj().T - np.eye(k)) <= 1e-12 * k


@pytest.mark.parametrize("n", [2, 3, 6, 11, 16, 19, 33, 64, 128, 256])
def test_zero_diagonalize_random(rng, n):
    for _ in range(10):
        T0 = random_trace_zero(rng, n)
        assert_zero_diagonal(T0, *zero_diagonalize(T0))
        # below unit norm the diagonal is still zeroed relative to ||T0||_F
        R, Z = zero_diagonalize(1e-9 * T0)
        assert_zero_diagonal(1e-9 * T0, R, Z)
        assert np.max(np.abs(np.diagonal(Z))) <= 1e-12 * frob(1e-9 * T0)


def test_zero_diagonalize_rejects_trace():
    with pytest.raises(NonzeroTraceError):
        zero_diagonalize(np.eye(3))


def test_zero_diagonalize_trace_gate_is_1e10():
    # unit norm, so the gate is 1e-10 * max(1, ||T0||_F) = 1e-10
    def unit(trace):
        return np.array([[trace, 1.0], [0.0, 0.0]])
    with pytest.raises(NonzeroTraceError, match="gate 1.000e-10"):
        zero_diagonalize(unit(2e-10))
    R, Z = zero_diagonalize(unit(5e-11))
    assert_zero_diagonal(unit(5e-11), R, Z)


def test_zero_diagonalize_stops_once_the_diagonal_is_zero(monkeypatch):
    # the first step rotates indices 0 and 1, whose 2x2 block has zero trace,
    # so it zeroes both entries; entry 2 is zero already, and the second of
    # the n - 1 steps is never taken
    T0 = np.diag([1.0, -1.0, 0.0]).astype(complex)
    T0[0, 2] = T0[2, 1] = 0.3
    steps = []
    hull = solvers._hull_indices
    monkeypatch.setattr(solvers, "_hull_indices",
                        lambda *args: steps.append(args) or hull(*args))
    assert_zero_diagonal(T0, *zero_diagonalize(T0))
    assert len(steps) == 1


@pytest.mark.parametrize("n", [3, 9])
def test_zero_diagonalize_cube_roots_need_a_triangle(rng, monkeypatch, n):
    # the cube roots of unity: 0 lies in the triangle of their entries but
    # on no segment between two of them, so the first step takes the
    # triangle branch
    T0 = 1e-3 * random_trace_zero(rng, n)
    np.fill_diagonal(T0, np.tile(np.exp(2j * np.pi * np.arange(3) / 3), n // 3))
    hulls = []
    hull = solvers._hull_indices
    monkeypatch.setattr(solvers, "_hull_indices",
                        lambda *args: hulls.append(hull(*args)) or hulls[-1])
    assert_zero_diagonal(T0, *zero_diagonalize(T0))
    idx, p = hulls[0]
    assert len(idx) == 3 and p is not None


def test_zero_diagonalize_at_most_two_rotations_per_step(rng, monkeypatch):
    # rotations counted per step, a step starting at its _hull_indices call
    per_step = []
    hull, rotate = solvers._hull_indices, solvers._rotate_plane

    def count_rotation(*args):
        per_step[-1] += 1
        rotate(*args)

    monkeypatch.setattr(solvers, "_hull_indices",
                        lambda *args: per_step.append(0) or hull(*args))
    monkeypatch.setattr(solvers, "_rotate_plane", count_rotation)
    for n in (3, 12, 33):
        per_step.clear()
        T0 = random_trace_zero(rng, n)
        assert_zero_diagonal(T0, *zero_diagonalize(T0))
        assert len(per_step) <= n - 1
        assert all(1 <= k <= 2 for k in per_step), per_step
        assert 2 in per_step   # random diagonals take the triangle branch too


def test_zero_diagonalize_makes_no_linalg_call(rng, monkeypatch):
    # each rotation is scalar arithmetic plus three 2 x n updates: nothing in
    # numpy.linalg runs but the one Frobenius norm of the input, its scale
    norms = []
    for name in dir(np.linalg):
        original = getattr(np.linalg, name)
        if name.startswith("_") or not callable(original) or isinstance(original, type):
            continue

        def refuse(*args, _name=name, _original=original, **kwargs):
            if _name != "norm" or len(args) > 1 or kwargs:
                pytest.fail(f"np.linalg.{_name} called")
            norms.append(np.shape(args[0]))
            return _original(*args)
        monkeypatch.setattr(np.linalg, name, refuse)
    results = []
    for n in (3, 16, 33):
        T0 = random_trace_zero(rng, n)
        norms.clear()
        results.append((T0, *zero_diagonalize(T0)))
        assert norms == [(n, n)]
    monkeypatch.undo()
    for T0, R, Z in results:
        assert_zero_diagonal(T0, R, Z)


def _kernel(C, tiny=1e-13):
    return np.array(solvers._zero_form_vector(*(complex(c) for c in C.ravel()), tiny))


def _assert_zero_form(C, y):
    assert abs(np.linalg.norm(y) - 1.0) <= 4e-16
    assert abs(y.conj() @ C @ y) <= 1e-14 * max(1.0, frob(C))


def _assert_matches_oracle(C, tiny=1e-13):
    # the vector is unique up to a global phase: u_plus's phase cancels
    # against kappa's, and u_minus's multiplies the whole vector
    y, ref = _kernel(C, tiny), zero_form_vector_by_eigh(C, tiny)
    _assert_zero_form(C, y)
    phase = np.vdot(y, ref)
    assert abs(abs(phase) - 1.0) <= 1e-14
    assert np.max(np.abs(y * phase / abs(phase) - ref)) <= 1e-14


@pytest.mark.parametrize("C", [
    np.array([[1.0, 0.5], [-0.5, -1.0]]),          # H diagonal, h11 > h22
    np.array([[-1.0, 0.5], [-0.5, 1.0]]),          # H diagonal, h11 < h22
    np.array([[2.0 + 1j, 0.3 - 0.2j], [0.7j, -2.0 - 1j]]),
    np.array([[-3.0 + 0.1j, 1.0], [2.0 - 1j, 3.0 - 0.1j]]),
    np.array([[0.0, 1.0 + 1j], [0.2, 0.0]]),       # h11 = h22: eigenvalues -+ r
    np.diag([1.0 + 0.3j, -1.0 - 0.3j]),            # K commutes with H: R = 0
    np.diag([2.0 + 1j, -1.0 - 0.5j]),              # zero off-diagonal, R = 0
], ids=["h11>h22", "h11<h22", "generic", "generic-negative", "equal-diagonal",
        "R=0", "zero-off-diagonal"])
def test_zero_form_vector_matches_eigh_oracle(C):
    _assert_matches_oracle(C.astype(complex))


def test_zero_form_vector_random_trace_zero_matches_eigh_oracle(rng):
    # trace(C) / 2 lies in the numerical range, so C - trace(C) / 2 has 0 in it
    for _ in range(200):
        C = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        C *= 10.0 ** rng.uniform(-6, 6)
        _assert_matches_oracle(C - np.trace(C) / 2.0 * np.eye(2), 1e-13 * frob(C))


@pytest.mark.parametrize("K", [
    np.array([[1.0, 0.4 + 0.2j], [0.4 - 0.2j, -2.0]]),
    np.array([[-0.5, 0.0], [0.0, 3.0]]),
    np.array([[0.0, 2.0j], [-2.0j, 0.0]]),
], ids=["generic", "diagonal", "zero-diagonal"])
def test_zero_form_vector_skew_hermitian_input(K):
    # H = 0: the vector mixes K's eigenvectors, whose phases eigh leaves
    # open, so only the zero form and the weights on them are compared
    C = 1j * K
    y, ref = _kernel(C), zero_form_vector_by_eigh(C, 1e-13)
    _assert_zero_form(C, y)
    _, W = np.linalg.eigh(K)
    assert np.allclose(np.abs(W.conj().T @ y), np.abs(W.conj().T @ ref), atol=1e-14)


@pytest.mark.parametrize("C", [np.zeros((2, 2)), 1e-20 * np.eye(2), 1e-20j * np.eye(2)],
                         ids=["zero", "tiny-hermitian", "tiny-skew"])
def test_zero_form_vector_equal_eigenvalues(C):
    # H ~ 0 and K ~ 0 with equal eigenvalues: any unit vector will do, and
    # the kernel returns a unit eigenvector of H
    y = _kernel(C.astype(complex))
    assert abs(np.linalg.norm(y) - 1.0) <= 4e-16
    assert abs(y.conj() @ C @ y) <= 1e-19


def test_zero_diagonalize_last_step_rotates_the_lower_index(monkeypatch):
    # the two entries left for the last step sum to about 0, so their moduli
    # tie, and argmax would take this target's last plane as (2, 1) or
    # (1, 2) by a last-bit change in T (two_summands' cond(S) 9.3e1 or 3.3e2)
    planes = []
    rotate = solvers._rotate_plane
    monkeypatch.setattr(solvers, "_rotate_plane",
                        lambda M, Ut, a, b, *args: planes.append((a, b)) or rotate(M, Ut, a, b, *args))
    T = random_real_trace(np.random.default_rng([4, 1, 100]), 4, 4.0)
    bumped = T.copy()
    bumped[0, 0] = np.nextafter(T[0, 0].real, np.inf)
    for T1 in (T, bumped):
        T0 = T1 - np.trace(T1) / 4 * np.eye(4)   # T - cI as the triangular split forms it
        T0 -= np.trace(T0) / 4 * np.eye(4)
        planes.clear()
        assert_zero_diagonal(T0, *zero_diagonalize(T0))
        assert planes[-1] == (1, 2)


def _structured_trace_zero(rng, kind, n):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "hermitian":
        M = G + G.conj().T
    elif kind == "real":
        M = G.real
    elif kind == "skew-hermitian":
        M = G - G.conj().T
    elif kind == "nilpotent":
        return np.triu(G, 1)
    elif kind == "rank-one":
        M = np.outer(G[:, 0], G[0, :])
    elif kind == "collinear-diagonal":
        d = -np.ones(n)
        d[0] = n - 1
        return np.diag(d)
    elif kind == "norm-1e-9":
        return 1e-9 * random_trace_zero(rng, n)
    elif kind == "norm-1e6":
        return 1e6 * random_trace_zero(rng, n)
    return M - (np.trace(M) / n) * np.eye(n)


@pytest.mark.parametrize("kind", ["hermitian", "real", "skew-hermitian", "nilpotent",
                                  "rank-one", "collinear-diagonal", "norm-1e-9",
                                  "norm-1e6"])
@pytest.mark.parametrize("n", [2, 3, 5, 7, 12, 33])
def test_zero_diagonalize_structured(rng, kind, n):
    T0 = _structured_trace_zero(rng, kind, n)
    assert_zero_diagonal(T0, *zero_diagonalize(T0))


def test_zero_diagonalize_noisy_collinear_diagonal(rng):
    # real diagonals with rounding-size imaginary parts of either sign: the
    # nearest entries to the ray through -d_i may sit on either side of it,
    # or only behind d_i
    for _ in range(100):
        n = int(rng.integers(3, 9))
        d = rng.standard_normal(n)
        T0 = np.diag(d - d.mean() + 1e-16j * rng.choice([-1.0, 1.0], size=n))
        assert_zero_diagonal(T0, *zero_diagonalize(T0))


def test_zero_diagonalize_deterministic(rng):
    T0 = random_trace_zero(rng, 40)
    R1, Z1 = zero_diagonalize(T0)
    R2, Z2 = zero_diagonalize(T0)
    assert np.array_equal(R1, R2) and np.array_equal(Z1, Z2)


def test_zero_diagonalize_k256_runtime_cap(rng):
    cap = 5.0
    T0 = random_trace_zero(rng, 256)
    start = time.perf_counter()
    zero_diagonalize(T0)
    elapsed = time.perf_counter() - start
    assert elapsed < cap, f"k = 256 took {elapsed:.2f}s, cap {cap}s"


# --- commutator -------------------------------------------------------------

def test_commutator_zero_target():
    sol = commutator_solve(np.zeros((3, 3)))
    assert np.all(sol.X == 0) and np.all(sol.Y == 0) and sol.residual == 0.0


def test_commutator_nilpotent_example():
    sol = commutator_solve(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # frozen expected factors for the already-zero-diagonal target
    assert np.allclose(sol.X, np.diag([1.0, 2.0]))
    assert np.allclose(sol.Y, np.array([[0.0, -1.0], [0.0, 0.0]]))
    assert frob(sol.X @ sol.Y - sol.Y @ sol.X - np.array([[0.0, 1.0], [0.0, 0.0]])) < 1e-14


def test_commutator_diag_pm1():
    T0 = np.diag([1.0, -1.0]).astype(complex)
    sol = commutator_solve(T0)
    assert sol.residual <= 1e-10


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_commutator_random(rng, n):
    for _ in range(12):
        T0 = random_trace_zero(rng, n)
        scale = max(1.0, frob(T0))
        sol = commutator_solve(T0)
        assert sol.residual <= 1e-8 * scale
        assert frob(sol.X @ sol.Y - sol.Y @ sol.X - T0) <= 1e-8 * scale
        # machine-level trace identity of any commutator
        tr = abs(np.trace(sol.X @ sol.Y - sol.Y @ sol.X))
        assert tr <= 1e-12 * max(1.0, frob(sol.X) * frob(sol.Y))


def test_commutator_rejects_shifted(rng):
    for n in (2, 5):
        for _ in range(10):
            T0 = random_trace_zero(rng, n) + rng.uniform(0.1, 2.0) * np.eye(n)
            assert abs(np.trace(T0)) > 1e-6 * frob(T0)
            with pytest.raises(NonzeroTraceError) as err:
                commutator_solve(T0)
            assert "zero trace" in str(err.value)
            # the zero-trace gate is 1e-10 * max(1, ||T0||_F)
            bound = 1e-10 * max(1.0, frob(T0))
            assert str(err.value) == str(NonzeroTraceError(complex(np.trace(T0)), bound))


def test_commutator_hermitian_and_psd_inputs(rng):
    H = random_psd(rng, 4)
    H = H - (np.trace(H) / 4) * np.eye(4)
    sol = commutator_solve(H)
    assert sol.residual <= 1e-8 * max(1.0, frob(H))
