import time

import numpy as np
import pytest

import opsum
from opsum import solvers
from opsum.core import frob, matching_distance
from opsum.randmat import random_complex, random_psd, random_trace_zero
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

from conftest import random_block_system, sylvester_by_kron


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


def test_zero_diagonalize_makes_no_qr_call(rng, monkeypatch):
    monkeypatch.setattr(np.linalg, "qr",
                        lambda *args, **kwargs: pytest.fail("np.linalg.qr called"))
    for n in (3, 16):
        T0 = random_trace_zero(rng, n)
        assert_zero_diagonal(T0, *zero_diagonalize(T0))


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
