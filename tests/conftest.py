"""Shared generators and independent oracles for the test suite.

Oracles deliberately take different code paths from the implementations they
check: characteristic polynomials come from the trace recursion (not the
eigensolver), Sylvester solutions from the dense Kronecker system, block
inverses from plain dense inversion, zero-form vectors of a 2x2 matrix from
``eigh`` of its Hermitian parts.
"""

import math

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def charpoly_coefficients(M: np.ndarray) -> np.ndarray:
    """Characteristic polynomial by the Faddeev-LeVerrier trace recursion.

    Returns [1, c1, ..., cn] with p(x) = x^n + c1 x^(n-1) + ... + cn,
    computed without any eigensolve.
    """
    n = M.shape[0]
    coeffs = np.empty(n + 1, dtype=complex)
    coeffs[0] = 1.0
    Mk = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        Mk = M @ Mk
        ck = -np.trace(Mk) / k
        coeffs[k] = ck
        Mk = Mk + ck * np.eye(n)
    return coeffs


def eigenvalues_by_companion(M: np.ndarray) -> np.ndarray:
    """Roots of the characteristic polynomial via the companion matrix."""
    return np.roots(charpoly_coefficients(M))


def sylvester_by_kron(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Dense vectorized solve of A X - X B = C (column-major stacking)."""
    p, q = A.shape[0], B.shape[0]
    K = np.kron(np.eye(q), A) - np.kron(B.T, np.eye(p))
    x = np.linalg.solve(K, C.flatten(order="F"))
    return x.reshape((p, q), order="F")


def zero_form_vector_by_eigh(C: np.ndarray, tiny: float) -> np.ndarray:
    """Unit y in C^2 with y* C y ~ 0, assuming 0 lies in the numerical range.

    Splits C = H + iK into Hermitian parts and takes their eigenpairs from
    ``eigh``.  The unit vectors annihilating the H-form lie on a circle
    parameterized by a phase; on that circle the K-form is an exact
    sinusoid, whose root is taken with ``atan2`` and ``acos``.
    """
    H = (C + C.conj().T) / 2.0
    K = (C - C.conj().T) / 2.0j
    mu, U = np.linalg.eigh(H)
    lam_minus = max(-float(mu[0]), 0.0)
    lam_plus = max(float(mu[1]), 0.0)
    total = lam_plus + lam_minus

    if total <= tiny:
        # H ~ 0: kill the K-form across its own eigenvectors
        nu, W = np.linalg.eigh(K)
        span = float(nu[1] - nu[0])
        if span <= tiny:
            return U[:, 0]
        a = math.sqrt(max(float(nu[1]), 0.0) / span)
        b = math.sqrt(max(-float(nu[0]), 0.0) / span)
        return a * W[:, 0] + b * W[:, 1]

    u_plus, u_minus = U[:, 1], U[:, 0]
    amp_plus = math.sqrt(lam_minus / total)   # coefficient on u_plus
    amp_minus = math.sqrt(lam_plus / total)
    base = (amp_plus ** 2) * float(np.real(u_plus.conj() @ K @ u_plus)) \
        + (amp_minus ** 2) * float(np.real(u_minus.conj() @ K @ u_minus))
    kappa = complex(u_plus.conj() @ K @ u_minus)
    R = 2.0 * amp_plus * amp_minus * abs(kappa)
    # K-form along the circle: base + R*cos(arg(kappa) + psi); pick the root
    if R <= tiny:
        psi = 0.0
    else:
        c = min(1.0, max(-1.0, -base / R))
        psi = math.atan2(kappa.imag, kappa.real) - math.acos(c)
    y = amp_plus * np.exp(1j * psi) * u_plus + amp_minus * u_minus
    return y / np.linalg.norm(y)


def superop_by_matrix_units(apply_fn, n: int) -> np.ndarray:
    """Assemble a superoperator matrix by applying the map to matrix units.

    Column-major stacking: the column for unit E_pq sits at index q*n + p.
    """
    M = np.empty((n * n, n * n), dtype=complex)
    for q in range(n):
        for p in range(n):
            E = np.zeros((n, n), dtype=complex)
            E[p, q] = 1.0
            M[:, q * n + p] = apply_fn(E).flatten(order="F")
    return M


def random_block_system(rng, k: int, m: int):
    """Well-conditioned random 2x2 block matrix of total size k + m."""
    n = k + m
    U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    s = rng.uniform(1.0, 3.0, size=n)
    return (U * s) @ V.conj().T
