"""Seeded random matrix generators for experiments and planted instances.

Planted-instance factories keep conditioning mild on purpose: similarity
factors have condition number at most ~10 and PSD spectra sit in [0.5, 2],
so recovery thresholds in tests are meaningful.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "random_complex",
    "random_unitary",
    "random_psd",
    "random_invertible",
    "random_trace_zero",
    "random_real_trace",
    "planted_product_sum",
    "planted_summand_sum",
    "scalar_product_pairs",
]


def random_complex(rng: np.random.Generator, n: int, m: int | None = None) -> np.ndarray:
    """Standard complex Gaussian matrix (unit entry variance)."""
    m = n if m is None else m
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2.0)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary via QR with a fixed phase convention."""
    Q, R = np.linalg.qr(random_complex(rng, n))
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def random_psd(rng: np.random.Generator, n: int,
               spectrum: tuple[float, float] = (0.5, 2.0)) -> np.ndarray:
    """Random PSD matrix with eigenvalues uniform in ``spectrum``."""
    U = random_unitary(rng, n)
    d = rng.uniform(spectrum[0], spectrum[1], size=n)
    A = (U * d) @ U.conj().T
    return (A + A.conj().T) / 2.0


def random_invertible(rng: np.random.Generator, n: int, cond: float = 10.0) -> np.ndarray:
    """Random invertible matrix with condition number at most ``cond``."""
    U = random_unitary(rng, n)
    V = random_unitary(rng, n)
    s = np.exp(rng.uniform(0.0, np.log(cond), size=n))
    s = s / s.min()
    return (U * s) @ V.conj().T


def random_trace_zero(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random complex matrix projected to exact zero trace."""
    G = random_complex(rng, n)
    return G - (np.trace(G) / n) * np.eye(n)


def random_real_trace(rng: np.random.Generator, n: int, trace: float) -> np.ndarray:
    """Random complex matrix with exactly real trace equal to ``trace``."""
    G = random_complex(rng, n)
    G = G - (1j * np.trace(G).imag / n) * np.eye(n)
    return G + ((trace - np.trace(G).real) / n) * np.eye(n)


def planted_product_sum(rng: np.random.Generator, n: int, m: int):
    """Target T = sum of m products of random PSD pairs; returns (T, pairs)."""
    pairs = [(random_psd(rng, n), random_psd(rng, n)) for _ in range(m)]
    T = sum(A @ B for A, B in pairs)
    return T, pairs


def planted_summand_sum(rng: np.random.Generator, n: int, m: int):
    """Target T = sum of m matrices G P G^-1; returns (T, [(G, P), ...])."""
    parts = [(random_invertible(rng, n, cond=10.0), random_psd(rng, n))
             for _ in range(m)]
    T = sum(G @ P @ np.linalg.inv(G) for G, P in parts)
    return T, parts


def scalar_product_pairs(lam: float, k: int, m: int = 3,
                         rng: np.random.Generator | None = None):
    """PSD pairs (A_j, B_j) of size k with sum of products exactly lam * I.

    Splits lam into positive parts lam_j and builds each pair from a Gram
    factorization, A_j = S S* and B_j = lam_j (S^-1)* S^-1, whose product is
    lam_j * I for any invertible S.  With ``rng`` None all S are identity,
    otherwise random with condition number at most 3.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    weights = np.arange(1, m + 1, dtype=float)
    weights /= weights.sum()
    pairs = []
    for w in weights:
        S = np.eye(k, dtype=complex) if rng is None else random_invertible(rng, k, cond=3.0)
        Sinv = np.linalg.inv(S)
        A = S @ S.conj().T
        B = (lam * w) * (Sinv.conj().T @ Sinv)
        pairs.append(((A + A.conj().T) / 2.0, (B + B.conj().T) / 2.0))
    return pairs
