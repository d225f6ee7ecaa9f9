"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; the wall-clock caps are
part of the criteria and asserted.
"""

import json
import time

import numpy as np
import pytest

from opsum import serialize
from opsum.cli import EXIT_OBSTRUCTION, EXIT_OK, EXIT_USAGE, main
from opsum.core import dist_to_rplus, frob, matching_distance, op_norm
from opsum.decompose import (
    DecompositionResult,
    four_summands,
    verify_decomposition,
)
from opsum.elementary import (
    ElementaryOperator,
    UnattainableEigenvalueError,
    plant_luders_eigenvalue,
)
from opsum.lab import (
    OptimizationConfig,
    condition_study,
    optimize_sum_of_products,
    residual_lower_bound,
    study_to_csv,
)
from opsum.randmat import (
    planted_summand_sum,
    random_complex,
    random_psd,
    random_real_trace,
    random_trace_zero,
    random_unitary,
    scalar_product_pairs,
)
from opsum.solvers import (
    BlockMatrix2x2,
    NonzeroTraceError,
    block_inverse,
    commutator_solve,
    sylvester_solve,
)

from conftest import random_block_system, superop_by_matrix_units, sylvester_by_kron


class _Timer:
    def __init__(self, cap_seconds):
        self.cap = cap_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _report(number, label, timer):
    print(f"[PASS] criterion {number}: {label} ({timer.elapsed:.1f}s / cap {timer.cap}s)")
    assert timer.elapsed < timer.cap, f"criterion {number} exceeded runtime cap"


def test_criterion_1_block_inverse():
    rng = np.random.default_rng(101)
    with _Timer(10.0) as timer:
        for _ in range(200):
            n = int(rng.integers(2, 33))
            k = int(rng.integers(1, n))
            M = random_block_system(rng, k, n - k)
            S = BlockMatrix2x2.from_matrix(M, k)
            inv = block_inverse(S).assemble()
            cond = np.linalg.cond(M)
            assert frob(M @ inv - np.eye(n)) <= 1e-9 * cond
            dense = np.linalg.inv(M)
            assert frob(inv - dense) <= 1e-8 * frob(dense)
    _report(1, "200 block inverses agree with dense inversion", timer)


def test_criterion_2_sylvester():
    rng = np.random.default_rng(102)
    with _Timer(10.0) as timer:
        for _ in range(100):
            p = int(rng.integers(1, 13))
            q = int(rng.integers(1, 13))
            A = random_complex(rng, p) * (0.5 / max(1.0, np.sqrt(p))) + 2.0 * np.eye(p)
            B = random_complex(rng, q) * (0.5 / max(1.0, np.sqrt(q)))
            gap = np.abs(np.linalg.eigvals(A)[:, None] - np.linalg.eigvals(B)[None, :]).min()
            assert gap >= 0.5, "generator must keep the spectral gap"
            C = random_complex(rng, p, q)
            X = sylvester_solve(A, B, C)
            assert frob(A @ X - X @ B - C) <= 1e-8 * max(1.0, frob(C))
            X_oracle = sylvester_by_kron(A, B, C)
            assert frob(X - X_oracle) <= 1e-7 * max(1.0, frob(X_oracle))
    _report(2, "Sylvester residuals and two-method agreement", timer)


def test_criterion_3_commutator():
    rng = np.random.default_rng(103)
    with _Timer(20.0) as timer:
        for _ in range(200):
            n = int(rng.integers(2, 17))
            T0 = random_trace_zero(rng, n)
            sol = commutator_solve(T0)
            assert frob(sol.X @ sol.Y - sol.Y @ sol.X - T0) <= 1e-8 * max(1.0, frob(T0))
        for _ in range(50):
            n = int(rng.integers(1, 17))
            T = random_trace_zero(rng, n) + rng.uniform(0.05, 3.0) * np.eye(n)
            with pytest.raises(NonzeroTraceError):
                commutator_solve(T)
    _report(3, "200 trace-zero factorizations, nonzero traces rejected", timer)


def test_criterion_4_four_summand_pipeline():
    rng = np.random.default_rng(104)
    with _Timer(60.0) as timer:
        for i in range(200):
            n = (2, 4, 6, 8)[i % 4]
            T = random_real_trace(rng, n, trace=float(rng.uniform(1.0, 2.0 * n)))
            result = four_summands(T)
            assert isinstance(result, DecompositionResult), "pipeline must succeed"
            assert result.reconstruction_residual <= 1e-6
            assert all(c <= 2 for c in result.spectra_point_counts)
            assert result.pairwise_spectra_gap >= 1e-3
            assert result.diagnostics["block_identity_residual"] <= 1e-8 * max(1.0, frob(T))
            report = verify_decomposition(T, result, tol=1e-6,
                                          max_spectrum_points=2,
                                          min_pairwise_gap=1e-3)
            assert report.passed, report.failures()
    _report(4, "200 four-summand splits verified end to end", timer)


def test_criterion_5_psd_coefficient_positivity():
    rng = np.random.default_rng(105)
    with _Timer(30.0) as timer:
        for i in range(500):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 5))
            op = ElementaryOperator.build(
                [(P, P) if i % 2 == 0 else (P, random_psd(rng, n, (0.0, 2.0)))
                 for P in (random_psd(rng, n, (0.0, 2.0)) for _ in range(m))])
            M = op.to_matrix()
            assert op_norm(M - M.conj().T) <= 1e-10
            assert np.linalg.eigvalsh((M + M.conj().T) / 2)[0] >= -1e-10
        for _ in range(60):
            n = int(rng.integers(2, 7))
            U = random_unitary(rng, n)
            A1 = (U * rng.uniform(0.0, 2.0, n)) @ U.conj().T
            A2 = (U * rng.uniform(0.0, 2.0, n)) @ U.conj().T
            op = ElementaryOperator.build(
                [(A1, random_psd(rng, n, (0.0, 2.0))),
                 (A2, random_psd(rng, n, (0.0, 2.0)))])
            report = op.spectrum()
            assert report.max_dist_to_rplus <= 1e-9
    _report(5, "560 PSD-coefficient operators positive on the trace inner product", timer)


def test_criterion_6_spectrum_oracle_equivalence():
    rng = np.random.default_rng(106)
    with _Timer(30.0) as timer:
        for n in (2, 3, 4, 5, 6):
            for m in (1, 2, 3, 4):
                pairs = [(random_complex(rng, n), random_complex(rng, n))
                         for _ in range(m)]
                op = ElementaryOperator.build(pairs)
                w = op.spectrum().eigenvalues
                w_oracle = np.linalg.eigvals(superop_by_matrix_units(op.apply, n))
                assert matching_distance(w, w_oracle) <= 1e-8
    _report(6, "vectorized spectra match the matrix-unit oracle", timer)


def test_criterion_7_planted_eigenvalue_construction():
    rng = np.random.default_rng(107)
    with _Timer(5.0) as timer:
        for lam in (0.0, 0.5, 2.0, 7.0):
            pairs = scalar_product_pairs(lam, k=2, m=3,
                                         rng=None if lam == 0.0 else rng)
            demo = plant_luders_eigenvalue(lam, pairs)
            X0 = demo.eigenvector
            assert frob(demo.operator.apply(X0) - lam * X0) <= 1e-10
        for lam in (-1.0, 1j):
            with pytest.raises(UnattainableEigenvalueError) as err:
                plant_luders_eigenvalue(lam, [(np.eye(2), np.eye(2))])
            assert err.value.bound == dist_to_rplus(lam)
    _report(7, "eigenvalues planted on [0, inf), rejected off it with exact bounds", timer)


def test_criterion_8_trace_obstruction_floors():
    with _Timer(5.0) as timer:
        for lam in (-1.0, -0.5, 1j, -1 + 1j):
            floor = residual_lower_bound(lam)
            for n in (2, 4):
                # the exact Frobenius optimum: never beaten, and met
                frob_floor = np.sqrt(n) * floor
                for m in (1, 2, 3):
                    trace = optimize_sum_of_products(
                        lam * np.eye(n),
                        OptimizationConfig(m=m, max_iterations=400, restarts=6,
                                           seed=108))
                    assert (frob_floor * (1 - 1e-12) <= trace.best_residual
                            <= frob_floor * (1 + 1e-12)), (lam, n, m)
                    assert trace.stop_reason == "floor", (lam, n, m)
                    assert np.all(np.diff(trace.residual_history) <= 1e-15)
                    assert trace.bound_floor == floor
    _report(8, "optimizer meets and stops at the trace bound on 24 scalar targets", timer)


def test_criterion_9_planted_recovery():
    with _Timer(120.0) as timer:
        budget = OptimizationConfig(m=2, max_iterations=2000, restarts=50,
                                    seed=109, target_residual=1e-2)
        for m in (2, 3):
            for inst in range(3):
                rng = np.random.default_rng(900 + 10 * m + inst)
                T, _ = planted_summand_sum(rng, 2, m)
                cfg = OptimizationConfig(m=m, max_iterations=budget.max_iterations,
                                         restarts=budget.restarts, seed=109,
                                         target_residual=1e-2)
                trace = optimize_sum_of_products(T, cfg)
                assert trace.best_residual <= 1e-2, (m, inst, trace.best_residual)
    _report(9, "planted two- and three-summand targets recovered below 1e-2", timer)


def test_criterion_10_determinism_and_io(tmp_path):
    with _Timer(60.0) as timer:
        # fixed-seed study runs byte-identical
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        study_to_csv(condition_study([2, 4], [1.0, 0.1], 3, seed=7), a)
        study_to_csv(condition_study([2, 4], [1.0, 0.1], 3, seed=7), b)
        assert a.read_bytes() == b.read_bytes()

        # matrix JSON round-trips bit-exactly, including awkward doubles
        rng = np.random.default_rng(110)
        M = random_complex(rng, 6)
        M[0, 0] = complex(-0.0, 5e-324)
        M[1, 1] = complex(1.7976931348623157e308, -2.2250738585072014e-308)
        path = tmp_path / "m.json"
        serialize.save_matrix(path, M)
        assert np.array_equal(M.view(float), serialize.load_matrix(path).view(float))

        # CLI exit-code contract on a fixture corpus
        serialize.save_matrix(tmp_path / "id.json", np.eye(2))
        serialize.save_matrix(tmp_path / "neg.json", -np.eye(2))
        (tmp_path / "broken.json").write_text('{"rows": 2, "cols"')
        out = tmp_path / "out.json"
        assert main(["decompose", "--input", str(tmp_path / "id.json"),
                     "--output", str(out), "--summands", "4"]) == EXIT_OK
        assert main(["decompose", "--input", str(tmp_path / "neg.json"),
                     "--output", str(out), "--summands", "4"]) == EXIT_OBSTRUCTION
        assert main(["decompose", "--input", str(tmp_path / "broken.json"),
                     "--output", str(out)]) == EXIT_USAGE
        assert main(["decompose", "--input", str(tmp_path / "missing.json"),
                     "--output", str(out)]) == EXIT_USAGE
        assert main(["luders-demo", "--lambda=-1",
                     "--output", str(out)]) == EXIT_OBSTRUCTION
        assert main(["luders-demo", "--lambda", "2",
                     "--output", str(out)]) == EXIT_OK
        assert main(["--bogus"]) == EXIT_USAGE
        # deterministic CLI output for a fixed seed
        o1, o2 = tmp_path / "d1.json", tmp_path / "d2.json"
        for o in (o1, o2):
            assert main(["decompose", "--input", str(tmp_path / "id.json"),
                         "--output", str(o), "--summands", "4"]) == EXIT_OK
        assert o1.read_bytes() == o2.read_bytes()
    _report(10, "fixed-seed determinism, bit-exact JSON, CLI exit contract", timer)
