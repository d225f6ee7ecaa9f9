import dataclasses

import numpy as np
import pytest

from opsum.core import frob, hermitian_part, is_psd
from opsum.lab import (
    ExperimentRecord,
    OptimizationConfig,
    _block_solve,
    condition_study,
    optimize_sum_of_products,
    psd_project,
    residual_lower_bound,
    study_to_csv,
)
from opsum.randmat import planted_product_sum, random_complex, random_psd


def test_psd_project_properties(rng):
    for _ in range(20):
        M = random_complex(rng, 4)
        P = psd_project(M)
        assert np.linalg.eigvalsh(hermitian_part(P))[0] >= -1e-12
        # idempotent
        assert frob(psd_project(P) - P) <= 1e-12 * max(1.0, frob(P))
    # non-expansive around the cone
    for _ in range(20):
        X, Y = random_complex(rng, 3), random_complex(rng, 3)
        assert frob(psd_project(X) - psd_project(Y)) <= frob(X - Y) + 1e-10
    P = psd_project(np.diag([2.0, -3.0]))
    assert np.allclose(P, np.diag([2.0, 0.0]))


def test_residual_lower_bound_values():
    assert residual_lower_bound(-1.0) == 1.0
    assert residual_lower_bound(1j) == 1.0
    assert residual_lower_bound(2.0) == 0.0
    assert residual_lower_bound(-1 + 1j) == pytest.approx(np.sqrt(2.0))


def _fixed_factor(rng, n, kind):
    if kind == "zero":
        return np.zeros((n, n), dtype=complex)
    if kind == "rank-deficient":   # rank n // 2
        return random_complex(rng, n, n // 2) @ random_complex(rng, n // 2, n)
    return random_complex(rng, n)


@pytest.mark.parametrize("kind", ["generic", "zero", "rank-deficient"])
@pytest.mark.parametrize("n", range(1, 7))
def test_block_solve_never_increases_the_block_residual(n, kind):
    # a projected gradient step at 1/L never increases a convex L-smooth
    # objective, so the optimizer needs no backtracking
    rng = np.random.default_rng(n)
    for trial in range(10):
        fixed = _fixed_factor(rng, n, kind)
        R = random_complex(rng, n)
        start = random_psd(rng, n, (0.0, 2.0)) if trial % 3 else np.zeros((n, n), dtype=complex)
        X = _block_solve(start, fixed, R)
        assert np.array_equal(X, X.conj().T)
        assert is_psd(X)
        assert frob(X @ fixed - R) <= frob(start @ fixed - R) * (1 + 1e-12)


def test_optimize_identity_single_product():
    trace = optimize_sum_of_products(
        np.eye(2), OptimizationConfig(m=1, max_iterations=100, restarts=2, seed=0))
    assert trace.best_residual <= 1e-8
    assert trace.stop_reason == "target"


def test_optimize_respects_floor_neg_identity():
    trace = optimize_sum_of_products(
        -np.eye(4), OptimizationConfig(m=3, max_iterations=200, restarts=4, seed=1))
    assert trace.bound_floor == 1.0
    assert trace.best_residual >= 1.0 - 1e-6
    # the start point sum_j A_j B_j = 0 already sits on the exact Frobenius
    # floor sqrt(4) * dist(-1, R+) = 2, so the run is certified at once
    assert trace.stop_reason == "floor"
    assert len(trace.residual_history) == 1
    assert 2.0 <= trace.best_residual <= 2.0 * (1 + 1e-12)


def test_optimize_history_monotone(rng):
    T = random_complex(rng, 3)
    trace = optimize_sum_of_products(
        T, OptimizationConfig(m=2, max_iterations=150, restarts=3, seed=2))
    assert np.all(np.diff(trace.residual_history) <= 1e-15)


def test_optimize_planted_recovery():
    for m in (2, 3):
        rng = np.random.default_rng(500 + m)
        T, _ = planted_product_sum(rng, 2, m)
        trace = optimize_sum_of_products(
            T, OptimizationConfig(m=m, max_iterations=2000, restarts=50, seed=9,
                                  target_residual=1e-2))
        assert trace.best_residual <= 1e-2
        for A, B in trace.final_factors:
            assert np.linalg.eigvalsh(hermitian_part(A))[0] >= -1e-10
            assert np.linalg.eigvalsh(hermitian_part(B))[0] >= -1e-10


@pytest.mark.parametrize("seed, max_iterations, reason", [
    (None, 3, "budget"),
    # a generic 3x3 target is not a sum of two PSD products: the residual
    # levels off, and 60 iterations without progress end the restart
    (4, 400, "stall"),
], ids=["budget", "stall"])
def test_optimize_stop_reason_budget_and_stall(rng, seed, max_iterations, reason):
    T = random_complex(rng if seed is None else np.random.default_rng(seed), 3)
    trace = optimize_sum_of_products(
        T, OptimizationConfig(m=2, max_iterations=max_iterations, restarts=1, seed=4))
    assert trace.stop_reason == reason
    if reason == "budget":
        assert len(trace.residual_history) == 3
    else:
        assert 60 <= len(trace.residual_history) < 400
        assert trace.best_residual > 1.0


def test_optimize_config_validation():
    with pytest.raises(ValueError):
        OptimizationConfig(m=0)
    for bad in (float("nan"), float("inf"), -1e-8):
        with pytest.raises(ValueError, match="target_residual"):
            OptimizationConfig(target_residual=bad)
    assert OptimizationConfig(target_residual=0.0).target_residual == 0.0


@pytest.mark.parametrize("field_name", [
    "step_rule", "inner_steps", "stall_iterations", "stall_rtol"])
def test_optimize_config_removed_fields_rejected(field_name):
    assert [f.name for f in dataclasses.fields(OptimizationConfig)] == [
        "m", "max_iterations", "restarts", "seed", "target_residual"]
    with pytest.raises(TypeError, match=field_name):
        OptimizationConfig(**{field_name: 1})


def test_optimize_deterministic(rng):
    T = random_complex(rng, 2)
    cfg = OptimizationConfig(m=2, max_iterations=80, restarts=3, seed=11)
    t1 = optimize_sum_of_products(T, cfg)
    t2 = optimize_sum_of_products(T, cfg)
    assert np.array_equal(t1.residual_history, t2.residual_history)
    assert t1.best_residual == t2.best_residual
    assert t1.stop_reason == t2.stop_reason
    for (A1, B1), (A2, B2) in zip(t1.final_factors, t2.final_factors, strict=True):
        assert np.array_equal(A1, A2) and np.array_equal(B1, B2)


def test_condition_study_reproducible(tmp_path):
    records = condition_study([2, 4], [1.0, 0.1], trials=3, seed=42)
    assert len(records) == 12
    assert all(r.max_cond_s >= 1.0 for r in records if r.success)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    study_to_csv(records, p1)
    study_to_csv(condition_study([2, 4], [1.0, 0.1], trials=3, seed=42), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_condition_study_order_independent():
    a = condition_study([2, 4], [1.0, 0.1], trials=2, seed=7)
    b = condition_study([4, 2], [0.1, 1.0], trials=2, seed=7)
    assert sorted(map(str, a)) == sorted(map(str, b))


def test_condition_study_margin_trend():
    # conditioning degrades toward the feasibility boundary: reported, not asserted
    records = condition_study([4], [1.0, 0.01], trials=4, seed=3)
    by_margin = {}
    for r in records:
        if r.success:
            by_margin.setdefault(r.trace_margin, []).append(r.max_cond_s)
    meds = {m: np.median(v) for m, v in by_margin.items()}
    assert set(meds) <= {1.0, 0.01}


def test_condition_study_validation():
    with pytest.raises(ValueError):
        condition_study([3], [1.0], 1, 0)
    with pytest.raises(ValueError):
        condition_study([2], [-1.0], 1, 0)


@pytest.mark.parametrize("margin", [float("nan"), float("inf"), 0.0, -1.0])
def test_condition_study_rejects_nonfinite_or_nonpositive_margins(margin):
    with pytest.raises(ValueError, match="margins must be finite and positive"):
        condition_study([2], [margin], 1, 0)


@pytest.mark.parametrize("margin", [1.8e296, 1e300, 1.7e308])
def test_condition_study_rejects_margin_whose_key_overflows(margin):
    # the generator key int(round(margin * 1e12)) raised OverflowError here
    with pytest.raises(ValueError, match="margins must be finite and positive"):
        condition_study([2], [margin], 1, 0)


def test_condition_study_accepts_largest_finite_key():
    # 1.79e296 * 1e12 is still finite: the margin runs with the key it always
    # had, and the split of its huge target is exact
    (record,) = condition_study([2], [1.79e296], 1, 0)
    assert (record.trace_margin, record.success) == (1.79e296, True)
    assert record.residual <= 1e-12
