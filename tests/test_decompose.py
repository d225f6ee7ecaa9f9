import dataclasses
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import opsum.decompose
import opsum.lab
from opsum.core import eig, frob, is_psd, is_similar_to_positive, op_norm, positivity_certificate
from opsum.decompose import (
    DecompConfig,
    DeclinedError,
    DecompositionResult,
    ObstructionCertificate,
    ParameterError,
    SimilaritySummand,
    _certify,
    _identity_row_cond,
    _unit_triangular_cond,
    check_obstruction,
    four_summands,
    make_summand,
    sum_of_products,
    three_summands,
    to_positive_product,
    two_summands,
    verify_decomposition,
)
from opsum.core import ShapeError
from opsum.elementary import ElementaryOperator, hs_positivity, plant_luders_eigenvalue
from opsum.lab import OptimizationConfig, _block_solve
from opsum.randmat import (
    planted_summand_sum,
    random_complex,
    random_invertible,
    random_psd,
    random_real_trace,
    scalar_product_pairs,
)


# --- obstruction ------------------------------------------------------------

def test_obstruction_cases():
    assert check_obstruction(-np.eye(2)).reason == "nonpositive-real-trace"
    assert check_obstruction(1j * np.eye(2)).reason == "non-real-trace"
    assert check_obstruction(np.eye(2)) is None
    assert check_obstruction(np.zeros((2, 2))) is None
    # trace zero but nonzero matrix is obstructed
    assert check_obstruction(np.diag([1.0, -1.0])).reason == "nonpositive-real-trace"


def test_obstruction_certificate_condition_holds():
    cert = check_obstruction(np.diag([1j, 1j]))
    assert abs(cert.trace_value.imag) > 1e-9 * frob(np.diag([1j, 1j]))


def test_obstruction_sound_against_search(rng):
    # cross-module property: whenever a certificate is issued, no product-sum
    # search can get closer than the trace-derived floor dist(tr T, R+)/sqrt(n)
    from opsum.core import dist_to_rplus
    from opsum.lab import optimize_sum_of_products

    for n, shift in [(2, -2.0), (3, 1.5j), (2, -1.0 + 1.0j)]:
        T = random_complex(rng, n) * 0.3
        T = T - (np.trace(T) / n) * np.eye(n) + shift * np.eye(n)
        cert = check_obstruction(T)
        assert cert is not None
        floor = dist_to_rplus(complex(np.trace(T))) / np.sqrt(n)
        trace = optimize_sum_of_products(
            T, OptimizationConfig(m=2, max_iterations=150, restarts=3, seed=17))
        assert trace.best_residual >= floor - 1e-6


# --- four summands ----------------------------------------------------------

def test_four_summands_identity():
    result = four_summands(np.eye(2))
    assert isinstance(result, DecompositionResult)
    assert result.reconstruction_residual <= 1e-8
    total = sum(s.value for s in result.summands)
    assert frob(total - np.eye(2)) <= 1e-8
    report = verify_decomposition(np.eye(2), result, tol=1e-8,
                                  max_spectrum_points=2, min_pairwise_gap=1e-3)
    assert report.passed, report.failures()


def test_four_summands_small_example():
    T = np.array([[5.0, 1.0], [1.0, 0.0]])
    result = four_summands(T)
    assert result.reconstruction_residual <= 1e-7
    assert result.pairwise_spectra_gap >= 1e-3
    assert all(c <= 2 for c in result.spectra_point_counts)


def test_four_summands_obstructions():
    assert four_summands(-np.eye(2)).reason == "nonpositive-real-trace"
    assert four_summands(1j * np.eye(2)).reason == "non-real-trace"


def test_four_summands_rejects_odd_dimension():
    with pytest.raises(ShapeError):
        four_summands(np.eye(3))


def test_four_summands_zero_target():
    result = four_summands(np.zeros((2, 2)))
    assert isinstance(result, DecompositionResult)
    assert result.reconstruction_residual == 0.0


def test_four_summands_random_family(rng):
    for n in (2, 4, 6, 8):
        for _ in range(10):
            T = random_real_trace(rng, n, trace=rng.uniform(1.0, float(2 * n)))
            result = four_summands(T)
            assert isinstance(result, DecompositionResult)
            report = verify_decomposition(T, result, tol=1e-6,
                                          max_spectrum_points=2,
                                          min_pairwise_gap=1e-3)
            assert report.passed, (n, report.failures())
            assert result.diagnostics["block_identity_residual"] <= 1e-8 * max(1.0, frob(T))


def test_four_summands_n256(rng):
    T = random_real_trace(rng, 256, trace=256.0)
    result = four_summands(T)
    report = verify_decomposition(T, result, tol=1e-6, max_spectrum_points=2,
                                  min_pairwise_gap=1e-3)
    assert report.passed, report.failures()


@pytest.mark.parametrize("n", [8, 64])
def test_four_summands_statistics_match_verify(rng, n):
    # the result reads spectra off the middles P; verify recomputes them from
    # the summand values S P S^-1
    T = random_real_trace(rng, n, trace=float(n))
    result = four_summands(T)
    report = verify_decomposition(T, result, tol=1e-6, max_spectrum_points=n,
                                  min_pairwise_gap=0.0)
    checks = {c.name: c for c in report.checks}
    assert checks["spectrum-point-counts"].detail == \
        f"distinct eigenvalues per summand: {result.spectra_point_counts}"
    assert abs(checks["pairwise-spectra-gap"].measured - result.pairwise_spectra_gap) \
        <= 1e-9 * op_norm(T)


@pytest.mark.parametrize("split, m", [(two_summands, 2), (three_summands, 3),
                                      (four_summands, 4)])
def test_zero_target_statistics(split, m):
    result = split(np.zeros((4, 4)))
    assert result.spectra_point_counts == (1,) * m
    assert result.pairwise_spectra_gap == 0.0
    assert len(result.product_form) == m
    for A, B in result.product_form:
        assert np.array_equal(A, np.eye(4)) and np.array_equal(B, np.zeros((4, 4)))


@pytest.mark.parametrize("n, margin", [(2, 2.2127), (8, 4.5)])
def test_four_summands_nudges_weights_apart(n, margin):
    # above t = 4k, a first middle of trace k would meet one of the
    # b_j + delta at these traces; trace(a1) = t / 4 puts alpha at 2 delta
    T = random_real_trace(np.random.default_rng(n), n, margin * n)
    result = four_summands(T)
    diagnostics = result.diagnostics
    assert diagnostics["b_weights"] == (0.2, 0.3, 0.5)
    assert result.pairwise_spectra_gap >= 1.5 * diagnostics["sep_margin"]
    report = verify_decomposition(T, result, tol=1e-6, max_spectrum_points=2,
                                  min_pairwise_gap=diagnostics["sep_margin"])
    assert report.passed, report.failures()


def test_four_summand_params_removed():
    import opsum
    assert not hasattr(opsum, "FourSummandParams")
    assert not hasattr(opsum.decompose, "FourSummandParams")
    T = random_real_trace(np.random.default_rng(0), 4, trace=4.0)
    with pytest.raises(TypeError):
        four_summands(T, None)
    with pytest.raises(TypeError):
        sum_of_products(T, 4, None, None)


_I2 = np.eye(2)


@pytest.mark.parametrize("call, name", [
    (lambda: eig(_I2, tol=1e-9), "tol"),
    (lambda: check_obstruction(_I2, tol=1e-9), "tol"),
    (lambda: ElementaryOperator.build([(_I2, _I2)], tol=1e-9), "tol"),
    (lambda: ElementaryOperator.build([(_I2, _I2)]).coefficients_psd(tol=1e-9), "tol"),
    (lambda: hs_positivity(ElementaryOperator.build([(_I2, _I2)]), tol=1e-9), "tol"),
    (lambda: plant_luders_eigenvalue(1.0, [(_I2, _I2)], tol=1e-8), "tol"),
    (lambda: scalar_product_pairs(1.0, 2, 3, None, cond=3.0), "cond"),
    (lambda: _block_solve(_I2, _I2, _I2, "A"), "positional"),
], ids=["eig", "check_obstruction", "build", "coefficients_psd", "hs_positivity",
        "plant_luders_eigenvalue", "scalar_product_pairs", "block_solve_side"])
def test_retired_parameters_rejected(call, name):
    with pytest.raises(TypeError, match=name):
        call()


def test_retired_tolerance_field_and_step_fractions():
    fields = dataclasses.fields(ElementaryOperator)
    assert [f.name for f in fields] == ["pairs", "dim", "is_luders"]
    assert not hasattr(opsum.lab, "_STEP_FRACTIONS")


def test_four_summands_small_scalar_target():
    T = 0.1 * np.eye(4)
    result = four_summands(T)
    margin = result.diagnostics["sep_margin"]
    report = verify_decomposition(T, result, tol=1e-6, max_spectrum_points=2,
                                  min_pairwise_gap=margin)
    assert report.passed, report.failures()


def _check_fixed_table(n, t, seed):
    # a margin-1 target scaled to Re tr T = t, so its similarities stay
    # well conditioned at every t
    T = (t / n) * random_real_trace(np.random.default_rng(seed), n, float(n))
    result = four_summands(T)
    margin = result.diagnostics["sep_margin"]
    assert result.diagnostics["b_weights"] == (0.2, 0.3, 0.5)
    # the gap 0.15 delta is exactly 1.5 margins once delta / 10 <= 1e-3 sets
    # the margin, so the floats may round a few ulps under it
    assert result.pairwise_spectra_gap >= 1.5 * margin * (1.0 - 1e-12)
    report = verify_decomposition(T, result, tol=1e-6, max_spectrum_points=2,
                                  min_pairwise_gap=margin)
    assert report.passed, (n, t, report.failures())
    # up to t = 4k the first middle keeps the parent's trace(a1)
    t_re = float(np.trace(T).real)
    if t_re <= 2 * n:
        assert result.diagnostics["trace_a1"] == min(n // 2, t_re / 2)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_four_summands_fixed_table_grid(n):
    k = n // 2
    # log-spaced traces plus the two breakpoints of trace(a1) and their
    # neighbours
    breaks = [r * k * (1.0 + e) for r in (2.0, 4.0) for e in (-1e-9, 0.0, 1e-9)]
    for t in sorted([*np.logspace(-6, 6, 25), *breaks]):
        _check_fixed_table(n, float(t), seed=n)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([2, 4, 6, 8]), log_t=st.floats(-6.0, 6.0),
       seed=st.integers(0, 2**32 - 1))
def test_four_summands_fixed_table_property(n, log_t, seed):
    _check_fixed_table(n, 10.0 ** log_t, seed)


@pytest.mark.parametrize("n, margin", [(2, 2.2127), (4, 3.0), (8, 50.0)])
def test_four_summands_scale_covariant_above_4k(n, margin):
    # above t = 4k every middle is proportional to t, so scaling by a power
    # of two scales the middles exactly and leaves S_j bit for bit
    T = random_real_trace(np.random.default_rng(n), n, margin * n)
    one, four = four_summands(T), four_summands(4 * T)
    for s, s4 in zip(one.summands, four.summands):
        assert np.array_equal(s4.S, s.S)
        assert np.array_equal(s4.P, 4 * s.P)


def test_two_summands_tiny_traceless_part_is_obstructed():
    # np.linalg.norm squares 1e-170 to 0: the target is not the zero matrix
    T = np.diag([1e-170, -2e-170])
    cert = two_summands(T)
    assert isinstance(cert, ObstructionCertificate)
    assert cert.reason == "nonpositive-real-trace"
    assert check_obstruction(T).reason == "nonpositive-real-trace"


@pytest.mark.parametrize("scale", [1e-170, 1e200])
def test_four_summands_extreme_scales(scale):
    # the Frobenius norms of these targets underflow or overflow when the
    # entries are squared unscaled
    T = scale * np.array([[2.0, 1.0], [0.0, 1.0]])
    result = four_summands(T)
    assert 0.0 < frob(sum(s.value for s in result.summands)) < np.inf
    assert result.reconstruction_residual <= 1e-12
    report = verify_decomposition(T, result, tol=1e-12, max_spectrum_points=2,
                                  min_pairwise_gap=result.diagnostics["sep_margin"])
    assert report.passed, report.failures()


def test_four_summands_delta_underflow_raises():
    with pytest.raises(ParameterError, match="underflows"):
        four_summands(np.diag([1e-310, 0.0]))


def test_four_summands_solver_config_removed(rng):
    T = random_real_trace(rng, 4, trace=4.0)
    with pytest.raises(TypeError, match="solver_config"):
        four_summands(T, solver_config=None)


def test_four_summands_summand_structure(rng):
    T = random_real_trace(rng, 4, trace=5.0)
    result = four_summands(T)
    for s in result.summands:
        assert is_psd(s.P)
        assert is_similar_to_positive(positivity_certificate(s.value, tol=1e-8))
        assert frob(s.S @ s.P @ np.linalg.inv(s.S) - s.value) <= 1e-10 * max(1.0, frob(s.value))


@pytest.mark.parametrize("n", [4, 16, 64])
def test_four_summands_documented_block_form(n):
    # S_j = [[I, x_j], [y_j, I + y_j x_j]] with y_1 = 0, x_2 = 0, y_3 = I, and
    # middles diag(p_j I, q_j I) with q_1 = 0 and p_j - q_j = delta for j >= 2
    T = random_real_trace(np.random.default_rng([n, 0]), n, float(n))
    result = four_summands(T)
    k = n // 2
    eye = np.eye(k)
    delta = result.diagnostics["delta"]
    for j, s in enumerate(result.summands):
        x, y = s.S[:k, k:], s.S[k:, :k]
        assert np.array_equal(s.S[:k, :k], eye)
        assert frob(s.S[k:, k:] - (eye + y @ x)) <= 1e-12 * frob(eye + y @ x)
        p, q = s.P[0, 0].real, s.P[k, k].real
        assert np.array_equal(s.P, np.diag(np.repeat([p, q], k)))
        # the statistics read each spectrum off the diagonal of P
        assert np.array_equal(np.sort(np.diagonal(s.P).real), np.linalg.eigvalsh(s.P))
        if j == 0:
            assert q == 0.0
        else:
            assert abs((p - q) - delta) <= 4 * np.finfo(float).eps * p
    assert np.array_equal(result.summands[0].S[k:, :k], np.zeros((k, k)))
    assert np.array_equal(result.summands[1].S[:k, k:], np.zeros((k, k)))
    assert np.array_equal(result.summands[2].S[k:, :k], eye)
    assert result.spectra_point_counts == (2, 2, 2, 2)


def test_verify_rejects_perturbed_summand(rng):
    T = random_real_trace(rng, 4, trace=5.0)
    result = four_summands(T)
    bad = list(result.summands)
    s = bad[1]
    noise = 1e-3 * frob(T) * random_complex(rng, 4)
    bad[1] = make_summand(s.S, s.P + noise.conj().T @ noise / frob(noise))
    import dataclasses
    broken = dataclasses.replace(result, summands=tuple(bad))
    report = verify_decomposition(T, broken, tol=1e-6)
    assert not report.passed
    assert any(c.name == "reconstruction" for c in report.failures())


def _hand_built(S, P) -> tuple[np.ndarray, DecompositionResult]:
    """A one-summand result S P S^-1 and its own value as the target."""
    s = make_summand(S, P)
    result = DecompositionResult(
        summands=(s,), reconstruction_residual=0.0, spectra_point_counts=(2,),
        pairwise_spectra_gap=np.inf, product_form=((np.eye(2), s.value),),
        method="hand-built")
    return s.value, result


def test_verify_fails_non_psd_middle():
    T, result = _hand_built(np.eye(2), np.diag([1.0, -0.5]))
    checks = {c.name: c for c in verify_decomposition(T, result).checks}
    assert checks["reconstruction"].passed
    assert not checks["middle-blocks-psd"].passed
    assert checks["middle-blocks-psd"].measured == -0.5
    assert not checks["summands-similar-to-positive"].passed
    assert checks["summands-similar-to-positive"].detail.startswith("summand 0: neither")


def test_verify_fails_tampered_middle(rng):
    # one negative diagonal entry in a middle: the inverse certificate needs a
    # PSD middle, and eig of the value exposes the negative eigenvalue
    T = random_real_trace(rng, 8, trace=8.0)
    result = four_summands(T)
    bad = list(result.summands)
    P = bad[1].P.copy()
    P[0, 0] = -0.5
    bad[1] = make_summand(bad[1].S, P)
    report = verify_decomposition(T, dataclasses.replace(result, summands=tuple(bad)))
    checks = {c.name: c for c in report.checks}
    assert not checks["middle-blocks-psd"].passed
    sim = checks["summands-similar-to-positive"]
    assert not sim.passed
    assert sim.detail.startswith("summand 1: neither (no inverse certificate: P is not "
                                 "Hermitian PSD; spectrum leaves [0, inf)")


def test_verify_fails_non_hermitian_middle_with_jordan_value():
    # S = [[1, 1], [0, t]] and P = [[1, t], [0, 1]] give the Jordan block J;
    # S is invertible with cond(S) ~ 2 / t, but P is not Hermitian, so the
    # inverse certificate does not apply, and eig finds no basis for J
    for t in (2.5e-8, 1e-6, 1e-4, 1e-2):
        S = np.array([[1.0, 1.0], [0.0, t]])
        P = np.array([[1.0, t], [0.0, 1.0]])
        T, result = _hand_built(S, P)
        assert np.allclose(T, [[1.0, 1.0], [0.0, 1.0]])
        checks = {c.name: c for c in verify_decomposition(T, result).checks}
        assert checks["reconstruction"].passed
        assert not checks["middle-blocks-psd"].passed
        sim = checks["summands-similar-to-positive"]
        assert not sim.passed
        assert sim.detail.startswith(
            "summand 0: neither (no inverse certificate: P is not Hermitian PSD; "
            "no eigenvector basis with condition number below 1.0e+08")
    # a middle within is_psd's tolerance of Hermitian PSD, behind a diagonal
    # S, gives the Jordan-like [[1, 1e-3], [0, 1]]: the certificate needs an
    # exactly Hermitian P
    T, result = _hand_built(np.diag([1.0, 1e-7]), np.array([[1.0, 1e-10], [0.0, 1.0]]))
    checks = {c.name: c for c in verify_decomposition(T, result).checks}
    assert checks["middle-blocks-psd"].passed
    sim = checks["summands-similar-to-positive"]
    assert not sim.passed
    assert sim.detail.startswith(
        "summand 0: neither (no inverse certificate: P is not Hermitian PSD; "
        "no eigenvector basis with condition number below 1.0e+08")


def _count_calls(monkeypatch, module, names, calls):
    """Record (name, first dimension) of each call of ``module.<name>``."""
    for name in names:
        original = getattr(module, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(a)[0]))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_four_summands_and_verify_run_no_eigensolve(n, seed, monkeypatch):
    # four_summands runs no eigensolve: the zero-diagonalization's 2x2 plane
    # solves are scalar arithmetic, three cond(S_j) come in closed form from
    # a k x k 2-norm, and only the fourth, (x4, y4), takes an n x n SVD; its
    # spectrum statistics run no op_norm SVD.  Verify certifies every summand
    # from its own S^-1 with matrix products, and decides the product form's
    # cond(S) from norm bounds: no SVD, no eigensolve, no inverse and no
    # solve.  The product-form factors are Gram factors, exactly Hermitian
    # with no hermitian_part, and pass a zpotrf screen, not np.linalg.cholesky
    calls = []
    _count_calls(monkeypatch, np.linalg,
                 ("svd", "cond", "eig", "eigvals", "eigh", "eigvalsh", "inv", "solve",
                  "cholesky"), calls)
    _count_calls(monkeypatch, opsum.decompose, ("op_norm", "hermitian_part"), calls)
    _count_calls(monkeypatch, opsum.core, ("op_norm", "hermitian_part"), calls)
    T = random_real_trace(np.random.default_rng([n, seed]), n, n * 1.0)
    result = four_summands(T)
    assert calls == [("cond", n)]
    calls.clear()
    report = verify_decomposition(T, result, max_spectrum_points=2, min_pairwise_gap=1e-3)
    assert report.passed
    assert calls == []


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 16, 33, 64])
def test_table_condition_numbers_in_closed_form(k):
    # rows (x, 0), (0, y) and (x, I) of the table, against the SVD, whose own
    # error is about n eps cond; the closed forms add a few roundings
    rng = np.random.default_rng([k, 7])
    eye, zero = np.eye(k), np.zeros((k, k))
    for scale in (1e-2, 1e-1, 1.0, 1e2, 1e4):
        x = scale * (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / math.sqrt(k)
        for S, cond in ((np.block([[eye, x], [zero, eye]]), _unit_triangular_cond(x)),
                        (np.block([[eye, zero], [x, eye]]), _unit_triangular_cond(x)),
                        (np.block([[eye, x], [eye, eye + x]]), _identity_row_cond(x))):
            ref = np.linalg.cond(S)
            assert abs(cond - ref) <= (2 * k + 4) * np.finfo(float).eps * ref * ref


@pytest.mark.parametrize("n", [2, 16, 64])
def test_four_summands_condition_numbers(n):
    # the fourth summand keeps its SVD bit for bit; the other three agree
    # with it to the SVD's accuracy
    T = random_real_trace(np.random.default_rng([n, 3]), n, 1.0 * n)
    summands = four_summands(T).summands
    assert summands[3].condition_number == float(np.linalg.cond(summands[3].S))
    for s in summands[:3]:
        ref = np.linalg.cond(s.S)
        assert abs(s.condition_number - ref) <= (n + 4) * np.finfo(float).eps * ref * ref


def test_four_summands_factors_no_similarity(monkeypatch):
    # every table summand carries S^-1 in closed form, so neither its value
    # nor its product form runs solve or inv
    calls = []
    for name in ("solve", "inv"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    T = random_real_trace(np.random.default_rng([16, 1]), 16, 16.0)
    result = four_summands(T)
    assert calls == []
    assert verify_decomposition(T, result, tol=1e-6).passed


@pytest.mark.parametrize("split, T", [
    (four_summands, np.zeros((4, 4))),
    (three_summands, np.zeros((4, 4))),
    (two_summands, np.zeros((4, 4))),
    (three_summands, np.eye(4)),
])
def test_equal_summands_built_once(monkeypatch, split, T):
    # the zero target and the equal split of a PSD target repeat one summand,
    # so S is inverted once, not once per summand; the zero target's S = I is
    # its own inverse and is not inverted at all
    calls = []
    original = np.linalg.inv

    def counted(a, *args, **kwargs):
        calls.append(a)
        return original(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "inv", counted)
    result = split(T)
    assert len({id(s) for s in result.summands}) == 1
    assert len(calls) == (1 if T.any() else 0)
    assert verify_decomposition(T, result, tol=1e-6).passed


def _assert_inverse_at_rounding_level(result):
    eps = np.finfo(float).eps
    for s in result.summands:
        n = s.S.shape[0]
        assert frob(s.S @ s.S_inv - np.eye(n)) <= n * eps * s.condition_number


@pytest.mark.parametrize("n, margin", [(2, 1.0), (4, 0.1), (16, 1.0), (16, 0.1), (64, 1.0)])
def test_four_summands_closed_form_inverse(n, margin):
    T = random_real_trace(np.random.default_rng([n, 1, int(100 * margin)]), n, margin * n)
    _assert_inverse_at_rounding_level(four_summands(T))


@pytest.mark.parametrize("split", [two_summands, three_summands])
@pytest.mark.parametrize("T", [
    np.diag([1.0, 2.0, 3.0]),                                         # shortcut
    np.array([[2.0, 1.0], [0.0, 1.0]]),                               # shortcut
    random_real_trace(np.random.default_rng([3, 1, 1000]), 3, 30.0),  # triangular
    random_real_trace(np.random.default_rng([9, 1, 1000]), 9, 90.0),  # triangular
    np.zeros((3, 3)),                                                 # zero target
])
def test_split_summands_inverse(split, T):
    _assert_inverse_at_rounding_level(split(T))


def test_make_summand_inverse_is_inv_bit_for_bit(rng):
    for n in (1, 2, 5, 16):
        S = random_invertible(rng, n)
        s = make_summand(S, random_psd(rng, n))
        assert s.S_inv.tobytes() == np.linalg.inv(s.S).tobytes()
        assert s.S_inv.tobytes() == np.linalg.inv(np.asarray(S, dtype=complex)).tobytes()


def _assert_witness_is_s(s):
    """For a diagonal P the inverse certificate's basis is S itself: the
    eigh witness S W holds the same columns, bit for bit, in the order eigh
    lists P's diagonal, and the spectrum read off that diagonal is
    eigvalsh's, bit for bit; the certificate covers the summand."""
    W = np.linalg.eigh(s.P)[1]
    order = np.argmax(np.abs(W), axis=0)
    assert np.array_equal(W, np.eye(len(order))[:, order])
    assert (s.S @ W).tobytes() == s.S[:, order].tobytes()
    cert = _certify(s)
    assert cert.failure == ""
    assert cert.spectrum.tobytes() == np.linalg.eigvalsh(s.P).tobytes()


@pytest.mark.parametrize("n, margin", [(4, 1.0), (4, 0.1), (8, 1.0), (8, 0.1), (16, 1.0),
                                       (16, 0.1), (32, 1.0), (32, 0.1), (64, 1.0), (128, 1.0)])
def test_diagonal_middle_witness_is_eigh_witness_bit_for_bit(n, margin):
    T = random_real_trace(np.random.default_rng([n, 3]), n, margin * n)
    for s in four_summands(T).summands:
        _assert_witness_is_s(s)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 26, 33, 65])
def test_eigh_order_matches_eigh_on_ties(n):
    # eigh lists unequal blocks of equal entries in an order no stable sort
    # gives; the certificate keeps the order of S, which certifies as well
    rng = np.random.default_rng(n)
    S = random_invertible(rng, n)
    for values in ([0.5], [0.7, 0.2], [0.0, 0.3, 0.1]):
        _assert_witness_is_s(make_summand(S, np.diag(rng.choice(values, n)).astype(complex)))


def test_verify_fails_ill_conditioned_summand():
    # S P S^-1 is about [[1, 1], [0, 1]]: a PSD middle behind a similarity of
    # cond 1e12 gives a value whose eigenvector basis exceeds the cap
    S = np.array([[1.0, 1.0], [0.0, 1e-12]])
    T, result = _hand_built(S, np.diag([1.0, 1.0 + 1e-12]))
    assert np.allclose(T, [[1.0, 1.0], [0.0, 1.0]], atol=1e-3)
    checks = {c.name: c for c in verify_decomposition(T, result).checks}
    assert checks["middle-blocks-psd"].passed
    sim = checks["summands-similar-to-positive"]
    assert not sim.passed
    assert "no eigenvector basis with condition number below 1.0e+08" in sim.detail

def _with_summand(result, j, summand, pair=None):
    """``result`` with summand j (and product pair j) replaced."""
    summands = list(result.summands)
    product_form = list(result.product_form)
    summands[j] = summand
    product_form[j] = product_form[j] if pair is None else pair
    return dataclasses.replace(result, summands=tuple(summands), product_form=tuple(product_form))


@pytest.mark.parametrize("defect, check", [
    ("perturbed-inverse", "product-form"),
    ("singular-similarity", "summands-similar-to-positive"),
    ("non-psd-middle", "middle-blocks-psd"),
    ("pairs-miss-target", "product-form"),
    ("no-pairs", "product-form"),
    ("one-pair", "product-form"),
    ("fifth-pair", "product-form"),
    ("misshapen-pair", "product-form"),
    ("non-finite-pair", "product-form"),
])
def test_verify_names_each_defect(defect, check):
    # a four-term result at n = 16 with one defect fails the check that
    # names it; the inverse certificate lets none of them through
    T = random_real_trace(np.random.default_rng([16, 1]), 16, 16.0)
    result = four_summands(T)
    assert verify_decomposition(T, result).passed
    # summand 0 has cond(S) 7e2, where the product form's allowance is 1e-8
    s = result.summands[0]
    if defect == "perturbed-inverse":
        # S^-1 off by 1e-6 relative, and the product form built from it:
        # the certificate refuses an S_inv that is not S^-1 to working precision
        noise = random_complex(np.random.default_rng(5), 16)
        bad = dataclasses.replace(s, S_inv=s.S_inv + 1e-6 * frob(s.S_inv) / frob(noise) * noise)
        assert _certify(bad).failure.startswith("S_inv is not S^-1 to working precision")
        broken = _with_summand(result, 0, bad, opsum.decompose._positive_product(bad))
    elif defect == "singular-similarity":
        S = s.S.copy()
        S[:, 0] = 0.0
        bad = dataclasses.replace(s, S=S)
        assert _certify(bad).failure.startswith("S_inv is not S^-1 to working precision")
        broken = _with_summand(result, 0, bad)
    elif defect == "non-psd-middle":
        P = s.P.copy()
        P[0, 0] = -P[0, 0]
        bad = make_summand(s.S, P)
        assert _certify(bad).failure == "P is not Hermitian PSD"
        broken = _with_summand(result, 0, bad)
    elif defect == "pairs-miss-target":
        other = four_summands(random_real_trace(np.random.default_rng([16, 2]), 16, 16.0))
        broken = dataclasses.replace(result, product_form=other.product_form)
    else:
        # too few or too many pairs, or a pair that is not two finite 16 x 16
        # matrices, fail product-form alone, with a detail that says why
        A, B = result.product_form[0]
        B_nan = B.copy()
        B_nan[0, 1] = np.nan
        pairs, detail = {
            "no-pairs": ((), "0 product pairs for 4 summands"),
            "one-pair": (result.product_form[:1], "1 product pairs for 4 summands"),
            "fifth-pair": (result.product_form + result.product_form[:1],
                           "5 product pairs for 4 summands"),
            "misshapen-pair": (((A[:-1, :-1], B),) + result.product_form[1:],
                               "pair 0 has factors of shape (15, 15) and (16, 16)"),
            "non-finite-pair": (((A, B_nan),) + result.product_form[1:],
                                "pair 0 factor contains non-finite entries"),
        }[defect]
        broken = dataclasses.replace(result, product_form=pairs)
        report = verify_decomposition(T, broken)
        assert [c.name for c in report.failures()] == ["product-form"]
        assert report.failures()[0].detail.startswith(detail)
    report = verify_decomposition(T, broken)
    assert not report.passed
    failed = {c.name: c for c in report.failures()}
    assert check in failed
    if defect == "singular-similarity":
        assert "S is singular" in failed[check].detail
    if defect == "non-psd-middle":
        assert "summands-similar-to-positive" in failed


def test_verify_rejects_inverse_that_is_not_the_inverse():
    # S = I carried with S_inv = W != I (||S_inv S - I||_F = 0.3 < 1): the
    # value (S P) S_inv = [[1, 0.3], [0, 2]] and the product pair
    # (W W*, W^-* P W^-1) agree with each other and with T, yet
    # S P S^-1 = P misses T
    W = np.array([[1.0, 0.3], [0.0, 1.0]])
    P = np.diag([1.0, 2.0])
    T = P @ W
    s = SimilaritySummand(S=np.eye(2), P=P, condition_number=1.0, S_inv=W)
    assert np.array_equal(s.value, T)
    W_inv = np.linalg.inv(W)
    result = DecompositionResult(
        summands=(s,), reconstruction_residual=0.0, spectra_point_counts=(2,),
        pairwise_spectra_gap=np.inf, product_form=((W @ W.T, W_inv.T @ P @ W_inv),),
        method="hand-built")
    assert _certify(s).failure.startswith("S_inv is not S^-1 to working precision")
    report = verify_decomposition(T, result)
    assert {c.name for c in report.failures()} == {"reconstruction", "product-form"}


def test_shortcut_inverts_witness_once(monkeypatch):
    # the eig path of the certificate has inverted the witness V already
    calls = []
    _count_calls(monkeypatch, np.linalg, ("inv",), calls)
    result = two_summands([[2.0, 1.0], [0.0, 1.0]])
    assert result.method == "shortcut"
    assert calls == [("inv", 2)]


def test_shortcut_takes_witness_condition_from_certificate(monkeypatch):
    # ||A||_2, then the certificate's cond(V) and witness residual: three
    # SVDs, none of them a second cond(V)
    calls = []
    _count_calls(monkeypatch, np.linalg, ("svd", "cond"), calls)
    _count_calls(monkeypatch, opsum.decompose, ("op_norm",), calls)
    _count_calls(monkeypatch, opsum.core, ("op_norm",), calls)
    result = two_summands([[2.0, 1.0], [0.0, 1.0]])
    assert result.method == "shortcut"
    assert calls == [("op_norm", 2), ("cond", 2), ("op_norm", 2)]
    pc = positivity_certificate(np.array([[2.0, 1.0], [0.0, 1.0]]))
    assert pc.kind == "similar-to-positive"
    assert {s.condition_number for s in result.summands} == {pc.witness_condition}


#: One target per summand-building path: shortcut (similar to positive, and
#: PSD), triangular m = 2 and 3, four-term, and the zero target.
_PATHS = [
    (two_summands, np.array([[2.0, 1.0], [0.0, 1.0]])),
    (three_summands, np.diag([1.0, 2.0, 3.0])),
    (two_summands, random_real_trace(np.random.default_rng([9, 1, 1000]), 9, 90.0)),
    (three_summands, random_real_trace(np.random.default_rng([9, 1, 1000]), 9, 90.0)),
    (four_summands, random_real_trace(np.random.default_rng([16, 1]), 16, 16.0)),
    (four_summands, np.zeros((4, 4))),
    (two_summands, np.zeros((3, 3))),
]


@pytest.mark.parametrize("split, T", _PATHS)
def test_summand_value_is_formed_from_its_factors(split, T):
    result = split(T)
    assert result.method in ("shortcut", "constructive", "four-term")
    for s in result.summands:
        # every pipeline builds a diagonal P
        assert s.value.tobytes() == ((s.S * np.diagonal(s.P)) @ s.S_inv).tobytes()
        W = s.S_inv + 1e-3
        assert dataclasses.replace(s, S_inv=W).value.tobytes() == (
            (s.S * np.diagonal(s.P)) @ W).tobytes()


def test_summand_value_takes_no_argument(rng):
    S, P = random_invertible(rng, 4), random_psd(rng, 4)
    s = make_summand(S, P)
    assert s.value.tobytes() == ((s.S @ s.P) @ np.linalg.inv(s.S)).tobytes()
    with pytest.raises(TypeError):
        SimilaritySummand(s.S, s.P, s.condition_number, s.S_inv, s.value)
    with pytest.raises(TypeError):
        SimilaritySummand(S=s.S, P=s.P, condition_number=1.0, S_inv=s.S_inv, value=s.value)
    with pytest.raises(ValueError):
        dataclasses.replace(s, value=np.zeros((4, 4)))


@pytest.mark.parametrize("split, T", _PATHS)
def test_reconstruction_residual_is_verify_measurement(split, T):
    result = split(T)
    checks = {c.name: c for c in verify_decomposition(T, result).checks}
    assert checks["reconstruction"].measured == result.reconstruction_residual


def test_builds_and_verify_run_no_solve(rng, monkeypatch):
    # every value is (S P) S_inv, so no build solves, and verify solves only
    # in its fallback: once for a summand whose S_inv is tampered with, which
    # it recomputes from S and P alone
    calls = []
    _count_calls(monkeypatch, np.linalg, ("solve",), calls)
    S, P = random_invertible(rng, 5), random_psd(rng, 5)
    make_summand(S, P)
    to_positive_product(S, P)
    for split, T in _PATHS:
        result = split(T)
        assert verify_decomposition(T, result).passed
        assert calls == []
        s = result.summands[0]
        tampered = dataclasses.replace(s, S_inv=s.S_inv + 1e-3)
        assert _certify(tampered).failure.startswith("S_inv is not S^-1")
        calls.clear()
        broken = _with_summand(result, 0, tampered)
        checks = {c.name: c for c in verify_decomposition(T, broken).checks}
        assert checks["reconstruction"].passed
        assert calls == [("solve", T.shape[0])]
        calls.clear()


def _distinct_points_loop(values, resolution) -> int:
    """The greedy count over every value, in order: the oracle for
    :func:`opsum.decompose._distinct_points`."""
    pts = []
    for v in np.asarray(values, dtype=complex).ravel():
        if not any(abs(v - p) <= resolution for p in pts):
            pts.append(v)
    return len(pts)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-7, 1.5, 2.0, 3.0, 1j, 1 + 1j]),
                       min_size=1, max_size=12),
       resolution=st.sampled_from([0.0, 1e-7, 0.5, 0.75, 1.0, 2.0]))
def test_distinct_points_matches_loop_on_sorted_spectra(values, resolution):
    # both callers pass spectra sorted by (Re, Im): np.sort of a real
    # diagonal, eigh, or the certificate's sorted eigenvalues
    w = np.asarray(values, dtype=complex)
    w = w[np.lexsort((w.imag, w.real))]
    assert opsum.decompose._distinct_points(w, resolution) == _distinct_points_loop(w, resolution)
    real = np.sort(w.real)
    assert opsum.decompose._distinct_points(real, resolution) == \
        _distinct_points_loop(real, resolution)


# --- positive products ------------------------------------------------------

def _assert_gram_factors(s, pair):
    """The pair is exactly Hermitian, within n eps (relative, Frobenius) of
    the dense S S* and (S^-1)* P S^-1 formed from the summand's own S^-1,
    and passes is_psd."""
    n = s.S.shape[0]
    dense = (s.S @ s.S.conj().T, s.S_inv.conj().T @ s.P @ s.S_inv)
    for M, ref in zip(pair, dense):
        assert np.array_equal(M, M.conj().T)
        assert frob(M - ref) <= n * np.finfo(float).eps * frob(ref)
        assert is_psd(M)


@pytest.mark.parametrize("split, T", _PATHS + [
    (four_summands, random_real_trace(np.random.default_rng([n, 4, 100]), n, 1.0 * n))
    for n in (2, 4, 8, 32, 64, 128)])
def test_product_form_is_exactly_hermitian_gram_factors(split, T, monkeypatch):
    # every pipeline: shortcut, triangular, zero target, and all four rows of
    # the four-summand table; none runs hermitian_part
    calls = []
    _count_calls(monkeypatch, opsum.decompose, ("hermitian_part",), calls)
    result = split(T)
    assert calls == []
    assert len(result.product_form) == len(result.summands)
    for s, pair in zip(result.summands, result.product_form):
        _assert_gram_factors(s, pair)


def _count_zherk(monkeypatch, calls):
    """Record (name, shape of the factor) of each ``zherk`` the product form runs."""
    original = opsum.decompose.zherk

    def counted(alpha, a, *args, **kwargs):
        calls.append(("zherk", np.shape(a)))
        return original(alpha, a, *args, **kwargs)
    monkeypatch.setattr(opsum.decompose, "zherk", counted)


def test_table_product_form_skips_zero_and_identity_blocks(monkeypatch):
    # k x k zherk per factor: one for each of the rows (x1, 0) and (0, y2),
    # two for (x3, I) and three for (x4, y4); a 0 or I block takes none
    calls = []
    _count_zherk(monkeypatch, calls)
    T = random_real_trace(np.random.default_rng([16, 1]), 16, 16.0)
    result = four_summands(T)
    assert calls == [("zherk", (8, 8))] * (2 * 1 + 2 * 1 + 2 * 2 + 2 * 3)
    for s, pair in zip(result.summands, result.product_form):
        _assert_gram_factors(s, pair)


def test_to_positive_product_non_diagonal_middle_keeps_dense_path(rng, monkeypatch):
    # a non-diagonal P takes the dense products and their Hermitian parts;
    # a diagonal P >= 0 takes two zherk
    calls = []
    _count_calls(monkeypatch, opsum.decompose, ("hermitian_part",), calls)
    _count_zherk(monkeypatch, calls)
    S, P = random_invertible(rng, 6), random_psd(rng, 6)
    A, B = to_positive_product(S, P)
    assert [name for name, _ in calls] == ["hermitian_part", "hermitian_part"]
    S_inv = np.linalg.inv(S)
    H = opsum.core.hermitian_part
    assert A.tobytes() == H(S @ S.conj().T).tobytes()
    assert B.tobytes() == H(S_inv.conj().T @ P @ S_inv).tobytes()
    calls.clear()
    p = np.diag(np.diagonal(P).real)
    A, B = to_positive_product(S, p)
    assert [name for name, _ in calls] == ["zherk", "zherk"]
    _assert_gram_factors(make_summand(S, p), (A, B))


def test_to_positive_product_identity_similarity(rng):
    P = random_psd(rng, 3)
    A, B = to_positive_product(np.eye(3), P)
    assert np.allclose(A, np.eye(3))
    assert frob(B - P) <= 1e-12 * max(1.0, frob(P))


def test_to_positive_product_diagonal_example():
    A, B = to_positive_product(np.diag([2.0, 1.0]), np.eye(2))
    assert np.allclose(A, np.diag([4.0, 1.0]))
    assert np.allclose(B, np.diag([0.25, 1.0]))
    assert np.allclose(A @ B, np.eye(2))


def test_to_positive_product_random(rng):
    for n in (2, 5, 16):
        S = random_invertible(rng, n, cond=30.0)
        P = random_psd(rng, n)
        A, B = to_positive_product(S, P)
        assert is_psd(A) and is_psd(B)
        target = S @ P @ np.linalg.inv(S)
        assert frob(A @ B - target) <= 1e-9 * max(1.0, frob(target))


def test_to_positive_product_rejections(rng):
    with pytest.raises(ValueError):
        to_positive_product(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(ValueError):
        to_positive_product(np.eye(2), np.diag([1.0, -1.0]))


@pytest.mark.parametrize("S", [np.zeros((2, 2)), np.diag([1.0, 0.0])])
def test_to_positive_product_singular_gated_before_factorization(S, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("factorization ran before the cond(S) gate")
    for name in ("solve", "inv"):
        monkeypatch.setattr(np.linalg, name, refused)
    with pytest.raises(ValueError, match="numerically singular"):
        to_positive_product(S, np.eye(2))


def test_to_positive_product_condition_cap_is_1e12():
    to_positive_product(np.diag([1.0, 1.0 / 0.99e12]), np.eye(2))
    with pytest.raises(ValueError, match="numerically singular"):
        to_positive_product(np.diag([1.0, 1.0 / 1.01e12]), np.eye(2))
    with pytest.raises(TypeError):
        to_positive_product(np.eye(2), np.eye(2), cond_cap=1e13)


# --- three summands ---------------------------------------------------------

def test_three_summands_scalar_shortcut():
    result = three_summands(3.0 * np.eye(4))
    assert result.method == "shortcut"
    for s in result.summands:
        assert np.allclose(s.value, np.eye(4))


def test_three_summands_certificates():
    T = np.zeros((2, 2), dtype=complex)
    T[0, 0] = 2j
    assert three_summands(T).reason == "non-real-trace"
    assert three_summands(-np.eye(2)).reason == "nonpositive-real-trace"


def test_three_summands_constructive_block_case(rng):
    # a block target [[A', B'], [C', 0]] is not similar to positive, so it
    # takes the triangular split
    Ap = np.diag([1.0, 2.0]).astype(complex)
    Bp = np.diag([1.0, 2.0]).astype(complex)
    Cp = random_complex(rng, 2)
    T = np.block([[Ap, Bp], [Cp, np.zeros((2, 2))]])
    result = three_summands(T)
    assert result.method == "constructive"
    assert result.reconstruction_residual <= 1e-8
    assert verify_decomposition(T, result, tol=1e-6).passed
    assert len(result.summands) == 3


def test_three_summands_planted_fallback():
    rng = np.random.default_rng(311)
    T, _ = planted_summand_sum(rng, 4, 3)
    result = three_summands(T)
    assert isinstance(result, DecompositionResult)
    assert result.method == "constructive"
    assert result.reconstruction_residual <= 1e-2
    report = verify_decomposition(T, result, tol=1e-2)
    assert report.passed, report.failures()


def test_three_summands_n2_constructive(rng):
    # a real 2x2 target with complex eigenvalues is not similar to positive,
    # so it takes the triangular split
    T = np.array([[1.0, 4.0], [-3.0, 1.0]])
    result = three_summands(T, DecompConfig(allow_search_fallback=False))
    assert result.method == "constructive"
    assert result.reconstruction_residual <= 1e-8
    assert verify_decomposition(T, result, tol=1e-6).passed


def test_three_summands_fallback_disabled(rng):
    # the generic complex 4x4 target takes the triangular split
    # (allow_search_fallback=False is the default and does not warn)
    g = np.random.default_rng(0)
    T = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
    T -= 1j * (np.trace(T).imag / 4) * np.eye(4)
    T += ((3 - np.trace(T).real) / 4) * np.eye(4)
    result = three_summands(T, DecompConfig(allow_search_fallback=False))
    assert result.method == "constructive"
    report = verify_decomposition(T, result, tol=1e-6)
    assert report.passed, report.failures()
    # at n = 16, margin 0.1 the triangular similarities exceed the cond gate,
    # and the decline must raise with its reason
    T = random_real_trace(rng, 16, 1.6)
    with pytest.raises(RuntimeError, match=r"cond\(S\) .* above 1e\+08"):
        three_summands(T, DecompConfig(allow_search_fallback=False))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 8), margin=st.sampled_from([1.0, 10.0]),
       kind=st.sampled_from(["real", "complex"]), m=st.sampled_from([2, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_constructive_route_property(n, margin, kind, m, seed):
    # every real-positive-trace target at these sizes and margins splits
    # without a decline, any n (odd included), reproducibly bit for bit
    g = np.random.default_rng(seed)
    if kind == "complex":
        T = random_real_trace(g, n, margin * n)
    else:
        G = g.standard_normal((n, n))
        T = G + ((margin * n - np.trace(G)) / n) * np.eye(n)
    split = two_summands if m == 2 else three_summands
    config = DecompConfig(allow_search_fallback=False)
    result = split(T, config)
    assert result.method in ("shortcut", "constructive")
    assert len(result.summands) == m
    report = verify_decomposition(T, result, tol=1e-6)
    assert report.passed, report.failures()
    again = split(T, config)
    for s, t in zip(result.summands, again.summands):
        assert np.array_equal(s.S, t.S) and np.array_equal(s.P, t.P)
    for (a, b), (c, d) in zip(result.product_form, again.product_form):
        assert np.array_equal(a, c) and np.array_equal(b, d)


# --- two summands -----------------------------------------------------------

def test_two_summands_psd_split():
    result = two_summands(np.diag([3.0, 1.0]))
    assert result.method == "shortcut"
    values = [np.round(s.value.real, 10) for s in result.summands]
    assert any(np.allclose(v, np.diag([2.0, 0.0])) for v in values)
    assert any(np.allclose(v, np.eye(2)) for v in values)


def test_two_summands_similar_positive_shortcut(rng):
    G = random_invertible(rng, 4, cond=5.0)
    T = G @ np.diag([0.5, 1.0, 2.0, 3.0]) @ np.linalg.inv(G)
    result = two_summands(T)
    assert result.method == "shortcut"
    assert result.reconstruction_residual <= 1e-8
    assert verify_decomposition(T, result, tol=1e-6).passed


def test_two_summands_certificate_1x1():
    assert two_summands(np.array([[-1.0]])).reason == "nonpositive-real-trace"


@pytest.mark.parametrize("split", [two_summands, three_summands])
def test_declined_split_raises_reason(split):
    # cond(S) 1.4e9 on this target: the decline raises at once, no search runs
    T = random_real_trace(np.random.default_rng([6, 100, 0]), 6, 0.6)
    m = 2 if split is two_summands else 3
    start = time.perf_counter()
    with pytest.raises(DeclinedError, match=(
            rf"^constructive {m}-summand path declined \(cond\(S\) \S+ above 1e\+08\)$")):
        split(T)
    assert time.perf_counter() - start < 5.0
    with pytest.raises(RuntimeError, match=r"cond\(S\) \S+ above 1e\+08"):
        sum_of_products(T, m)



@pytest.mark.parametrize("split", [two_summands, three_summands])
@pytest.mark.parametrize("T", [
    np.diag([1 + 1e-12, -1, 0.5, -0.5]),
    np.diag([1e-300, 0, 0, 0]) + np.eye(4, k=1),
    random_real_trace(np.random.default_rng([6, 25]), 6, 1e-6),
])
def test_singular_eigenvectors_decline(split, T):
    # eig returns an exactly (or numerically) singular eigenvector matrix;
    # the cond(S) gate declines before inv can raise LinAlgError
    m = 2 if split is two_summands else 3
    with pytest.raises(DeclinedError, match=(
            rf"^constructive {m}-summand path declined \(cond\(S\) \S+ above 1e\+08\)$")):
        split(T)


@pytest.mark.parametrize("split", [two_summands, three_summands])
def test_constructive_route_dominant_trace(split):
    # T - (tr T / n) I keeps a rounding trace of order eps |tr T|, far above
    # the zero-trace gate of the small remainder; the split must still run
    g = np.random.default_rng(0)
    G = g.standard_normal((4, 4)) + 1j * g.standard_normal((4, 4))
    T = 1e7 * np.eye(4) + G - 1j * (np.trace(G).imag / 4) * np.eye(4)
    result = split(T, DecompConfig(allow_search_fallback=False))
    assert result.method == "constructive"
    report = verify_decomposition(T, result, tol=1e-6)
    assert report.passed, report.failures()


def test_zero_diagonalization_failure_declines(rng, monkeypatch):
    # a failed zero-diagonalization is a decline reason, not an escape
    def stalled(T0):
        raise RuntimeError("zero-diagonalization stalled")

    monkeypatch.setattr("opsum.decompose.zero_diagonalize", stalled)
    T = random_real_trace(rng, 4, 4.0)
    for m, split in [(2, two_summands), (3, three_summands)]:
        with pytest.raises(DeclinedError) as info:
            split(T)
        assert str(info.value) == (f"constructive {m}-summand path declined "
                                   "(zero-diagonalization failed: zero-diagonalization stalled)")


@pytest.mark.parametrize("s", [1, 4])
def test_triangular_declines_product_form_verify_rejects(s, monkeypatch):
    # cond(S_j) 1e7-7e7 is under the 1e8 cap, but the product form
    # (S S*, S^-* P S^-1) squares it and misses T; the split declines on
    # verify's own product-form test instead of returning a result that
    # verify then fails
    T = random_real_trace(np.random.default_rng([64, s, 1000]), 64, 640.0)
    for m, split in [(2, two_summands), (3, three_summands)]:
        with pytest.raises(DeclinedError, match=(
                rf"^constructive {m}-summand path declined \(product form fails verify's "
                r"test: ratio \S+, PSD factors True, cond\(S\) \S+\)$")):
            split(T)
    monkeypatch.setattr(opsum.decompose, "_product_form_check", lambda *args: (0.0, True))
    result, reason = opsum.decompose._triangular(T, 2)
    monkeypatch.undo()
    assert reason is None
    failed = verify_decomposition(T, result, tol=1e-6).failures()
    assert [c.name for c in failed] == ["product-form"]


@pytest.mark.parametrize("field_name", [
    "sep_margin", "preprocess_cond_cap", "preprocess_retries", "constructive_tol"])
def test_decomp_config_removed_fields_rejected(field_name):
    assert [f.name for f in dataclasses.fields(DecompConfig)] == [
        "allow_search_fallback", "search", "seed"]
    with pytest.raises(TypeError, match=field_name):
        DecompConfig(**{field_name: 1})


def test_decomp_config_defaults_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        DecompConfig()
        DecompConfig(allow_search_fallback=False, search=None, seed=0)


@pytest.mark.parametrize("field_name, value", [
    ("allow_search_fallback", True),
    ("search", OptimizationConfig(m=3, max_iterations=400, restarts=2)),
    ("seed", 3)])
def test_decomp_config_search_fields_deprecated(field_name, value):
    with pytest.warns(DeprecationWarning, match=rf"DecompConfig\.{field_name} is deprecated"):
        config = DecompConfig(**{field_name: value})
    # accepted but unread: a declined target still raises at once
    T = random_real_trace(np.random.default_rng([6, 100, 0]), 6, 0.6)
    with pytest.raises(DeclinedError):
        three_summands(T, config)


def test_three_term_state_removed():
    assert not hasattr(opsum.decompose, "ThreeTermState")


# --- sum of products --------------------------------------------------------

def test_sum_of_products_identity_three():
    pairs = sum_of_products(np.eye(3), 3)
    total = sum(a @ b for a, b in pairs)
    assert frob(total - np.eye(3)) <= 1e-9
    for a, b in pairs:
        assert is_psd(a) and is_psd(b)


def test_sum_of_products_four_route():
    T = np.array([[5.0, 1.0], [1.0, 0.0]])
    pairs = sum_of_products(T, 4)
    total = sum(a @ b for a, b in pairs)
    assert frob(total - T) <= 1e-7 * frob(T)


@pytest.mark.parametrize("n", [16, 64, 128])
def test_sum_of_products_four_true_at_scale(n):
    # the README generator at margin 1; each product form uses the S^-1
    # its summand was built with, not a second inversion of S
    for s in range(5):
        T = random_real_trace(np.random.default_rng([n, s, 100]), n, 1.0 * n)
        pairs = sum_of_products(T, 4)
        total = sum(a @ b for a, b in pairs)
        assert np.linalg.norm(total - T, 2) <= 1e-4 * np.linalg.norm(T, 2)


def test_sum_of_products_certificate():
    for m in (2, 3, 4):
        cert = sum_of_products(-np.eye(2), m)
        assert isinstance(cert, ObstructionCertificate)


def test_sum_of_products_validates_m():
    with pytest.raises(ValueError):
        sum_of_products(np.eye(2), 5)
