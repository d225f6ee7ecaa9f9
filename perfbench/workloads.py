"""The four opsum workloads: inputs made from a seed, requests run one at a time.

A workload is a cycle of requests built at set-up from ``--seed`` (the program
only ever sees the generated matrices) plus a warm-up that calls each entry
point it uses once on a tiny input.  Each request has three parts:

* ``run``: the timed call into opsum;
* ``check``: outside the timer, recomputes correctness from the returned
  matrices (never from cached fields) and returns an :class:`Outcome`;
* ``digest``: bytes covering everything ``check`` reads.  The determinism
  check compares them when the first request is repeated after the timed
  phase, and an output whose digest was already checked for the same input
  is not checked again.

Requests call opsum through module attributes at call time, so the traced
run sees the wrappers that :mod:`tracing` installs.

Why each workload exists, and what is left out for run length, is in
``README.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import opsum
import opsum.cli
from opsum import randmat, serialize

#: Reconstruction tolerance of every decomposition check.
RECON_TOL = 1e-6
#: Separation the four_small check demands between summand spectra.  The
#: library targets min(1e-3, beta/10, delta/10), which is about 1.7e-4 at the
#: smallest four_small margin (0.01), so 1e-3 would fail correct outputs.
SMALL_GAP = 1e-4


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    accuracy: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    requests: list
    cycle: int          # requests per cycle; a run holds whole cycles
    cycle_s: float      # time of one cycle, for turning --seconds into cycles
    warm_up: object
    reference: "Reference"


class Reference:
    """Fixed work, in the mix of a workload's hot path, that calls no opsum code.

    The machine is shared and its speed swings by up to half within seconds
    and between spells of minutes; four_large ran 32-52% slower in its slow
    spells, interpreter-bound small sizes more than LAPACK-bound large ones.
    This kernel mixes interpreter loops, 4x4 eigensolves and one larger SVD
    in proportions chosen per workload, so its duration follows the same
    swings.  It is sampled between requests, outside the timer, and each
    request's time is multiplied by ``nominal_s`` over the median duration
    of the samples taken within ``window`` seconds of it, or of all samples
    of the run if ``window`` is None (:meth:`local_scale`): times read as
    times at the speed where the kernel takes ``nominal_s`` (its
    median on a two-core x86-64 container, Python 3.11, numpy 2.4 with
    OpenBLAS on one thread).  A change to opsum cannot move the kernel.
    """

    def __init__(self, loops, small, lapack_n, nominal_s, window=1.0):
        rng = np.random.default_rng(20111108)
        H = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.loops = loops
        self.small = [H + H.conj().T] * small
        self.big = None if not lapack_n else (
            rng.standard_normal((lapack_n, lapack_n))
            + 1j * rng.standard_normal((lapack_n, lapack_n)))
        self.nominal_s = nominal_s
        self.window = window
        self.samples = []
        self.times = []

    def sample(self):
        start = time.perf_counter()
        total = 0
        for i in range(self.loops):
            total += i * i
        for H in self.small:
            d, U = np.linalg.eigh(H)
            (U * d) @ U.conj().T
        if self.big is not None:
            np.linalg.svd(self.big, compute_uv=False)
        self.times.append(time.perf_counter())
        self.samples.append(self.times[-1] - start)

    def scale(self):
        return self.nominal_s / statistics.median(self.samples)

    def local_scale(self, start, end, least=3):
        """The scale from the samples taken within ``window`` seconds of
        [start, end], or from the ``least`` nearest ones if there are fewer;
        with ``window`` None, the scale of the whole run (:meth:`scale`).
        Over five seeds the local scale cut the spread of p50 and throughput
        on four_large from 0.13 and 0.07 (one scale for the whole run) to
        0.04, and on operators from 0.12 and 0.11 to 0.03 and 0.04."""
        if self.window is None:
            return self.scale()
        window = self.window

        def distance(t):
            return max(start - t, t - end, 0.0)
        near = sorted(zip(self.times, self.samples), key=lambda ts: distance(ts[0]))
        within = [d for t, d in near if distance(t) <= window]
        if len(within) < least:
            within = [d for _, d in near[:least]]
        return self.nominal_s / statistics.median(within)


def _digest(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


def _rel(M, T) -> float:
    return float(np.linalg.norm(M - T) / np.linalg.norm(T))


def _decomposition_accuracy(T, summands, product_form) -> dict:
    """Reconstruction and product-sum errors from the raw (S, P), (A, B)."""
    total = sum(S @ P @ np.linalg.inv(S) for S, P in summands)
    prods = sum(A @ B for A, B in product_form)
    return {"recon_err": _rel(total, T), "prodsum_err": _rel(prods, T)}


def _decomposition_outcome(T, result, report) -> Outcome:
    if not isinstance(result, opsum.DecompositionResult):
        return Outcome(False, "unexpected obstruction")
    acc = _decomposition_accuracy(
        T, [(s.S, s.P) for s in result.summands], result.product_form)
    acc["path"] = result.method
    if not report.passed:
        return Outcome(False, "verify: " + ",".join(c.name for c in report.failures()), acc)
    if acc["recon_err"] > RECON_TOL:
        return Outcome(False, "reconstruction", acc)
    return Outcome(True, "", acc)


def _result_digest(result) -> bytes:
    if not isinstance(result, opsum.DecompositionResult):
        return repr(result).encode()
    return _digest(*(m for s in result.summands for m in (s.S, s.P)),
                   *(m for pair in result.product_form for m in pair))


def _target(rng, n, margin):
    return randmat.random_real_trace(rng, n, margin * n)


# ---------------------------------------------------------------------------
# four_large: four_summands + verify at n in {64, 96, 128}
# ---------------------------------------------------------------------------

class FourSummands:
    def __init__(self, T):
        self.T = T

    def run(self):
        result = opsum.four_summands(self.T)
        report = opsum.verify_decomposition(
            self.T, result, tol=1e-6, max_spectrum_points=2, min_pairwise_gap=1e-3)
        return result, report

    def check(self, out):
        return _decomposition_outcome(self.T, *out)

    def digest(self, out):
        result, report = out
        return _result_digest(result) + repr([c.name for c in report.failures()]).encode()


def four_large(rng, workdir, smoke):
    sizes = (4, 6, 8) if smoke else (64, 96, 128)
    requests = [FourSummands(_target(rng, n, rng.uniform(0.5, 2.0)))
                for _ in range(8) for n in sizes]

    def warm_up():
        T = np.array([[2.0, 1.0], [0.5, 1.0]])
        opsum.verify_decomposition(T, opsum.four_summands(T), tol=1e-6)
    return Workload("four_large", requests, len(sizes), 3.9, warm_up,
                    Reference(loops=160000, small=160, lapack_n=96, nominal_s=0.013))


# ---------------------------------------------------------------------------
# four_small: the CLI on T.json files at n in {4, 8, 16}, margins 1/0.1/0.01
# ---------------------------------------------------------------------------

def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return opsum.cli.main(argv)


def _read_cli_result(data: bytes):
    doc = json.loads(data)
    summands = tuple(
        opsum.make_summand(serialize.matrix_from_dict(s["S"]), serialize.matrix_from_dict(s["P"]))
        for s in doc["summands"])
    product_form = tuple(
        (serialize.matrix_from_dict(p["A"]), serialize.matrix_from_dict(p["B"]))
        for p in doc["product_form"])
    gap = doc["pairwise_spectra_gap"]
    return opsum.DecompositionResult(
        summands=summands, reconstruction_residual=doc["reconstruction_residual"],
        spectra_point_counts=tuple(doc["spectra_point_counts"]),
        pairwise_spectra_gap=float("inf") if gap is None else gap,
        product_form=product_form, method=doc["method"])


class CliDecompose:
    def __init__(self, T, path_in, path_out):
        self.T = T
        self.argv = ["decompose", "--summands", "4", "--input", path_in, "--output", path_out]
        self.path_out = path_out

    def run(self):
        code = _cli(self.argv)
        if code != 0:
            return code, b""
        with open(self.path_out, "rb") as f:
            return code, f.read()

    def check(self, out):
        code, data = out
        if code != 0:
            return Outcome(False, f"cli exit {code}")
        result = _read_cli_result(data)
        report = opsum.verify_decomposition(
            self.T, result, tol=1e-6, max_spectrum_points=2, min_pairwise_gap=SMALL_GAP)
        return _decomposition_outcome(self.T, result, report)

    def digest(self, out):
        code, data = out
        return hashlib.sha256(str(code).encode() + data).digest()


def four_small(rng, workdir, smoke):
    sizes = (2, 4) if smoke else (4, 8, 16)
    requests = []
    for rep in range(12):
        for n in sizes:
            for margin in (1.0, 0.1, 0.01):
                path_in = os.path.join(workdir, f"T-{rep}-{n}-{margin}.json")
                T = _target(rng, n, margin)
                serialize.save_matrix(path_in, T)
                requests.append(CliDecompose(T, path_in, os.path.join(workdir, "result.json")))

    def warm_up():
        path_in = os.path.join(workdir, "T-warm.json")
        path_out = os.path.join(workdir, "result-warm.json")
        T = np.array([[2.0, 1.0], [0.5, 1.0]])
        serialize.save_matrix(path_in, T)
        _cli(["decompose", "--summands", "4", "--input", path_in, "--output", path_out])
        with open(path_out, "rb") as f:
            result = _read_cli_result(f.read())
        opsum.verify_decomposition(T, result, tol=1e-6)
    return Workload("four_small", requests, 3 * len(sizes), 0.18, warm_up,
                    Reference(loops=80000, small=800, lapack_n=0, nominal_s=0.0167))


# ---------------------------------------------------------------------------
# search: three/two summands on generic targets, scalar optimizer targets
# ---------------------------------------------------------------------------

class BestEffort:
    """three_summands or two_summands with the search fallback held to two
    restarts of 400 iterations.  On the default budget (50 restarts of 2000
    iterations) one n = 4 target ran for 267 s, past the length of a run;
    with six restarts a request took 0.3 to 9 s, which left the throughput of
    a one-cycle run to the luck of the draw."""

    def __init__(self, T, summands):
        self.T = T
        self.summands = summands
        self.config = opsum.DecompConfig(
            search=opsum.OptimizationConfig(m=3, max_iterations=400, restarts=2))

    def run(self):
        if self.summands == 3:
            return opsum.three_summands(self.T, self.config)
        return opsum.two_summands(self.T, self.config)

    def check(self, result):
        report = None
        if isinstance(result, opsum.DecompositionResult):
            report = opsum.verify_decomposition(self.T, result, tol=1e-6)
        return _decomposition_outcome(self.T, result, report)

    def digest(self, result):
        return _result_digest(result)


class ScalarOptimize:
    """optimize_sum_of_products(lam * I) at m = 2 and m = 3, at the budget of
    acceptance criterion 8 (400 iterations, 6 restarts, seed 108)."""

    def __init__(self, lam, n):
        self.lam = lam
        self.target = lam * np.eye(n, dtype=complex)
        self.configs = [opsum.OptimizationConfig(m=m, max_iterations=400, restarts=6, seed=108)
                        for m in (2, 3)]

    def run(self):
        return [opsum.optimize_sum_of_products(self.target, c) for c in self.configs]

    def check(self, traces):
        n = self.target.shape[0]
        dist = float(np.hypot(min(self.lam.real, 0.0), self.lam.imag))
        floor = np.sqrt(n) * dist          # exact Frobenius optimum for lam * I
        gaps, reasons = [], []
        for trace in traces:
            residual = np.linalg.norm(sum(A @ B for A, B in trace.final_factors) - self.target)
            gaps.append(residual / floor - 1.0)
            if np.any(np.diff(np.asarray(trace.residual_history)) > 0):
                reasons.append("residual history increases")
            if abs(residual - trace.best_residual) > 1e-9 * max(1.0, residual):
                reasons.append("best residual does not match the factors")
            if residual < floor * (1.0 - 1e-9):
                reasons.append("residual below the analytic floor")
            if not all(_is_psd(X) for pair in trace.final_factors for X in pair):
                reasons.append("factor not PSD")
        return Outcome(not reasons, ",".join(reasons), {"floor_gap": max(gaps)})

    def digest(self, traces):
        return _digest(*(a for t in traces for a in (
            t.residual_history, *(X for pair in t.final_factors for X in pair))))


def _is_psd(X, tol=1e-9):
    scale = max(np.linalg.norm(X, 2), 1e-300)
    H = (X + X.conj().T) / 2
    return (np.linalg.norm(X - H) <= tol * scale
            and np.linalg.eigvalsh(H)[0] >= -tol * scale)


def search(rng, workdir, smoke):
    # (summands, n) of the best-effort requests: two of each kind per cycle,
    # interleaved with the six scalar targets, so a one-cycle run averages
    # over six random targets
    kinds = [(3, 4), (3, 6), (2, 4)] * 2
    requests = []
    for _ in range(4):
        for i, lam in enumerate((-1 + 0j, 1j, -1 + 1j)):
            for n, (summands, size) in zip((2, 4), kinds[2 * i:2 * i + 2]):
                requests += [ScalarOptimize(lam, n),
                             BestEffort(_target(rng, size, rng.uniform(0.5, 2.0)), summands)]
    if smoke:
        requests = [BestEffort(np.diag([2.0, 1.0]).astype(complex), 3),
                    ScalarOptimize(-1 + 0j, 2)]

    def warm_up():
        T = np.diag([2.0, 1.0]).astype(complex)
        opsum.verify_decomposition(T, opsum.three_summands(T), tol=1e-6)
        opsum.two_summands(T)
        opsum.optimize_sum_of_products(
            -np.eye(2), opsum.OptimizationConfig(m=2, max_iterations=2, restarts=1))
    # A search request runs for seconds, longer than the machine's fast
    # swings, and single kernel samples next to it did not follow it, so
    # every request is scaled by the kernel's median over the whole run.
    # That follows the spells of minutes: over two sets of the same ten seeds
    # the unscaled p50 read 2.18 s and 2.63 s.
    return Workload("search", requests, 2 if smoke else 12, 20.0, warm_up,
                    Reference(loops=160000, small=1600, lapack_n=0, nominal_s=0.057,
                              window=None))


# ---------------------------------------------------------------------------
# operators: superoperator spectra, positivity, pseudospectra; planted eigenvalues
# ---------------------------------------------------------------------------

def _superoperator(pairs):
    return sum(np.kron(B.T, A) for A, B in pairs)


class OperatorAnalysis:
    """build -> spectrum -> hs_positivity -> pseudospectrum on an 11x11 grid."""

    def __init__(self, pairs, psd):
        self.pairs = pairs
        self.psd = psd
        # sum ||A_j|| ||B_j|| bounds the spectrum, so the grid covers it
        r = sum(np.linalg.norm(A, 2) * np.linalg.norm(B, 2) for A, B in pairs)
        self.grid = opsum.GridSpec(-0.25 * r, 1.25 * r, -0.5 * r, 0.5 * r, 11)

    def run(self):
        op = opsum.ElementaryOperator.build(self.pairs)
        return op.spectrum(), opsum.hs_positivity(op), opsum.pseudospectrum(op, self.grid)

    def check(self, out):
        spectrum, hs, grid = out
        w = np.asarray(spectrum.eigenvalues)
        M = _superoperator(self.pairs)
        if w.shape != (M.shape[0],):
            return Outcome(False, "spectrum size")
        norm = float(np.linalg.norm(M, 2))
        z = grid.re[None, :] + 1j * grid.im[:, None]
        dist = np.abs(z[..., None] - w).min(axis=-1)
        smin = grid.sigma_min
        # sigma_min(M - z) <= |lambda - z| for every eigenvalue; equality for
        # the Hermitian superoperator of PSD coefficients
        slack = 1e-8 * norm
        if not np.all(np.isfinite(smin)) or np.any(smin < 0) or np.any(smin > dist + slack):
            return Outcome(False, "pseudospectrum above the eigenvalue distance")
        if not self.psd:
            if hs.coefficients_psd:
                return Outcome(False, "generic coefficients reported PSD")
            return Outcome(True)
        err = float(np.hypot(np.minimum(w.real, 0.0), w.imag).max()) / norm
        acc = {"spectral_err": err}
        if not (hs.coefficients_psd and spectrum.is_real_nonnegative
                and hs.certificate.kind == "positive-semidefinite"):
            return Outcome(False, "PSD coefficients not certified", acc)
        if np.any(np.abs(smin - dist) > slack):
            return Outcome(False, "pseudospectrum off the eigenvalue distance", acc)
        return Outcome(True, "", acc)

    def digest(self, out):
        spectrum, hs, grid = out
        verdicts = repr((spectrum.is_real_nonnegative, hs.coefficients_psd, hs.certificate.kind))
        return _digest(spectrum.eigenvalues, np.array(hs.certificate.min_eigenvalue),
                       grid.sigma_min) + verdicts.encode()


class PlantEigenvalue:
    def __init__(self, lam, pairs):
        self.lam = lam
        self.pairs = pairs

    def run(self):
        return opsum.plant_luders_eigenvalue(self.lam, self.pairs)

    def check(self, demo):
        blocks = demo.block_coefficients
        X0 = demo.eigenvector
        image = sum(T @ X0 @ T for T in blocks)
        norm = float(np.linalg.eigvalsh(_superoperator([(T, T) for T in blocks]))[-1])
        err = float(np.linalg.norm(image - self.lam * X0) / (np.linalg.norm(X0) * norm))
        acc = {"spectral_err": err}
        if demo.lam != self.lam or not all(_is_psd(T) for T in blocks):
            return Outcome(False, "planted operation malformed", acc)
        if err > 1e-10:
            return Outcome(False, "planted eigenvector residual", acc)
        return Outcome(True, "", acc)

    def digest(self, demo):
        return _digest(np.array(demo.lam), demo.eigenvector, *demo.block_coefficients)


def _coefficients(rng, n, psd):
    if psd:
        return [(randmat.random_psd(rng, n), randmat.random_psd(rng, n)) for _ in range(3)]
    return [(randmat.random_complex(rng, n), randmat.random_complex(rng, n)) for _ in range(3)]


def operators(rng, workdir, smoke):
    sizes = (2, 3) if smoke else (12, 16)
    ks = (2,) if smoke else (4, 8)
    requests = []
    for _ in range(4):
        for n in sizes:
            for psd in (True, False):
                requests.append(OperatorAnalysis(_coefficients(rng, n, psd), psd))
        for k in ks:
            lam = float(rng.uniform(0.5, 2.0))
            requests.append(PlantEigenvalue(lam, randmat.scalar_product_pairs(lam, k, 3, rng)))

    def warm_up():
        pairs = _coefficients(np.random.default_rng(0), 2, True)
        op = opsum.ElementaryOperator.build(pairs)
        op.spectrum()
        opsum.hs_positivity(op)
        opsum.pseudospectrum(op, opsum.GridSpec(0.0, 1.0, -0.5, 0.5, 2))
        opsum.plant_luders_eigenvalue(1.0, randmat.scalar_product_pairs(1.0, 2, 3))
    return Workload("operators", requests, 2 * len(sizes) + len(ks), 6.6, warm_up,
                    Reference(loops=0, small=0, lapack_n=256, nominal_s=0.0102))


WORKLOADS = {w.__name__: w for w in (four_large, four_small, search, operators)}
