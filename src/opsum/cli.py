"""Command-line frontend for reproducible batch runs.

Subcommands: decompose, spectrum, luders-demo, optimize, study,
pseudospectrum.  Exit codes: 0 success, 1 input/usage error or a declined
two- or three-summand construction, 2 mathematical obstruction
certificate.  Every command is a pure function of its input files, flags
and seed.
"""

from __future__ import annotations

import argparse
import csv
import sys
from functools import cache

import numpy as np

from . import serialize
from .core import DEFAULT_TOL
from .decompose import (
    DeclinedError,
    DecompositionResult,
    ObstructionCertificate,
    _summand_kind,
    four_summands,
    three_summands,
    two_summands,
)
from .elementary import (
    ElementaryOperator,
    GridSpec,
    UnattainableEigenvalueError,
    plant_luders_eigenvalue,
    pseudospectrum,
)
from .lab import (
    OptimizationConfig,
    condition_study,
    optimize_sum_of_products,
    study_to_csv,
    trace_to_csv,
)
from .randmat import scalar_product_pairs

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_OBSTRUCTION = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; remap to the usage exit code."""

    def error(self, message):
        raise UsageError(message)


def _parse_lambda(text: str) -> complex:
    """A finite complex number in Python syntax, with a trailing ``i`` also
    read as the imaginary unit (``2i``, ``-1+1i``)."""
    try:
        lam = complex(text[:-1] + "j" if text.endswith("i") else text)
    except ValueError as exc:
        raise UsageError(f"cannot parse complex number {text!r}") from exc
    if not np.isfinite(lam):
        raise UsageError(f"lambda must be finite, got {lam}")
    return lam


def _parse_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError as exc:
        raise UsageError(f"--tol expects a number, got {text!r}") from exc
    if not 0.0 <= tol < np.inf:
        raise UsageError(f"--tol must be finite and nonnegative, got {text}")
    return tol


def _parse_positive_int(text: str) -> int:
    """An integer >= 1; argparse prefixes a rejection with the flag name."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expects a positive integer, got {text!r}")
    return value


def _parse_grid(text: str) -> GridSpec:
    parts = text.split(",")
    if len(parts) != 5:
        raise UsageError("--grid expects re0,re1,im0,im1,steps")
    try:
        re0, re1, im0, im1 = (float(p) for p in parts[:4])
        steps = int(parts[4])
    except ValueError as exc:
        raise UsageError(f"cannot parse grid {text!r}") from exc
    try:
        return GridSpec(re0, re1, im0, im1, steps)
    except ValueError as exc:
        raise UsageError(f"--grid {text!r}: {exc}") from exc


def _complex_to_pair(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def _certificate_dict(cert: ObstructionCertificate) -> dict:
    return {"obstruction": {
        "reason": cert.reason,
        "trace": _complex_to_pair(cert.trace_value),
        "explanation": cert.explanation,
    }}


def _result_dict(result: DecompositionResult) -> dict:
    certificates = []
    for s in result.summands:
        kind, min_eig = _summand_kind(s)
        certificates.append({
            "kind": kind,
            "min_eigenvalue": min_eig,
            "condition_number": float(s.condition_number),
        })
    return {
        "method": result.method,
        "reconstruction_residual": float(result.reconstruction_residual),
        "spectra_point_counts": list(result.spectra_point_counts),
        "pairwise_spectra_gap": float(result.pairwise_spectra_gap)
        if np.isfinite(result.pairwise_spectra_gap) else None,
        "summands": [
            {"S": serialize.matrix_to_dict(s.S), "P": serialize.matrix_to_dict(s.P)}
            for s in result.summands],
        "product_form": [
            {"A": serialize.matrix_to_dict(a), "B": serialize.matrix_to_dict(b)}
            for a, b in result.product_form],
        "certificates": certificates,
    }


def _cmd_decompose(args) -> int:
    T = serialize.load_matrix(args.input)
    if args.summands == 4:
        result = four_summands(T)
    else:
        result = three_summands(T) if args.summands == 3 else two_summands(T)
    if isinstance(result, ObstructionCertificate):
        serialize.dump_json(_certificate_dict(result), args.output)
        print(f"obstruction: {result.reason}", file=sys.stderr)
        return EXIT_OBSTRUCTION
    serialize.dump_json(_result_dict(result), args.output)
    print(f"decomposed into {len(result.summands)} summands "
          f"(method {result.method}, residual {result.reconstruction_residual:.3e})")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    pairs = serialize.load_pairs(args.input)
    op = ElementaryOperator.build(pairs)
    report = op.spectrum(args.tol)
    serialize.dump_json({
        "eigenvalues": [_complex_to_pair(z) for z in report.eigenvalues],
        "max_dist_to_rplus": report.max_dist_to_rplus,
        "is_real_nonnegative": report.is_real_nonnegative,
        "is_luders": op.is_luders,
        "tolerance": args.tol,
    }, args.output)
    verdict = "contained in [0, inf)" if report.is_real_nonnegative else \
        f"leaves [0, inf) by {report.max_dist_to_rplus:.3e}"
    print(f"spectrum of length-{op.length} operator on dim {op.dim}: {verdict}")
    return EXIT_OK


def _cmd_luders_demo(args) -> int:
    if args.input:
        pairs = serialize.load_pairs(args.input)
    else:
        # a lambda off [0, inf) is rejected, with its bound, before the pairs are read
        pairs = scalar_product_pairs(max(args.lam.real, 0.0), args.k, args.m,
                                     rng=np.random.default_rng(args.seed))
    demo = plant_luders_eigenvalue(args.lam, pairs)
    serialize.dump_json({
        "lambda": _complex_to_pair(demo.lam),
        "eigen_residual": demo.eigen_residual,
        "block_coefficients": [serialize.matrix_to_dict(t) for t in demo.block_coefficients],
        "eigenvector": serialize.matrix_to_dict(demo.eigenvector),
    }, args.output)
    print(f"planted eigenvalue {demo.lam:g} with residual {demo.eigen_residual:.3e}")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    T = serialize.load_matrix(args.input)
    config = OptimizationConfig(
        m=args.m, seed=args.seed,
        max_iterations=args.iterations, restarts=args.restarts,
        target_residual=args.tol)
    trace = optimize_sum_of_products(T, config)
    trace_to_csv(trace, args.output)
    summary = {
        "best_residual": trace.best_residual,
        "bound_floor": trace.bound_floor,
        "iterations_recorded": int(len(trace.residual_history)),
        "stop_reason": trace.stop_reason,
        "factors": [
            {"A": serialize.matrix_to_dict(a), "B": serialize.matrix_to_dict(b)}
            for a, b in trace.final_factors],
    }
    serialize.dump_json(summary, args.output + ".json")
    # bound_floor is the operator-norm bound; the residual is a Frobenius norm
    frob_floor = np.sqrt(T.shape[0]) * trace.bound_floor
    print(f"best residual {trace.best_residual:.6e} "
          f"(Frobenius floor {frob_floor:.6e})")
    return EXIT_OK


def _cmd_study(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    margins = [float(s) for s in args.margins.split(",")]
    records = condition_study(sizes, margins, args.trials, args.seed)
    study_to_csv(records, args.output)
    ok = sum(1 for r in records if r.success)
    print(f"study wrote {len(records)} records ({ok} successful decompositions)")
    return EXIT_OK


def _cmd_pseudospectrum(args) -> int:
    pairs = serialize.load_pairs(args.input)
    op = ElementaryOperator.build(pairs)
    grid = pseudospectrum(op, args.grid)
    with open(args.output, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["re", "im", "sigma_min"])
        for re, im, smin in grid.rows():
            writer.writerow([repr(re), repr(im), repr(smin)])
    print(f"pseudospectrum grid {args.grid.steps}x{args.grid.steps} written")
    return EXIT_OK


@cache
def _build_parser() -> _Parser:
    """The parser, built once per process.  Parsing leaves it unchanged:
    every call gets a fresh namespace filled from the declared defaults."""
    parser = _Parser(prog="opsum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "decompose", help="split a matrix into summands similar to positive",
        description="Split a matrix into summands similar to positive.  With "
        "--summands 2 or 3, a target whose triangular split is too "
        "ill-conditioned (cond(S) above 1e8) is declined: exit 1 with the reason.")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--summands", type=int, choices=(2, 3, 4), default=4)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("spectrum", help="spectrum of an elementary operator")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--tol", type=_parse_tol, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("luders-demo", help="plant an eigenvalue in a block Lüders operation")
    p.add_argument("--lambda", dest="lam", type=_parse_lambda, required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--input", default=None, help="optional coefficient pairs file")
    p.add_argument("--k", type=_parse_positive_int, default=2, help="half-space dimension")
    p.add_argument("--m", type=_parse_positive_int, default=3,
                   help="number of coefficient pairs")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_luders_demo)

    p = sub.add_parser("optimize", help="PSD product-sum search toward a target matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="residual history CSV; summary JSON at <output>.json")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_parse_tol, default=OptimizationConfig.target_residual)
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--iterations", type=int, default=2000)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("study", help="conditioning study of the four-summand pipeline")
    p.add_argument("--output", required=True)
    p.add_argument("--sizes", default="2,4")
    p.add_argument("--margins", default="1,0.1,0.01")
    p.add_argument("--trials", type=_parse_positive_int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser("pseudospectrum", help="sigma_min grid of a vectorized elementary operator")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--grid", type=_parse_grid, required=True,
                   help="re0,re1,im0,im1,steps")
    p.set_defaults(func=_cmd_pseudospectrum)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnattainableEigenvalueError as exc:
        print(f"obstruction: {exc} [lower bound {exc.bound:g}]", file=sys.stderr)
        return EXIT_OBSTRUCTION
    except (serialize.SchemaError, ValueError, OSError, DeclinedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run():  # console entry point
    raise SystemExit(main())


if __name__ == "__main__":
    run()
