"""opsum benchmark: one workload, one closed-loop client, one process.

Run from the repository root::

    python3 perfbench/run.py --workload four_large --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

The first form builds the workload's inputs from ``--seed``, warms up, then
sends one request at a time for round(``--seconds`` / cycle time) whole
cycles, the cycle time being that of the workload on a two-core x86-64
container, so a run there measures about ``--seconds``.  The work of a run,
and so its ``attempted`` and ``failed`` counts, depends only on the seed and
``--seconds``, not on the speed of the machine.  Correctness checks run
between requests, outside the timer.  The first request is repeated at the
end and must reproduce its output bit for bit.  Reported times are scaled
to a reference machine speed (see ``workloads.Reference``); the report keeps
the raw values.

With ``--trace 0`` the end-to-end metrics are
reported; with ``--trace 1`` the per-layer metrics of ``tracing.py`` and the
accuracy of the returned results.  The second-to-last line of standard
output is a report (environment, failures, accuracy, tail latency); the
last line is the result::

    {"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}

``correct`` is false when the repeated request does not reproduce its
output; a request whose output fails a check counts in ``failed``.

``--workload all`` runs every workload untraced and traced, each in its own
process, and prints every metric by name and unit with the tracing overhead.
The opsum package is imported from ``src/`` of the checkout this file sits
in; without it the benchmark exits with an error and prints no result.
"""

import os

# Pin BLAS to one thread before numpy is imported: on two cores the threaded
# BLAS was slower and its first calls far noisier.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"
NAMES = ("four_large", "four_small", "search", "operators")
#: Set-ups per untraced run: this process plus fresh processes; the median is reported.
SETUP_SAMPLES = 5
#: Reference-kernel samples after each set-up, and the least time between two
#: samples in the timed phase (see ``workloads.Reference``).
REF_SAMPLES = 5
REF_EVERY_S = 0.25
END_TO_END_UNITS = {
    "setup_s": "s", "latency_p50_s": "s", "throughput_rps": "1/s", "peak_rss_mb": "MB",
}
#: Product-sum errors above this count toward ``prodsum_miss_frac``.
PRODSUM_TOL = 1e-6
ACCURACY_UNITS = {
    "recon_err_max": "ratio", "prodsum_err_max": "ratio", "prodsum_miss_frac": "ratio",
    "floor_gap_max": "ratio", "spectral_err_max": "ratio",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own test")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used for the set-up samples)")
    return p.parse_args(argv)


def _import_opsum():
    src = ROOT / "src"
    if not (src / "opsum" / "__init__.py").is_file():
        sys.exit(f"perfbench: no opsum package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import opsum
    if Path(opsum.__file__).resolve().parent != src / "opsum":
        sys.exit(f"perfbench: imported opsum from {opsum.__file__}, not from {src}")
    return opsum


def _set_up(args, tracer_wanted):
    """Import, input generation and warm-up; returns (workload, tracer, seconds)."""
    start = time.perf_counter()
    _import_opsum()
    import numpy as np
    import tracing
    import workloads

    tracer = None
    if tracer_wanted:
        tracer = tracing.Tracer()
        tracer.install()
    workdir = WORKDIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](
        np.random.default_rng(args.seed), str(workdir), args.smoke)
    workload.warm_up()
    return workload, tracer, time.perf_counter() - start


def _setup_in_fresh_process(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def _environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _measure(workload, seconds, tracer):
    """Closed loop: the next request is sent only after the previous one ends.

    Runs a fixed number of whole cycles, so every run with the same seed and
    ``seconds`` sends the same requests.
    """
    requests = workload.requests
    total = workload.cycle * max(1, round(seconds / workload.cycle_s))
    records = []                # (latency, outcome, start)
    checked = {}                # (request index, output digest) -> outcome
    busy = 0.0
    ref = workload.reference
    wall = next_ref = time.perf_counter()
    while len(records) < total:
        req = requests[len(records) % len(requests)]
        if tracer:
            tracer.request = len(records)
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out, error = req.run(), None
        except Exception as exc:     # a failed request is an outcome, not a crash
            out, error = None, exc
        latency = time.perf_counter() - t0
        if tracer:
            tracer.active = False
        busy += latency
        # the check is a pure function of input and output, so an output
        # already checked for this input is not checked again
        key = (len(records) % len(requests), _request_digest(req, out, error))
        if key not in checked:
            checked[key] = _outcome(req, out, error)
        if not records:
            first_digest = key[1]
        records.append((latency, checked[key], t0))
        if time.perf_counter() >= next_ref:
            ref.sample()
            next_ref = time.perf_counter() + REF_EVERY_S
    wall = time.perf_counter() - wall

    # determinism: the first request, repeated untimed and untraced
    try:
        out, error = requests[0].run(), None
    except Exception as exc:
        out, error = None, exc
    deterministic = _request_digest(requests[0], out, error) == first_digest
    return records, busy, wall, deterministic


def _outcome(req, out, error):
    from workloads import Outcome

    if error is not None:
        return Outcome(False, f"raised {type(error).__name__}")
    try:
        return req.check(out)
    except Exception as exc:         # e.g. CLI output that does not parse
        return Outcome(False, f"check raised {type(exc).__name__}")


def _request_digest(req, out, error):
    if error is not None:
        return f"{type(error).__name__}: {error}".encode()
    return req.digest(out)


def _latency_stats(latencies):
    xs = sorted(latencies)
    n = len(xs)
    if n > 10:   # the highest percentile with at least 10 samples beyond it
        tail, pct = xs[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = xs[-1], 100.0
    return statistics.median(xs), tail, pct


def _accuracy(outcomes):
    def values(key):
        return [o.accuracy[key] for o in outcomes if key in o.accuracy]

    prodsum = values("prodsum_err")
    return {
        "recon_err_max": max(values("recon_err"), default=0.0),
        "prodsum_err_max": max(prodsum, default=0.0),
        "prodsum_miss_frac": sum(e > PRODSUM_TOL for e in prodsum) / len(prodsum) if prodsum else 0.0,
        "floor_gap_max": max(values("floor_gap"), default=0.0),
        "spectral_err_max": max(values("spectral_err"), default=0.0),
    }


def run_one(args):
    workload, tracer, setup_raw = _set_up(args, tracer_wanted=args.trace == 1)
    for _ in range(REF_SAMPLES):
        workload.reference.sample()
    setup_s = setup_raw * workload.reference.scale()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s]
    if args.trace == 0:
        setups += [_setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]

    records, busy, wall, deterministic = _measure(workload, args.seconds, tracer)
    ref = workload.reference
    # each request at the speed the reference kernel ran at around it
    scaled = [lat * ref.local_scale(t0, t0 + lat) for lat, _, t0 in records]
    outcomes = [o for _, o, _ in records]
    ok_latencies = [x for x, o in zip(scaled, outcomes) if o.ok]
    if not ok_latencies:
        print("perfbench: no request succeeded; nothing to measure", file=sys.stderr)
        return 1
    attempted = len(records) + 1              # + the determinism repeat
    failed = sum(not o.ok for o in outcomes) + (not deterministic)
    p50, tail, tail_pct = _latency_stats(ok_latencies)
    accuracy = _accuracy(outcomes)

    if args.trace == 0:
        metrics = {
            "setup_s": statistics.median(setups),
            "latency_p50_s": p50,
            "throughput_rps": len(records) / sum(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        layer = tracer.metrics()
        layer["trace.latency_p50_s"] = (p50, "s")
        for name, unit in ACCURACY_UNITS.items():
            layer[name] = (accuracy[name], unit)
        metrics = {k: v for k, (v, _) in layer.items()}
        units = {k: u for k, (_, u) in layer.items()}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(),
        "requests": len(records), "cycles": len(records) // workload.cycle,
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "failures": dict(Counter(o.reason for o in outcomes if not o.ok)),
        "deterministic": deterministic,
        "latency_tail_s": tail, "tail_percentile": round(tail_pct, 2),
        "latency_samples": len(ok_latencies),
        "accuracy": accuracy,
        "best_effort_paths": dict(Counter(o.accuracy["path"] for o in outcomes
                                          if "path" in o.accuracy)),
        "setup_samples_s": setups, "speed_scale": ref.scale(),
        "reference_samples": len(ref.samples), "raw_setup_s": setup_raw,
        "raw_latency_p50_s": statistics.median(lat for lat, o, _ in records if o.ok),
        "raw_throughput_rps": len(records) / busy, "busy_s": busy, "wall_s": wall,
    }
    if tracer:
        report["self_share_of_busy"] = tracer.top_self_shares(busy)
    log = [[type(workload.requests[i % len(workload.requests)]).__name__, t0, lat, o.ok]
           for i, (lat, o, t0) in enumerate(records)]
    with open(WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump({"report": report, "requests": log,
                   "reference": {"nominal_s": ref.nominal_s,
                                 "samples": list(zip(ref.times, ref.samples))},
                   "spans": tracer.spans_json() if tracer else []}, f)

    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload untraced and traced; one table of metrics and overheads."""
    rows = []
    for name in NAMES:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            out = subprocess.run(cmd, check=True, capture_output=True, text=True)
            lines = out.stdout.splitlines()
            results[trace] = (json.loads(lines[-2])["report"], json.loads(lines[-1]))
        report, result = results[0]
        for metric, m in result["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
        rows.append((name, "latency_tail_s", report["latency_tail_s"], "s"))
        rows.append((name, "fail_frac", report["fail_frac"], "ratio"))
        for metric, value in report["accuracy"].items():
            rows.append((name, metric, value, ACCURACY_UNITS[metric]))
        traced = results[1][1]["metrics"]["trace.latency_p50_s"]["value"]
        untraced = result["metrics"]["latency_p50_s"]["value"]
        rows.append((name, "trace_overhead_s", traced - untraced, "s"))
        rows.append((name, "tail_percentile", report["tail_percentile"], "%"))
        rows.append((name, "latency_samples", report["latency_samples"], "count"))
    for name, metric, value, unit in rows:
        print(f"{name:<11} {metric:<18} {value:>14.6g} {unit}")
    return 0


def main(argv=None):
    args = _parse_args(argv)
    if args.workload == "all":
        if args.trace or args.setup_only:
            sys.exit("perfbench: --workload all runs both trace modes itself")
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
