"""Outside-in tracing of opsum: timing wrappers over its public functions.

Nothing in the package changes.  For a traced run the benchmark replaces each
function in ``SPANNED`` and ``COUNTED`` in every ``opsum`` module namespace
that binds it.  The modules import names from one another (``opsum.cli`` and
``opsum.decompose`` hold their own references to ``four_summands``,
``commutator_solve`` and the ``core`` helpers), so patching only the defining
module would miss most calls.  A spanned call records (name, start, end,
parent, request); a counted call only bumps a counter, because those
functions are called tens of thousands of times per request and a span each
would distort the timings around them.

Spans stay in memory.  ``metrics`` turns them into per-layer numbers at the
end of the run and ``spans_json`` hands them to the runner to write out.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Metric prefix of every traced function: the opsum module that defines it
# and its name there.
SPANNED = (
    "core.eig",
    "core.is_psd",
    "core.positivity_certificate",
    "solvers.sylvester_solve",
    "solvers.commutator_solve",
    "solvers.zero_diagonalize",
    "decompose.four_summands",
    "decompose.three_summands",
    "decompose.two_summands",
    "decompose.make_summand",
    "decompose.to_positive_product",
    "decompose.verify_decomposition",
    "lab.optimize_sum_of_products",
    "elementary.ElementaryOperator.to_matrix",
    "elementary.ElementaryOperator.spectrum",
    "elementary.hs_positivity",
    "elementary.pseudospectrum",
    "elementary.plant_luders_eigenvalue",
    "serialize.dump_json",
    "serialize.load_matrix",
    "cli.main",
)
COUNTED = ("core.op_norm", "lab.psd_project")
BEST_EFFORT_PATHS = ("shortcut", "constructive", "search")


class Tracer:
    """Span recorder; ``active`` is switched off around the benchmark's checks."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, request]
        self.stack = []
        self.request = -1
        self.active = False
        self.errors = Counter()
        self.counts = Counter()
        self.opt = Counter()     # optimizer iterations read from returned traces
        self.paths = Counter()   # best-effort path each three/two call ended on
        self.grid_points = 0
        self.json_bytes = 0

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every traced function in every ``opsum`` namespace binding it."""
        extras = {
            "lab.optimize_sum_of_products": self._after_optimize,
            "decompose.three_summands": self._after_best_effort,
            "decompose.two_summands": self._after_best_effort,
            "elementary.pseudospectrum": self._after_pseudospectrum,
            "serialize.dump_json": self._after_dump_json,
        }
        for name in SPANNED:
            self._replace(name, lambda fn, name=name: self._spanned(
                name, fn, extras.get(name)))
        for name in COUNTED:
            self._replace(name, lambda fn, name=name: self._counted(name, fn))

    @staticmethod
    def _replace(name, make_wrapper):
        module, _, attr = name.partition(".")
        owner = sys.modules[f"opsum.{module}"]
        if "." in attr:                        # a method: patch the class once
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, make_wrapper(cls.__dict__[method]))
            return
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "opsum" or mod_name.startswith("opsum.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def _spanned(self, name, fn, after):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out
        return traced

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- counters read from return values ---------------------------------

    def _after_optimize(self, args, trace):
        T, config = args[0], args[1]
        history = np.asarray(trace.residual_history)
        total = len(history)
        first_best = int(np.argmax(history <= trace.best_residual)) if total else 0
        self.opt["iterations"] += total
        self.opt["wasted"] += max(total - first_best - 1, 0)
        T = np.asarray(T)
        lam = np.trace(T) / T.shape[0]
        scalar = np.linalg.norm(T - lam * np.eye(T.shape[0])) <= 1e-12 * max(1.0, np.linalg.norm(T))
        if not scalar:
            self.opt["nonscalar_runs"] += 1
            self.opt["exhausted"] += trace.best_residual > config.target_residual

    def _after_best_effort(self, args, result):
        method = getattr(result, "method", None)
        if method is not None:
            self.paths[method] += 1

    def _after_pseudospectrum(self, args, grid):
        self.grid_points += grid.sigma_min.size

    def _after_dump_json(self, args, _):
        self.json_bytes += os.path.getsize(args[1])

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Per-name (calls, self seconds): duration minus direct children."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return calls, self_s

    def metrics(self):
        """Per-layer metrics: name -> (value, unit)."""
        calls, self_s = self.self_times()
        out = {}
        for name in SPANNED:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
            out[f"{name}.errors"] = (self.errors[name], "count")
        for name in COUNTED:
            out[f"{name}.calls"] = (self.counts[name], "count")
        iterations = self.opt["iterations"]
        out["lab.optimize.iterations"] = (iterations, "count")
        out["lab.optimize.wasted_iter_frac"] = (_share(self.opt["wasted"], iterations), "ratio")
        out["lab.optimize.budget_exhausted_frac"] = (
            _share(self.opt["exhausted"], self.opt["nonscalar_runs"]), "ratio")
        ended = sum(self.paths.values())
        for path in BEST_EFFORT_PATHS:
            out[f"decompose.path.{path}_frac"] = (_share(self.paths[path], ended), "ratio")
        points = self.grid_points
        out["elementary.pseudospectrum.points"] = (points, "count")
        out["elementary.pseudospectrum.point_s"] = (
            _share(self_s["elementary.pseudospectrum"], points), "s")
        out["serialize.dump_json.bytes"] = (self.json_bytes, "bytes")
        return out

    def top_self_shares(self, busy_s, limit=8):
        """Largest self times as shares of the time spent in requests."""
        _, self_s = self.self_times()
        ranked = sorted(self_s.items(), key=lambda kv: -kv[1])[:limit]
        return {name: round(t / busy_s, 4) for name, t in ranked if busy_s > 0}

    def spans_json(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "request": r}
                for n, s, e, p, r in self.spans]


def _share(part, whole):
    return part / whole if whole else 0.0

