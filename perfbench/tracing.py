"""Spans for the traced run, recorded from outside the library.

The tracer replaces the module attributes the runners call (and the CLI's
entry point and the oracle) with timing wrappers, and wraps each operator's
``matvec``/``rmatvec``/``support_matrix`` on the instance. A span records
name, start, end, parent, trial and thread. Operator applies are not spans
of their own: a noisy sweep makes about two million of them, so each one
adds its count and time to the innermost open span of its thread instead.
A trial is the run of spans on one thread from the call that starts it
(signal or ensemble draw, oracle call) to the call that ends it (a solve,
an isometry constant, an oracle call). Spans stay in memory until the run
ends. Install only around the traced sweep; end-to-end numbers come from
sweeps run without it.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field

from fusioncs import cli, experiments, solver

WRAPPED = (
    (cli, "main"),
    (experiments, "run_phase_transition"),
    (experiments, "run_noise_robustness"),
    (experiments, "run_frip_sweep"),
    (experiments, "solve_equality"),
    (experiments, "solve_noisy"),
    (experiments, "compose_with_bases"),
    (experiments, "sample_ensemble"),
    (experiments, "add_noise"),
    (experiments, "random_sparse_signal"),
    (experiments, "random_collection"),
    (experiments, "orthogonal_collection"),
    (experiments, "coherence"),
    (experiments, "exact_frip"),
    (experiments, "mc_frip"),
    (solver, "oracle_recover_exhaustive"),
)
APPLIES = ("matvec", "rmatvec", "support_matrix")
RUNNERS = {"run_phase_transition", "run_noise_robustness", "run_frip_sweep"}
SOLVES = {"solve_equality", "solve_noisy"}
TRIAL_START = {"random_sparse_signal", "sample_ensemble", "oracle_recover_exhaustive"}
TRIAL_END = SOLVES | {"exact_frip", "mc_frip", "oracle_recover_exhaustive"}


@dataclass
class Span:
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None
    trial: int | None
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.solves = []  # (B, y, solution), certified after the sweep
        self.frips = []  # (a, collection, s, scale, value), rechecked after the sweep
        self._ids = itertools.count(1)
        self._trials = itertools.count(1)
        self._local = threading.local()
        self._saved = []
        self._instrumented = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.trial = [], None
        return local

    def install(self, operators=()) -> None:
        # a name the library no longer has is skipped, so that a refactor
        # of the runners leaves the traced run working
        for module, name in WRAPPED:
            fn = getattr(module, name, None)
            if fn is not None:
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(name, fn))
        for op in operators:
            self._instrument(op)

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()
        for op in self._instrumented:
            for name in APPLIES:
                op.__dict__.pop(name, None)
        self._instrumented.clear()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            state = self._state()
            if state.trial is None and name in TRIAL_START:
                state.trial = next(self._trials)
            span = Span(next(self._ids), name, 0, 0,
                        state.stack[-1].id if state.stack else None,
                        None if name in RUNNERS or name == "main" else state.trial,
                        threading.get_ident())
            state.stack.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                state.stack.pop()
                self.spans.append(span)
                if name in TRIAL_END and all(s.trial is None for s in state.stack):
                    state.trial = None
            self._observe(span, args, kwargs, result)
            return result

        return traced

    def _observe(self, span, args, kwargs, result) -> None:
        name = span.name
        if name == "compose_with_bases":
            self._instrument(result)
        elif name in SOLVES:
            span.counts["iterations"] = result.iterations
            span.counts["status"] = result.status
            self.solves.append((args[0], args[1], result))
        elif name in ("exact_frip", "mc_frip"):
            span.counts["supports"] = result.supports_evaluated
            if name == "exact_frip":
                scale = args[3] if len(args) > 3 else kwargs.get("scale", 1.0)
                self.frips.append((args[0], args[1], args[2], scale, result.value))

    def _instrument(self, op) -> None:
        try:
            for name in APPLIES:
                setattr(op, name, self._counted(name, getattr(op, name)))
        except AttributeError:  # an operator type that takes no instance attributes
            return
        self._instrumented.append(op)

    def _counted(self, name, fn):
        key_ns = name + "_ns"

        def counted(*args, **kwargs):
            stack = self._state().stack
            if not stack:
                return fn(*args, **kwargs)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                counts = stack[-1].counts
                counts[name] = counts.get(name, 0) + 1
                counts[key_ns] = counts.get(key_ns, 0) + time.perf_counter_ns() - t0

        return counted

    def dump(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans]}


def _union_ns(intervals, lo, hi) -> int:
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi):
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, certify_fail: int) -> dict:
    """Per-module numbers from the spans of one traced sweep.

    A value that does not apply to the workload (no solves, no oracle
    calls, fewer than 100 solves for a p90) reads 0.
    """
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def spans(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def total_ms(*names):
        return sum(s.ms for s in spans(*names))

    solves = spans(*SOLVES)
    iters = [s.counts["iterations"] for s in solves]
    iterative = [s for s in solves if s.counts["iterations"] > 0]
    direct = [s for s in solves if s.counts["iterations"] == 0 and s.counts["status"] == "converged"]
    n_iter = sum(s.counts["iterations"] for s in iterative)
    solve_ms = [s.ms for s in solves]
    apply_ns = sum(s.counts.get("matvec_ns", 0) + s.counts.get("rmatvec_ns", 0) for s in solves)
    oracles = spans("oracle_recover_exhaustive")
    oracle_supports = sum(s.counts.get("support_matrix", 0) for s in oracles)
    frips = spans("exact_frip")
    frip_supports = sum(s.counts["supports"] for s in frips)

    self_ns = 0
    children = [(s.start, s.end) for s in tracer.spans if s.name not in RUNNERS and s.name != "main"]
    for runner in spans(*RUNNERS):
        self_ns += (runner.end - runner.start) - _union_ns(children, runner.start, runner.end)
    cli_ms = total_ms("main") - sum(s.ms for s in spans("run_phase_transition") if s.parent is not None)

    def per_iter(name):
        return sum(s.counts.get(name, 0) for s in iterative) / n_iter if n_iter else 0.0

    return {
        "cli.overhead_ms": cli_ms if by_name.get("main") else 0.0,
        "experiments.self_s": self_ns / 1e9,
        "solver.solves": len(solves),
        "solver.iters_p50": _median(iters),
        "solver.iters_max": max(iters, default=0),
        "solver.solve_ms_p50": _median(solve_ms),
        "solver.solve_ms_p90": (statistics.quantiles(solve_ms, n=10)[-1] if len(solve_ms) >= 100 else 0.0),
        "solver.us_per_iter": (sum(s.ms for s in iterative) * 1e3 / n_iter if n_iter else 0.0),
        "solver.direct_share": len(direct) / len(solves) if solves else 0.0,
        "solver.direct_ms_p50": _median([s.ms for s in direct]),
        "solver.max_iters": sum(1 for s in solves if s.counts["status"] == "max_iters"),
        "solver.certify_fail": certify_fail,
        "solver.oracle_ms_p50": _median([s.ms for s in oracles]),
        "solver.oracle_us_per_support": (
            sum(s.ms for s in oracles) * 1e3 / oracle_supports if oracle_supports else 0.0),
        "measurement.matvec_per_iter": per_iter("matvec"),
        "measurement.rmatvec_per_iter": per_iter("rmatvec"),
        "measurement.apply_share": apply_ns / 1e6 / sum(solve_ms) if solves else 0.0,
        "measurement.sample_ms": total_ms("sample_ensemble", "compose_with_bases", "add_noise"),
        "rip.supports": frip_supports,
        "rip.us_per_support": sum(s.ms for s in frips) * 1e3 / frip_supports if frip_supports else 0.0,
        "rip.exact_frip_ms_p50": _median([s.ms for s in frips]),
        "frames.build_ms": total_ms("random_collection", "orthogonal_collection", "coherence"),
        "signals.gen_ms": total_ms("random_sparse_signal"),
    }
