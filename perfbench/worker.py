"""One benchmark process, started by run.py with BLAS pinned to one thread.

Imports fusioncs, builds the workload from the seed and warms it up (the
set-up time), then either times sweeps for the given seconds (trace 0) or
makes the traced run (trace 1): an untraced sweep, the same sweep with
FUSIONCS_THREADS=1, that sweep traced, and operator microbenchmarks. Prints
one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import timeit
from pathlib import Path


def _per_call_us(fn, arg) -> float:
    timer = timeit.Timer(lambda: fn(arg))
    loops, _ = timer.autorange()
    return statistics.median(timer.repeat(5, loops)) / loops * 1e6


def timed_run(wl, seconds: float) -> dict:
    times, outcomes = [], []
    start = time.perf_counter()
    while True:
        elapsed, outcome = wl.sweep()
        times.append(elapsed)
        outcomes.append(outcome)
        if time.perf_counter() - start + statistics.median(times) > seconds:
            break
    first = outcomes[0]
    errors = wl.check(first)
    if any(o.text != first.text for o in outcomes[1:]):
        errors.append("a repeated sweep did not reproduce the first sweep's output")
    return {"sweep_s": statistics.median(times), "sweeps": len(times), "outcome": first,
            "errors": errors}


def traced_run(wl, trace_path: Path) -> dict:
    import numpy as np
    from fusioncs import solver
    from tracing import Tracer, layer_metrics
    from workloads import FRIP_TOL, dense_frip

    sweep_s, outcome = wl.sweep()
    # the traced sweep runs in one thread, like the serial one: in the pool,
    # spans would also time the waits for the interpreter lock, and the
    # pooled traced noisy sweep took 70 s against 46 s untraced
    os.environ["FUSIONCS_THREADS"] = "1"
    tracer = Tracer()
    try:
        serial_s, serial = wl.sweep()
        tracer.install(wl.operators())
        try:
            traced_s, traced = wl.sweep()
        finally:
            tracer.uninstall()
    finally:
        del os.environ["FUSIONCS_THREADS"]

    errors = wl.check(outcome)
    if traced.text != serial.text:
        errors.append("traced sweep output differs from the untraced sweep")
    if serial.text != outcome.text:
        errors.append("output at FUSIONCS_THREADS=1 differs from the default pool")
    certify_fail = sum(
        1 for b, y, sol in tracer.solves
        if sol.status == "converged" and not solver.certify(sol, b, y).ok
    )
    if certify_fail:
        errors.append(f"{certify_fail} converged solves fail certify()")
    for a, coll, s, scale, value in tracer.frips:
        if abs(dense_frip(a, coll, s, scale) - value) > FRIP_TOL:
            errors.append(f"exact_frip value {value!r} disagrees with the dense Kronecker matrix")

    op, s = wl.probe_operator()
    c = np.linspace(-1.0, 1.0, op.in_dim)
    y = np.linspace(-1.0, 1.0, op.out_dim)
    support = tuple(range(min(s, op.collection.size)))
    metrics = layer_metrics(tracer, certify_fail)
    metrics.update({
        "experiments.serial_sweep_s": serial_s,
        "experiments.pool_speedup": serial_s / sweep_s,
        "solver.iters_mean": outcome.iterations / outcome.trials if outcome.trials else 0.0,
        "measurement.matvec_us": _per_call_us(op.matvec, c),
        "measurement.rmatvec_us": _per_call_us(op.rmatvec, y),
        "measurement.support_matrix_us": _per_call_us(op.support_matrix, support),
        "trace.overhead": traced_s / serial_s - 1.0,
    })
    trace_path.write_text(json.dumps(tracer.dump()))
    return {"sweep_s": sweep_s, "sweeps": 1, "outcome": outcome, "errors": errors,
            "layers": metrics}


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads_env = {k: os.environ.get(k) for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "FUSIONCS_THREADS")}
    pool = threads_env["FUSIONCS_THREADS"] or os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": threads_env,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "trial_pool": int(pool),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.size, args.out_dir)
    wl.warm_up()
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        tag = f"{args.workload}-seed{args.seed}"
        run = (traced_run(wl, args.out_dir / f"trace-{tag}.json") if args.trace
               else timed_run(wl, args.seconds))
        outcome = run.pop("outcome")
        result.update(run)
        result.update({
            "attempted": outcome.attempted * run["sweeps"],
            "failed": outcome.failed * run["sweeps"],
            "fail_share": outcome.failed / outcome.attempted,
            "success_share": outcome.successes / outcome.trials if outcome.trials else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "env": environment(),
        })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
