"""fusioncs benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload phase_mixed --seed 0 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each was chosen):
  phase_mixed   ``fusioncs experiment phase`` through ``fusioncs.cli.main``
  noisy_ball    ``fusioncs.experiments.run_noise_robustness`` on criterion 9's instance
  support_enum  ``run_frip_sweep`` with exhaustive ``exact_frip`` and ``oracle_recover_exhaustive``

Every process that imports fusioncs is a child started here with BLAS pinned
to one thread and ``FUSIONCS_THREADS`` unset, so the trial pool runs at its
shipped default. Set-up is measured in ``SETUP_SAMPLES`` fresh processes and
reported as their median. With ``--trace 0`` the last line carries the
end-to-end metrics, with ``--trace 1`` the per-module metrics of the traced
run. Human-readable metric lines and the environment record come first; the
full record is also written to ``.bench_build/perfbench/``. Exits 1 when an
output check fails and 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("FUSIONCS_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"benchmark worker exceeded {timeout:.0f} s: {' '.join(args)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"benchmark worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_record() -> dict:
    """Git commit when the checkout has one, and a digest of the library source."""
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_file.is_file():
                sha = ref_file.read_text().strip()
            elif packed.is_file():
                sha = next((line.split()[0] for line in packed.read_text().splitlines()
                            if line.endswith(" " + ref[5:])), None)
        else:
            sha = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("phase_mixed", "noisy_ball", "support_enum"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small grids, for the benchmark's self-test")
    args = parser.parse_args()

    if not (ROOT / "src" / "fusioncs" / "__init__.py").is_file():
        print(f"fusioncs sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    OUT.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
              str(args.seconds), "--trace", str(args.trace), "--size", args.size,
              "--out-dir", str(OUT)]
    setups = [run_child(common + ["--setup-only"], 60.0)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = run_child(common, DEADLINE_S - (time.monotonic() - start))
    setups.append(res["setup_s"])

    end_to_end = {"sweep_s": res["sweep_s"], "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = dict(res["layers"], fail_share=res["fail_share"],
                      success_share=res["success_share"])
        listed = bench["per_layer"]
    else:
        values = end_to_end
        listed = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    env = dict(res["env"], **source_record(), workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace, size=args.size, sweeps=res["sweeps"],
               setup_samples_s=setups)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} sweeps {res['sweeps']}")
    shown = {"sweep_s": (end_to_end["sweep_s"], "s"), "setup_s": (end_to_end["setup_s"], "s"),
             "fail_share": (res["fail_share"], "ratio"),
             "success_share": (res["success_share"], "ratio"),
             "peak_rss_mb": (end_to_end["peak_rss_mb"], "MB")}
    shown.update({name: (m["value"], m["unit"]) for name, m in metrics.items()})
    for name, (value, unit) in shown.items():
        print(f"{name} {value:.6g} {unit}")
    for err in res["errors"]:
        print(f"check failed: {err}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {"correct": not res["errors"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(dict(result, env=env, errors=res["errors"]), indent=2))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
