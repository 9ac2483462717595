"""Self-test of the benchmark itself, at tiny size.

    python3 perfbench/selftest.py

For every workload, with and without tracing, the last line must carry
exactly the contract's keys, ``correct`` must hold (the traced run's checks
include traced-vs-untraced and FUSIONCS_THREADS=1-vs-default byte identity
of the output rows), and the metrics must be exactly the ones BENCHMARK.json
lists, each with its unit. A copy of the benchmark in a directory without
the library must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload['name']} trace {trace}"
            proc = run(ROOT, "--workload", workload["name"], "--seed", "0", "--seconds", "1",
                       "--trace", str(trace), "--size", "tiny")
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
                failures.append(f"{label}: {lines[-1]}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != {m["name"]: m["unit"] for m in listed}:
                failures.append(f"{label}: metrics {sorted(units)} differ from BENCHMARK.json")
            print(f"{label}: {len(units)} metrics, correct={result['correct']}")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "phase_mixed", "--seed", "0", "--seconds", "1",
                   "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"benchmark without the library: exit {proc.returncode}, "
                            f"stdout {proc.stdout!r}")
        print(f"benchmark without the library: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
