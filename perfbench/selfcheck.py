#!/usr/bin/env python3
"""Self-checks of the benchmark.

    python3 perfbench/selfcheck.py [--seed N] [--workload W ...]

* the input generator gives the same inputs for a seed in two processes;
* every traced run is correct, which includes its own checks that the gate
  catches a tau* moved by 1e-3 relative and that the traced outputs equal
  the untraced ones bit for bit;
* the per-layer counts of two traced runs of one seed are identical.

Exits with 1 and names the failed check when one fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py")]


def fingerprint_in_subprocess(seed: int) -> str:
    code = f"import sys; sys.path[:0] = [{str(HERE)!r}]; import inputs; print(inputs.fingerprint({seed}))"
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.strip()


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    """(result line, per-layer counts) of one traced run."""
    proc = subprocess.run(
        [*RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    out_dir = next(line.split(" ", 3)[3] for line in lines if line.startswith("# outputs in "))
    counts = json.loads((Path(out_dir) / "trace_counts.json").read_text("utf-8"))
    return json.loads(lines[-1]), counts


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", action="append", choices=("sweep-exp", "audit", "generic-loss"))
    args = p.parse_args()
    failures = []
    first, second = fingerprint_in_subprocess(args.seed), fingerprint_in_subprocess(args.seed)
    if first != second:
        failures.append("input generator differs between two processes")
    for workload in args.workload or ("generic-loss", "audit", "sweep-exp"):
        (r1, c1), (r2, c2) = traced_run(workload, args.seed), traced_run(workload, args.seed)
        for r in (r1, r2):
            if not r["correct"]:
                failures.append(f"{workload}: traced run not correct ({r['failed']} of {r['attempted']} failed)")
        if c1 != c2:
            diff = sorted(k for k in set(c1) | set(c2) if c1.get(k) != c2.get(k))
            failures.append(f"{workload}: per-layer counts differ between two traced runs: {diff}")
        print(f"{workload}: {len(c1)} counts, runs correct: {r1['correct']} {r2['correct']}", flush=True)
    for f in failures:
        print(f"FAILED: {f}")
    print("selfcheck: " + ("fail" if failures else "pass"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
