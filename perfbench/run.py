#!/usr/bin/env python3
"""remenu benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout; without it the run exits with code 2 and prints no result.
Workloads (see README.md in this directory): sweep-exp, audit,
generic-loss.  The whole workload runs in this one process.

--trace 0: set up three times, repeat the workload's pass while another
pass is expected to end within --seconds (at least one pass), verify and
check every output, and print the end-to-end metrics.
--trace 1: one untraced set-up and pass, then the same under the tracer;
the two must produce bit-identical outputs.  Prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import Stopwatch  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
TAIL_BEYOND = 10
WORKLOAD_NAMES = ("sweep-exp", "audit", "generic-loss")

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "solve_s_tail": "s",
    "sweep_s": "s",
    "audit_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="remenu benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program(sw) -> float:
    """Import remenu from this checkout's src/; adjusted seconds taken
    (numpy included)."""
    src = ROOT / "src"
    if not (src / "remenu" / "__init__.py").is_file():
        raise ImportError(f"{src / 'remenu'} not found; run from a remenu checkout")
    sys.path.insert(0, str(src))
    remenu, seconds = sw.time(importlib.import_module, "remenu")
    if Path(remenu.__file__).resolve().parent != (src / "remenu").resolve():
        raise ImportError(f"imported remenu from {remenu.__file__}, not from {src}")
    return seconds


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are fewer."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    i = n - TAIL_BEYOND - 1
    return s[i], 100.0 * (i + 1) / n


def _median(xs):
    # An empty sample only happens when every operation of its kind failed,
    # which the result already reports as not correct.
    return statistics.median(xs) if xs else 0.0


def measure(wl, seconds: float, import_s: float) -> tuple[dict, list[str]]:
    setup_times = [wl.setup() for _ in range(SETUP_REPEATS)]
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(wl.run_pass(wl.work / f"pass{len(results)}"))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    first = results[0].outputs
    for i, res in enumerate(results[1:], 1):
        wl.tally.op(res.outputs == first, f"pass {i} outputs differ from pass 0")
    wl.tally.call("gate", wl.gate, results[-1])

    # A group is one pass's solves; audit solves only in its set-ups.
    solve_groups = [r.solve_times for r in results if r.solve_times] or [g for g in wl.setup_solve_times if g]
    tails = [tail(g) for g in solve_groups]
    audit = [x for r in results for x in r.audit_times]
    verify = [x for r in results for x in r.verify_times]
    metrics = {
        "setup_s": import_s + _median(setup_times),
        "solve_s": _median([_median(g) for g in solve_groups]),
        "solve_s_tail": _median([v for v, _p in tails]),
        "sweep_s": _median([r.wall for r in results]),
        "audit_s": _median(audit),
        "verify_s": _median(verify),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_over_adjusted = [raw / adj for raw, adj in wl.sw.log if adj > 0]
    samples = {
        "timed_ops_raw_adjusted": wl.sw.log,
        "setup_s": setup_times,
        "solve_groups": solve_groups,
        "sweep_s": [r.wall for r in results],
        "audit_s": audit,
        "verify_s": verify,
    }
    (wl.work.parent / "samples.json").write_text(json.dumps({"import_s": import_s, **samples}), "utf-8")
    notes = [
        f"passes {len(results)}; set-ups {len(setup_times)} (import {import_s:.4f} s)",
        f"solve groups {len(solve_groups)} of {len(solve_groups[0])}; solve_s and solve_s_tail are "
        f"medians over groups of the group's median and p{tails[0][1]:.1f}"
        if tails else "no solve samples",
        f"audit samples {len(audit)}; verify samples {len(verify)}",
        f"host speed: raw / adjusted time, median over {len(raw_over_adjusted)} timed operations "
        f"{_median(raw_over_adjusted):.3f} (min {min(raw_over_adjusted):.3f}, max {max(raw_over_adjusted):.3f})",
    ]
    return metrics, notes


def trace_run(wl, out_dir: Path) -> tuple[dict, list[str]]:
    from tracer import Tracer

    import inputs

    t0 = time.perf_counter()
    wl.setup()
    plain = wl.run_pass(wl.work / "untraced")
    untraced_s = time.perf_counter() - t0
    plain_out = (dict(wl.setup_outputs), plain.outputs)

    tracer = Tracer()
    tracer.install()
    tracer.install_survival(inputs.LomaxSurvival)
    try:
        t0 = time.perf_counter()
        wl.setup()
        tracer.pass_id = 1
        traced = wl.run_pass(wl.work / "traced")
        traced_s = time.perf_counter() - t0
    finally:
        tracer.remove()
    traced_out = (dict(wl.setup_outputs), traced.outputs)
    wl.tally.op(traced_out == plain_out, "traced outputs differ from untraced outputs")
    wl.tally.call("gate", wl.gate, traced)
    tracer.write(out_dir / "trace.npz")
    (out_dir / "trace_counts.json").write_text(
        json.dumps(tracer.count_metrics(), indent=1, sort_keys=True), "utf-8"
    )
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced_s - untraced_s
    notes = [
        f"spans {len(tracer.starts)}; untraced {untraced_s:.3f} s, traced {traced_s:.3f} s",
        f"unpatched entry points: {', '.join(tracer.missing) or 'none'}",
    ]
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    sw = Stopwatch()
    try:
        import_s = import_program(sw)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import inputs
    from workloads import WORKLOADS, Tally

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    out_dir = HERE / "out" / run_id
    work = out_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    wl = WORKLOADS[args.workload](args.seed, work, tally, sw)
    try:
        if args.trace:
            metrics, notes = trace_run(wl, out_dir)
        else:
            metrics, notes = measure(wl, args.seconds, import_s)
        # Self-checks: the generator is deterministic and the gate catches
        # a tau* moved by 1e-3 relative on every checked output.
        tally.op(inputs.fingerprint(args.seed) == inputs.fingerprint(args.seed), "input generator is not deterministic")
        missed = tally.call("perturbation self-check", wl.self_check_perturbation)
        tally.op(missed == [], f"gate missed a perturbed tau* for {missed}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    gaps = wl.j_gaps
    quality = {
        "j_gap_rel": max(gaps) if gaps else 0.0,
        "fail_frac": tally.failed / max(tally.attempted, 1),
    }
    if args.trace:
        metrics.update(quality)
        from tracer import LAYER_METRICS

        units = {**dict(LAYER_METRICS), "j_gap_rel": "ratio", "fail_frac": "ratio", "trace.overhead_s": "s"}
    else:
        units = END_TO_END
    for line in notes:
        print(f"# {line}")
    print(f"# outputs in {out_dir}")
    print(f"# j_gap_rel {quality['j_gap_rel']:.6e} over {len(gaps)} markets with an exact optimum")
    print(f"# fail_frac {quality['fail_frac']:.6e} ({tally.failed} of {tally.attempted} operations)")
    for msg in tally.messages:
        print(f"# FAILED: {msg}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (out_dir / "result.json").write_text(json.dumps(result, indent=1), "utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
