"""kcprobe benchmark: four closed-loop workloads and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kc_deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

First one process computes every case's reference output and writes it to
a file that the measured processes read.  ``--trace 0`` then prints the
end-to-end metrics: ``SETUPS - 1`` set-up-only processes, then one process
that sets up and runs a fixed number of passes over the workload's cases,
sized from ``--seconds`` (one case after the other, untraced).  Times are
scaled to a reference machine speed by a probe loop run around each case
(see worker.py); the unscaled figures are printed too.  ``--trace 1``
prints the per-layer metrics of one traced process.  The last line of standard output is one JSON object.  Every
process runs with one BLAS thread.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".perfbench_tmp"
WORKLOADS = ("kc_deep", "oracle_replay", "cli_mix", "algebra_wide")
SETUPS = 7  # set-up samples per run; setup_s is their median
BLAS_THREADS = 1  # fixed so runs do not depend on how busy the other core is
BUDGET_S = 170.0  # a run must end within 180 s
TAIL_BEYOND = 10  # the tail percentile leaves at least this many cases above it

UNITS = {
    "items_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def percentile(values: list, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = p / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of n cases above it."""
    for p in range(99, 50, -1):
        if n * (100 - p) / 100.0 >= TAIL_BEYOND:
            return p
    return 50


def spawn(workload: str, seed: int, seconds: int, mode: str, deadline: float, refs: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, "--refs", str(refs),
    ]
    # subprocess.run kills and reaps the child when the timeout expires.
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} process for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: int, deadline: float, refs: Path) -> tuple:
    setups = [spawn(workload, seed, seconds, "setup", deadline, refs) for _ in range(SETUPS - 1)]
    run = spawn(workload, seed, seconds, "measure", deadline, refs)
    # One latency per case and pass, each scaled by the machine-speed probe
    # around it (see worker.py).  Throughput uses each case's median pass.
    passes, latencies, raw = run["passes"], run["latencies"], run["raw"]
    width = len(latencies) // passes
    per_case = [statistics.median(latencies[i::width]) for i in range(width)]
    raw_case = [statistics.median(raw[i::width]) for i in range(width)]
    tail_p = tail_percentile(len(latencies))
    metrics = {
        "items_per_s": run["items"] / passes / sum(per_case),
        "case_p50_ms": 1000.0 * percentile(latencies, 50),
        "case_tail_ms": 1000.0 * percentile(latencies, tail_p),
        "setup_s": statistics.median([s["setup_s"] for s in setups] + [run["setup_s"]]),
        "peak_rss_mib": run["peak_rss_mib"],
    }
    failed = run["failed"] + sum(s["failed"] for s in setups)
    attempted = run["attempted"] + sum(s["attempted"] for s in setups)
    problems = run["problems"] + [p for s in setups for p in s["problems"]]
    print(f"{workload}: seed {seed}, {passes} passes of {width} cases, "
          f"{SETUPS} set-ups, {BLAS_THREADS} BLAS thread")
    for name, value in metrics.items():
        note = ""
        if name == "case_tail_ms":
            note = f"  (p{tail_p} of {len(latencies)} measured cases: {width} per pass)"
        elif name == "setup_s":
            note = f"  (median of {SETUPS} processes)"
        print(f"  {name:<14} {value:>14.6g} {UNITS[name]}{note}")
    print(f"  {'fail_frac':<14} {failed / attempted:>14.6g}  ({failed} of {attempted} cases failed)")
    print(f"  unscaled: items_per_s {run['items'] / passes / sum(raw_case):.6g} 1/s, "
          f"case_p50_ms {1000.0 * percentile(raw, 50):.6g} ms, "
          f"setup_s {statistics.median([s['setup_raw_s'] for s in setups] + [run['setup_raw_s']]):.6g} s")
    results = {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}
    return results, attempted, failed, problems


def per_layer(workload: str, seed: int, seconds: int, deadline: float, refs: Path) -> tuple:
    run = spawn(workload, seed, seconds, "trace", deadline, refs)
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in run["layer_metrics"].items()}
    print(f"{workload}: traced run, seed {seed}, {BLAS_THREADS} BLAS thread, "
          f"overhead {metrics['trace.overhead_frac']['value']:+.1%}")
    busiest = sorted(
        (m for m in metrics if m.endswith(".self_s")), key=lambda m: -metrics[m]["value"]
    )
    for name in busiest[:8]:
        layer = name[: -len(".self_s")]
        calls = metrics[f"{layer}.calls"]["value"]
        print(f"  {layer:<36} {calls:>9} calls {metrics[name]['value']:>10.4f} s self")
    for violation in run["violations"]:
        print(f"  invariant violated: {violation}", file=sys.stderr)
    return metrics, run["attempted"], run["failed"], run["problems"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + BUDGET_S * len(names)
    collect = per_layer if args.trace else end_to_end
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        SCRATCH.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            refs = Path(tmp) / "references.pickle"
            spawn(name, args.seed, args.seconds, "reference", deadline, refs)
            values, a, f, problems = collect(name, args.seed, args.seconds, deadline, refs)
        for problem in problems:
            print(f"  FAILED {problem}", file=sys.stderr)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in values.items()})
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
