"""One benchmark process: set up a workload, then time it or trace it.

``run.py`` starts this file once per measurement so that set-up time and
peak memory belong to one fresh process.  Modes:

- ``reference``: build the inputs and write every case's reference output
  to the ``--refs`` file, so that no measured process computes one;
- ``setup``: import, build the inputs and run one warm-up case, then stop;
- ``measure``: set up, then run the pass of cases repeatedly, untraced;
- ``trace``: set up, then alternate untraced and traced passes twice.

Every mode but ``reference`` checks each output against the ``--refs`` file.

The last line on standard output is a JSON object for ``run.py``.
"""

import os
import time

# One CPU for the whole process, so that threads the program starts (the
# sweep's executor) run where the speed probe below measures.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

# The machine's speed is sampled by a fixed loop just before set-up starts
# and right after it ends, and around every case.  Shared hosts change speed
# by up to 1.8x for minutes at a time; scaling each time by REF / probe turns
# it into seconds on a machine where the probe takes REF.  Both references
# are the probe's time in quiet periods on the 2-vCPU x86 box the benchmark
# was defined on.
SETUP_PROBE_REF_S = 0.75e-3
CASE_PROBE_REF_S = 0.37e-3


def probe(np=None) -> float:
    """Fastest of three runs of a fixed loop: the machine's current speed for
    Python code, plus small numpy products once numpy is imported."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for i in range(4000 if np else 12000):
            x += i * i
        if np is not None:
            for d, reps in ((4, 60), (32, 6)):
                a = np.eye(d, dtype=complex) * 0.5
                b = a
                for _ in range(reps):
                    b = a @ b + a
        times.append(time.perf_counter() - start)
    return min(times)


SETUP_PROBE = probe()
STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
TRACED_PASSES = 2


def timed_run(case, out_dir: Path) -> tuple:
    """Run one case; returns (seconds, output, problems)."""
    start = time.perf_counter()
    try:
        output = case.run(out_dir)
    except Exception as exc:  # a raising case is a failed case, not a crash
        return time.perf_counter() - start, None, [f"{type(exc).__name__}: {exc}"]
    return time.perf_counter() - start, output, []


def check_output(case, output, expected, out_dir: Path) -> tuple:
    """Compare one output with its reference; returns (items, problems)."""
    try:
        problems = case.check(output, expected, out_dir)
        return (case.items(output) if not problems else 0), problems
    except Exception as exc:
        return 0, [f"output check raised {type(exc).__name__}: {exc}"]


def run_case(case, expected, scratch: Path, quiet) -> tuple:
    """Time one case, then check its output inside ``quiet()``, which keeps
    the check's own kcprobe calls out of a trace.  Returns (seconds, items,
    problems)."""
    out_dir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        elapsed, output, problems = timed_run(case, out_dir)
        items = 0
        if not problems:
            with quiet():
                items, problems = check_output(case, output, expected, out_dir)
        return elapsed, items, problems
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


class Tally:
    def __init__(self):
        self.latencies, self.raw, self.problems = [], [], []
        self.items = self.attempted = self.failed = 0

    def add(self, label: str, scaled: float, raw: float, items: int, problems: list) -> None:
        self.latencies.append(scaled)
        self.raw.append(raw)
        self.items += items
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")


def run_pass(cases, refs: dict, scratch: Path, tally: Tally, quiet=contextlib.nullcontext) -> float:
    """Run each case once; returns the pass's summed scaled latency."""
    busy = 0.0
    before = probe(np)
    for case in cases:
        elapsed, items, problems = run_case(case, refs[case.label], scratch, quiet)
        after = probe(np)
        scaled = elapsed * CASE_PROBE_REF_S / ((before + after) / 2)
        tally.add(case.label, scaled, elapsed, items, problems)
        busy += scaled
        before = after
    return busy


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("reference", "setup", "measure", "trace"), required=True)
    parser.add_argument("--refs", type=Path, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import kcprobe

    if not Path(kcprobe.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"kcprobe was imported from {kcprobe.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    warm, cases = workload.build(args.seed)
    if args.mode == "reference":
        labels = [case.label for case in cases]
        if len(set(labels)) != len(labels) or warm.label not in labels:
            raise RuntimeError(f"{args.workload}: case labels must be unique and include the warm-up")
        args.refs.write_bytes(pickle.dumps({case.label: case.reference() for case in cases}))
        print(json.dumps({"cases": len(cases)}))
        return 0
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        warm_dir = Path(tempfile.mkdtemp(dir=scratch))
        _, warm_output, warm_problems = timed_run(warm, warm_dir)
        setup_raw = time.perf_counter() - STARTED
        speed = (SETUP_PROBE + probe()) / 2
        result = {"setup_s": setup_raw * SETUP_PROBE_REF_S / speed, "setup_raw_s": setup_raw}
        # Written by the reference process; read once set-up time is taken.
        refs = pickle.loads(args.refs.read_bytes())
        if not warm_problems:
            _, warm_problems = check_output(warm, warm_output, refs[warm.label], warm_dir)
        tally = Tally()
        if args.mode != "setup":
            passes = max(1, round(args.seconds / workload.pass_seconds))
            if args.mode == "measure":
                result.update(measure(cases, refs, passes, 3 * args.seconds, scratch, tally))
            else:
                result.update(trace(cases, refs, scratch, tally))
        if warm_problems:
            tally.failed += 1
            tally.problems.insert(0, f"warm-up {warm.label}: {'; '.join(warm_problems)}")
        result.update(
            attempted=tally.attempted + 1,
            failed=tally.failed,
            problems=tally.problems[:10],
            items=tally.items,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(cases, refs: dict, passes: int, limit_s: float, scratch: Path, tally: Tally) -> dict:
    start = time.perf_counter()
    done = 0
    # The pass count is fixed so that every run has the same sample count;
    # on a machine far slower than the one it was sized on, stop early
    # rather than run past the time a run is allowed.
    while done < passes and time.perf_counter() - start < limit_s:
        run_pass(cases, refs, scratch, tally)
        done += 1
    # ru_maxrss is in KiB on Linux.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"passes": done, "latencies": tally.latencies, "raw": tally.raw, "peak_rss_mib": peak}


def trace(cases, refs: dict, scratch: Path, tally: Tally) -> dict:
    from tracer import Tracer, invariant_violations, layer_metrics

    tracer = Tracer()
    untraced, traced, per_pass, violations = [], [], [], []
    for _ in range(TRACED_PASSES):
        untraced.append(run_pass(cases, refs, scratch, tally))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_pass(cases, refs, scratch, tally, quiet=tracer.paused))
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        violations.extend(invariant_violations(summary))
        per_pass.append(layer_metrics(summary))
    first = per_pass[0]
    for name, (value, unit) in first.items():
        if unit in ("count", "bytes") and any(p[name][0] != value for p in per_pass[1:]):
            violations.append(f"{name} differs between traced passes")
    # Counts come from the first traced pass, times are the mean of the passes.
    metrics = {}
    for name, (value, unit) in first.items():
        if unit not in ("count", "bytes"):
            value = sum(p[name][0] for p in per_pass) / len(per_pass)
        metrics[name] = [value, unit]
    metrics["trace.overhead_frac"] = [sum(traced) / sum(untraced) - 1.0, "ratio"]
    metrics["trace.invariant_violations"] = [len(violations), "count"]
    return {"layer_metrics": metrics, "violations": violations}


if __name__ == "__main__":
    sys.exit(main())
