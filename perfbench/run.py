"""NetTrails benchmark: churn, query and mixed workloads at 1010 nodes.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload and reports the end-to-end metrics.
``--trace 1`` runs it once untraced and once with per-layer timing, checks
that both passes produced the same counts, and reports the per-layer
metrics.  Human-readable report lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when the correctness gate passed.
``perfbench/README.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIR = ROOT / "src"
#: Scratch space for write-ahead logs, inside the checkout; removed on exit.
WORK_ROOT = ROOT / ".perfbench_work"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(label: str, values: dict) -> None:
    print(f"{label}: {json.dumps(values, sort_keys=True)}")


def measure(args, work_dir: Path) -> int:
    # Imported here, once main() has put the sources on the path.
    import gate
    from layers import LayerClock, per_layer_metrics
    from measure import digest, end_to_end, knobs, named, one_pass
    from workloads import Workload

    workload = Workload(args.workload, args.seed, args.seconds, work_dir)
    problems = []
    if args.trace:
        untraced = one_pass(workload, repeats=1)
        untraced_s = untraced.setup_s[-1] + untraced.timed_s
        untraced.close()
        clock = LayerClock()
        run = one_pass(workload, repeats=1, clock=clock)
        if run.counts != untraced.counts:
            problems.append(
                f"traced counts (digest {digest(run.counts)}) differ from the "
                f"untraced pass's (digest {digest(untraced.counts)})"
            )
        metrics = per_layer_metrics(
            clock, run.counts, run.setup_wall_s[-1] + run.wall_s, run.setup_s[-1] + run.timed_s, untraced_s
        )
    else:
        run = one_pass(workload)
        metrics = end_to_end(run)
    try:
        report("knobs", knobs(run))
        report("counts", run.counts)
        print(f"count digest: {digest(run.counts)}")
        if not args.trace:
            report("metrics", named(run))
        started = time.perf_counter()
        problems += gate.check(run, args.seed)
        verdict = "ok" if not problems else "FAILED"
        print(f"gate: {verdict} in {time.perf_counter() - started:.1f} s")
        for problem in problems:
            print(f"gate failure: {problem}")
    finally:
        run.close()
    print(json.dumps({
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still removes its scratch directory on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    hooks = sorted(name for name in os.environ if name.startswith("NETTRAILS_"))
    if hooks:
        fail(f"refusing to run with {', '.join(hooks)} set; the benchmark pins the default knobs")
    if not (SOURCE_DIR / "repro").is_dir():
        fail(f"no NetTrails sources under {SOURCE_DIR}; run from the root of a checkout")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    sys.path[:0] = [str(SOURCE_DIR), str(Path(__file__).resolve().parent)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose one of {', '.join(WORKLOADS)}")
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        return measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
