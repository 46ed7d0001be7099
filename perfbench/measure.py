"""One measured pass over a workload, and the metrics computed from it."""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
from typing import Dict, Optional, Tuple

from hostclock import REFERENCE_PROBE_S
from layers import LayerClock
from workloads import Run, Workload, counts, percentile

Metrics = Dict[str, Tuple[float, str]]


def one_pass(workload: Workload, repeats: Optional[int] = None, clock: Optional[LayerClock] = None) -> Run:
    """Set up, drive the timed phase and snapshot the counts.

    With a ``clock``, its layer timing is installed for set-up and the timed
    phase.
    """
    if clock is not None:
        clock.install()
    try:
        run = workload.setup(repeats)
        run.setup_messages = run.runtime.network.stats.messages
        workload.drive(run)
    finally:
        if clock is not None:
            clock.uninstall()
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.counts = counts(run)
    return run


#: Counts left out of the digest.  The network's byte estimate is
#: ``len(repr(payload))``, which moves by a byte or two with the interpreter's
#: hash seed on ``mixed``, so it repeats within a process but not across runs.
UNSTABLE_COUNTS = ("bytes",)


def digest(run_counts: Dict[str, int]) -> str:
    """A short hash over every count that repeats exactly for one seed."""
    stable = {key: value for key, value in run_counts.items() if key not in UNSTABLE_COUNTS}
    return hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()[:16]


def knobs(run: Run) -> Dict[str, object]:
    """The resolved runtime knobs the run measured."""
    runtime = run.runtime
    return {
        "backend": runtime.backend.name,
        "columnar": runtime.columnar,
        "interval_index": runtime.use_interval_index,
        "observability": runtime.observability,
        "cache_capacity": run.engine.cache_capacity if run.engine is not None else None,
        "wal_fsync": runtime.wal_fsync if runtime.durable_dir is not None else None,
    }


def end_to_end(run: Run) -> Metrics:
    """The gated metrics; README.md says what each means per workload."""
    if run.workload == "churn":
        ops, tail = run.churn_ops, percentile(run.windows_s, 90)
    elif run.workload == "query":
        ops, tail = len(run.queries_s), percentile(run.queries_s, 99)
    else:
        ops, tail = run.churn_ops, percentile(run.queries_s, 99)
    messages = run.runtime.network.stats.messages - run.setup_messages
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "ops_per_s": (ops / run.timed_s, "1/s"),
        "tail_ms": (tail * 1e3, "ms"),
        "msgs_per_op": (messages / ops, "count"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def named(run: Run) -> Dict[str, float]:
    """The end-to-end figures under their own names, where the workload has them.

    Times are rescaled, as in :func:`end_to_end`; the ``*_wall_s`` figures
    and ``host_speed`` (the median probed speed over the reference host's)
    give the unscaled wall time.
    """
    result = {
        "setup_s": statistics.median(run.setup_s),
        "setup_wall_s": statistics.median(run.setup_wall_s),
        "peak_rss_mb": run.peak_rss_mb,
        "fail_frac": run.failed / run.attempted,
    }
    if run.windows_s:
        churn_messages = run.runtime.network.stats.messages - run.setup_messages - run.query_messages
        result.update(
            churn_ops_per_s=run.churn_ops / run.timed_s,
            window_p90_ms=percentile(run.windows_s, 90) * 1e3,
            windows=len(run.windows_s),
            churn_msgs_per_op=churn_messages / run.churn_ops,
            churn_s=sum(run.windows_s),
        )
    if run.queries_s:
        result.update(
            query_per_s=len(run.queries_s) / run.timed_s,
            query_p50_ms=percentile(run.queries_s, 50) * 1e3,
            query_p99_ms=percentile(run.queries_s, 99) * 1e3,
            queries=len(run.queries_s),
            msgs_per_query=run.query_messages / len(run.queries_s),
            query_s=sum(run.queries_s),
        )
    if run.checkpoints_s:
        result.update(
            checkpoints=len(run.checkpoints_s),
            checkpoint_median_s=statistics.median(run.checkpoints_s),
            checkpoint_s=sum(run.checkpoints_s),
        )
    result.update(
        timed_s=run.timed_s,
        timed_wall_s=run.wall_s,
        host_speed=REFERENCE_PROBE_S / statistics.median(run.clock.probes),
        probes=len(run.clock.probes),
    )
    return result
