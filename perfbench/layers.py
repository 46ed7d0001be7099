"""Per-layer timing for the traced run, recorded from the benchmark's side.

:class:`LayerClock` wraps the public entry points of each layer (one module
each) for the duration of a traced pass and restores them afterwards.  Spans
are not kept one by one; each layer accumulates its call count and its self
time (span time minus the time of the spans nested inside it), which is what
the per-layer metrics report.  Code between entry points (``Node._drain`` is
private, for instance) counts towards the innermost enclosing span.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from repro.core.query import DistributedQueryEngine
from repro.core.maintenance import ProvenanceEngine
from repro.core.optimizations import NodeQueryCache
from repro.durability.service import ServiceRuntime
from repro.durability.wal import WriteAheadLog
from repro.engine import runtime as runtime_mod
from repro.engine.evaluator import LocalEvaluator
from repro.engine.network import Network
from repro.engine.node import Node
from repro.engine.simulator import Simulator
from repro.engine.store import TupleStore

from workloads import QUERY_CATEGORIES

#: (layer, owner, attribute) for every wrapped entry point.  ``compile_program``
#: is wrapped where the runtime looks it up.
ENTRY_POINTS: Tuple[Tuple[str, object, str], ...] = (
    ("compiler", runtime_mod, "compile_program"),
    ("simulator", Simulator, "run_to_quiescence"),
    ("network", Network, "send"),
    ("node", Node, "receive"),
    ("evaluator", LocalEvaluator, "on_batch"),
    ("store", TupleStore, "apply_delta_batch"),
    ("maintenance", ProvenanceEngine, "apply_support_batch"),
    ("maintenance", ProvenanceEngine, "apply_rule_exec_batch"),
    ("query", DistributedQueryEngine, "query"),
    ("cache", NodeQueryCache, "lookup"),
    ("cache", NodeQueryCache, "store"),
    ("wal", WriteAheadLog, "append"),
    ("checkpoint", ServiceRuntime, "checkpoint"),
)

class LayerClock:
    """Self time and call counts per layer while installed."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Node.receive self time split by message category.
        self.receive_s: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        receive_s = self.receive_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                own = elapsed - children[0]
                self_s[layer] += own
                calls[layer] += 1
                if layer == "node":
                    receive_s[args[1].category] += own
                if stack:
                    stack[-1][0] += elapsed

        return timed

    def install(self) -> None:
        for layer, owner, attr in ENTRY_POINTS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def per_layer_metrics(
    clock: LayerClock, counts: Dict[str, int], traced_wall_s: float, traced_s: float, untraced_s: float
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``traced_wall_s`` is the traced pass's set-up and timed phase in wall
    time, the base of the (wall-time) layer self times; ``traced_s`` and
    ``untraced_s`` are both passes' rescaled times, compared for the tracing
    overhead.
    """
    lookups = counts["cache_hits"] + counts["cache_misses"]
    s = clock.self_s
    metrics: Dict[str, Tuple[float, str]] = {
        "compiler.self_s": (s["compiler"], "s"),
        "simulator.events": (counts["events"], "count"),
        "simulator.rounds": (counts["rounds"], "count"),
        "simulator.self_s": (s["simulator"], "s"),
        "network.messages": (counts["messages"], "count"),
        "network.bytes": (counts["bytes"], "bytes"),
        "network.query_messages": (counts["query_messages"], "count"),
        "network.self_s": (s["network"], "s"),
        "node.batches": (counts["node_batches_processed"], "count"),
        "node.deltas_received": (counts["node_deltas_received"], "count"),
        "node.self_s": (s["node"], "s"),
        "node.query_self_s": (sum(clock.receive_s[c] for c in QUERY_CATEGORIES), "s"),
        "evaluator.batches": (clock.calls["evaluator"], "count"),
        "evaluator.firings": (counts["node_rule_firings"], "count"),
        "evaluator.retractions": (counts["node_rule_retractions"], "count"),
        "evaluator.self_s": (s["evaluator"], "s"),
        "store.delta_batches": (clock.calls["store"], "count"),
        "store.facts": (counts["facts"], "count"),
        "store.self_s": (s["store"], "s"),
        "maintenance.batches": (clock.calls["maintenance"], "count"),
        "maintenance.prov_rows": (counts["prov_rows"], "count"),
        "maintenance.rule_exec_rows": (counts["rule_exec_rows"], "count"),
        "maintenance.vid_version_entries": (counts["vid_version_entries"], "count"),
        "maintenance.self_s": (s["maintenance"], "s"),
        "query.calls": (clock.calls["query"], "count"),
        "query.rounds": (counts["query_rounds"], "count"),
        "query.nodes_visited": (counts["query_nodes_visited"], "count"),
        "query.self_s": (s["query"], "s"),
        "cache.lookups": (lookups, "count"),
        "cache.hits": (counts["cache_hits"], "count"),
        "cache.hit_ratio": (counts["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "cache.stale_dropped": (counts["cache_stale_dropped"], "count"),
        "cache.evictions": (counts["cache_evictions"], "count"),
        "cache.self_s": (s["cache"], "s"),
        "wal.appends": (counts["wal_records_appended"], "count"),
        "wal.bytes": (counts["wal_bytes_appended"], "bytes"),
        "wal.fsyncs": (counts["wal_fsyncs"], "count"),
        "wal.self_s": (s["wal"], "s"),
        "checkpoint.count": (clock.calls["checkpoint"], "count"),
        "checkpoint.self_s": (s["checkpoint"], "s"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
        "trace.coverage_frac": (sum(s.values()) / traced_wall_s, "ratio"),
    }
    return metrics
