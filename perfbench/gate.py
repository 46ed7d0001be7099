"""The correctness gate, run after the timed phase; any mismatch fails the run.

* incremental = from scratch: the final per-node stores and provenance table
  sizes equal those of a fresh runtime built from the final topology and
  base facts (the snapshot's ``time`` and ``traffic`` differ legitimately
  and are not compared);
* cached = uncached: a seeded sample of cached query answers equals the
  ``QueryOptions.baseline()`` answers;
* crashed = uncrashed (``mixed`` only): ``ServiceRuntime.recover`` over the
  write-ahead-log directory reproduces the same node state.
"""

from __future__ import annotations

import copy
import random
from typing import List

from repro.core.graph import ProvenanceGraph
from repro.core.optimizations import QueryOptions
from repro.core.query import DistributedQueryEngine
from repro.durability.checkpoint import base_facts
from repro.durability.service import ServiceRuntime
from repro.engine.runtime import NetTrailsRuntime
from repro.protocols import prefix_routing

from workloads import QUERY_MIX, Run, query_calls

#: Cached answers compared against the uncached baseline per run.
QUERY_SAMPLE = 24


def from_scratch(run: Run) -> List[str]:
    runtime = run.runtime
    fresh = NetTrailsRuntime(prefix_routing.SOURCE, copy.deepcopy(runtime.topology))
    try:
        for relation, rows in base_facts(runtime).items():
            fresh.insert_batch(relation, rows)
        fresh.run_to_quiescence()
        problems = []
        if fresh.snapshot()["nodes"] != runtime.snapshot()["nodes"]:
            problems.append("node state differs from a from-scratch run")
        if fresh.provenance.table_sizes() != runtime.provenance.table_sizes():
            problems.append(
                f"provenance tables {runtime.provenance.table_sizes()} differ from "
                f"a from-scratch run's {fresh.provenance.table_sizes()}"
            )
        return problems
    finally:
        fresh.close()


def canonical(value):
    """A comparable form of a query answer; subgraphs compare by content."""
    if isinstance(value, ProvenanceGraph):
        return (
            sorted(map(repr, value.tuple_vertices())),
            sorted(
                (repr(rule_exec), repr(value.output_of(rule_exec.rid)), sorted(value.input_vids_of(rule_exec.rid)))
                for rule_exec in value.rule_exec_vertices()
            ),
        )
    return value


def cached_answers(run: Run, seed: int) -> List[str]:
    engine = run.engine or DistributedQueryEngine(run.runtime)
    rows = run.runtime.state(QUERY_MIX.relation)
    problems = []
    for call in query_calls(random.Random(f"perfbench:{seed}:gate"), rows, QUERY_SAMPLE):
        values = list(call.values)
        cached = engine.query(call.relation, values, mode=call.mode, options=call.options)
        baseline = engine.query(call.relation, values, mode=call.mode, options=QueryOptions.baseline())
        if canonical(cached.value) != canonical(baseline.value):
            problems.append(f"cached {call.mode} answer for {values} differs from the baseline")
    return problems


def recovered(run: Run) -> List[str]:
    if run.service is None:
        return []
    live = run.runtime.snapshot()["nodes"]
    run.service.close()  # release the log before recovery reopens it
    restored = ServiceRuntime.recover(run.durable_dir)
    try:
        if restored.runtime.snapshot()["nodes"] != live:
            return ["recovered node state differs from the live service"]
        return []
    finally:
        restored.close()


def check(run: Run, seed: int) -> List[str]:
    """Every gate failure, as messages; empty when the run is correct."""
    return from_scratch(run) + cached_answers(run, seed) + recovered(run)
