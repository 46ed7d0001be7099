"""Seeded inputs and the three closed-loop workloads of the benchmark.

Every workload runs ``prefix_routing`` with provenance on over the 1010-node
``isp_hierarchy`` topology of the ``scale`` profile, on the serial backend
with the runtime's default knobs.  The benchmark seed only drives the input
generators (churn windows and query targets); the program under test sees
nothing but the generated :class:`~repro.workloads.churn.ChurnOp` batches and
query calls.

A run performs a fixed amount of work for a given ``(seed, seconds)``: the
number of windows, steps and queries is ``seconds`` times a nominal rate
taken on a 2-core x86 box, so a run lasts about ``seconds`` there and every
count the program reports repeats exactly for one seed.

Every timing is taken in wall time and rescaled by the host's speed, probed
between units of work (:mod:`hostclock`).
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import itertools
import random
import shutil
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.query import DistributedQueryEngine
from repro.durability.service import ServiceRuntime
from repro.engine.messages import CATEGORY_PROVENANCE_QUERY, CATEGORY_PROVENANCE_REPLY
from repro.engine.runtime import NetTrailsRuntime
from repro.engine.topology import Topology
from repro.errors import NetTrailsError
from repro.protocols import prefix_routing
from repro.workloads.churn import ChurnOp, apply_churn_op, link_flap, prefix_announce_withdraw
from repro.workloads.profiles import scale
from repro.workloads.queries import QueryCall, query_wave
from repro.workloads.spec import QueryMixSpec

from hostclock import HostClock

WORKLOADS = ("churn", "query", "mixed")

#: Query mix shared by the ``query`` and ``mixed`` workloads.
QUERY_MIX = QueryMixSpec(
    relation="best",
    queries_per_wave=1,
    modes=(("lineage", 0.6), ("participants", 0.25), ("subgraph", 0.15)),
    traversals=(("sequential", 0.5), ("parallel", 0.5)),
    zipf_s=1.2,
    use_cache=True,
)

QUERY_CATEGORIES = (CATEGORY_PROVENANCE_QUERY, CATEGORY_PROVENANCE_REPLY)

#: Independent set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Shape:
    """The fixed size of one workload: prefixes announced and work per second."""

    prefixes: int
    windows_per_s: float = 0.0  # churn windows (``churn``) or steps (``mixed``)
    queries_per_s: float = 0.0  # queries (``query``)
    burst: int = 0  # cached queries after each ``mixed`` commit
    checkpoint_every: int = 0  # ``mixed`` steps between checkpoints


SHAPES: Dict[str, Shape] = {
    "churn": Shape(prefixes=4, windows_per_s=11.0),
    "query": Shape(prefixes=8, queries_per_s=14000.0),
    # ``mixed``: 68 steps in a 15 s run.  A burst of 80 gives 5440 queries, so
    # 54 samples lie beyond p99 (at least 10 are needed; the ``scale``
    # profile's 2 queries per 4 windows would give 34 queries in all).
    # Queries still take only about a tenth of the timed phase.  A checkpoint
    # every 18 commits keeps WAL replay on recovery at about one checkpoint's
    # cost (measured: ~86 ms per commit, ~1.5 s per checkpoint), and gives 3
    # checkpoints in a 15 s run.
    "mixed": Shape(prefixes=8, windows_per_s=4.5, burst=80, checkpoint_every=18),
}


def topology() -> Topology:
    """The ``scale`` profile's 1010-node provider hierarchy (fixed topology seed)."""
    return scale().topology.build()


def tier_one(node: str) -> str:
    """The tier-1 subtree a hierarchy node belongs to (``stub_3_1_7`` -> ``3``)."""
    return node.split("_")[1]


class ChurnStream:
    """Announcements, then alternating prefix-toggle and link-flap windows.

    Origins are stub ASes, and each prefix's two origins sit in different
    tier-1 subtrees: announcement draws that break this are redrawn with the
    next derived seed.  Flaps hit stub access links other than the origins'
    own, one link per window.  README.md, "Not measured", says why the other
    links are left alone.  Toggle windows left empty (``keep_alive`` refusing
    to withdraw a prefix's last origin) are skipped.
    """

    def __init__(self, seed: int, base: Topology, prefixes: int):
        stubs = Topology(name="origin-candidates")
        for node in sorted(base.nodes):
            if node.startswith("stub_"):
                stubs.add_node(node)
        for attempt in itertools.count():
            self._toggles = prefix_announce_withdraw(
                stubs,
                random.Random(f"perfbench:{seed}:prefix:{attempt}"),
                batches=1_000_000,
                prefixes=prefixes,
                origins_per_prefix=2,
                toggles_per_batch=1,
            )
            self.announcements: Tuple[ChurnOp, ...] = next(self._toggles)
            subtrees: Dict[str, set] = {}
            for op in self.announcements:
                subtrees.setdefault(op.subject[2], set()).add(tier_one(op.subject[1]))
            if all(len(found) == 2 for found in subtrees.values()):
                break
        origins = {op.subject[1] for op in self.announcements}
        access = Topology(name="flap-candidates")
        for a, b in sorted(base.edges):
            stub = a if a.startswith("stub_") else b if b.startswith("stub_") else None
            if stub is not None and stub not in origins:
                access.add_edge(a, b, base.cost(a, b))
        self._flaps = link_flap(
            access, random.Random(f"perfbench:{seed}:flap"), batches=1_000_000, flaps_per_batch=1
        )

    def windows(self, count: int) -> List[Tuple[ChurnOp, ...]]:
        result: List[Tuple[ChurnOp, ...]] = []
        while len(result) < count:
            ops = next(self._toggles if len(result) % 2 == 0 else self._flaps)
            if ops:
                result.append(ops)
        return result


def query_calls(rng: random.Random, rows: Sequence[Tuple[object, ...]], count: int) -> List[QueryCall]:
    """``count`` Zipf-ranked cached queries over the given ``best`` rows."""
    return query_wave(rng, dataclasses.replace(QUERY_MIX, queries_per_wave=count), rows)


def query_stream(
    rng: random.Random, rows: Sequence[Tuple[object, ...]], count: int, chunk: int = 10_000
) -> Iterator[QueryCall]:
    """:func:`query_calls` made lazily in chunks, so the inputs stay small in memory."""
    while count > 0:
        yield from query_calls(rng, rows, min(chunk, count))
        count -= chunk


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample.

    The rule of ``repro.obs.registry.Histogram.percentile``.  That class is
    not used here: ``observe`` scans the buckets one by one, so exact
    per-sample buckets cost time quadratic in the sample count, and
    ``query`` takes over 10^5 samples.
    """
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


@dataclass
class Run:
    """What one workload pass observed: timings, counts and the final system."""

    workload: str
    clock: HostClock
    #: Rescaled (``setup_s``) and wall (``setup_wall_s``) time of each set-up.
    setup_s: List[float] = field(default_factory=list)
    setup_wall_s: List[float] = field(default_factory=list)
    # Rescaled latency samples in seconds, as C doubles, to keep them out of
    # the measured memory.
    windows_s: array = field(default_factory=lambda: array("d"))
    queries_s: array = field(default_factory=lambda: array("d"))
    checkpoints_s: array = field(default_factory=lambda: array("d"))
    churn_ops: int = 0
    attempted: int = 0
    failed: int = 0
    query_rounds: int = 0
    query_nodes_visited: int = 0
    query_messages: int = 0
    #: The timed phase, rescaled (``timed_s``) and in wall time (``wall_s``).
    timed_s: float = 0.0
    wall_s: float = 0.0
    setup_messages: int = 0
    peak_rss_mb: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)
    runtime: Optional[NetTrailsRuntime] = None
    engine: Optional[DistributedQueryEngine] = None
    service: Optional[ServiceRuntime] = None
    durable_dir: Optional[Path] = None

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        elif self.runtime is not None:
            self.runtime.close()
        if self.durable_dir is not None:
            shutil.rmtree(self.durable_dir, ignore_errors=True)


class Workload:
    """Builds the system for one workload and drives its closed loop.

    ``work_dir`` is where ``mixed`` keeps its write-ahead-log directories.
    """

    def __init__(self, name: str, seed: int, seconds: float, work_dir: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.shape = SHAPES[name]
        self.work_dir = work_dir
        self.base = topology()
        # Inputs are generated before any timing starts.
        stream = ChurnStream(seed, self.base, self.shape.prefixes)
        self.announcements = stream.announcements
        self.windows = stream.windows(self._amount(seconds, self.shape.windows_per_s))
        self.query_count = self._amount(seconds, self.shape.queries_per_s)

    @staticmethod
    def _amount(seconds: float, rate: float) -> int:
        return max(1, round(seconds * rate)) if rate else 0

    # -- set-up --------------------------------------------------------------------

    def _build_steps(self, run: Run) -> List[Callable[[], None]]:
        """Set-up as a few steps, between which the host is probed: topology
        copy and compile, link seeding, announcements and convergence."""
        if self.name == "mixed":

            def open_service() -> None:
                run.durable_dir = Path(tempfile.mkdtemp(prefix="wal-", dir=self.work_dir))
                run.service = ServiceRuntime(
                    prefix_routing.SOURCE,
                    copy.deepcopy(self.base),
                    durable_dir=run.durable_dir,
                    wal_fsync=True,
                    checkpoint_every=0,
                )
                run.runtime = run.service.runtime

            def announce() -> None:
                run.service.commit(self.announcements)
                # The service's own query engine, for its cache counters.
                run.engine = run.service._query_engine()

            return [open_service, lambda: run.service.seed_links(), announce]

        def build() -> None:
            run.runtime = NetTrailsRuntime(prefix_routing.SOURCE, copy.deepcopy(self.base))

        def announce() -> None:
            for op in self.announcements:
                apply_churn_op(run.runtime, op)
            run.runtime.run_to_quiescence()
            if self.name == "query":
                run.engine = DistributedQueryEngine(run.runtime)

        return [build, lambda: run.runtime.seed_links(run=True), announce]

    def setup(self, repeats: Optional[int] = None) -> Run:
        """Set up ``repeats`` times, keep the last system, record every time."""
        clock = HostClock()
        times: List[float] = []
        walls: List[float] = []
        run: Optional[Run] = None
        for _ in range(repeats or SETUP_REPEATS):
            if run is not None:
                run.close()
            # Free the last system before the next build, so every build
            # starts from the same heap.
            run = None
            gc.collect()
            run = Run(workload=self.name, clock=clock)
            clock.probe()
            for step in self._build_steps(run):
                started = time.perf_counter()
                step()
                clock.add(None, started, time.perf_counter())
                clock.probe()
            rescaled, wall = clock.settle()
            times.append(rescaled)
            walls.append(wall)
        run.setup_s = times
        run.setup_wall_s = walls
        return run

    # -- timed phase -----------------------------------------------------------------

    def drive(self, run: Run) -> None:
        """The timed phase; every pass over one workload issues the same inputs."""
        rng = random.Random(f"perfbench:{self.seed}:query")
        gc.collect()
        run.clock.probe()
        if self.name == "churn":
            self._drive_churn(run)
        elif self.name == "query":
            self._drive_query(run, rng)
        else:
            self._drive_mixed(run, rng)
        run.timed_s, run.wall_s = run.clock.settle()

    def _window(self, run: Run, ops: Tuple[ChurnOp, ...]) -> None:
        run.attempted += 1
        started = time.perf_counter()
        try:
            if run.service is not None:
                run.service.commit(ops)
            else:
                for op in ops:
                    apply_churn_op(run.runtime, op)
                run.runtime.run_to_quiescence()
        except NetTrailsError:
            run.failed += 1
            run.clock.add(None, started, time.perf_counter())
            return
        run.clock.add(run.windows_s, started, time.perf_counter())
        run.churn_ops += len(ops)

    def _query(self, run: Run, call: QueryCall) -> None:
        run.attempted += 1
        started = time.perf_counter()
        try:
            if run.service is not None:
                result = run.service.query(call.relation, call.values, mode=call.mode, options=call.options)
            else:
                result = call.issue(run.engine)
        except NetTrailsError:
            run.failed += 1
            run.clock.add(None, started, time.perf_counter())
            return
        run.clock.add(run.queries_s, started, time.perf_counter())
        run.query_rounds += result.stats.rounds
        run.query_nodes_visited += result.stats.nodes_visited
        run.query_messages += result.stats.messages

    def _drive_churn(self, run: Run) -> None:
        for ops in self.windows:
            self._window(run, ops)

    def _drive_query(self, run: Run, rng: random.Random) -> None:
        rows = run.runtime.state(QUERY_MIX.relation)
        for call in query_stream(rng, rows, self.query_count):
            self._query(run, call)

    def _drive_mixed(self, run: Run, rng: random.Random) -> None:
        for step, ops in enumerate(self.windows, start=1):
            self._window(run, ops)
            # Targets come from the state this commit left, outside the clock.
            rows = run.runtime.state(QUERY_MIX.relation)
            for call in query_calls(rng, rows, self.shape.burst):
                self._query(run, call)
            if step % self.shape.checkpoint_every == 0:
                started = time.perf_counter()
                run.service.checkpoint()
                run.clock.add(run.checkpoints_s, started, time.perf_counter())


def counts(run: Run) -> Dict[str, int]:
    """Every deterministic count the run produced, for the determinism digest."""
    runtime = run.runtime
    traffic = runtime.network.stats
    sizes = runtime.provenance.table_sizes()
    result = {
        "messages": traffic.messages,
        "bytes": traffic.bytes,
        "query_messages": sum(traffic.category_count(c) for c in QUERY_CATEGORIES),
        "events": runtime.simulator.processed_events,
        "rounds": runtime.simulator.rounds,
        "prov_rows": sizes["prov"],
        "rule_exec_rows": sizes["ruleExec"],
        "vid_version_entries": runtime.provenance.vid_version_stats()["entries"],
        "facts": runtime.total_facts(),
        "churn_ops": run.churn_ops,
        "windows": len(run.windows_s),
        "queries": len(run.queries_s),
        "query_rounds": run.query_rounds,
        "query_nodes_visited": run.query_nodes_visited,
        "checkpoints": len(run.checkpoints_s),
    }
    for key in ("batches_processed", "deltas_received", "rule_firings", "rule_retractions"):
        result[f"node_{key}"] = sum(getattr(node.stats, key) for node in runtime.nodes.values())
    cache = run.engine.cache_totals() if run.engine is not None else {}
    for key in ("hits", "misses", "stale_dropped", "evictions"):
        result[f"cache_{key}"] = cache.get(key, 0)
    wal = runtime._wal.counters() if runtime._wal is not None else {}  # no public accessor
    for key in ("records_appended", "bytes_appended", "fsyncs"):
        result[f"wal_{key}"] = wal.get(key, 0)
    return result
