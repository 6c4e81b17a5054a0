"""Matcher + LDG hot-path microbenchmark for the interned hot path.

Compares the engine's hot paths -- the indexed
:class:`~repro.graph.labelled.LabelledGraph` core plus the PR-2 interned
stream-matching path (cached per-label-pair signature step factors, int
edge-id match keys with an integer match index, single-probe TPSTry++
lookup with per-node child step tables, batched window routing and
allocation-lean expiry) -- against the *legacy baseline* preserved
verbatim in :mod:`repro.bench.legacy`, which still pays the seed/PR-1
cost model:

* per-edge signature updates through label-string prime lookups and a
  tuple sort (``extend_with_edge``),
* matches keyed by frozensets of canonical vertex-tuple edges, with
  DAG-walking extension checks per event,
* per-event window routing with separate membership/has-external probes
  and departure records with defensive copies, and
* (for the graph representation) per-call ``frozenset`` neighbour
  rebuilds, per-call ``repr`` re-sorting and full-scan label lookups
  (:class:`UncachedLabelledGraph`), with LDG re-scanning the
  placed-neighbour list at placement time (``SeedLDG``).

Both variants run the same ≥10k-edge preferential-attachment stream
through (a) plain LDG via the streaming engine, (b) the full LOOM
pipeline (window -> motif matcher -> group LDG) and (c) the distributed
pattern matcher, and must produce *identical* assignments and query
results (matches and local/remote traversal ledgers).  For (a) and (b)
the speedup is representation-only; for (c) it is also algorithmic:
the level-at-a-time counting kernel of :mod:`repro.cluster.executor`
against the per-embedding backtracker it replaced
(:class:`repro.bench.legacy.LegacyQueryExecutor`) on the uncached
graph.

Each LOOM side runs its own shipped configuration: the optimised side is
the LOOM default (``assignment_index=False`` -- the placement-time
external scan beats per-edge index upkeep on windowed streams, measured
both ways with identical assignments), the legacy side the PR-1 body.
Note BENCH_PR1's indexed run kept the index on, so the cross-PR
``loom_*_seconds`` trajectory compares each PR's best default, not one
frozen configuration.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, replace

from repro.bench.legacy import LegacyLoomPartitioner, run_legacy_workload
from repro.core.config import LoomConfig
from repro.core.loom import LoomPartitioner
from repro.graph.generators import barabasi_albert
from repro.graph.labelled import LabelledGraph, Vertex
from repro.partitioning.base import (
    PartitionAssignment,
    default_capacity,
    partition_stream,
)
from repro.partitioning.streaming import LinearDeterministicGreedy, ldg_score
from repro.stream.events import EdgeArrival, StreamEvent, VertexArrival
from repro.stream.sources import stream_from_graph
from repro.workload.query import PatternQuery
from repro.workload.workloads import Workload


class SeedLDG(LinearDeterministicGreedy):
    """The seed's LDG ``place``: per-call neighbour scan, ``max`` + lambda.

    Reproduced verbatim so the baseline pays the pre-refactor placement
    cost (no assignment neighbour index, per-candidate tuple allocation).
    """

    def place(self, vertex, label, placed_neighbours, assignment):
        counts = [0] * assignment.k
        for neighbour in placed_neighbours:
            partition = assignment.partition_of(neighbour)
            if partition is not None:
                counts[partition] += 1
        feasible = assignment.feasible_partitions()
        if not feasible:
            return self.fallback_partition(assignment)
        return max(
            feasible,
            key=lambda i: (
                ldg_score(counts[i], assignment.size(i), assignment.capacity),
                -assignment.size(i),
                -i,
            ),
        )


class UncachedLabelledGraph(LabelledGraph):
    """Seed-semantics graph: every derived structure rebuilt per call.

    Reaches into the parent's slots to bypass its caches -- acceptable in a
    benchmark shim whose whole purpose is to reproduce the pre-refactor
    cost model on top of identical storage.
    """

    __slots__ = ()

    def neighbours(self, vertex: Vertex) -> frozenset[Vertex]:
        slot = self._index_of[vertex]
        ids = self._ids
        return frozenset(ids[j] for j in self._adj_at[slot])

    def sorted_neighbours(self, vertex: Vertex) -> tuple[Vertex, ...]:
        return tuple(sorted(self.neighbours(vertex), key=repr))

    def vertices_with_label(self, label: str) -> list[Vertex]:
        return [v for v, l in self.vertex_labels().items() if l == label]


def _legacy_partition_stream(
    partitioner: SeedLDG,
    events: list[StreamEvent],
    *,
    k: int,
    capacity: int,
) -> PartitionAssignment:
    """The seed's per-event driver, kept verbatim as the LDG baseline.

    No engine, no assignment neighbour index: the placed-neighbour list is
    re-scanned inside ``place`` for every arriving vertex.
    """
    assignment = PartitionAssignment(k, capacity)
    pending_vertex: tuple[Vertex, str] | None = None
    pending_neighbours: list[Vertex] = []

    def flush() -> None:
        nonlocal pending_vertex
        if pending_vertex is None:
            return
        vertex, label = pending_vertex
        partition = partitioner.place(
            vertex, label, pending_neighbours, assignment
        )
        assignment.assign(vertex, partition)
        pending_vertex = None
        pending_neighbours.clear()

    for event in events:
        if isinstance(event, VertexArrival):
            flush()
            pending_vertex = (event.vertex, event.label)
        elif isinstance(event, EdgeArrival):
            if pending_vertex is not None and event.v == pending_vertex[0]:
                pending_neighbours.append(event.u)
            elif pending_vertex is not None and event.u == pending_vertex[0]:
                pending_neighbours.append(event.v)
    flush()
    return assignment


@dataclass(frozen=True)
class HotpathResult:
    """Timings (seconds, best of ``repeats``) for one workload size.

    Three scenarios over the same ≥10k-edge stream:

    ``ldg``
        Plain LDG through the streaming engine (assignment neighbour
        index + allocation-free scoring loop) vs the seed's per-event
        driver and ``max``+lambda placement.
    ``loom``
        The full LOOM pipeline (window -> motif matcher -> group LDG) on
        the indexed adjacency core vs the uncached seed representation.
    ``executor``
        The distributed pattern matcher answering the workload against
        the partitioned store: the query kernel (read index built once
        per run) vs the reference backtracker on the uncached graph.
    """

    n: int
    edges: int
    k: int
    window_size: int
    repeats: int
    executor_executions: int
    ldg_indexed_seconds: float
    ldg_legacy_seconds: float
    loom_indexed_seconds: float
    loom_legacy_seconds: float
    executor_indexed_seconds: float
    executor_legacy_seconds: float
    #: Matcher stage attribution (match/extend/regrow/evict seconds) from
    #: one instrumented pass of the optimised pipeline.
    loom_stage_seconds: dict = None

    @staticmethod
    def _ratio(legacy: float, indexed: float) -> float:
        return legacy / indexed if indexed else 0.0

    @property
    def ldg_speedup(self) -> float:
        return self._ratio(self.ldg_legacy_seconds, self.ldg_indexed_seconds)

    @property
    def loom_speedup(self) -> float:
        return self._ratio(self.loom_legacy_seconds, self.loom_indexed_seconds)

    @property
    def executor_speedup(self) -> float:
        return self._ratio(
            self.executor_legacy_seconds, self.executor_indexed_seconds
        )

    def as_dict(self) -> dict:
        out = asdict(self)
        out["ldg_speedup"] = round(self.ldg_speedup, 3)
        out["loom_speedup"] = round(self.loom_speedup, 3)
        out["executor_speedup"] = round(self.executor_speedup, 3)
        return out


def _hotpath_workload() -> Workload:
    return Workload(
        [
            PatternQuery("abc", LabelledGraph.path("abc"), 3.0),
            PatternQuery("square", LabelledGraph.cycle("abab"), 1.0),
        ]
    )


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_hotpath_benchmark(
    *,
    n: int = 4000,
    m: int = 3,
    k: int = 8,
    window_size: int = 256,
    motif_threshold: float = 0.2,
    seed: int = 0,
    repeats: int = 3,
    executor_executions: int = 20,
) -> HotpathResult:
    """Time the matcher+LDG hot path, indexed core vs seed baseline.

    Also asserts that both variants produce identical assignments and
    query results, so the comparison measures representation cost and
    nothing else.
    """
    graph = barabasi_albert(n, m, rng=random.Random(seed))
    events = stream_from_graph(
        graph, ordering="random", rng=random.Random(seed + 1)
    )
    capacity = default_capacity(graph.num_vertices, k, 1.2)
    workload = _hotpath_workload()
    config = LoomConfig(
        k=k,
        capacity=capacity,
        window_size=window_size,
        motif_threshold=motif_threshold,
    )

    # -- plain LDG ----------------------------------------------------
    indexed_ldg = partition_stream(
        LinearDeterministicGreedy(), events, k=k, capacity=capacity
    )
    legacy_ldg = _legacy_partition_stream(
        SeedLDG(), events, k=k, capacity=capacity
    )
    if indexed_ldg.assigned() != legacy_ldg.assigned():
        raise AssertionError("indexed and legacy LDG assignments diverged")
    ldg_indexed_seconds = _best_of(
        repeats,
        lambda: partition_stream(
            LinearDeterministicGreedy(), events, k=k, capacity=capacity
        ),
    )
    ldg_legacy_seconds = _best_of(
        repeats,
        lambda: _legacy_partition_stream(
            SeedLDG(), events, k=k, capacity=capacity
        ),
    )

    # -- full LOOM pipeline (window -> matcher -> group LDG) ----------
    def run_loom(legacy: bool, *, timed: bool = False) -> LoomPartitioner:
        if legacy:
            loom = LegacyLoomPartitioner(
                workload,
                config,
                window_graph_factory=UncachedLabelledGraph,
                assignment_index=False,
            )
            # The seed placed singles with the max+lambda LDG.
            loom._single_placer = SeedLDG()
            loom._record_label = None
        else:
            loom = LoomPartitioner(
                workload,
                replace(config, stage_timings=True) if timed else config,
            )
        loom.partition_stream(events)
        return loom

    indexed_loom = run_loom(legacy=False).assignment
    legacy_loom = run_loom(legacy=True).assignment
    if indexed_loom.assigned() != legacy_loom.assigned():
        raise AssertionError("indexed and legacy LOOM assignments diverged")
    loom_indexed_seconds = _best_of(repeats, lambda: run_loom(legacy=False))
    loom_legacy_seconds = _best_of(repeats, lambda: run_loom(legacy=True))
    # One instrumented pass attributes matcher time to stages (the clock
    # reads perturb the loop, so this run is never the one timed above).
    stage_seconds = dict(run_loom(legacy=False, timed=True).stage_seconds or {})

    # -- distributed pattern matcher over the partitioned store -------
    # The query kernel on the indexed core vs the reference backtracker
    # on the uncached one.  Each run opens a fresh store, so the
    # kernel's side pays for building its read index every time.
    from repro.cluster.executor import run_workload as execute_workload
    from repro.cluster.store import DistributedGraphStore

    uncached_graph = UncachedLabelledGraph()
    for vertex in graph.vertices():
        uncached_graph.add_vertex(vertex, graph.label(vertex))
    for u, v in graph.edges():
        uncached_graph.add_edge(u, v)

    def run_queries(legacy: bool):
        if legacy:
            return run_legacy_workload(
                DistributedGraphStore(uncached_graph, legacy_ldg),
                workload,
                executions=executor_executions,
                rng=random.Random(seed + 2),
            )
        return execute_workload(
            DistributedGraphStore(graph, indexed_ldg),
            workload,
            executions=executor_executions,
            rng=random.Random(seed + 2),
        )

    indexed_stats = run_queries(legacy=False)
    legacy_stats = run_queries(legacy=True)
    if (
        indexed_stats.matches != legacy_stats.matches
        or indexed_stats.ledger.local != legacy_stats.ledger.local
        or indexed_stats.ledger.remote != legacy_stats.ledger.remote
    ):
        raise AssertionError("indexed and legacy query execution diverged")
    executor_indexed_seconds = _best_of(
        repeats, lambda: run_queries(legacy=False)
    )
    executor_legacy_seconds = _best_of(
        repeats, lambda: run_queries(legacy=True)
    )

    return HotpathResult(
        n=graph.num_vertices,
        edges=graph.num_edges,
        k=k,
        window_size=window_size,
        repeats=repeats,
        executor_executions=executor_executions,
        ldg_indexed_seconds=ldg_indexed_seconds,
        ldg_legacy_seconds=ldg_legacy_seconds,
        loom_indexed_seconds=loom_indexed_seconds,
        loom_legacy_seconds=loom_legacy_seconds,
        executor_indexed_seconds=executor_indexed_seconds,
        executor_legacy_seconds=executor_legacy_seconds,
        loom_stage_seconds={
            stage: round(seconds, 6) for stage, seconds in stage_seconds.items()
        },
    )
