"""Instrumented distributed pattern-match execution.

The executor answers the same sub-graph isomorphism queries as
:mod:`repro.graph.isomorphism` (same search order, same answers), but
against a :class:`~repro.cluster.store.DistributedGraphStore`, recording
every edge traversal the search performs:

* expanding a partial match from an already-matched vertex ``u`` to a
  neighbour ``w`` is one *traversal* of the edge ``(u, w)`` -- local if
  both live in the same partition, remote otherwise (one message);
* the initial candidate lookup for the first pattern vertex uses the
  store's label index and is not a traversal (no edge is crossed).

Aggregated over a sampled query stream this yields the paper's quality
measure: **the probability that a traversal made while answering a random
query q in Q crosses a partition boundary**, plus derived quantities
(remote traversals per query, modelled latency, fully-local answer rate).

The search runs level at a time and counts rather than lists answers
(see :class:`DistributedQueryExecutor`); the per-embedding backtracker it
replaced is kept as the reference oracle in :mod:`repro.bench.legacy`.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from repro.cluster.latency import LatencyModel
from repro.cluster.store import DistributedGraphStore, StoreReadIndex
from repro.graph.isomorphism import find_embeddings, search_order
from repro.graph.labelled import (
    Label,
    LabelledGraph,
    Vertex,
    _vertex_sort_key,
    edge_key,
)
from repro.workload.query import PatternQuery
from repro.workload.workloads import Workload


@dataclass
class TraversalLedger:
    """Counts of edge traversals performed by one or more executions.

    Besides the local/remote totals (the paper's metric), the ledger can
    keep per-edge traversal counts (``track_edges=True``).  Those are the
    "individual edge-weights to represent traversal frequency" the paper's
    section 3.1 says an offline workload-aware partitioner would need --
    :func:`repro.partitioning.workload_offline.workload_aware_multilevel`
    consumes them -- and what the replication layer uses to find hotspots.
    """

    local: int = 0
    remote: int = 0
    track_edges: bool = False
    edge_counts: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.local + self.remote

    @property
    def remote_probability(self) -> float:
        """The paper's headline metric: P(traversal crosses partitions)."""
        return self.remote / self.total if self.total else 0.0

    def record(self, crossed: bool, edge=None) -> None:
        if crossed:
            self.remote += 1
        else:
            self.local += 1
        if self.track_edges and edge is not None:
            self.edge_counts[edge] = self.edge_counts.get(edge, 0) + 1

    def merge(self, other: "TraversalLedger") -> None:
        self.local += other.local
        self.remote += other.remote
        if self.track_edges:
            for edge, count in other.edge_counts.items():
                self.edge_counts[edge] = self.edge_counts.get(edge, 0) + count

    def cost(self, model: LatencyModel) -> float:
        return model.cost(self.local, self.remote)

    def hottest_edges(self, limit: int) -> list:
        """The ``limit`` most-traversed edges, hottest first."""
        ranked = sorted(
            self.edge_counts.items(), key=lambda item: (-item[1], repr(item[0]))
        )
        return [edge for edge, _ in ranked[:limit]]


@dataclass
class QueryExecution:
    """Result of running one query once."""

    query_name: str
    matches: int
    ledger: TraversalLedger

    @property
    def fully_local(self) -> bool:
        """True when the query was answered without leaving any partition."""
        return self.ledger.remote == 0


class Level(NamedTuple):
    """How the kernel fills one pattern vertex's column.

    Positions index the *carried* row: the kernel keeps only the
    columns a later level still reads (see :class:`QueryPlan`).
    """

    #: The wanted label.
    label: Label
    #: Position of the image whose neighbours are expanded (``None``: a
    #: label-index lookup, as for the first pattern vertex).
    anchor: int | None
    #: Positions of the other placed pattern neighbours; a candidate must
    #: be adjacent to their images too.
    extras: tuple[int, ...]
    #: Positions of earlier same-label images a candidate could repeat --
    #: the only injectivity checks needed, since a candidate is never its
    #: own neighbour.
    clashes: tuple[int, ...]
    #: Positions carried to the next level (``None``: all of them).
    keep: tuple[int, ...] | None
    #: Whether the new image is carried to the next level.
    keep_new: bool


class QueryPlan(NamedTuple):
    """A pattern compiled for the level-at-a-time kernel.

    ``levels[i]`` places ``order[i]``.  Rows carry only the images later
    levels read (as anchor, extra or clash), each with a multiplicity:
    partial embeddings that agree on every carried column have identical
    futures, so they are merged and counted once.  A path query carries
    a single column, and its leaf level collapses every row into one
    count.  ``automorphisms`` are the pattern's nontrivial
    label-preserving automorphisms as column permutations; when there
    are any, rows carry every column so leaf rows can be tested for
    canonicity.
    """

    order: tuple[Vertex, ...]
    levels: tuple[Level, ...]
    automorphisms: tuple[tuple[int, ...], ...]


#: Compiled plans by pattern content, a memo like :mod:`re`'s pattern
#: cache: patterns are mutable graphs, so the key is their labelled
#: vertices and edges; plans are immutable, so callers can share them.
#: Compiling costs 45-135 us for the shipped patterns, a tenth of a
#: typical query.  Bounded: cleared when full.
_PLANS: dict[tuple, QueryPlan] = {}
_PLAN_CACHE_SIZE = 256


def compile_plan(pattern: LabelledGraph) -> QueryPlan:
    """The (cached) :class:`QueryPlan` of ``pattern``."""
    key = (tuple(pattern.vertex_labels().items()), frozenset(pattern.edges()))
    plan = _PLANS.get(key)
    if plan is None:
        if len(_PLANS) >= _PLAN_CACHE_SIZE:
            _PLANS.clear()
        plan = _PLANS[key] = _compile(pattern)
    return plan


def _natural_order(vertices: list[Vertex]) -> list[Vertex]:
    """Vertices in natural order, else the heterogeneous-id total order.

    Never set order: that follows ``PYTHONHASHSEED`` for string ids.
    """
    try:
        return sorted(vertices)
    except TypeError:
        return sorted(vertices, key=_vertex_sort_key)


def _compile(pattern: LabelledGraph) -> QueryPlan:
    """Build the :class:`QueryPlan` of ``pattern`` (uncached)."""
    order = search_order(pattern)
    column = {vertex: index for index, vertex in enumerate(order)}
    identity = tuple(range(len(order)))
    automorphisms = {
        tuple(column[embedding[vertex]] for vertex in order)
        for embedding in find_embeddings(pattern, pattern)
    }
    automorphisms.discard(identity)
    # Per column: (label, anchor, extras, clashes) in column numbers.
    wiring = []
    for index, vertex in enumerate(order):
        label = pattern.label(vertex)
        # The expanded anchor is the first placed neighbour in natural
        # vertex order, so the ledger is the same in every process.
        anchors = [
            column[p]
            for p in _natural_order(
                [p for p in pattern.neighbours(vertex) if column[p] < index]
            )
        ]
        clashes = [
            c
            for c in range(index)
            if c not in anchors and pattern.label(order[c]) == label
        ]
        wiring.append((label, anchors[:1], anchors[1:], clashes))
    levels = []
    carried: list[int] = []
    for index, (label, anchor, extras, clashes) in enumerate(wiring):
        if automorphisms:
            live = set(identity)
        else:
            live = {
                c
                for later in wiring[index + 1:]
                for c in later[1] + later[2] + later[3]
            }
        position = {c: p for p, c in enumerate(carried)}
        kept = [c for c in carried if c in live]
        levels.append(
            Level(
                label,
                position[anchor[0]] if anchor else None,
                tuple(position[c] for c in extras),
                tuple(position[c] for c in clashes),
                None if kept == carried else tuple(position[c] for c in kept),
                index in live,
            )
        )
        carried = kept + [index] if index in live else kept
    return QueryPlan(tuple(order), tuple(levels), tuple(sorted(automorphisms)))


class DistributedQueryExecutor:
    """Level-at-a-time pattern matching with traversal accounting.

    A query runs as a compiled :class:`QueryPlan` over the store's
    per-version :class:`~repro.cluster.store.StoreReadIndex`.  The
    search is breadth-first: all partial embeddings of one depth are
    expanded together, as rows of data-vertex slots with multiplicities
    (see :class:`QueryPlan`).  The kernel counts answers instead of
    collecting them:

    * **Ledger.**  The search touches every neighbour of the anchor
      image once per partial embedding that expands it, whether or not
      the neighbour goes on to match.  So each level adds, per row, the
      anchor's precomputed local and remote neighbour counts times the
      row's multiplicity -- no per-neighbour work, and the visit order
      does not matter.
    * **Answers.**  An answer is a matched sub-graph (vertex set plus
      edge set); two embeddings give the same answer exactly when they
      differ by a label-preserving automorphism of the pattern.  So the
      answers are the orbits of embeddings under ``Aut(Q)``.  With a
      trivial group the leaf level is counted without building its
      rows; otherwise only *canonical* leaf rows count -- rows no
      larger (lexicographically, by slot) than any automorphic image,
      exactly one per orbit.

    ``track_edges=True`` additionally records how often each concrete
    graph edge is traversed (workload profiling for the offline
    workload-aware baseline and the replication layer): the row
    multiplicity of each anchor, added to every edge at the anchor.

    The search decomposes perfectly by *seed*, the image of the first
    pattern vertex: every row descends from one seed, and each orbit's
    canonical member from exactly one.  :meth:`execute_partial` exposes
    that seam -- run only the rows rooted at ``seeds`` and return the
    answer count plus ledger -- which is what the sharded multi-process
    runtime (:mod:`repro.runtime`) fans out per partition; summing
    partial counts and ledgers reproduces a serial :meth:`execute`
    exactly (workers decode one image, so they share slot numbering and
    hence the canonical member of every orbit).
    """

    def __init__(
        self, store: DistributedGraphStore, *, track_edges: bool = False
    ) -> None:
        self.store = store
        self.track_edges = track_edges

    def seed_candidates(self, pattern: LabelledGraph) -> list[Vertex]:
        """Depth-0 candidates: the label-index lookup for the first vertex
        of the search order, in label-index order (answer counts and
        ledgers do not depend on it).  No edge is crossed, so seeds are
        ledger-free."""
        plan = compile_plan(pattern)
        if not plan.levels:
            return []
        return self.store.vertices_with_label(plan.levels[0].label)

    def execute(self, query: PatternQuery) -> QueryExecution:
        """Run ``query`` to completion (all matches), counting traversals."""
        matches, ledger = self.execute_partial(query, None)
        return QueryExecution(query.name, matches, ledger)

    def execute_partial(
        self, query: PatternQuery, seeds: Sequence[Vertex] | None
    ) -> tuple[int, TraversalLedger]:
        """Run only the search rooted at ``seeds``.

        ``seeds`` must be a subset of :meth:`seed_candidates` for the
        query's pattern (``None`` means all of them, i.e. a full serial
        execution).  Returns the number of answers whose canonical
        embedding is rooted at those seeds and the traversal ledger of
        exactly that work.
        """
        plan = compile_plan(query.graph)
        ledger = TraversalLedger(track_edges=self.track_edges)
        if not plan.levels:
            # Degenerate empty pattern (unreachable through PatternQuery,
            # which requires at least one vertex): one empty answer.
            return 1, ledger
        index = self.store.read_index()
        if seeds is None:
            slots = index.label_slots(plan.levels[0].label)
        else:
            slot_of = index.slot_of
            slots = [slot_of[seed] for seed in seeds]
        return _count_answers(plan, index, slots, ledger), ledger


def _count_answers(
    plan: QueryPlan,
    index: StoreReadIndex,
    seeds: list[int],
    ledger: TraversalLedger,
) -> int:
    """Expand every level of ``plan`` from the ``seeds`` slots, adding
    each level's traversals to ``ledger``; the answer count."""
    entries = index.entries
    build = index.entry
    adj = index.adj
    # Carried row -> number of partial embeddings it stands for.  The
    # seeds fill the first column (label-index hits: no edge crossed).
    rows: dict[tuple[int, ...], int]
    if plan.levels[0].keep_new:
        rows = dict.fromkeys([(seed,) for seed in seeds], 1)
    else:
        rows = {(): len(seeds)} if seeds else {}
    for level in plan.levels[1:]:
        label, anchor, extras, clashes, keep, keep_new = level
        # Carrying every column keeps rows distinct: no merging needed.
        distinct = keep is None
        # Carrying nothing: the level only counts.
        collapse = keep == () and not keep_new
        # The carried part of a row: a slice when the kept positions are
        # contiguous (always so for one or none), else an itemgetter.
        lo, hi = (keep[0], keep[-1] + 1) if keep else (0, 0)
        project = (
            itemgetter(*keep) if keep and hi - lo != len(keep) else None
        )
        fixed = index.label_slots(label) if anchor is None else None
        tracked: dict[int, int] | None = {} if ledger.track_edges else None
        grown: dict[tuple[int, ...], int] = {}
        local = remote = total = 0
        for row, times in rows.items():
            if anchor is None:
                # Label-index lookup: no edge crossed.  Every clash
                # image carries this label, so every one is in the pool.
                pool = fixed
                members = None
            else:
                slot = row[anchor]
                entry = entries.get(slot) or build(slot)
                local += times * entry[1]
                remote += times * entry[2]
                if tracked is not None:
                    tracked[slot] = tracked.get(slot, 0) + times
                pool = entry[3].get(label)
                if not pool:
                    continue
                members = adj[slot]
                if extras:
                    pool = members = adj[row[extras[0]]].intersection(pool)
                    for x in extras[1:]:
                        pool &= adj[row[x]]
            if keep_new:
                if distinct:
                    for w in pool:
                        if not (clashes and w in row):
                            grown[row + (w,)] = times
                    continue
                base = row[lo:hi] if project is None else project(row)
                for w in pool:
                    if not (clashes and w in row):
                        key = base + (w,)
                        grown[key] = grown.get(key, 0) + times
                continue
            count = len(pool)
            for c in clashes:
                if members is None or row[c] in members:
                    count -= 1
            if not count:
                continue
            if collapse:
                total += times * count
            elif distinct:
                grown[row] = times * count
            else:
                base = row[lo:hi] if project is None else project(row)
                grown[base] = grown.get(base, 0) + times * count
        if total:
            grown[()] = total
        ledger.local += local
        ledger.remote += remote
        if tracked:
            _track_edges(index, tracked, ledger.edge_counts)
        rows = grown
        if not rows:
            return 0
    if plan.automorphisms:
        canonical = [itemgetter(*perm) for perm in plan.automorphisms]
        return sum(
            times
            for row, times in rows.items()
            if all(row <= image(row) for image in canonical)
        )
    return sum(rows.values())


def _track_edges(
    index: StoreReadIndex, multiplicity: dict[int, int], counts: dict
) -> None:
    """Add each anchor's row multiplicity to every edge at the anchor."""
    ids = index.ids
    adj = index.adj
    for slot, times in multiplicity.items():
        source = ids[slot]
        for w in adj[slot]:
            edge = edge_key(source, ids[w])
            counts[edge] = counts.get(edge, 0) + times


@dataclass
class WorkloadStats:
    """Aggregate statistics over an executed query stream."""

    executions: int = 0
    matches: int = 0
    fully_local: int = 0
    ledger: TraversalLedger = field(default_factory=TraversalLedger)

    @property
    def remote_probability(self) -> float:
        return self.ledger.remote_probability

    @property
    def remote_per_query(self) -> float:
        return self.ledger.remote / self.executions if self.executions else 0.0

    @property
    def fully_local_rate(self) -> float:
        return self.fully_local / self.executions if self.executions else 0.0

    def mean_cost(self, model: LatencyModel) -> float:
        if not self.executions:
            return 0.0
        return self.ledger.cost(model) / self.executions

    def observe(self, execution: QueryExecution) -> None:
        self.executions += 1
        self.matches += execution.matches
        if execution.fully_local:
            self.fully_local += 1
        self.ledger.merge(execution.ledger)


def run_workload(
    store: DistributedGraphStore,
    workload: Workload,
    *,
    executions: int = 200,
    rng: random.Random | int,
    track_edges: bool = False,
) -> WorkloadStats:
    """Sample ``executions`` queries by frequency and execute them all.

    This realises the paper's evaluation loop: a random ``q in Q`` arrives,
    the cluster answers it, and we observe how often its traversals cross
    partition boundaries.  ``track_edges=True`` additionally aggregates
    per-edge traversal counts into the returned stats' ledger (workload
    profiling).

    ``rng`` is the query sampler's randomness, injected explicitly --
    either a ``random.Random`` instance or a bare seed -- so the module
    global generator is never touched and runs are reproducible by
    construction.
    """
    if isinstance(rng, int):
        rng = random.Random(rng)
    executor = DistributedQueryExecutor(store, track_edges=track_edges)
    stats = WorkloadStats()
    stats.ledger.track_edges = track_edges
    for query in workload.sample_many(executions, rng):
        stats.observe(executor.execute(query))
    return stats

