"""Benchmark inputs, generated from the workload seed alone.

Every input -- graphs, their random-order event streams, query
sequences and the serve write schedule -- derives from ``--seed``
through ``random.Random`` instances with fixed offsets, so one seed
gives one input in every process.  The program under test receives
the generated events and patterns, never a dataset name (the one
exception, the serve tenant's ``workload_dataset`` key, is explained
where ``workloads.py`` sets it).

The fraud and protein generators are stable across ``PYTHONHASHSEED``
values; the social and citation generators are not, which is why no
workload uses them.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from repro import LabelledGraph, PatternQuery, Workload, stream_from_graph
from repro.datasets import (
    fraud_network,
    fraud_workload,
    protein_network,
    protein_workload,
)
from repro.graph.isomorphism import count_embeddings
from repro.stream.events import EdgeArrival, VertexArrival

#: Offsets of the derived generators (graph, stream order, query
#: sample); recorded with every run.
GRAPH_OFFSET = 101
STREAM_OFFSET = 211
QUERY_OFFSET = 307

#: Queries per cycle of a query sequence.
CYCLE = 100


def sub_seeds(seed: int, count: int) -> list[int]:
    """``count`` distinct seeds for independent inputs of one run."""
    return [seed * 64 + index for index in range(count)]


def derived_seeds(seed: int) -> dict[str, int]:
    return {
        "graph": seed + GRAPH_OFFSET,
        "stream": seed + STREAM_OFFSET,
        "queries": seed + QUERY_OFFSET,
    }


@dataclass(frozen=True)
class GraphInput:
    """A generated graph, its random-order event stream and workload."""

    graph: LabelledGraph
    events: list
    workload: Workload


def fraud_input(accounts: int, seed: int) -> GraphInput:
    seeds = derived_seeds(seed)
    graph = fraud_network(accounts, rng=random.Random(seeds["graph"]))
    events = stream_from_graph(
        graph, ordering="random", rng=random.Random(seeds["stream"])
    )
    return GraphInput(graph, events, fraud_workload())


def protein_input(pathways: int, seed: int) -> GraphInput:
    seeds = derived_seeds(seed)
    graph = protein_network(pathways, rng=random.Random(seeds["graph"]))
    events = stream_from_graph(
        graph, ordering="random", rng=random.Random(seeds["stream"])
    )
    return GraphInput(graph, events, protein_workload())


def query_sequence(
    workload: Workload, count: int, seed: int
) -> list[PatternQuery]:
    """``count`` queries sampled by workload frequency, in cycles of
    ``CYCLE`` queries that each hold every query in exact proportion
    (largest remainder) in their own seeded random order, so a run that
    stops anywhere has timed the workload's mix.
    """
    rng = random.Random(derived_seeds(seed)["queries"])
    share = workload.probabilities()
    quota = {query.name: share[query.name] * CYCLE for query in workload}
    counts = {name: int(value) for name, value in quota.items()}
    by_remainder = sorted(quota, key=lambda name: counts[name] - quota[name])
    for name in by_remainder[: CYCLE - sum(counts.values())]:
        counts[name] += 1
    cycle = [query for query in workload for _ in range(counts[query.name])]
    sequence: list[PatternQuery] = []
    while len(sequence) < count:
        rng.shuffle(cycle)
        sequence.extend(cycle)
    return sequence[:count]


def spread_over(
    sequence: list[PatternQuery], targets: int
) -> list[tuple[PatternQuery, int]]:
    """Each query of ``sequence`` with the target (graph index) it is
    sent to: the k-th occurrence of a query goes to target k mod
    ``targets``, so every (query, target) pair occurs about equally
    often and often enough to time it repeatedly."""
    seen: Counter = Counter()
    plan = []
    for query in sequence:
        plan.append((query, seen[query.name] % targets))
        seen[query.name] += 1
    return plan


def expected_matches(pattern: LabelledGraph, graph: LabelledGraph) -> int:
    """The oracle: distinct answers of ``pattern`` in ``graph``.

    The executor deduplicates answers by their vertex and edge sets, so
    it reports embeddings divided by the pattern's automorphisms.
    """
    embeddings = count_embeddings(pattern, graph)
    automorphisms = count_embeddings(pattern, pattern)
    return embeddings // automorphisms


def oracle(workload: Workload, graph: LabelledGraph) -> dict[str, int]:
    """Expected match count of every workload query on ``graph``."""
    return {
        query.name: expected_matches(query.graph, graph)
        for query in workload.queries
    }


def sample_remote_probability(
    counts: Counter, per_query: dict[str, tuple[int, int]]
) -> float:
    """P(remote) of a query sample from each distinct query's
    (local, remote) traversals -- equal to executing the whole sample,
    because one query's ledger does not depend on the others."""
    local = sum(counts[name] * per_query[name][0] for name in counts)
    remote = sum(counts[name] * per_query[name][1] for name in counts)
    return remote / (local + remote)


@dataclass(frozen=True)
class WriteBatch:
    """One serve write: ingest ``events``, later retract ``vertices``."""

    events: list
    vertices: list


def split_for_writes(
    events: list, resident_share: float, batch_events: int
) -> tuple[list, list[WriteBatch]]:
    """Split a stream into a resident prefix and self-contained write
    batches cut from the rest.

    A batch keeps its own vertex arrivals plus the edges whose other
    end is resident or in the same batch; edges into other batches are
    left out.  So every batch can be ingested and then retracted in any
    cycle order without touching another batch's vertices.
    """
    cut = int(len(events) * resident_share)
    while cut < len(events) and not isinstance(events[cut], VertexArrival):
        cut += 1
    prefix = events[:cut]
    resident = {
        event.vertex for event in prefix if isinstance(event, VertexArrival)
    }
    batches: list[WriteBatch] = []
    for start in range(cut, len(events), batch_events):
        chunk = events[start : start + batch_events]
        own = {e.vertex for e in chunk if isinstance(e, VertexArrival)}
        if not own:
            continue
        kept = [
            event
            for event in chunk
            if isinstance(event, VertexArrival)
            or (
                isinstance(event, EdgeArrival)
                and {event.u, event.v} <= (own | resident)
            )
        ]
        batches.append(WriteBatch(kept, sorted(own)))
    return prefix, batches


def replay(events: list) -> LabelledGraph:
    """The graph an event list builds."""
    graph = LabelledGraph()
    for event in events:
        if isinstance(event, VertexArrival):
            graph.add_vertex(event.vertex, event.label)
        else:
            graph.add_edge(event.u, event.v)
    return graph
