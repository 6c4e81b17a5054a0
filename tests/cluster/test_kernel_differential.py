"""Differential tests: the query kernel against the reference backtracker.

:class:`~repro.cluster.executor.DistributedQueryExecutor` counts answers
level at a time over the store's read index;
:class:`~repro.bench.legacy.LegacyQueryExecutor` enumerates embeddings
one at a time and deduplicates answers as (vertex set, edge set).  Both
must agree exactly on matches, local and remote traversals and per-edge
traversal counts -- on symmetric patterns, on int, string and mixed
ids, with replicas, on churned stores whose slots were recycled, across
every journal op applied between two queries on one store, and when
the seeds are split by owning partition.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.legacy import LegacyQueryExecutor
from repro.cluster import DistributedGraphStore, DistributedQueryExecutor
from repro.cluster.executor import compile_plan
from repro.graph.labelled import LabelledGraph
from repro.partitioning.base import PartitionAssignment
from repro.workload.query import PatternQuery

ID_KINDS = ("int", "str", "mixed")


def vertex_id(kind, index):
    if kind == "int":
        return index
    if kind == "str" or index % 2:
        return f"v{index}"
    return index


def random_graph(rng, kind, n, p, labels="ab"):
    graph = LabelledGraph()
    ids = [vertex_id(kind, i) for i in range(n)]
    for vertex in ids:
        graph.add_vertex(vertex, rng.choice(labels))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                graph.add_edge(ids[i], ids[j])
    return graph


def random_pattern(rng, kind, size, labels="ab"):
    """A connected pattern: a random spanning tree plus extra edges."""
    ids = [vertex_id(kind, i) for i in range(size)]
    edges = [(ids[i], ids[rng.randrange(i)]) for i in range(1, size)]
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.3:
                edges.append((ids[i], ids[j]))
    return LabelledGraph.from_edges(
        {vertex: rng.choice(labels) for vertex in ids}, edges
    )


def random_store(rng, graph, k, replicas):
    assignment = PartitionAssignment(k, max(1, graph.num_vertices))
    for vertex in graph.vertices():
        assignment.assign(vertex, rng.randrange(k))
    store = DistributedGraphStore(graph, assignment)
    vertices = list(graph.vertices())
    for _ in range(replicas):
        if vertices:
            store.add_replica(rng.choice(vertices), rng.randrange(k))
    return store


def assert_same(store, query):
    for track in (False, True):
        ours = DistributedQueryExecutor(store, track_edges=track).execute(query)
        ref = LegacyQueryExecutor(store, track_edges=track).execute(query)
        assert (ours.matches, ours.ledger.local, ours.ledger.remote) == (
            ref.matches,
            ref.ledger.local,
            ref.ledger.remote,
        ), query.name
        if track:
            assert ours.ledger.edge_counts == ref.ledger.edge_counts


SYMMETRIC = {
    "aa": LabelledGraph.path("aa"),
    "aaa": LabelledGraph.path("aaa"),
    "bab": LabelledGraph.path("bab"),
    "tri_aaa": LabelledGraph.cycle("aaa"),
    "tri_aab": LabelledGraph.cycle("aab"),
    "square_abab": LabelledGraph.cycle("abab"),
    "square_aaaa": LabelledGraph.cycle("aaaa"),
    "star_abbb": LabelledGraph.star("a", "bbb"),
}


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(ID_KINDS),
        st.sampled_from(ID_KINDS),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=6),
    )
    def test_random_graphs_and_patterns(
        self, seed, graph_ids, pattern_ids, k, replicas
    ):
        rng = random.Random(seed)
        graph = random_graph(rng, graph_ids, rng.randint(2, 14), 0.3)
        store = random_store(rng, graph, k, replicas)
        for index in range(3):
            pattern = random_pattern(rng, pattern_ids, rng.randint(1, 4))
            assert_same(store, PatternQuery(f"q{index}", pattern))

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(ID_KINDS),
    )
    def test_symmetric_patterns(self, seed, kind):
        rng = random.Random(seed)
        graph = random_graph(rng, kind, 12, 0.4)
        store = random_store(rng, graph, 3, replicas=3)
        for name, pattern in SYMMETRIC.items():
            assert compile_plan(pattern).automorphisms, name
            assert_same(store, PatternQuery(name, pattern))

    def test_string_id_triangle_with_uneven_anchors(self):
        """Two placed neighbours of different degree: the anchor choice
        shows in the ledger, so both sides must pick the same one."""
        rng = random.Random(5)
        graph = random_graph(rng, "str", 30, 0.25, labels="skp")
        store = random_store(rng, graph, 3, replicas=2)
        pattern = LabelledGraph.from_edges(
            {"s": "s", "k": "k", "p": "p"},
            [("s", "k"), ("k", "p"), ("p", "s")],
        )
        assert_same(store, PatternQuery("skp", pattern))


class TestChurnAndInvalidation:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(ID_KINDS),
    )
    def test_churned_slot_recycled_store(self, seed, kind):
        rng = random.Random(seed)
        store = random_store(rng, random_graph(rng, kind, 14, 0.3), 3, 3)
        queries = [
            PatternQuery(name, pattern) for name, pattern in SYMMETRIC.items()
        ] + [PatternQuery("abc", LabelledGraph.path("ab"))]
        for query in queries:
            DistributedQueryExecutor(store).execute(query)
        # Retract a few vertices, then add new ones into the freed slots.
        victims = rng.sample(list(store.graph.vertices()), 4)
        for vertex in victims:
            store.remove_vertex(vertex)
        survivors = list(store.graph.vertices())
        for index in range(6):
            vertex = vertex_id(kind, 100 + index)
            store.add_vertex(vertex, rng.choice("ab"))
            store.assign_vertex(vertex, rng.randrange(3))
            for other in rng.sample(survivors, min(3, len(survivors))):
                store.add_edge(vertex, other)
        assert store.graph.vertex_index(vertex_id(kind, 100)) < 14
        for query in queries:
            assert_same(store, query)

    def test_every_op_tag_between_two_queries(self):
        """One store, one executor: each journal op lands between two
        queries, and the second query must see the op."""
        rng = random.Random(11)
        store = random_store(rng, random_graph(rng, "mixed", 16, 0.3), 3, 2)
        executor = DistributedQueryExecutor(store)
        queries = [
            PatternQuery("ab", LabelledGraph.path("ab")),
            PatternQuery("aba", LabelledGraph.path("aba")),
            PatternQuery("tri", LabelledGraph.cycle("aab")),
        ]
        vertices = list(store.graph.vertices())
        u, v = next(
            (a, b)
            for a in vertices
            for b in vertices
            if a != b and not store.graph.has_edge(a, b)
        )
        x, y = next(iter(store.graph.edges()))
        mover = next(w for w in vertices if w not in (u, v, x, y))
        home = store.partition_of(mover)
        steps = [
            [("e+", u, v)],
            [("e-", x, y)],
            [("v+", "new", "a"), ("a", "new", 0)],
            [("e+", "new", u)],
            [("p-", "new"), ("a", "new", 2)],
            [("m", mover, (home + 1) % 3)],
            [("r+", u, (store.partition_of(u) + 1) % 3)],
            [("r0",)],
            [("v-", v)],
            [("c", 10**4)],
        ]
        tags = {op[0] for step in steps for op in step}
        assert tags == {
            "e+", "e-", "v+", "v-", "a", "p-", "m", "r+", "r0", "c"
        }
        for step in steps:
            before = [executor.execute(query) for query in queries]
            for op in step:
                store.apply_op(op)
            for query, earlier in zip(queries, before):
                ours = executor.execute(query)
                ref = LegacyQueryExecutor(store).execute(query)
                assert (
                    ours.matches, ours.ledger.local, ours.ledger.remote
                ) == (ref.matches, ref.ledger.local, ref.ledger.remote), (
                    step,
                    query.name,
                )
        # A wholesale assignment swap is not an op, but drops the index.
        executor.execute(queries[0])
        swapped = PartitionAssignment(3, store.graph.num_vertices)
        for vertex in store.graph.vertices():
            swapped.assign(vertex, 0)
        store.adopt_assignment(swapped)
        ours = executor.execute(queries[0])
        assert (ours.ledger.remote, ours.ledger.local) == (
            0,
            LegacyQueryExecutor(store).execute(queries[0]).ledger.local,
        )

    def test_index_is_shared_within_a_version_only(self):
        rng = random.Random(2)
        store = random_store(rng, random_graph(rng, "int", 10, 0.3), 2, 0)
        index = store.read_index()
        DistributedQueryExecutor(store).execute(
            PatternQuery("ab", LabelledGraph.path("ab"))
        )
        assert store.read_index() is index
        store.add_vertex(99, "a")
        assert store.read_index() is not index


class TestPartialCounts:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(ID_KINDS),
        st.integers(min_value=2, max_value=4),
    )
    def test_owner_partitioned_seeds_sum_to_serial(self, seed, kind, k):
        rng = random.Random(seed)
        store = random_store(rng, random_graph(rng, kind, 14, 0.35), k, 3)
        executor = DistributedQueryExecutor(store, track_edges=True)
        patterns = dict(SYMMETRIC)
        patterns["random"] = random_pattern(rng, kind, 3)
        for name, pattern in patterns.items():
            query = PatternQuery(name, pattern)
            serial = executor.execute(query)
            seeds = executor.seed_candidates(pattern)
            matches = local = remote = 0
            edges: dict = {}
            for owner in range(k):
                count, ledger = executor.execute_partial(
                    query,
                    [s for s in seeds if store.partition_of(s) == owner],
                )
                matches += count
                local += ledger.local
                remote += ledger.remote
                for edge, times in ledger.edge_counts.items():
                    edges[edge] = edges.get(edge, 0) + times
            assert (matches, local, remote) == (
                serial.matches,
                serial.ledger.local,
                serial.ledger.remote,
            ), name
            assert edges == serial.ledger.edge_counts
