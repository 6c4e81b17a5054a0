"""Simulated distributed graph store and instrumented query execution.

The paper's quality measure is "the probability of inter-partition
traversals ... given a workload Q" -- a property of the partition map and
of how pattern-matching queries traverse edges, not of network hardware.
This package substitutes the distributed GDBMS (e.g. Titan) the paper
assumes with an in-process simulation:

* :class:`~repro.cluster.store.DistributedGraphStore` hosts the data graph
  across ``k`` partition shards as produced by any partitioner;
* :class:`~repro.cluster.executor.DistributedQueryExecutor` runs pattern
  queries with a level-at-a-time counting kernel over the store's read
  index, recording every edge traversal in a
  :class:`~repro.cluster.executor.TraversalLedger` (local vs. crossing a
  partition boundary);
* :class:`~repro.cluster.latency.LatencyModel` converts ledgers into
  modelled wall-clock cost (remote hops dominate).
"""

from repro.cluster.store import DistributedGraphStore
from repro.cluster.columnar import (
    STORE_COLUMNS_SCHEMA,
    ColumnsFormatError,
    ColumnsHeader,
    decode_columns,
    encode_columns,
    peek_header,
)
from repro.cluster.executor import (
    DistributedQueryExecutor,
    TraversalLedger,
    WorkloadStats,
    run_workload,
)
from repro.cluster.latency import LatencyModel

__all__ = [
    "ColumnsFormatError",
    "ColumnsHeader",
    "DistributedGraphStore",
    "DistributedQueryExecutor",
    "STORE_COLUMNS_SCHEMA",
    "TraversalLedger",
    "WorkloadStats",
    "decode_columns",
    "encode_columns",
    "peek_header",
    "run_workload",
    "LatencyModel",
]
