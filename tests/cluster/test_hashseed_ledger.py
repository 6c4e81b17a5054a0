"""Traversal ledgers do not depend on ``PYTHONHASHSEED``.

A pattern with string vertex ids used to pick its expansion anchor in
``frozenset`` order, which follows the hash seed: the string-id
scaffold-kinase-phosphatase triangle below gave different local/remote
counts under different hash seeds, so serial and spawned-worker runs
could disagree.  The plan compiler now orders anchors by natural vertex
order.  Each run here is a fresh interpreter under its own hash seed,
answering the query serially and across two spawned workers.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import json, random
from repro import Cluster, ClusterConfig, LabelledGraph
from repro.api import WorkerConfig
from repro.datasets import protein_network, protein_workload
from repro.datasets.protein import KINASE, PHOSPHATASE, SCAFFOLD

if __name__ == "__main__":
    graph = protein_network(100, rng=random.Random(1))
    pattern = LabelledGraph.from_edges(
        {"s": SCAFFOLD, "k": KINASE, "p": PHOSPHATASE},
        [("s", "k"), ("k", "p"), ("p", "s")],
    )
    config = ClusterConfig(
        partitions=4,
        method="loom",
        seed=1,
        worker=WorkerConfig(count=2, start_method="spawn"),
    )
    results = []
    with Cluster.open(config, workload=protein_workload()) as session:
        session.ingest(graph)
        for workers in (1, 2):
            r = session.query(pattern, name="skp", workers=workers)
            results.append(
                [r.matches, r.local_traversals, r.remote_traversals]
            )
    print(json.dumps(results))
"""


def run_under(hash_seed: str) -> list:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_string_id_ledger_is_hash_seed_independent():
    # Hash seeds 1 and 3 picked different anchors before the fix.
    first = run_under("1")
    second = run_under("3")
    serial, parallel = first
    assert serial == parallel
    assert second == first
    assert serial[0] > 0 and serial[2] > 0
