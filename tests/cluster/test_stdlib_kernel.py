"""The query path is stdlib-only: no numpy behind ``import repro``.

numpy would add ~145 ms to a fresh ``import repro`` and ~12 MB of
resident memory to every process that opens a session, so the query
kernel is pure Python.  A fresh interpreter imports the package, opens
a session, ingests and queries, then reports whether numpy was loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import sys
import repro
from repro import Cluster, ClusterConfig
from repro.datasets import protein_workload

workload = protein_workload()
with Cluster.open(ClusterConfig(partitions=4, method="loom"), workload=workload) as session:
    session.ingest("protein")
    assert session.query(workload.queries[0]).matches >= 0
    session.run_workload(executions=10, track_edges=True)
print("numpy" in sys.modules)
"""


def test_import_open_and_query_leave_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip().splitlines()[-1] == "False"
