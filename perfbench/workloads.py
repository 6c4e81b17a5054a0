"""The three benchmark workloads and what each one measures.

Each runner takes a :class:`Run` (seed, run length, trace flag, sizes,
work directory), generates its inputs from the seed, sets the program
up, measures a timed phase, checks the outputs and fills in
``run.e2e`` (untraced) or ``run.layers`` (traced).

A traced run measures the timed phase twice, untraced then traced, each
for half the run length; the difference in throughput is the tracing
overhead, and the per-layer numbers come from the traced half.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from time import perf_counter, sleep

from repro import Cluster, ClusterConfig
from repro.api import DurabilityConfig
from repro.serve import ServeClient
from repro.serve.client import RemoteError
from repro.serve.protocol import ProtocolError

import inputs
import tracing
from measure import (
    Delta,
    closed_loop,
    flatten,
    percentile,
    trusted,
)

#: One line per workload: why it is in the benchmark.
WHY = {
    "ingest-durable": "write path end to end (engine, matcher, placement, "
    "store mirror, WAL append and checkpoint) with no query in the timed "
    "phase",
    "query-protein": "serial Session.query closed loop where "
    "cluster.executor does nearly all the work and no ingest layer runs",
    "serve-mixed": "serve daemon with a query client beside an "
    "ingest/retract client: frame codec, tenant queue, worker pool "
    "fan-out and delta refresh",
}

# Generators left out, and why:
# - social, citation: they iterate sets of string ids while drawing from
#   the rng, so their graphs depend on PYTHONHASHSEED and one seed does
#   not fix one input;
# - churn: its generator is quadratic (12.9 s at n=20000), too slow to
#   make the write stream.

#: End-to-end metric -> what it is on each workload.  Every workload
#: reports every metric; the names are generic so one list fits all.
END_TO_END = {
    "setup_s": {
        "ingest-durable": "fresh interpreter: import repro + Cluster.open",
        "query-protein": "Cluster.open + ingest of the protein stream",
        "serve-mixed": "daemon start + ingest of 80% of the stream + "
        "first query (boots the worker pool)",
    },
    "throughput_per_s": {
        "ingest-durable": "stream events per second of Session.ingest, "
        "each engine batch timed at its fastest over the repeats",
        "query-protein": "Session.query calls per second over the planned "
        "1000-call sequence, each call timed at the fastest of its "
        "(query, graph) pair's calls",
        "serve-mixed": "query requests per second over the 1000-request "
        "sequence, each request timed at the 10th percentile of its "
        "pattern's round trips",
    },
    "latency_p50_ms": {
        "ingest-durable": "per event of the stream: from the start of "
        "Session.ingest to the stats-hook call of the engine batch that "
        "carries it, on the timeline of each batch's fastest time",
        "query-protein": "one Session.query call of the planned sequence, "
        "timed as for throughput_per_s",
        "serve-mixed": "one query request of the sequence, client round "
        "trip, timed as for throughput_per_s",
    },
    "latency_p99_ms": {
        "ingest-durable": "as latency_p50_ms",
        "query-protein": "as latency_p50_ms",
        "serve-mixed": "as latency_p50_ms",
    },
    "p_remote": {
        "ingest-durable": "seeded 1000-query sample on the ingested "
        "placement, untimed",
        "query-protein": "all timed queries",
        "serve-mixed": "all timed queries",
    },
    "peak_rss_mb": {
        "ingest-durable": "peak memory the first ingest adds to the bench "
        "process (inputs and oracle excluded)",
        "query-protein": "peak memory the sixteen sessions add to the bench "
        "process through the timed phase (inputs and oracle excluded)",
        "serve-mixed": "daemon plus its worker processes",
    },
    "success_rate": {
        "ingest-durable": "1 - failed/attempted ingest calls",
        "query-protein": "1 - failed/attempted queries",
        "serve-mixed": "1 - failed/attempted requests (busy and deadline "
        "errors count as failed)",
    },
}

#: Per-layer metric -> (layer, end-to-end metric it should move, on
#: which workload).  The ``<layer>.self_s`` rows are the layer table.
PER_LAYER = {
    "api.ingest_s": ("api", "throughput_per_s", "ingest-durable"),
    "api.query_s": ("api", "throughput_per_s", "query-protein"),
    "api.unattributed_frac": ("api", "all", "all (target < 0.05)"),
    "engine.run_s": ("engine", "throughput_per_s", "ingest-durable"),
    "engine.events": ("engine", "throughput_per_s", "ingest-durable"),
    "engine.batches": ("engine", "throughput_per_s", "ingest-durable"),
    "engine.events_per_s": ("engine", "throughput_per_s",
                            "ingest-durable; little effect on "
                            "serve.write_p50_ms (serve-mixed)"),
    "core.process_batch_s": ("core", "throughput_per_s", "ingest-durable"),
    "core.matcher.on_edge_s": ("core", "throughput_per_s",
                               "ingest-durable"),
    "core.matcher.on_edge_calls": ("core", "throughput_per_s",
                                   "ingest-durable"),
    "core.matcher.match_s": ("core", "throughput_per_s", "ingest-durable"),
    "core.matcher.extend_s": ("core", "throughput_per_s", "ingest-durable"),
    "core.matcher.regrow_s": ("core", "throughput_per_s", "ingest-durable"),
    "core.matcher.evict_s": ("core", "throughput_per_s", "ingest-durable"),
    "core.matcher.extend_ratio": ("core", "throughput_per_s, p_remote",
                                  "ingest-durable"),
    "core.loom.group_vertices_frac": ("core", "throughput_per_s, p_remote",
                                      "ingest-durable"),
    "core.loom.split_groups": ("core", "throughput_per_s, p_remote",
                               "ingest-durable"),
    "partitioning.place_s": ("partitioning", "throughput_per_s",
                             "ingest-durable"),
    "partitioning.place_calls": ("partitioning", "throughput_per_s",
                                 "ingest-durable"),
    "partitioning.edge_cut_frac": ("partitioning", "p_remote",
                                   "ingest-durable"),
    "partitioning.max_over_mean_load": ("partitioning", "p_remote",
                                        "ingest-durable"),
    "cluster.store.write_s": ("cluster.store", "throughput_per_s",
                              "ingest-durable"),
    "cluster.store.write_ops": ("cluster.store", "throughput_per_s",
                                "ingest-durable"),
    "cluster.columnar.encode_s": ("cluster.columnar", "throughput_per_s",
                                  "ingest-durable"),
    "cluster.columnar.encode_calls": ("cluster.columnar",
                                      "throughput_per_s", "ingest-durable"),
    "cluster.columnar.encoded_mb": ("cluster.columnar", "throughput_per_s",
                                    "ingest-durable"),
    "runtime.wal.append_s": ("runtime.wal", "throughput_per_s",
                             "ingest-durable; none elsewhere"),
    "runtime.wal.records": ("runtime.wal", "throughput_per_s",
                            "ingest-durable; none elsewhere"),
    "runtime.wal.checkpoint_s": ("runtime.wal", "throughput_per_s, "
                                 "latency_p99_ms", "ingest-durable; none "
                                 "elsewhere"),
    "runtime.wal.checkpoints": ("runtime.wal", "latency_p99_ms",
                                "ingest-durable; none elsewhere"),
    "runtime.wal.bytes_per_event": ("runtime.wal", "throughput_per_s",
                                    "ingest-durable; none elsewhere"),
    "cluster.executor.execute_s": ("cluster.executor", "throughput_per_s, "
                                   "latency_p50_ms", "query-protein; "
                                   "latency_p50_ms on serve-mixed; none "
                                   "on ingest-durable"),
    "cluster.executor.queries": ("cluster.executor", "throughput_per_s",
                                 "query-protein"),
    "cluster.executor.traversals_local": ("cluster.executor", "p_remote",
                                          "query-protein, serve-mixed"),
    "cluster.executor.traversals_remote": ("cluster.executor", "p_remote",
                                           "query-protein, serve-mixed"),
    "cluster.executor.traversals_per_s": ("cluster.executor",
                                          "throughput_per_s",
                                          "query-protein, serve-mixed"),
    "cluster.executor.answers_per_traversal": ("cluster.executor",
                                               "throughput_per_s",
                                               "query-protein"),
    "runtime.pool.execute_s": ("runtime.pool", "latency_p99_ms",
                               "serve-mixed"),
    "runtime.pool.worker_cpu_s": ("runtime.pool", "latency_p50_ms",
                                  "serve-mixed"),
    "runtime.pool.worker_requests": ("runtime.pool", "throughput_per_s",
                                     "serve-mixed"),
    "runtime.pool.refresh_delta_s": ("runtime.pool", "latency_p99_ms, "
                                     "serve.write_p99_ms", "serve-mixed"),
    "runtime.pool.delta_refreshes": ("runtime.pool", "latency_p99_ms",
                                     "serve-mixed"),
    "runtime.pool.full_refreshes": ("runtime.pool", "latency_p99_ms",
                                    "serve-mixed"),
    "runtime.pool.retries": ("runtime.pool", "latency_p99_ms, "
                             "success_rate", "serve-mixed"),
    "serve.query.rtt_ms_p50": ("serve", "latency_p50_ms", "serve-mixed"),
    "serve.query.exec_s": ("serve", "latency_p50_ms", "serve-mixed"),
    "serve.query.wait_s": ("serve", "latency_p99_ms", "serve-mixed"),
    "serve.ingest.rtt_ms_p50": ("serve", "serve.write_p50_ms",
                                "serve-mixed"),
    "serve.ingest.exec_s": ("serve", "serve.write_p50_ms", "serve-mixed"),
    "serve.ingest.wait_s": ("serve", "serve.write_p99_ms", "serve-mixed"),
    "serve.retract.rtt_ms_p50": ("serve", "serve.write_p50_ms",
                                 "serve-mixed"),
    "serve.retract.exec_s": ("serve", "serve.write_p50_ms", "serve-mixed"),
    "serve.retract.wait_s": ("serve", "serve.write_p99_ms", "serve-mixed"),
    "serve.write_per_s": ("serve", "throughput_per_s", "serve-mixed"),
    "serve.write_p50_ms": ("serve", "latency_p50_ms", "serve-mixed"),
    "serve.write_p99_ms": ("serve", "latency_p99_ms", "serve-mixed"),
    "serve.codec_s": ("serve", "latency_p50_ms", "serve-mixed"),
    "serve.rejections": ("serve", "success_rate", "serve-mixed"),
    "serve.deadline_misses": ("serve", "success_rate", "serve-mixed"),
    "serve.queue_depth_max": ("serve", "latency_p99_ms", "serve-mixed"),
    **{
        f"{layer}.self_s": (layer, "layer table", "all")
        for layer in tracing.LAYERS
    },
    "trace.wall_s": ("bench", "layer table", "all"),
    "trace.outside_s": ("bench", "layer table", "all"),
    "trace.overhead_frac": ("bench", "layer table", "all"),
    "trace.spans": ("bench", "layer table", "all"),
}

PARTITIONS = 8
TENANT = "bench"


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``full`` is the benchmark, ``tiny`` the smoke test."""

    ingest_accounts: int = 20000
    #: Whole ingests per phase, at least; the fastest time of each batch
    #: over them is its time.
    ingest_repeats: int = 3
    protein_pathways: int = 500
    #: Query work per protein(500) graph varies by 14% (coefficient of
    #: variation over 16 seeds); the mean of 16 graphs by 3.5%.
    protein_graphs: int = 16
    #: Not 2000: serve-mixed's p_remote is fixed by the seed's graph, and
    #: over ten seeds it spread by 0.089 at 2000 accounts, 0.027 at 4000.
    serve_accounts: int = 4000
    write_batch_events: int = 64
    queries: int = 1000
    setup_repeats: int = 7
    min_samples: int = 1000


SIZES = {
    "full": Sizes(),
    "tiny": Sizes(
        ingest_accounts=200,
        ingest_repeats=2,
        protein_pathways=20,
        protein_graphs=2,
        serve_accounts=200,
        queries=50,
        setup_repeats=2,
        min_samples=0,
    ),
}


@dataclass
class Run:
    """One benchmark run: settings in, metrics and checks out."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    sizes: Sizes
    work: Path
    root: Path
    attempted: int = 0
    failed: int = 0
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Oracle override used by the smoke test to prove a wrong expected
    #: value fails the run: query name -> added to the expected count.
    oracle_skew: dict[str, int] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)

    def oracle(self, workload, graph) -> dict[str, int]:
        expected = inputs.oracle(workload, graph)
        for name, skew in self.oracle_skew.items():
            expected[name] += skew
        return expected

    @property
    def phase_seconds(self) -> float:
        return self.seconds / 2 if self.trace else self.seconds


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _latency_metrics(run: Run, latencies: list[float], what: str) -> None:
    run.e2e["latency_p50_ms"] = _ms(statistics.median(latencies))
    run.e2e["latency_p99_ms"] = _ms(percentile(latencies, 99))
    if not trusted(latencies, 99):
        run.notes.append(
            f"latency_p99_ms rests on {len(latencies)} {what}, fewer "
            "than 10 beyond p99"
        )


def program_env(run: Run) -> dict[str, str]:
    """Environment of the program's own processes (set-up probes, the
    daemon and its workers): bytecode goes to a cache of this run, so
    the first start compiles and later ones do not, whether or not the
    checkout or the caller's environment holds or forbids ``.pyc``
    files."""
    env = dict(os.environ, PYTHONPATH=str(run.root / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(run.work / "pycache")
    return env


def _status_kb(key: str) -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    raise KeyError(key)


class ProgramMemory:
    """Peak memory the program adds to the bench process from now on.

    Resets the process's peak resident set (``VmHWM``) to its current
    size, so the bench's own inputs and oracle work before this point
    neither count nor hide the program's peak; :meth:`peak_mb` is the
    peak since then minus the resident set at the reset.
    """

    def __init__(self) -> None:
        # Hand memory the bench freed back to the system first, so the
        # program cannot reuse it unseen.
        gc.collect()
        ctypes.CDLL(None).malloc_trim(0)
        Path("/proc/self/clear_refs").write_text("5")
        self.base_kb = _status_kb("VmRSS")

    def peak_mb(self) -> float:
        return (_status_kb("VmHWM") - self.base_kb) / 1024.0


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(
    totals: dict[str, list[float]],
    delta: Delta,
    *,
    wall: float,
    outside: bool,
    extra: dict[str, float],
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from span totals, registry deltas and
    the workload's own ``extra`` numbers (zero where a layer is idle).
    ``outside`` says whether ``trace.outside_s`` (wall time not in any
    traced layer) is meaningful -- not when the layers ran in another
    process."""
    span_s = tracing.span_seconds
    calls = tracing.span_calls
    api_points = ("api.ingest", "api.query", "api.retract", "api.stats",
                  "api.metrics")
    api_total = span_s(totals, *api_points)
    api_self = tracing.span_self(totals, *api_points)
    store_points = [name for name in totals if name.startswith(
        "cluster.store.")]
    extended = delta.get("matcher.events", kind="extended")
    rejected = delta.get("matcher.events", kind="rejected")
    grouped = delta.get("partitioner.counters", key="group_vertices")
    singles = delta.get("partitioner.counters", key="singles")
    local = delta.get("executor.traversals", scope="local")
    remote = delta.get("executor.traversals", scope="remote")
    execute_s = span_s(totals, "cluster.executor.execute")
    worker_cpu = delta.get("worker.cpu_seconds")
    engine_s = span_s(totals, "engine.run")
    events = delta.get("engine.events")
    busy = execute_s if execute_s > 0 else worker_cpu
    self_times = tracing.layer_self_seconds(totals)
    metrics = {
        "api.ingest_s": span_s(totals, "api.ingest"),
        "api.query_s": span_s(totals, "api.query"),
        "api.unattributed_frac": api_self / api_total if api_total else 0.0,
        "engine.run_s": engine_s,
        "engine.events": events,
        "engine.batches": delta.get("engine.batches"),
        "engine.events_per_s": events / engine_s if engine_s else 0.0,
        "core.process_batch_s": span_s(
            totals, "core.process_batch", "core.flush"
        ),
        "core.matcher.on_edge_s": span_s(totals, "core.matcher.on_edge"),
        "core.matcher.on_edge_calls": calls(totals, "core.matcher.on_edge"),
        **{
            f"core.matcher.{stage}_s": delta.get(
                "matcher.stage_seconds", stage=stage
            )
            for stage in ("match", "extend", "regrow", "evict")
        },
        "core.matcher.extend_ratio": (
            extended / (extended + rejected) if extended + rejected else 0.0
        ),
        "core.loom.group_vertices_frac": (
            grouped / (grouped + singles) if grouped + singles else 0.0
        ),
        "core.loom.split_groups": delta.get(
            "partitioner.counters", key="split_groups"
        ),
        "partitioning.place_s": span_s(
            totals, "partitioning.place", "partitioning.place_group"
        ),
        "partitioning.place_calls": calls(
            totals, "partitioning.place", "partitioning.place_group"
        ),
        "cluster.store.write_s": span_s(totals, *store_points),
        "cluster.store.write_ops": calls(totals, *store_points),
        "cluster.columnar.encode_s": span_s(
            totals, "cluster.columnar.encode"
        ),
        "cluster.columnar.encode_calls": calls(
            totals, "cluster.columnar.encode"
        ),
        "runtime.wal.append_s": span_s(totals, "runtime.wal.append"),
        "runtime.wal.records": calls(totals, "runtime.wal.append"),
        "runtime.wal.checkpoint_s": span_s(totals, "runtime.wal.checkpoint"),
        "runtime.wal.checkpoints": calls(totals, "runtime.wal.checkpoint"),
        "cluster.executor.execute_s": execute_s,
        "cluster.executor.queries": delta.get("executor.queries"),
        "cluster.executor.traversals_local": local,
        "cluster.executor.traversals_remote": remote,
        "cluster.executor.traversals_per_s": (
            (local + remote) / busy if busy else 0.0
        ),
        "cluster.executor.answers_per_traversal": (
            delta.get("executor.answers") / (local + remote)
            if local + remote
            else 0.0
        ),
        "runtime.pool.execute_s": span_s(totals, "runtime.pool.execute"),
        "runtime.pool.worker_cpu_s": worker_cpu,
        "runtime.pool.worker_requests": delta.get("worker.requests"),
        "runtime.pool.refresh_delta_s": span_s(
            totals, "runtime.pool.refresh_delta"
        ),
        "runtime.pool.delta_refreshes": delta.get("pool.delta_refreshes"),
        "runtime.pool.full_refreshes": delta.get("pool.refreshes"),
        "runtime.pool.retries": (
            delta.get("resilience.worker_respawns")
            + delta.get("resilience.call_retries")
            + delta.get("resilience.serial_fallbacks")
        ),
        "serve.codec_s": span_s(totals, "serve.encode", "serve.decode"),
        **{f"{layer}.self_s": own for layer, own in self_times.items()},
        "trace.wall_s": wall,
        "trace.outside_s": (
            max(0.0, wall - sum(self_times.values())) if outside else 0.0
        ),
    }
    for name in PER_LAYER:
        metrics.setdefault(name, 0.0)
    metrics.update(extra)
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics {sorted(unknown)}")
    return metrics


def layer_table(run: Run, totals: dict[str, list[float]]) -> list[str]:
    """The per-layer table (self time per layer, the unattributed api
    row and the tracing overhead) as printable lines."""
    layers = run.layers
    wall = layers["trace.wall_s"] or 1.0
    lines = [f"{'layer':<18} {'self s':>10} {'share':>7}"]
    for layer in tracing.LAYERS:
        own = layers[f"{layer}.self_s"]
        lines.append(f"{layer:<18} {own:>10.4f} {own / wall:>7.1%}")
    frac = layers["api.unattributed_frac"]
    lines.append(f"{'api unattributed':<18} {'':>10} {frac:>7.1%}")
    if frac >= 0.05:
        per_call = {
            name: own for name, (_, _, own) in totals.items()
            if name.startswith("api.")
        }
        worst = max(per_call, key=per_call.get)
        lines.append(f"  (over 5%: it sits in {worst})")
    if layers["trace.outside_s"]:
        outside = layers["trace.outside_s"]
        lines.append(
            f"{'outside layers':<18} {outside:>10.4f} {outside / wall:>7.1%}"
        )
    lines.append(
        f"{'tracing overhead':<18} {'':>10} "
        f"{layers['trace.overhead_frac']:>7.1%}"
    )
    return lines


def _install_tracer(prefix: str) -> tuple[tracing.Tracer, list[int]]:
    """An installed, inactive tracer plus the list its columnar-encode
    observer appends image sizes to."""
    tracer = tracing.Tracer(prefix)
    encoded: list[int] = []
    tracer.observe(
        "cluster.columnar.encode",
        lambda _args, image: encoded.append(len(image)),
    )
    tracer.install()
    tracer.active = False
    return tracer, encoded


def _finish_trace(
    run: Run, tracer: tracing.Tracer, encoded: list[int], delta: Delta,
    wall: float, extra: dict[str, float],
) -> dict[str, list[float]]:
    """Uninstall ``tracer``, fill ``run.layers`` and keep the spans."""
    tracer.uninstall()
    totals = tracer.totals()
    extra = {
        "cluster.columnar.encoded_mb": sum(encoded) / 1e6,
        "trace.spans": tracer.span_count(),
        **extra,
    }
    run.layers = layer_metrics(
        totals, delta, wall=wall, outside=True, extra=extra
    )
    tracer.dump(run.work / "spans.jsonl")
    return totals


# ----------------------------------------------------------------------
# ingest-durable
# ----------------------------------------------------------------------
SETUP_PROBE = """
import sys
from time import perf_counter
began = perf_counter()
from repro import Cluster, ClusterConfig
from repro.api import DurabilityConfig
session = Cluster.open(ClusterConfig(partitions=8, method="loom",
    durability=DurabilityConfig(mode="wal", wal_dir=sys.argv[1])))
elapsed = perf_counter() - began
session.close()
print(elapsed)
"""


def _import_setup_seconds(run: Run) -> float:
    """Median fresh-interpreter ``import repro`` + ``Cluster.open``."""
    env = program_env(run)
    times = []
    for index in range(run.sizes.setup_repeats):
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE,
             str(run.work / f"probe-{index}")],
            env=env, cwd=run.root, capture_output=True, text=True,
            timeout=60, check=True,
        )
        times.append(float(probe.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _dir_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.iterdir())


def run_ingest_durable(run: Run) -> None:
    data = inputs.fraud_input(run.sizes.ingest_accounts, run.seed)
    workload = data.workload
    graph = data.graph
    expected = run.oracle(workload, graph)
    sample = Counter(
        query.name
        for query in inputs.query_sequence(workload, 1000, run.seed)
    )
    if not run.trace:
        run.e2e["setup_s"] = _import_setup_seconds(run)

    images: list[bytes] = []
    per_query: dict[str, tuple[int, int]] = {}

    def ingest_phase(seconds: float, traced: bool, tracer=None):
        repeats: list[list[float]] = []
        delta = Delta({}, {})
        wal_bytes = 0
        events = 0
        wall = 0.0

        def one(index: int) -> None:
            nonlocal delta, wal_bytes, events, wall
            wal_dir = run.work / f"wal-{int(traced)}-{index}"
            options = {"stage_timings": True} if traced else {}
            config = ClusterConfig(
                partitions=PARTITIONS, method="loom", seed=run.seed,
                method_options=options,
                durability=DurabilityConfig(
                    mode="wal", wal_dir=str(wal_dir), sync="async"
                ),
            )
            # Memory is measured on the first ingest only: later ones
            # start in a process whose allocator already holds the
            # memory an earlier session freed.
            memory = None if peaks else ProgramMemory()
            session = Cluster.open(config, workload=workload)
            marks: list[tuple[float, int]] = []
            if tracer is not None:
                tracer.active = True
            began = perf_counter()
            report = session.ingest(
                data.events,
                stats_hooks=(
                    lambda batch: marks.append((perf_counter(), batch.events)),
                ),
            )
            elapsed = perf_counter() - began
            if tracer is not None:
                tracer.active = False
            wall += elapsed
            if memory is not None:
                peaks.append(memory.peak_mb())
            run.attempted += 1
            bounds = [began, *(at for at, _ in marks), began + elapsed]
            repeats.append([b - a for a, b in zip(bounds, bounds[1:])])
            batch_events[:] = [count for _, count in marks]
            events += report.events
            # Untimed from here on.
            if traced:
                delta = delta + Delta({}, flatten(session.metrics()))
                wal_bytes += _dir_bytes(wal_dir)
            stats = session.stats()
            run.check(
                f"ingest {index}: store complete",
                session.is_complete
                and stats.vertices == graph.num_vertices
                and stats.edges == graph.num_edges,
                f"{stats.vertices} vertices, {stats.edges} edges",
            )
            image = session.store.export_columns()
            if not per_query:
                for query in workload.queries:
                    result = session.query(query)
                    per_query[query.name] = (
                        result.local_traversals, result.remote_traversals
                    )
                    run.check(
                        f"{query.name} matches oracle",
                        result.matches == expected[query.name],
                        f"{result.matches} vs {expected[query.name]}",
                    )
                layer_stats.update(
                    cut=stats.cut_fraction or 0.0, load=stats.max_load
                )
            session.close()
            recovered = Cluster.recover(wal_dir, workload=workload)
            try:
                run.check(
                    f"ingest {index}: recovery byte-identical",
                    recovered.store.export_columns() == image,
                )
            finally:
                recovered.close()
            images.append(image)
            shutil.rmtree(wal_dir, ignore_errors=True)

        # Whole ingests only, projected to end within ``seconds`` of
        # timed work (the untimed checks between them do not count).
        began = perf_counter()
        index = 0
        while True:
            one(index)
            index += 1
            if perf_counter() - began > seconds * 4:
                break
            if index >= run.sizes.ingest_repeats:
                if wall + wall / index > seconds:
                    break
        return batch_times(repeats), delta, wal_bytes, events, wall

    def batch_times(repeats: list[list[float]]) -> list[float]:
        """Per batch of the stream, its fastest time over the repeats
        (the stream, its batches and the placement are the same in
        every repeat, so each batch is one unit of identical work)."""
        run.check(
            "every repeat cuts the stream into the same batches",
            len({len(times) for times in repeats}) == 1,
            str(sorted({len(times) for times in repeats})),
        )
        return [min(column) for column in zip(*repeats)]

    def event_latencies(times: list[float]) -> list[float]:
        """Every event's latency in this batch job: all events are
        handed over at the start, so an event waits until the engine
        batch that carries it has been applied (its stats-hook call),
        on the timeline of the batches' fastest times."""
        done = accumulate(times)
        return [
            at for at, count in zip(done, batch_events) for _ in range(count)
        ]

    batch_events: list[int] = []
    layer_stats: dict[str, float] = {}
    peaks: list[float] = []
    batches, _, _, _, _ = ingest_phase(run.phase_seconds, False)
    rate = len(data.events) / sum(batches)
    run.check(
        "placement identical across repeats",
        all(image == images[0] for image in images),
    )
    if not run.trace:
        run.e2e["throughput_per_s"] = rate
        _latency_metrics(run, event_latencies(batches), "events")
        run.e2e["p_remote"] = inputs.sample_remote_probability(
            sample, per_query
        )
        run.e2e["peak_rss_mb"] = peaks[0]
        run.e2e["success_rate"] = 1.0 - run.failed / run.attempted
        return
    tracer, encoded = _install_tracer("ingest")
    traced_batches, delta, wal_bytes, events, wall = ingest_phase(
        run.phase_seconds, True, tracer
    )
    overhead = 1.0 - sum(batches) / sum(traced_batches)
    totals = _finish_trace(
        run, tracer, encoded, delta, wall,
        extra={
            "partitioning.edge_cut_frac": layer_stats["cut"],
            "partitioning.max_over_mean_load": layer_stats["load"],
            "runtime.wal.bytes_per_event": wal_bytes / events,
            "trace.overhead_frac": overhead,
        },
    )
    run.notes.extend(layer_table(run, totals))


# ----------------------------------------------------------------------
# query-protein
# ----------------------------------------------------------------------
def run_query_protein(run: Run) -> None:
    graphs = [
        inputs.protein_input(run.sizes.protein_pathways, sub_seed)
        for sub_seed in inputs.sub_seeds(run.seed, run.sizes.protein_graphs)
    ]
    workload = graphs[0].workload
    expected = [run.oracle(workload, data.graph) for data in graphs]
    plan = inputs.spread_over(
        inputs.query_sequence(workload, run.sizes.queries, run.seed),
        len(graphs),
    )

    def set_up() -> tuple[list, float]:
        """One session per graph, each ingesting its event stream."""
        config = ClusterConfig(
            partitions=PARTITIONS, method="loom", seed=run.seed
        )
        began = perf_counter()
        sessions = []
        for data in graphs:
            session = Cluster.open(config, workload=workload)
            session.ingest(data.events)
            sessions.append(session)
        return sessions, perf_counter() - began

    memory = ProgramMemory()
    sessions, seconds = set_up()
    setups = [seconds]
    seen = {"local": 0, "remote": 0, "wrong": 0}

    def phase(seconds: float, min_samples: int):
        def one(index: int) -> bool:
            query, which = plan[index % len(plan)]
            result = sessions[which].query(query)
            seen["local"] += result.local_traversals
            seen["remote"] += result.remote_traversals
            if result.matches != expected[which][query.name]:
                seen["wrong"] += 1
            return True

        latencies, ends, failed = closed_loop(
            one, seconds, min_samples=min_samples, max_seconds=seconds * 4
        )
        run.attempted += len(ends)
        run.failed += failed
        # Every call succeeds (a wrong count is a failed check, not a
        # failed call), so latencies[i] is call i.  A call's time is the
        # fastest of its (query, graph) pair's calls over the run, as a
        # batch's is in ingest-durable (see README.md, "Steadiness");
        # pairs the run never reached are left out.
        by_pair: dict[tuple[str, int], list[float]] = defaultdict(list)
        for index, elapsed in enumerate(latencies):
            query, which = plan[index % len(plan)]
            by_pair[query.name, which].append(elapsed)
        service = [
            min(by_pair[query.name, which])
            for query, which in plan
            if (query.name, which) in by_pair
        ]
        return service, len(service) / sum(service), ends[-1]

    try:
        latencies, rate, _ = phase(run.phase_seconds, run.sizes.min_samples)
        peak = memory.peak_mb()
        if run.trace:
            before = [flatten(session.metrics()) for session in sessions]
            tracer, encoded = _install_tracer("query")
            tracer.active = True
            _, traced_rate, traced_elapsed = phase(run.phase_seconds, 0)
            tracer.active = False
            delta = Delta({}, {})
            for session, flat in zip(sessions, before):
                delta = delta + Delta(flat, flatten(session.metrics()))
            stats = [session.stats() for session in sessions]
    finally:
        for session in sessions:
            session.close()
    run.check(
        "every query matches the oracle",
        seen["wrong"] == 0,
        f"{seen['wrong']} mismatching queries",
    )
    if not run.trace:
        # More set-ups, after the timed phase so that its sessions are
        # the first the process holds (see ``peak_rss_mb``).
        for _ in range(run.sizes.setup_repeats - 1):
            again, seconds = set_up()
            setups.append(seconds)
            for session in again:
                session.close()
        run.e2e["setup_s"] = statistics.median(setups)
        run.e2e["throughput_per_s"] = rate
        _latency_metrics(run, latencies, "queries")
        run.e2e["p_remote"] = seen["remote"] / (seen["local"] + seen["remote"])
        run.e2e["peak_rss_mb"] = peak
        run.e2e["success_rate"] = 1.0 - run.failed / run.attempted
        return
    overhead = 1.0 - traced_rate / rate
    totals = _finish_trace(
        run, tracer, encoded, delta, traced_elapsed,
        extra={
            "partitioning.edge_cut_frac": statistics.mean(
                s.cut_fraction or 0.0 for s in stats
            ),
            "partitioning.max_over_mean_load": statistics.mean(
                s.max_load for s in stats
            ),
            "trace.overhead_frac": overhead,
        },
    )
    run.notes.extend(layer_table(run, totals))


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class Daemon:
    """``serve_launcher.py`` as a subprocess, stopped with SIGTERM."""

    def __init__(self, run: Run, tag: str, traced: bool):
        self.work = run.work / f"daemon-{tag}"
        self.work.mkdir(parents=True)
        options = {"stage_timings": True} if traced else {}
        config = {
            "host": "127.0.0.1",
            "port": 0,
            "tenants": [
                {
                    "name": TENANT,
                    # The daemon's only way to give a tenant its patterns:
                    # this names the fraud pattern set; every event still
                    # comes from the bench.
                    "workload_dataset": "fraud",
                    "cluster": ClusterConfig(
                        partitions=PARTITIONS, method="loom", seed=run.seed,
                        method_options=options,
                        worker={"count": 2},
                    ).as_dict(),
                }
            ],
        }
        (self.work / "deploy.json").write_text(json.dumps(config))
        self.report_path = self.work / "report.json"
        command = [
            sys.executable,
            str(run.root / "perfbench" / "serve_launcher.py"),
            "--config", str(self.work / "deploy.json"),
            "--report", str(self.report_path),
        ]
        if traced:
            command += ["--spans", str(self.work / "spans.jsonl")]
        self._stderr = open(self.work / "stderr.txt", "w")
        began = perf_counter()
        self.process = subprocess.Popen(
            command, cwd=run.root, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
            env=program_env(run),
        )
        self.began = began
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise

    def _await_port(self) -> int:
        box: list[str] = []
        reader = threading.Thread(
            target=lambda: box.append(self.process.stdout.readline()),
            daemon=True,
        )
        reader.start()
        reader.join(timeout=120)
        line = box[0] if box else ""
        if "serving tenants" not in line:
            raise RuntimeError(f"daemon did not start: {self.error_tail()}")
        return int(line.rsplit(":", 1)[1])

    def error_tail(self) -> str:
        self._stderr.flush()
        text = (self.work / "stderr.txt").read_text()
        return text[-2000:]

    def mark(self, signum: int) -> None:
        """Send a phase signal and wait for its acknowledgement."""
        flag = Path(f"{self.report_path}.mark{int(signum)}")
        os.kill(self.process.pid, signum)
        for _ in range(1000):
            if flag.exists():
                return
            sleep(0.01)
        raise RuntimeError("daemon did not acknowledge a phase signal")

    def stop(self) -> dict:
        """SIGTERM, wait for the drain, return the launcher's report."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.process.stdout.close()
        self._stderr.close()
        if self.process.returncode != 0:
            raise RuntimeError(
                f"daemon exited with {self.process.returncode}: "
                f"{self.error_tail()}"
            )
        return json.loads(self.report_path.read_text())


def _client(daemon: Daemon) -> ServeClient:
    return ServeClient(port=daemon.port, tenant=TENANT, socket_timeout=60.0)


def _boot(run: Run, tag: str, traced: bool, prefix, first_query):
    """Start a daemon, ingest the resident prefix and run one query;
    returns (daemon, client, set-up seconds)."""
    daemon = Daemon(run, tag, traced)
    try:
        client = _client(daemon)
        client.ingest(prefix)
        client.query(first_query)
        seconds = perf_counter() - daemon.began
    except BaseException:
        daemon.stop()
        raise
    return daemon, client, seconds


def run_serve_mixed(run: Run) -> None:
    sizes = run.sizes
    data = inputs.fraud_input(sizes.serve_accounts, run.seed)
    workload = data.workload
    prefix, batches = inputs.split_for_writes(
        data.events, 0.8, sizes.write_batch_events
    )
    queries = inputs.query_sequence(workload, sizes.queries, run.seed)

    setups = []
    if not run.trace:
        for index in range(sizes.setup_repeats - 1):
            daemon, client, seconds = _boot(
                run, f"setup-{index}", False, prefix, queries[0]
            )
            client.close()
            daemon.stop()
            setups.append(seconds)

    def phase(tag: str, traced: bool, seconds: float, min_samples: int):
        daemon, reader, setup = _boot(run, tag, traced, prefix, queries[0])
        writer = _client(daemon)
        result: dict = {"setup": setup}
        try:
            result.update(
                _mixed_phase(run, daemon, reader, writer, queries, batches,
                             seconds, min_samples, traced)
            )
            last_batch = result["resident_batch"]
            events = prefix + (last_batch.events if last_batch else [])
            resident = inputs.replay(events)
            stats = reader.stats()
            run.check(
                f"{tag}: resident counts follow the write schedule",
                stats["vertices"] == resident.num_vertices
                and stats["edges"] == resident.num_edges,
                f"{stats['vertices']}/{stats['edges']} vs "
                f"{resident.num_vertices}/{resident.num_edges}",
            )
            expected = run.oracle(workload, resident)
            for query in workload.queries:
                got = reader.query(query)["matches"]
                run.check(
                    f"{tag}: {query.name} matches oracle",
                    got == expected[query.name],
                    f"{got} vs {expected[query.name]}",
                )
            result["stats"] = stats
        finally:
            reader.close()
            writer.close()
            result["report"] = daemon.stop()
        return result

    untraced = phase("timed", False, run.phase_seconds, sizes.min_samples)
    if not run.trace:
        setups.append(untraced["setup"])
        report = untraced["report"]
        run.e2e["setup_s"] = statistics.median(setups)
        run.e2e["throughput_per_s"] = untraced["query_rate"]
        _latency_metrics(run, untraced["query_latencies"], "queries")
        run.e2e["p_remote"] = untraced["p_remote"]
        run.e2e["peak_rss_mb"] = report["daemon_peak_rss_mb"] + sum(
            report["worker_peak_rss_mb"]
        )
        run.e2e["success_rate"] = 1.0 - run.failed / run.attempted
        return
    traced = phase("traced", True, run.phase_seconds, 0)
    report = traced["report"]
    totals = report["totals"]
    stats = traced["stats"]
    extra = dict(traced["serve"])
    extra.update(
        {
            "partitioning.edge_cut_frac": stats["cut_fraction"] or 0.0,
            "partitioning.max_over_mean_load": stats["max_load"],
            "serve.queue_depth_max": report["queue_depth_max"],
            "trace.spans": report["spans"],
            "trace.overhead_frac": 1.0
            - traced["query_rate"] / untraced["query_rate"],
        }
    )
    run.layers = layer_metrics(
        totals, traced["delta"], wall=traced["wall"], outside=False,
        extra=extra,
    )
    shutil.copy(traced["spans"], run.work / "spans.jsonl")
    run.notes.extend(layer_table(run, totals))


#: Percentile of a pattern's round trips taken as its time in serve-mixed.
SERVE_FAST_END = 10


def _mixed_phase(run, daemon, reader, writer, queries, batches, seconds,
                 min_samples, traced) -> dict:
    """The timed phase: one query client and one write client."""
    before = flatten(reader.metrics()["snapshot"])
    if traced:
        daemon.mark(signal.SIGUSR1)
    stop = threading.Event()
    writes: list[tuple[str, float]] = []
    write_state = {"failed": 0, "resident": None, "error": None}
    remote = {"local": 0, "remote": 0}

    def write_loop() -> None:
        """Closed loop: the next write is sent when the last one has
        been answered; ingest and retract of one batch alternate."""
        step = 0
        try:
            while not stop.is_set():
                batch = batches[(step // 2) % len(batches)]
                verb = "ingest" if step % 2 == 0 else "retract"
                began = perf_counter()
                try:
                    if verb == "ingest":
                        writer.ingest(batch.events)
                        write_state["resident"] = batch
                    else:
                        writer.retract(vertices=batch.vertices)
                        write_state["resident"] = None
                except RemoteError:
                    write_state["failed"] += 1
                else:
                    writes.append((verb, perf_counter() - began))
                step += 1
        except (OSError, ProtocolError) as error:
            write_state["error"] = error

    by_name: dict[str, list[float]] = defaultdict(list)

    def query_once(index: int) -> bool:
        query = queries[index % len(queries)]
        began = perf_counter()
        try:
            answer = reader.query(query)
        except RemoteError:
            return False
        by_name[query.name].append(perf_counter() - began)
        remote["local"] += answer["local_traversals"]
        remote["remote"] += answer["remote_traversals"]
        return True

    thread = threading.Thread(target=write_loop, name="bench-writer")
    thread.start()
    try:
        latencies, ends, failed = closed_loop(
            query_once, seconds, min_samples=min_samples,
            max_seconds=seconds * 4,
        )
    finally:
        stop.set()
        thread.join(timeout=120)
    wall = ends[-1]
    if thread.is_alive() or write_state["error"] is not None:
        raise RuntimeError(f"write client failed: {write_state['error']}")
    spans = None
    if traced:
        daemon.mark(signal.SIGUSR2)
        spans = daemon.work / "spans.jsonl"
    delta = Delta(before, flatten(reader.metrics()["snapshot"]))
    run.attempted += len(ends) + len(writes) + write_state["failed"]
    run.failed += failed + write_state["failed"]
    write_latencies = [seconds for _, seconds in writes]
    serve = {
        "serve.write_per_s": len(writes) / wall,
        "serve.write_p50_ms": _ms(statistics.median(write_latencies)),
        "serve.write_p99_ms": _ms(percentile(write_latencies, 99)),
        "serve.rejections": delta.get("serve.rejections"),
        "serve.deadline_misses": delta.get("serve.deadline_misses"),
    }
    rtts = {
        "query": latencies,
        "ingest": [s for verb, s in writes if verb == "ingest"],
        "retract": [s for verb, s in writes if verb == "retract"],
    }
    for verb, values in rtts.items():
        executed = delta.get("serve.verb_seconds", ".sum", verb=verb)
        serve[f"serve.{verb}.rtt_ms_p50"] = _ms(statistics.median(values))
        serve[f"serve.{verb}.exec_s"] = executed
        serve[f"serve.{verb}.wait_s"] = sum(values) - executed
    if not trusted(write_latencies, 99):
        run.notes.append(
            f"serve.write_p99_ms rests on {len(write_latencies)} writes, "
            "fewer than 10 beyond p99"
        )
    traversals = remote["local"] + remote["remote"]
    # A query's time is the fast end (SERVE_FAST_END percentile) of its
    # pattern's round trips over the run.  Not the fastest, as in
    # query-protein: a round trip here also carries the write queued
    # before it and the delta refresh that write causes, which change
    # from call to call, so no two calls are the same work.
    service = [
        percentile(by_name[query.name], SERVE_FAST_END)
        for query in queries
        if query.name in by_name
    ]
    return {
        "query_latencies": service,
        "query_rate": len(service) / sum(service),
        "p_remote": remote["remote"] / traversals,
        "resident_batch": write_state["resident"],
        "delta": delta,
        "serve": serve,
        "wall": wall,
        "spans": spans,
    }


RUNNERS = {
    "ingest-durable": run_ingest_durable,
    "query-protein": run_query_protein,
    "serve-mixed": run_serve_mixed,
}
