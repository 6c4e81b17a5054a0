"""Start the serving daemon for the benchmark, optionally traced.

Usage::

    python3 perfbench/serve_launcher.py --config deploy.json \\
        --report report.json [--spans spans.jsonl]

Runs the same ``run_server`` entry point ``loom-repro serve --config``
uses, until SIGTERM drains it.  With ``--spans`` the bench's trace
points (``tracing.TRACE_POINTS``) are installed first, so daemon-side
layer times come from the same wrappers as the in-process workloads;
SIGUSR1 then forgets the spans recorded so far (the end of set-up) and
SIGUSR2 writes the spans and their totals (the end of the timed phase).
Each signal is acknowledged by creating ``<report>.mark<signal>``.
On exit it writes ``--report``: its own peak RSS, the peak RSS of each
worker process (read just before the pool reaps them) and the deepest
tenant command queue seen at admission, plus the span totals.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer  # noqa: E402


def peak_rss_mb(pid: int) -> float | None:
    """A live process's peak resident set (``VmHWM``), in MB."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    from repro.runtime.pool import WorkerPool
    from repro.serve import ServeConfig
    from repro.serve.daemon import ClusterHost, run_server

    report: dict = {"worker_peak_rss_mb": [], "queue_depth_max": 0}

    original_close = WorkerPool.close

    @functools.wraps(original_close)
    def close(pool):
        if not getattr(pool, "_closed", True):
            peaks = [peak_rss_mb(h.process.pid) for h in pool.handles]
            report["worker_peak_rss_mb"] = [p for p in peaks if p]
        return original_close(pool)

    WorkerPool.close = close

    original_submit = ClusterHost.submit

    @functools.wraps(original_submit)
    def submit(host, *args, **kwargs):
        outcome = original_submit(host, *args, **kwargs)
        depth = host.registry.value(
            "serve.queue_depth", tenant=host.tenant.name
        )
        report["queue_depth_max"] = max(report["queue_depth_max"], depth)
        return outcome

    ClusterHost.submit = submit

    tracer = None
    if args.spans:
        tracer = Tracer("serve")
        tracer.install()

        def acknowledge(signum: int) -> None:
            Path(f"{args.report}.mark{signum}").touch()

        def start_phase(signum, _frame) -> None:
            tracer.reset()
            acknowledge(signum)

        def end_phase(signum, _frame) -> None:
            report["totals"] = tracer.totals()
            report["spans"] = tracer.dump(Path(args.spans))
            acknowledge(signum)

        signal.signal(signal.SIGUSR1, start_phase)
        signal.signal(signal.SIGUSR2, end_phase)
    try:
        run_server(ServeConfig.from_file(args.config))
    finally:
        if tracer is not None:
            tracer.uninstall()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        report["daemon_peak_rss_mb"] = usage.ru_maxrss / 1024.0
        Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
