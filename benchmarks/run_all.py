#!/usr/bin/env python
"""Run the whole benchmark suite and emit machine-readable wall-times.

Equivalent to ``loom-repro bench``.  Times every experiment the
``bench_*`` pytest files wrap (fast mode by default, like the pytest
suite) plus the engine hot-path microbenchmark, then writes
``BENCH_PR12.json``::

    PYTHONPATH=src python benchmarks/run_all.py [--out BENCH_PR12.json]
                                                [--seed 0] [--full]
                                                [--baseline BENCH_PR6.json]

``--baseline`` prints per-experiment wall-time deltas against a prior
BENCH file (same ``loom-repro/bench/v1`` schema), making the perf
trajectory across PRs machine-readable end to end.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.runner import (  # noqa: E402
    diff_bench,
    load_bench_json,
    run_bench_suite,
    write_bench_json,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_PR12.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--full", action="store_true",
        help="full experiment grids (slow) instead of fast mode",
    )
    parser.add_argument(
        "--no-hotpath", action="store_true",
        help="skip the engine hot-path microbenchmark",
    )
    parser.add_argument(
        "--no-scaling", action="store_true",
        help="skip the sharded-runtime scaling measurement",
    )
    parser.add_argument(
        "--no-refresh", action="store_true",
        help="skip the delta-vs-full refresh measurement",
    )
    parser.add_argument(
        "--no-obs", action="store_true",
        help="skip the observability overhead measurement",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="BENCH_JSON",
        help="prior BENCH file to print per-experiment deltas against",
    )
    args = parser.parse_args(argv)
    payload = run_bench_suite(
        seed=args.seed,
        fast=not args.full,
        hotpath=not args.no_hotpath,
        scaling=not args.no_scaling,
        refresh=not args.no_refresh,
        obs=not args.no_obs,
    )
    target = write_bench_json(args.out, payload)
    total = sum(e["seconds"] for e in payload["experiments"].values())
    print(f"{len(payload['experiments'])} experiments in {total:.1f}s")
    if "hotpath" in payload:
        hp = payload["hotpath"]
        print(
            "hotpath speedups: "
            f"ldg={hp['ldg_speedup']}x loom={hp['loom_speedup']}x "
            f"executor={hp['executor_speedup']}x"
        )
    if "scaling" in payload:
        speedups = payload["scaling"]["speedups"]
        print(
            "scaling speedups (makespan): "
            + " ".join(
                f"{key.split('_')[1]}={value}x"
                for key, value in sorted(speedups.items())
            )
        )
    if "refresh" in payload:
        speedups = payload["refresh"]["speedups"]
        print(
            "refresh speedups (delta vs full): "
            + " ".join(
                f"{key}={value}x" for key, value in sorted(speedups.items())
            )
        )
    if "obs" in payload:
        entry = payload["obs"]
        print(
            "obs overhead: "
            f"enabled={entry['enabled_seconds']}s "
            f"disabled={entry['disabled_seconds']}s "
            f"speedup={entry['obs_overhead_speedup']}x"
        )
    if args.baseline:
        baseline = load_bench_json(args.baseline)
        print(f"deltas vs {args.baseline}:")
        for line in diff_bench(payload, baseline):
            print(f"  {line}")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
