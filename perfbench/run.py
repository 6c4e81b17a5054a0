"""One command for the LOOM benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest-durable --seed 1 \\
        --seconds 20 --trace 0

Generates the workload's inputs from ``--seed``, sets the program up,
measures it for about ``--seconds`` seconds, checks every output and
prints each metric by name with its unit.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs the timed
phase untraced and then traced and reports the per-layer metrics and
the layer table.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every correctness check passed.

The run writes only under ``perfbench/work/`` (removed at the end) and
``perfbench/out/`` (the latest full record and spans per workload).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Iterations of the calibration loop.
CALIBRATION_STEPS = 300_000


def calibrate(repeats: int = 5) -> float:
    """Median seconds of a fixed pure-Python loop: a yardstick for
    comparing absolute numbers across machines (recorded, not gated)."""
    times = []
    for _ in range(repeats):
        began = perf_counter()
        total = 0
        table: dict[int, int] = {}
        for step in range(CALIBRATION_STEPS):
            total += step * step % 7
            table[step & 1023] = total
        times.append(perf_counter() - began)
    return statistics.median(times)


def environment(args, derived: dict[str, int]) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "seed": args.seed,
        "derived_seeds": derived,
        "seconds": args.seconds,
        "scale": args.scale,
    }


def parse(argv: list[str] | None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="input sizes: the benchmark (full) or the smoke test (tiny)",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None, *, oracle_skew=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import inputs
    import workloads

    if args.workload not in workloads.RUNNERS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads.RUNNERS)}",
            file=sys.stderr,
        )
        return 2
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    out = HERE / "out"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    out.mkdir(exist_ok=True)
    run = workloads.Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        sizes=workloads.SIZES[args.scale],
        work=work,
        root=ROOT,
        oracle_skew=dict(oracle_skew or {}),
    )
    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "environment": environment(args, inputs.derived_seeds(args.seed)),
        "calibration_s": calibrate(),
    }
    try:
        workloads.RUNNERS[args.workload](run)
        spans = work / "spans.jsonl"
        if spans.exists():
            shutil.copy(spans, out / f"{args.workload}-spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = run.layers if run.trace else run.e2e
    metrics = {
        metric["name"]: {"value": values[metric["name"]],
                         "unit": metric["unit"]}
        for metric in spec["per_layer" if run.trace else "end_to_end"]
    }
    record.update(
        checks=[
            {"check": name, "ok": ok, "detail": detail}
            for name, ok, detail in run.checks
        ],
        notes=run.notes,
        metrics=metrics,
    )
    (out / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2)
    )

    env = record["environment"]
    print(f"workload {args.workload}: {record['why']}")
    print(
        f"python {env['python']} on {env['platform']}, nproc "
        f"{env['nproc']}, PYTHONHASHSEED {env['pythonhashseed']}, seed "
        f"{args.seed} {env['derived_seeds']}, calibration "
        f"{record['calibration_s']:.4f} s"
    )
    for name, ok, detail in run.checks:
        if not ok:
            print(f"CHECK FAILED {name}: {detail}")
    for line in run.notes:
        print(line)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": run.correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
