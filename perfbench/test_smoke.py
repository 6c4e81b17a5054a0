"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload prints every ``BENCHMARK.json`` metric with
its unit, untraced and traced, and that a wrong oracle value makes the
run fail.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

#: A query each workload checks against the oracle.
CHECKED_QUERY = {
    "ingest-durable": "shared_device",
    "query-protein": "signalling",
    "serve-mixed": "shared_device",
}


def bench(workload: str, trace: int) -> tuple[int, list[str]]:
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return process.returncode, process.stdout.strip().splitlines()


def test_benchmark_json_matches_the_workload_definitions():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    for workload in SPEC["workloads"]:
        assert workload["why"] == workloads.WHY[workload["name"]]
    assert set(workloads.RUNNERS) == set(workloads.WHY) == set(WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(
        workloads.END_TO_END
    )
    assert [m["name"] for m in SPEC["per_layer"]] == list(
        workloads.PER_LAYER
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    code, lines = bench(workload, trace)
    assert code == 0, "\n".join(lines[-20:])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float))
        assert f"{metric['name']} " in "\n".join(lines[:-1])
    if not trace:
        for metric in declared:
            assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_oracle_fails_the_run(workload, capsys):
    sys.path.insert(0, str(HERE))
    import run

    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", "0", "--scale", "tiny"],
        oracle_skew={CHECKED_QUERY[workload]: 1},
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    assert json.loads(lines[-1])["correct"] is False
    assert any(line.startswith("CHECK FAILED") for line in lines)


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert process.returncode != 0
    assert not process.stdout.strip()
