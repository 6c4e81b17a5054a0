"""Measurement helpers: closed loops, percentiles, metrics snapshots."""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Callable

#: A percentile is trusted only with this many samples beyond it.
SAMPLES_BEYOND = 10


def closed_loop(
    op: Callable[[int], bool],
    seconds: float,
    *,
    min_samples: int = 0,
    max_seconds: float | None = None,
) -> tuple[list[float], list[float], int]:
    """Call ``op(i)`` back to back for about ``seconds``.

    A call starts only if it is projected (from the mean so far) to end
    within ``seconds``, so a run never overshoots by a whole slow call;
    the first call always runs.  The loop then keeps going until
    ``min_samples`` calls succeeded, up to ``max_seconds``.  Returns
    (latencies of the calls that returned True, the elapsed time at the
    end of every call, failed calls).
    """
    latencies: list[float] = []
    ends: list[float] = []
    failed = 0
    began = perf_counter()
    while True:
        start = perf_counter()
        ok = op(len(ends))
        end = perf_counter()
        ends.append(end - began)
        if ok:
            latencies.append(end - start)
        else:
            failed += 1
        elapsed = ends[-1]
        if max_seconds is not None and elapsed >= max_seconds:
            break
        if len(latencies) < min_samples:
            continue
        if elapsed + elapsed / len(ends) > seconds:
            break
    return latencies, ends, failed


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def trusted(values: list[float], q: int) -> bool:
    """Whether at least ``SAMPLES_BEYOND`` samples lie beyond the
    ``q``-th percentile."""
    return len(values) * (100 - q) / 100 >= SAMPLES_BEYOND


def flatten(snapshot: dict | None) -> dict[str, float]:
    """A metrics-registry snapshot as ``{"name{k=v,...}": value}``;
    histograms contribute ``name{...}.sum`` and ``name{...}.count``."""
    flat: dict[str, float] = {}
    if not snapshot:
        return flat
    for name, entry in snapshot["metrics"].items():
        for series in entry["series"]:
            labels = ",".join(
                f"{key}={value}"
                for key, value in sorted(series["labels"].items())
            )
            key = f"{name}{{{labels}}}"
            if entry["kind"] == "histogram":
                flat[key + ".sum"] = series["sum"]
                flat[key + ".count"] = series["count"]
            else:
                flat[key] = series["value"]
    return flat


class Delta:
    """Differences between two flattened snapshots, read by name and
    label filter (labels not named are summed over)."""

    def __init__(self, before: dict[str, float], after: dict[str, float]):
        self.values = {
            key: value - before.get(key, 0.0) for key, value in after.items()
        }

    def __add__(self, other: "Delta") -> "Delta":
        merged = Delta({}, {})
        merged.values = dict(self.values)
        for key, value in other.values.items():
            merged.values[key] = merged.values.get(key, 0.0) + value
        return merged

    def get(self, name: str, suffix: str = "", **labels: str) -> float:
        wanted = [f"{key}={value}" for key, value in labels.items()]
        total = 0.0
        for key, value in self.values.items():
            if not key.startswith(name + "{") or not key.endswith(
                "}" + suffix
            ):
                continue
            inside = key[len(name) + 1 : len(key) - len(suffix) - 1]
            parts = inside.split(",") if inside else []
            if all(part in parts for part in wanted):
                total += value
        return total
