"""Bench-side span tracing around each layer's public functions.

The program itself is not modified: :func:`install` replaces a fixed
list of public functions and methods (``TRACE_POINTS``) with wrappers
that time every call, keep a per-thread stack of open spans and charge
each call's duration to its parent, so a layer's *self time* is its
spans' durations minus the part their child spans cover.

Two kinds of trace point exist:

* coarse points (``Session.ingest``, ``StreamingEngine.run``, a WAL
  checkpoint, one query execution ...) record one span each, with a
  trace id shared by every span of one top-level request, its own span
  id and its parent's id;
* hot points (one store write, one WAL append, one matcher edge ...)
  run up to a few hundred thousand times per ingest, so their calls are
  folded into one aggregate span per (parent span, name) carrying the
  call count, total and self time.  Self time stays exact either way.

Spans stay in memory and are written out by :meth:`Tracer.dump` when
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

#: (module, attribute path, span name, hot).  The layer of a span is
#: its name minus the last dotted segment (``cluster.store.add_vertex``
#: belongs to ``cluster.store``).
TRACE_POINTS: tuple[tuple[str, str, str, bool], ...] = (
    # api: the session facade
    ("repro.api.session", "Session.ingest", "api.ingest", False),
    ("repro.api.session", "Session.query", "api.query", False),
    ("repro.api.session", "Session.retract", "api.retract", False),
    ("repro.api.session", "Session.stats", "api.stats", False),
    ("repro.api.session", "Session.metrics", "api.metrics", False),
    # engine: the batching loop
    ("repro.engine.pipeline", "StreamingEngine.run", "engine.run", False),
    # core: LOOM and its motif matcher
    ("repro.core.loom", "LoomPartitioner.process_batch",
     "core.process_batch", False),
    ("repro.core.loom", "LoomPartitioner.flush", "core.flush", False),
    ("repro.core.matcher", "StreamMotifMatcher.on_edge",
     "core.matcher.on_edge", True),
    # partitioning: placement decisions
    ("repro.partitioning.streaming", "LinearDeterministicGreedy.place",
     "partitioning.place", True),
    ("repro.core.loom", "choose_partition_for_group",
     "partitioning.place_group", True),
    # cluster.store / cluster.columnar: the resident store
    ("repro.cluster.store", "DistributedGraphStore.add_vertex",
     "cluster.store.add_vertex", True),
    ("repro.cluster.store", "DistributedGraphStore.add_edge",
     "cluster.store.add_edge", True),
    ("repro.cluster.store", "DistributedGraphStore.assign_vertex",
     "cluster.store.assign_vertex", True),
    ("repro.cluster.store", "DistributedGraphStore.remove_vertex",
     "cluster.store.remove_vertex", True),
    ("repro.cluster.store", "DistributedGraphStore.remove_edge",
     "cluster.store.remove_edge", True),
    ("repro.cluster.store", "DistributedGraphStore.retract_assignment",
     "cluster.store.retract_assignment", True),
    ("repro.cluster.columnar", "encode_columns",
     "cluster.columnar.encode", False),
    # runtime.wal: the durable log
    ("repro.runtime.wal", "WriteAheadLog.append", "runtime.wal.append",
     True),
    ("repro.runtime.wal", "DurableLog.checkpoint",
     "runtime.wal.checkpoint", False),
    # cluster.executor: in-process query execution
    ("repro.cluster.executor", "DistributedQueryExecutor.execute",
     "cluster.executor.execute", False),
    # runtime.pool: worker fan-out and refresh (coordinator side)
    ("repro.runtime.executor", "ShardedExecutor.run",
     "runtime.pool.fanout", False),
    ("repro.runtime.pool", "WorkerPool.execute", "runtime.pool.execute",
     False),
    ("repro.runtime.pool", "WorkerPool.refresh_delta",
     "runtime.pool.refresh_delta", False),
    ("repro.runtime.pool", "WorkerPool.refresh", "runtime.pool.refresh",
     False),
    # serve: frame codec on the daemon's event loop
    ("repro.serve.daemon", "encode_frame", "serve.encode", True),
    ("repro.serve.protocol", "decode_body", "serve.decode", True),
)

#: Every layer the table reports, in pipeline order.
LAYERS = (
    "api",
    "engine",
    "core",
    "partitioning",
    "cluster.store",
    "cluster.columnar",
    "runtime.wal",
    "cluster.executor",
    "runtime.pool",
    "serve",
)


def layer_of(name: str) -> str:
    """The layer a span name belongs to (``core.matcher.on_edge`` ->
    ``core``)."""
    for layer in sorted(LAYERS, key=len, reverse=True):
        if name == layer or name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


class _ThreadState:
    """Open-span stack plus finished records of one thread."""

    __slots__ = ("stack", "spans", "folded", "totals")

    def __init__(self) -> None:
        #: Open frames: [span id or None (hot), name, child time].
        self.stack: list[list[Any]] = []
        #: Finished coarse spans (dicts).
        self.spans: list[dict[str, Any]] = []
        #: (trace id, parent span id, name) -> [calls, total s, self s].
        self.folded: dict[tuple[Any, Any, str], list[float]] = {}
        #: name -> [calls, total s, self s] over every call.
        self.totals: dict[str, list[float]] = {}


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self, trace_prefix: str = "t") -> None:
        self._prefix = trace_prefix
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        #: name -> list of result observers for that trace point.
        self._observers: dict[str, list[Callable[[Any, Any], None]]] = {}
        self._patched: list[tuple[Any, str, Any]] = []
        #: Calls made while False run untraced (untimed checks between
        #: timed operations).
        self.active = True

    # -- recording ------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def observe(self, name: str, fn: Callable[[Any, Any], None]) -> None:
        """Call ``fn(args, result)`` after every call of trace point
        ``name`` (counts read off arguments or results)."""
        self._observers.setdefault(name, []).append(fn)

    def wrap(self, fn: Callable, name: str, hot: bool) -> Callable:
        """``fn`` timed as span ``name``."""
        tracer = self
        observers = self._observers.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            if hot:
                frame = [None, name, 0.0]
            else:
                if not stack:
                    # A top-level call starts a new request trace.
                    tracer._local.trace = (
                        f"{tracer._prefix}-{next(tracer._trace_ids)}"
                    )
                frame = [next(tracer._span_ids), name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                own = elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
                tracer._finish(state, frame, start, end, elapsed, own)
            for observer in observers:
                observer(args, result)
            return result

        return traced

    def _finish(self, state, frame, start, end, elapsed, own) -> None:
        name = frame[1]
        total = state.totals.get(name)
        if total is None:
            total = state.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += elapsed
        total[2] += own
        stack = state.stack
        parent_id = None
        for open_frame in reversed(stack):
            if open_frame[0] is not None:
                parent_id = open_frame[0]
                break
        trace_id = None if parent_id is None else self._local.trace
        if frame[0] is None:
            key = (trace_id, parent_id, name)
            folded = state.folded.get(key)
            if folded is None:
                folded = state.folded[key] = [0, 0.0, 0.0]
            folded[0] += 1
            folded[1] += elapsed
            folded[2] += own
            return
        state.spans.append(
            {
                "trace": self._local.trace,
                "span": frame[0],
                "parent": parent_id,
                "name": name,
                "start": start,
                "end": end,
                "self": own,
            }
        )
        if not stack:
            self._local.trace = None

    # -- installation ---------------------------------------------------
    def install(self, points=TRACE_POINTS) -> None:
        """Wrap every trace point (idempotence is the caller's job)."""
        for module_name, path, name, hot in points:
            owner: Any = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attribute]
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(original, name, hot))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- results --------------------------------------------------------
    def reset(self) -> None:
        """Forget every finished span (open ones are unaffected)."""
        with self._lock:
            for state in self._states:
                state.spans.clear()
                state.folded.clear()
                state.totals.clear()

    def totals(self) -> dict[str, list[float]]:
        """name -> [calls, total s, self s] across all threads."""
        merged: dict[str, list[float]] = {}
        with self._lock:
            for state in self._states:
                for name, (calls, total, own) in list(state.totals.items()):
                    entry = merged.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += calls
                    entry[1] += total
                    entry[2] += own
        return merged

    def span_count(self) -> int:
        with self._lock:
            return sum(
                len(state.spans) + len(state.folded)
                for state in self._states
            )

    def dump(self, path: Path) -> int:
        """Write every span (coarse, then folded) as JSON lines; returns
        the number of lines written."""
        lines = 0
        with self._lock, open(path, "w", encoding="utf-8") as out:
            for state in self._states:
                for span in list(state.spans):
                    out.write(json.dumps(span) + "\n")
                    lines += 1
                for (trace, parent, name), (calls, total, own) in list(
                    state.folded.items()
                ):
                    out.write(
                        json.dumps(
                            {
                                "trace": trace,
                                "parent": parent,
                                "name": name,
                                "calls": calls,
                                "total": total,
                                "self": own,
                            }
                        )
                        + "\n"
                    )
                    lines += 1
        return lines


def layer_self_seconds(totals: dict[str, list[float]]) -> dict[str, float]:
    """Self time per layer (every layer of ``LAYERS``, zero if idle)."""
    seconds = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, own) in totals.items():
        seconds[layer_of(name)] += own
    return seconds


def span_seconds(totals, *names: str) -> float:
    """Total (inclusive) seconds of the named trace points."""
    return sum(totals[name][1] for name in names if name in totals)


def span_self(totals, *names: str) -> float:
    """Self seconds of the named trace points."""
    return sum(totals[name][2] for name in names if name in totals)


def span_calls(totals, *names: str) -> int:
    """Calls of the named trace points."""
    return int(sum(totals[name][0] for name in names if name in totals))
