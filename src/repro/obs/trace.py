"""Structured tracing: typed events, sinks, and the zero-cost contract.

The simulators are deterministic discrete-event machines, which makes
them *perfectly* traceable: every state transition happens at a known
clock instant in a known order, so an event log is a complete, replayable
account of a run — why a query queued, which executor a task landed on,
when the autoscaler fired.  This module defines the event vocabulary and
the sinks; the engines (:mod:`repro.engine.execution`,
:mod:`repro.engine.scheduler`, :mod:`repro.fleet.engine`,
:mod:`repro.fleet.cluster`, :mod:`repro.fleet.prediction`,
:mod:`repro.fleet.autoscaler`) emit into whatever tracer they are handed.

**The zero-cost contract.**  Tracing is off by default: every traced
component takes ``tracer=None`` and guards each emission behind a single
``is not None`` check, so an untraced run executes the exact pre-tracing
code path — no event objects, no sink calls, bit-identical results.  The
fleet bench (``benchmarks/perf/run_fleet_bench.py``) measures both sides
of the contract: a traced serve must reproduce the untraced serve's
records and summary exactly, and the ring-buffer tracer's wall-clock
overhead is CI-gated at ≤10 %.

**Determinism.**  Events carry only simulation-clock times and values
derived from the run's own deterministic state; two same-seed serves
with a deterministic allocator emit byte-identical JSONL logs (asserted
in ``tests/obs/test_trace.py``).  The one documented exception is the
:class:`~repro.fleet.prediction.PredictionService`'s measured wall-clock
overhead fields, which are real measurements and therefore vary run to
run.
"""

from __future__ import annotations

import json
import os
from collections import Counter, deque
from typing import IO, Iterable, Iterator, NamedTuple, Protocol

__all__ = [
    "EVENT_KINDS",
    "RAW_DATA_FIELDS",
    "TraceEvent",
    "Tracer",
    "RingBufferTracer",
    "JsonlTracer",
    "materialize",
    "read_jsonl",
]

#: The complete event taxonomy.  Every event an engine emits uses one of
#: these kinds; the analyzer and the tests treat anything else as a bug.
EVENT_KINDS = frozenset(
    {
        # Run lifecycle (driver-level bookends).
        "serve_begin",
        "serve_end",
        # Query lifecycle on the fleet clock.
        "query_arrive",
        "query_predict",
        "query_submit",
        "query_route",
        "query_admit",
        "query_finish",
        # Per-query execution (ExecutionCore).  There is deliberately no
        # per-task completion event: the simulator is deterministic, so
        # a task's finish instant is exactly ``task_assign.time +
        # duration_s`` unless a ``task_kill`` retracted it — emitting a
        # redundant event per task would double the trace's hot-path
        # cost for zero information.
        "driver_done",
        "stage_ready",
        "stage_done",
        "task_assign",
        "task_kill",
        "exec_add",
        "exec_remove",
        "exec_fail",
        # Faults: the drawn failure schedule (exec_fail carries the cause,
        # "crash" or "reclaim", when it fires).
        "fault_inject",
        # Pool capacity accounting.
        "grant_acquire",
        "grant_release",
        "pool_resize",
        "autoscale_up",
        "autoscale_down",
        # Prediction-service events (off the simulation clock; the
        # on-clock decision is query_predict).
        "prediction",
        # Continual learning (repro.fleet.adaptive): drift_alarm fires
        # when the rolling prediction error crosses the configured
        # threshold; model_retrain marks a completed retraining pass
        # (candidate entering shadow validation); model_promote marks a
        # shadow candidate winning and being hot-swapped behind the
        # prediction service.  All three are on the simulation clock —
        # they fire inside the fleet's query-finish feedback hook.
        "drift_alarm",
        "model_retrain",
        "model_promote",
        # HTTP serving layer (repro.serve): one event per handled request
        # and one per coalesced inference dispatch.  Off the simulation
        # clock like the prediction events.
        "serve_request",
        "serve_batch",
    }
)


class TraceEvent(NamedTuple):
    """One structured event on a run's timeline.

    A ``NamedTuple`` rather than a dataclass: events are created on the
    simulator's hot path when tracing is on, and tuple construction is
    the cheapest immutable record Python offers.

    Attributes:
        time: simulation-clock instant (seconds).  Prediction-service
            events, which happen off the simulated clock, carry ``0.0``.
        kind: one of :data:`EVENT_KINDS`.
        pool: pool index, ``-1`` for cluster-level/dedicated-run events.
        query: arrival-stream position, ``-1`` for non-query events.
        query_id: workload query id, ``None`` for non-query events.
        data: kind-specific payload (JSON-serializable), ``None`` when
            the identity fields say everything.
    """

    time: float
    kind: str
    pool: int = -1
    query: int = -1
    query_id: str | None = None
    data: dict[str, object] | None = None

    def to_json(self) -> str:
        """One deterministic JSON object (fixed key order, compact)."""
        return json.dumps(
            {
                "time": self.time,
                "kind": self.kind,
                "pool": self.pool,
                "query": self.query,
                "query_id": self.query_id,
                "data": self.data,
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        """Parse one :meth:`to_json` line back into an event."""
        obj = json.loads(line)
        return cls(
            time=float(obj["time"]),
            kind=obj["kind"],
            pool=int(obj.get("pool", -1)),
            query=int(obj.get("query", -1)),
            query_id=obj.get("query_id"),
            data=obj.get("data"),
        )


#: Payload field names for the *raw* hot-path emission form.  The
#: per-task kind dominates a trace (tens of thousands of events per
#: serve) and is emitted as flat plain tuples —
#: ``(time, kind, pool, query, query_id, *payload)`` — because building
#: a dict plus a NamedTuple per task would blow the ≤10 % tracing
#: overhead gate.  :func:`materialize` zips the tail back into the
#: normal ``data`` dict; sinks do this lazily (ring buffer, on read) or
#: at serialization time (JSONL).
RAW_DATA_FIELDS = {
    "task_assign": ("stage", "task", "eid", "duration_s"),
    "stage_ready": ("stage", "tasks"),
    "stage_done": ("stage",),
    "exec_add": ("eid",),
}


def materialize(event: "TraceEvent | tuple") -> "TraceEvent":
    """Normalize an emitted event into a :class:`TraceEvent`.

    Pass-through for already-typed events; flat raw tuples (the
    hot-path form documented at :data:`RAW_DATA_FIELDS`) get their
    payload tail zipped into the standard ``data`` dict.
    """
    if isinstance(event, TraceEvent):
        return event
    kind = event[1]
    data = {}
    for name, value in zip(RAW_DATA_FIELDS[kind], event[5:]):
        # Hot-path emissions skip numpy-scalar conversion (it costs as
        # much as the append itself); normalize here, at read time.
        item = getattr(value, "item", None)
        data[name] = value if item is None else item()
    return TraceEvent(event[0], kind, event[2], event[3], event[4], data)


class Tracer(Protocol):
    """Anything that accepts emitted :class:`TraceEvent`\\ s.

    Engines take ``tracer: Tracer | None``; ``None`` (the default) is
    the guaranteed-zero-cost off switch — no event is even constructed.

    ``emit`` must also accept the flat raw-tuple form documented at
    :data:`RAW_DATA_FIELDS` — engines use it for the per-task kinds on
    the hot path; normalize with :func:`materialize`.
    """

    def emit(self, event: "TraceEvent | tuple") -> None:
        """Record one event (typed, or hot-path raw tuple)."""
        ...


class RingBufferTracer:
    """In-memory sink: the last ``capacity`` events (all, when ``None``).

    The cheapest real sink — ``emit`` is the deque's own ``append`` —
    and therefore the one the bench's tracing-overhead gate measures.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("ring capacity must be at least 1 event")
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        # Bind emit straight to the deque's append: no wrapper frame on
        # the hot path.
        self.emit = self._events.append

    def emit(self, event: "TraceEvent | tuple") -> None:  # pragma: no cover
        """Record one event (rebound to ``deque.append`` in __init__)."""
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(materialize, self._events)

    @property
    def events(self) -> list[TraceEvent]:
        """The buffered events, oldest first (raw tuples materialized)."""
        return [materialize(e) for e in self._events]

    def counts(self) -> dict[str, int]:
        """Buffered events per kind (taxonomy sanity checks)."""
        # kind is slot 1 in both the typed and the raw form.
        return dict(Counter(e[1] for e in self._events))

    def clear(self) -> None:
        """Drop everything buffered."""
        self._events.clear()


class JsonlTracer:
    """File sink: one deterministic JSON object per line.

    Usable as a context manager::

        with JsonlTracer("run.jsonl") as tracer:
            ShardedFleet(..., tracer=tracer).serve(arrivals)

    Same-seed serves with a deterministic allocator write byte-identical
    files (the determinism test's contract).  Read logs back with
    :func:`read_jsonl`.
    """

    def __init__(self, path_or_file: str | os.PathLike | IO[str]) -> None:
        if isinstance(path_or_file, (str, os.PathLike)):
            self._file: IO[str] = open(path_or_file, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = path_or_file
            self._owns_file = False
        self.events_written = 0

    def emit(self, event: "TraceEvent | tuple") -> None:
        """Append one event line."""
        self._file.write(materialize(event).to_json())
        self._file.write("\n")
        self.events_written += 1

    def close(self) -> None:
        """Flush and (for paths we opened) close the underlying file."""
        if self._owns_file:
            self._file.close()
        else:
            self._file.flush()

    def __enter__(self) -> "JsonlTracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_jsonl(path_or_file: str | os.PathLike | Iterable[str]) -> list[TraceEvent]:
    """Load a :class:`JsonlTracer` log back into events, file order."""
    if isinstance(path_or_file, (str, os.PathLike)):
        with open(path_or_file, encoding="utf-8") as handle:
            return [TraceEvent.from_json(line) for line in handle if line.strip()]
    return [TraceEvent.from_json(line) for line in path_or_file if line.strip()]
