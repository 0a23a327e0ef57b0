"""Structured tracing: one event form, sinks, and the zero-cost contract.

The simulators are deterministic discrete-event machines, which makes
them *perfectly* traceable: every state transition happens at a known
clock instant in a known order, so an event log is a complete, replayable
account of a run — why a query queued, which executor a task landed on,
when the autoscaler fired.  This module defines the event vocabulary and
the sinks; the emitters (:mod:`repro.engine.execution`,
:mod:`repro.engine.driver`, :mod:`repro.fleet.engine`,
:mod:`repro.fleet.cluster`, :mod:`repro.fleet.autoscaler`,
:mod:`repro.fleet.prediction`, :mod:`repro.fleet.adaptive`,
:mod:`repro.serve.app`) emit into whatever tracer they are handed.

**One event form.**  Every emitter hands ``Tracer.emit`` one flat tuple,
``(time, kind, pool, query, query_id, *payload)``, and
:data:`EVENT_KINDS` is the one table naming each kind's payload fields.
:func:`materialize` is the one decoder from that tuple to a
:class:`TraceEvent`: the ring buffer decodes on read, the JSONL sink on
write.

**The zero-cost contract.**  Tracing is off by default: every traced
component takes ``tracer=None`` and guards each emission behind a single
``is not None`` check, so an untraced run executes the exact pre-tracing
code path — no event objects, no sink calls, bit-identical results.  The
fleet bench (``benchmarks/perf/run_fleet_bench.py``) measures both sides
of the contract: a traced serve must reproduce the untraced serve's
records and summary exactly, and it reports the ring-buffer tracer's
wall-clock overhead against a 1.10x gate.  On that bench's 96-query
serve (166 events per query) the ratio measured 1.10-1.18x, median
1.16x, over seven runs on a 2-vCPU Xeon VM: above the gate.

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

from repro.engine.checks import check_int

__all__ = [
    "EVENT_KINDS",
    "TraceEvent",
    "Tracer",
    "RingBufferTracer",
    "JsonlTracer",
    "materialize",
    "read_jsonl",
]

#: The complete event taxonomy: each kind mapped to its payload field
#: names.  An emitter hands the tracer one flat tuple,
#: ``(time, kind, pool, query, query_id, *payload)``, whose payload
#: lines up with the kind's fields here; :func:`materialize` zips it
#: into the ``data`` dict in this key order.  A kind with no fields
#: materializes with ``data=None`` (the identity says everything).
#: The analyzer and the tests treat any other kind, or a payload of
#: another length, as a bug.
EVENT_KINDS = {
    # Run lifecycle (driver-level bookends).
    "serve_begin": ("pools",),
    "serve_end": ("queries",),
    # Query lifecycle on the fleet clock.
    "query_arrive": (),
    "query_predict": (
        "executors",
        "cached",
        "seconds",
        "estimated_runtime_s",
        "policy",
    ),
    "query_submit": ("executors",),
    "query_route": ("router",),
    "query_admit": ("executors", "driver_seconds", "cores_per_executor", "stage_deps"),
    "query_finish": (),
    # Per-query execution (ExecutionCore).  There is deliberately no
    # per-task completion event: the simulator is deterministic, so
    # a task's finish instant is exactly ``task_assign.time +
    # duration_s`` unless a ``task_kill`` retracted it — emitting a
    # redundant event per task would double the trace's hot-path
    # cost for zero information.
    "driver_done": (),
    "stage_ready": ("stage", "tasks"),
    "stage_done": ("stage",),
    "task_assign": ("stage", "task", "eid", "duration_s"),
    "task_kill": ("stage", "task", "eid"),
    "exec_add": ("eid",),
    "exec_remove": ("eid",),
    "exec_fail": ("eid", "cause", "killed", "wasted_s"),
    # Faults: the drawn failure schedule (exec_fail carries the cause,
    # "crash" or "reclaim", when it fires).
    "fault_inject": ("eid", "fail_at"),
    # Pool capacity accounting.
    "grant_acquire": ("executors",),
    "grant_release": ("executors", "reason"),
    "pool_resize": ("capacity",),
    "autoscale_up": ("executors", "pending"),
    "autoscale_down": ("executors",),
    # Prediction-service events (off the simulation clock; the
    # on-clock decision is query_predict).
    "prediction": ("executors", "cached", "seconds", "estimated_runtime_s"),
    # Continual learning (repro.fleet.adaptive): drift_alarm fires
    # when the rolling prediction error crosses the configured
    # threshold; model_retrain marks a completed retraining pass
    # (candidate entering shadow validation); model_promote marks a
    # shadow candidate winning and being hot-swapped behind the
    # prediction service.  All three are on the simulation clock —
    # they fire inside the fleet's query-finish feedback hook.
    "drift_alarm": ("mean_relative_error", "threshold", "window", "observations"),
    "model_retrain": ("points", "cost_executor_seconds", "trigger", "retrains"),
    "model_promote": (
        "generation",
        "incumbent_error",
        "candidate_error",
        "shadow_window",
    ),
    # HTTP serving layer (repro.serve): one event per handled request
    # and one per coalesced inference dispatch.  Off the simulation
    # clock like the prediction events.
    "serve_request": ("route", "status", "seconds"),
    "serve_batch": ("size",),
}


class TraceEvent(NamedTuple):
    """One decoded event on a run's timeline (see :func:`materialize`).

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
        """One deterministic JSON object (field order, compact)."""
        return json.dumps(self._asdict(), separators=(",", ":"))

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


def materialize(event: "TraceEvent | tuple") -> "TraceEvent":
    """Decode an emitted flat tuple into a :class:`TraceEvent`.

    The payload tail is zipped with the kind's :data:`EVENT_KINDS`
    fields into the ``data`` dict (``None`` for a kind with no fields).
    Idempotent: an already-decoded event, such as one read back with
    :func:`read_jsonl`, passes through.
    """
    if isinstance(event, TraceEvent):
        return event
    time, kind, pool, query, query_id, *payload = event
    fields = EVENT_KINDS[kind]
    if len(payload) != len(fields):
        raise ValueError(
            f"{kind!r} event carries {len(payload)} payload values; "
            f"EVENT_KINDS declares {fields}"
        )
    if not fields:
        return TraceEvent(time, kind, pool, query, query_id)
    data = {}
    for name, value in zip(fields, payload):
        # Emitters skip numpy-scalar conversion (on the per-task path it
        # costs as much as the append itself); normalize here, at read
        # time.
        item = getattr(value, "item", None)
        data[name] = value if item is None else item()
    return TraceEvent(time, kind, pool, query, query_id, data)


class Tracer(Protocol):
    """Anything that accepts emitted events.

    Engines take ``tracer: Tracer | None``; ``None`` (the default) is
    the guaranteed-zero-cost off switch — no event is even constructed.
    Every emitter passes the flat tuple form documented at
    :data:`EVENT_KINDS`; sinks decode it with :func:`materialize`.
    """

    def emit(self, event: tuple) -> None:
        """Record one flat event tuple."""
        ...


class RingBufferTracer:
    """In-memory sink: the last ``capacity`` events (all, when ``None``).

    The cheapest real sink — ``emit`` is the deque's own ``append`` —
    and therefore the one the bench's tracing-overhead gate measures.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None:
            check_int("capacity", capacity, 1)
        self._events: deque[tuple] = deque(maxlen=capacity)
        #: Record one event: the deque's own ``append``, so the hot
        #: path pays no wrapper frame.
        self.emit = self._events.append

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(materialize, self._events)

    @property
    def events(self) -> list[TraceEvent]:
        """The buffered events, oldest first, materialized."""
        return [materialize(e) for e in self._events]

    def counts(self) -> dict[str, int]:
        """Buffered events per kind (taxonomy sanity checks)."""
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

    def emit(self, event: tuple) -> None:
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
