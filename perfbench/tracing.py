"""Benchmark-owned span recording around calls into ``repro`` layers.

The benchmark never edits ``src/``.  Instead it replaces a layer's public
function (or method, classmethod, property getter, coroutine method) with
a thin wrapper for the length of a traced run, and restores the original
attribute afterwards.  Each wrapped call records one span:

- a name (the layer metric prefix, e.g. ``"execution.assign"``);
- start and end (``time.perf_counter``);
- its parent span (the innermost wrapped call it ran inside);
- an id shared by every span of one query or request.

Nesting is tracked per asyncio task (a ``contextvars`` link to the open
parent), so interleaved requests on the server's event loop never adopt
each other's spans; synchronous code sees one stack, as usual.

Aggregates (calls, total time, self time, optional duration samples)
are folded online.  Raw spans are kept in compact in-memory arrays while
``keep_spans`` is set and written out once, when the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

__all__ = [
    "Patch",
    "SpanRecorder",
    "install",
    "self_times",
]


class _Frame:
    """One open span: where it started and how much its children took."""

    __slots__ = ("name", "start", "child", "sid", "index")

    def __init__(self, name: str, start: float, sid: int, index: int) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.sid = sid
        self.index = index


class SpanRecorder:
    """Fold spans into per-name aggregates; optionally keep the raw spans.

    Args:
        clock: the time source (injectable so tests can drive nesting
            with exact numbers).
        sampled: span names whose individual durations are kept, for
            percentiles.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        sampled: Iterable[str] = (),
    ) -> None:
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_total: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {name: [] for name in sampled}
        self.keep_spans = True
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_id = array("q")
        self._open: contextvars.ContextVar[_Frame | None] = contextvars.ContextVar(
            f"open_span_{id(self)}", default=None
        )
        #: The id a top-level span takes when its call carries none: a
        #: server sets it per request once the request is parsed, so the
        #: request's later spans on the same task share the id.
        self.current_id: contextvars.ContextVar[int] = contextvars.ContextVar(
            f"span_id_{id(self)}", default=-1
        )

    # --- recording ------------------------------------------------------
    def enter(self, name: str, sid: int | None = None) -> tuple[_Frame, Any]:
        parent = self._open.get()
        if sid is None:
            sid = parent.sid if parent is not None else self.current_id.get()
        index = -1
        start = self.clock()
        if self.keep_spans:
            index = len(self.span_start)
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.span_name.append(name_id)
            self.span_start.append(start)
            self.span_end.append(start)
            self.span_parent.append(parent.index if parent is not None else -1)
            self.span_id.append(sid)
        frame = _Frame(name, start, sid, index)
        return frame, self._open.set(frame)

    def exit(self, opened: tuple[_Frame, Any]) -> float:
        """Close a span; returns its duration."""
        return self._close(opened, self.clock())

    def _close(self, opened: tuple[_Frame, Any], end: float) -> float:
        frame, token = opened
        self._open.reset(token)
        duration = end - frame.start
        name = frame.name
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_total[name] = (
            self.self_total.get(name, 0.0) + duration - frame.child
        )
        parent = self._open.get()
        if parent is not None:
            parent.child += duration
        samples = self.samples.get(name)
        if samples is not None:
            samples.append(duration)
        if frame.index >= 0:
            self.span_end[frame.index] = end
        return duration

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span measured by the caller (a top-level span
        whose start was observed inside the wrapped call)."""
        opened = self.enter(name)
        frame = opened[0]
        frame.start = start
        if frame.index >= 0:
            self.span_start[frame.index] = start
        self._close(opened, end)

    # --- reading --------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A copy of the aggregates (not the raw spans)."""
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_total),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }

    def raw_spans(self) -> dict[str, Any]:
        """The kept spans as plain lists (JSON-ready)."""
        return {
            "names": list(self.names),
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "id": self.span_id.tolist(),
        }


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one parent never overlap in a single thread of control,
    but an asyncio parent may await children that interleave with other
    tasks; the union of the children's intervals is therefore merged
    before it is subtracted, so overlapping children are not counted
    twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[i], ends[i]))
    out = []
    for i in range(len(starts)):
        covered = 0.0
        reach = float("-inf")
        for lo, hi in sorted(children.get(i, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(ends[i] - starts[i] - covered)
    return out


# --- patching -------------------------------------------------------------
@dataclass(frozen=True)
class Patch:
    """One attribute to wrap.

    Attributes:
        owner: the module or class that holds the attribute.
        attr: the attribute name.
        name: the span name recorded per call.
        id_arg: positional index of the argument that carries the
            query id (``None``: inherit the parent span's id).
        factory: a custom wrapper builder, called with the original
            function, for calls that record more than one span (``name``
            and ``id_arg`` are then unused).
    """

    owner: Any
    attr: str
    name: str = ""
    id_arg: int | None = None
    factory: Callable[[Callable], Callable] | None = None


def _wrap_function(recorder: SpanRecorder, patch: Patch, fn: Callable) -> Callable:
    name, id_arg = patch.name, patch.id_arg
    enter, exit_ = recorder.enter, recorder.exit

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
            opened = enter(name, None if id_arg is None else args[id_arg])
            try:
                return await fn(*args, **kwargs)
            finally:
                exit_(opened)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        opened = enter(name, None if id_arg is None else args[id_arg])
        try:
            return fn(*args, **kwargs)
        finally:
            exit_(opened)

    return wrapper


def _wrapped_attribute(recorder: SpanRecorder, patch: Patch, original: Any) -> Any:
    if patch.factory is not None:
        return functools.wraps(original)(patch.factory(original))
    if isinstance(original, classmethod):
        return classmethod(_wrap_function(recorder, patch, original.__func__))
    if isinstance(original, property):
        return property(
            _wrap_function(recorder, patch, original.fget),
            original.fset,
            original.fdel,
            original.__doc__,
        )
    if callable(original):
        return _wrap_function(recorder, patch, original)
    raise TypeError(f"cannot wrap {patch.owner!r}.{patch.attr}: not callable")


class install:
    """Context manager: wrap every patch on entry, restore all on exit.

    The raw attribute is read from the owner's ``__dict__`` (so a
    classmethod or property is restored as the same descriptor object)
    and put back with ``setattr`` in reverse order, even if the body
    raises.
    """

    def __init__(self, recorder: SpanRecorder, patches: Iterable[Patch]) -> None:
        self.recorder = recorder
        self.patches = list(patches)
        self.saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "install":
        try:
            for patch in self.patches:
                original = vars(patch.owner)[patch.attr]
                wrapped = _wrapped_attribute(self.recorder, patch, original)
                self.saved.append((patch.owner, patch.attr, original))
                setattr(patch.owner, patch.attr, wrapped)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc: object) -> None:
        self.restore()
