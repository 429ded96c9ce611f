"""Nestable, thread- and process-safe spans with monotonic timing.

A *span* is one timed phase of the pipeline — a suite run, a batched
prediction pass, a compile-cache fill, a retry attempt. Spans nest: the
recorder keeps a per-thread stack, so a span opened while another is
active records that span as its parent, and an exported trace reproduces
the call tree.

Timing is monotonic (``time.monotonic_ns``) for durations; start times
are mapped onto the wall clock through a per-recorder anchor so spans
recorded by different processes (sweep workers) stay comparable and a
merged trace orders correctly by start time.

The :class:`TraceRecorder` is ring-buffered: memory is bounded by
``max_spans`` and the oldest spans are dropped (and counted) once the
buffer is full, so tracing an arbitrarily long sweep can never exhaust
memory. It also keeps a running per-name count and duration total of
the spans in the ring, so a summary (:meth:`TraceRecorder.phase_totals`)
costs O(span names), not a walk over the ring.

When telemetry is off the pipeline talks to the :data:`NULL_RECORDER`
instead — its ``span()`` hands back a shared do-nothing context manager,
and hot per-kernel call sites additionally guard on ``recorder.active``
so the disabled path costs a boolean check (see the overhead budget in
``benchmarks/bench_sweep.py`` and ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from dataclasses import dataclass

#: Default ring-buffer capacity of a :class:`TraceRecorder`.
DEFAULT_MAX_SPANS = 100_000


@dataclass(frozen=True)
class SpanRecord:
    """One finished span. Immutable, hashable, picklable — records
    travel from sweep worker processes back to the parent trace.

    Attributes:
        name: Phase name (e.g. ``"suite.run"``, ``"predict.batch"``).
        start_ns: Start time in nanoseconds since the Unix epoch (wall
            anchor + monotonic delta — see module docstring).
        duration_ns: Monotonic duration in nanoseconds (>= 0).
        span_id: Recorder-unique id (unique per process).
        parent_id: ``span_id`` of the enclosing span in the same thread,
            or ``None`` for a root span.
        pid: Process id that recorded the span.
        tid: Thread id that recorded the span.
        attrs: Attributes as a sorted tuple of ``(key, value)`` pairs.
    """

    name: str
    start_ns: int
    duration_ns: int
    span_id: int
    parent_id: int | None
    pid: int
    tid: int
    attrs: tuple[tuple[str, object], ...] = ()

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns

    @property
    def seconds(self) -> float:
        return self.duration_ns / 1e9

    def attributes(self) -> dict[str, object]:
        return dict(self.attrs)


class Span:
    """A live span: a context manager handed out by
    :meth:`TraceRecorder.span`.

    Entering pushes it on the recorder's per-thread stack (fixing its
    parent); exiting pops it and appends a :class:`SpanRecord` to the
    ring. An exception propagating through the span is recorded as an
    ``error`` attribute and re-raised.
    """

    __slots__ = ("name", "span_id", "parent_id", "_recorder", "_attrs",
                 "_start_mono")

    def __init__(self, recorder: "TraceRecorder", name: str,
                 attrs: dict[str, object]) -> None:
        self._recorder = recorder
        self.name = name
        self._attrs = attrs
        self.span_id = 0
        self.parent_id: int | None = None
        self._start_mono = 0

    def set(self, **attrs: object) -> None:
        """Attach (or overwrite) attributes while the span is open."""
        self._attrs.update(attrs)

    def __enter__(self) -> "Span":
        recorder = self._recorder
        stack = recorder._stack()
        self.parent_id = stack[-1].span_id if stack else None
        self.span_id = next(recorder._ids)
        stack.append(self)
        self._start_mono = time.monotonic_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_mono = time.monotonic_ns()
        recorder = self._recorder
        stack = recorder._stack()
        if stack and stack[-1] is self:
            stack.pop()
        else:  # pragma: no cover - misnested exit, recover gracefully
            try:
                stack.remove(self)
            except ValueError:
                pass
        if exc_type is not None:
            self._attrs.setdefault("error", exc_type.__name__)
        recorder._finish(self, end_mono)
        return False


class _NullSpan:
    """Shared do-nothing span: the off-path cost of an uninstrumented
    ``with recorder.span(...)`` site."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: object) -> None:
        pass


NULL_SPAN = _NullSpan()


class NullRecorder:
    """The default (telemetry off) recorder: records nothing.

    ``active`` is ``False`` so hot call sites can skip even the cheap
    null-span cycle; coarse-grained sites simply call :meth:`span` and
    pay one shared no-op context manager.
    """

    __slots__ = ()
    active = False

    def span(self, name: str, **attrs: object) -> _NullSpan:
        return NULL_SPAN

    def records(self) -> list[SpanRecord]:
        return []

    def merge(self, records) -> None:
        pass

    def phase_totals(self) -> dict[str, tuple[int, int]]:
        return {}

    def __len__(self) -> int:
        return 0

    @property
    def dropped(self) -> int:
        return 0


NULL_RECORDER = NullRecorder()


class TraceRecorder:
    """Thread-safe, ring-buffered span recorder for one telemetry
    session.

    Args:
        max_spans: Ring capacity; once full, the oldest record is
            dropped per append and counted in :attr:`dropped`.
    """

    active = True

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self._lock = threading.Lock()
        self._spans: deque[SpanRecord] = deque(maxlen=max_spans)
        self._max_spans = max_spans
        self._dropped = 0
        # name -> [count, total duration_ns] over the spans in the ring.
        self._totals: dict[str, list[int]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Wall anchor: start times become epoch-relative (comparable
        # across processes) while durations stay monotonic.
        self._anchor_wall_ns = time.time_ns()
        self._anchor_mono_ns = time.monotonic_ns()

    def span(self, name: str, **attrs: object) -> Span:
        """A new span named ``name``; use as a context manager."""
        return Span(self, name, attrs)

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack: list[Span] = []
            self._local.stack = stack
            return stack

    def _finish(self, span: Span, end_mono: int) -> None:
        start_ns = (
            self._anchor_wall_ns + (span._start_mono - self._anchor_mono_ns)
        )
        record = SpanRecord(
            name=span.name,
            start_ns=start_ns,
            duration_ns=max(0, end_mono - span._start_mono),
            span_id=span.span_id,
            parent_id=span.parent_id,
            pid=os.getpid(),
            tid=threading.get_ident(),
            attrs=tuple(sorted(span._attrs.items())),
        )
        with self._lock:
            self._append(record)

    def _append(self, record: SpanRecord) -> None:
        """Append under ``self._lock``, keeping :attr:`_totals` equal to
        the per-name sums over the ring."""
        totals = self._totals
        if len(self._spans) == self._max_spans:
            self._dropped += 1
            evicted = self._spans[0]  # the deque drops it on append
            entry = totals[evicted.name]
            if entry[0] == 1:
                del totals[evicted.name]
            else:
                entry[0] -= 1
                entry[1] -= evicted.duration_ns
        self._spans.append(record)
        entry = totals.get(record.name)
        if entry is None:
            totals[record.name] = [1, record.duration_ns]
        else:
            entry[0] += 1
            entry[1] += record.duration_ns

    def merge(self, records) -> None:
        """Fold foreign :class:`SpanRecord`\\ s (e.g. from a sweep worker
        process) into this trace; they sort in with local spans by start
        time in :meth:`records`."""
        with self._lock:
            for record in records:
                self._append(record)

    def records(self) -> list[SpanRecord]:
        """All finished spans, ordered by start time (then pid/id for a
        stable order on ties)."""
        with self._lock:
            spans = list(self._spans)
        spans.sort(key=lambda r: (r.start_ns, r.pid, r.span_id))
        return spans

    def phase_totals(self) -> dict[str, tuple[int, int]]:
        """``{name: (count, total duration_ns)}`` over the spans still in
        the ring, in name order. Kept incrementally, so this is
        O(span names) however many spans the ring holds."""
        with self._lock:
            return {name: (entry[0], entry[1])
                    for name, entry in sorted(self._totals.items())}

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    @property
    def dropped(self) -> int:
        """Spans evicted from the ring because it was full."""
        with self._lock:
            return self._dropped

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._dropped = 0
            self._totals.clear()
