"""Request tracing: spans, context propagation, export, critical path.

A *trace* is one signed request's journey through the stack; a *span* is
one timed segment of it (queue wait, dispatch, a signer stage).  The
design follows the usual distributed-tracing shape but stays tiny and
stdlib-only:

* :class:`TraceContext` — the (trace id, span id) pair that rides with a
  request.  Propagated via a ``contextvars`` variable where the call
  chain is synchronous (:func:`use_trace` / :func:`current_trace`), and
  carried *explicitly* where it is not: the batcher's timer-fired
  dispatch tasks, the worker pool's request messages, and the wire
  protocol's optional ``trace`` field all break the context chain, so
  each hands the ids along as plain data.
* :class:`Span` — a finished segment with wall-clock start/end.  Spans
  use ``time.time()`` (not a monotonic clock) deliberately: worker
  processes live on the same host, so wall time is the one clock every
  tier shares and spans from a forked worker line up with the parent's.
* :class:`Tracer` — the process-wide sink: a bounded ring
  (``collections.deque``) plus an optional JSON-lines file.  Recording
  is a lock, a dict build, and an append — cheap enough for per-request
  use — and every call site guards with ``if tracer is not None`` so a
  tracer-less service pays nothing.
* :class:`StageAggregator` — an adapter for the pre-existing
  ``HashContext.tracer`` hook (built for the conformance oracle): it
  turns the per-hop ``record(stage, label, value)`` stream into
  per-stage wall time *and hash counts*, which is how the scalar
  backend's ``fors``/``wots``/``merkle``/``hypertree`` sub-spans get
  their compression-call attribution.

:func:`load_spans` / :func:`render_critical_path` are the analysis half:
they read a trace ring or JSONL export back and render the queue-wait vs
dispatch vs sign vs serialize breakdown ``repro trace`` prints.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = ["Span", "StageAggregator", "TraceContext", "Tracer",
           "current_trace", "load_spans", "new_span_id", "new_trace_id",
           "render_critical_path", "stage_timeline", "start_trace",
           "use_trace"]

#: Default bound on the in-memory span ring.
RING_SIZE = 4096

#: Stages the critical-path table always reports, in pipeline order.
#: ``queue`` is time spent waiting for the batch to form, ``dispatch``
#: covers the executor/worker hop around signing, and the rest are the
#: signer's own stages as reported by ``BatchSignResult.stage_seconds``.
CRITICAL_STAGES = ("queue", "dispatch", "prepare", "fors", "hypertree",
                   "serialize")

#: ``stage_seconds`` keys that time a whole batch (the pool round trip,
#: summed worker busy time, the vectorized shard pool), not a pipeline
#: stage — they never become stage spans.
AGGREGATE_STAGES = ("pool", "workers_busy", "shard_pool")


def new_trace_id() -> str:
    return os.urandom(16).hex()


def new_span_id() -> str:
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """The ids a request carries: its trace, and the current span."""

    trace_id: str
    span_id: str

    def child(self) -> "TraceContext":
        """A fresh span id under the same trace."""
        return TraceContext(self.trace_id, new_span_id())


_CURRENT: contextvars.ContextVar[TraceContext | None] = \
    contextvars.ContextVar("repro_trace", default=None)


def current_trace() -> TraceContext | None:
    """The trace context propagating through this call chain, if any."""
    return _CURRENT.get()


def stage_timeline(stage_seconds: dict[str, float],
                   start: float) -> Iterator[tuple[str, float, float]]:
    """``(stage, start, end)`` for each pipeline stage of one batch.

    Stages are laid out back to back from *start* (the sign start) in
    ``stage_seconds`` order — the order they run in — so the
    reconstruction matches reality to within the untimed gaps between
    them.  Whole-batch aggregates (:data:`AGGREGATE_STAGES`) are skipped.
    """
    offset = start
    for stage, seconds in stage_seconds.items():
        if stage in AGGREGATE_STAGES:
            continue
        yield stage, offset, offset + seconds
        offset += seconds


def start_trace() -> TraceContext:
    """A brand-new root context (fresh trace id, fresh span id)."""
    return TraceContext(new_trace_id(), new_span_id())


@contextlib.contextmanager
def use_trace(ctx: TraceContext | None) -> Iterator[TraceContext | None]:
    """Install *ctx* as the current trace for the enclosed block."""
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)


@dataclass(frozen=True)
class Span:
    """One finished, timed segment of a trace (wall-clock seconds)."""

    trace_id: str
    span_id: str
    name: str
    start: float
    end: float
    parent_id: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        return max(0.0, self.end - self.start) * 1000.0

    def as_dict(self) -> dict:
        record = {
            "trace": self.trace_id, "span": self.span_id,
            "name": self.name, "start": round(self.start, 6),
            "end": round(self.end, 6),
        }
        if self.parent_id is not None:
            record["parent"] = self.parent_id
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "Span":
        return cls(
            trace_id=str(record["trace"]), span_id=str(record["span"]),
            name=str(record["name"]), start=float(record["start"]),
            end=float(record["end"]),
            parent_id=record.get("parent"),
            attrs=dict(record.get("attrs") or {}),
        )


class Tracer:
    """Bounded in-memory span ring with an optional JSONL export.

    Thread-safe: the service's event loop, the pool's collector thread,
    and benchmark harnesses may all record concurrently.  ``out_path``
    appends one JSON object per span as it is recorded (line-buffered,
    so a crashed process leaves a readable file).
    """

    def __init__(self, ring_size: int = RING_SIZE,
                 out_path: str | None = None):
        self._lock = threading.Lock()
        self._ring: deque[Span] = deque(maxlen=max(1, ring_size))
        self.out_path = out_path
        self._out = open(out_path, "a", buffering=1) if out_path else None
        self.recorded = 0

    # ------------------------------------------------------------------
    def record_span(self, name: str, *, trace: TraceContext,
                    start: float, end: float,
                    parent_id: str | None = None,
                    span_id: str | None = None, **attrs) -> Span:
        """Record a finished segment of *trace*; returns the new span."""
        span = Span(
            trace_id=trace.trace_id,
            span_id=span_id if span_id is not None else new_span_id(),
            name=name, start=start, end=end, parent_id=parent_id,
            attrs=attrs,
        )
        self.record(span)
        return span

    def record(self, span: Span) -> None:
        with self._lock:
            self._ring.append(span)
            self.recorded += 1
            if self._out is not None:
                self._out.write(json.dumps(span.as_dict(),
                                           separators=(",", ":")) + "\n")

    def ingest(self, records: Iterable[dict]) -> int:
        """Record span dicts produced elsewhere (worker processes)."""
        count = 0
        for record in records:
            try:
                span = Span.from_dict(record)
            except (KeyError, TypeError, ValueError):
                continue  # a malformed remote span must not kill dispatch
            self.record(span)
            count += 1
        return count

    @contextlib.contextmanager
    def span(self, name: str, trace: TraceContext | None = None,
             **attrs) -> Iterator[TraceContext]:
        """Time the enclosed block as a child span and propagate context.

        Without an explicit *trace* (and no ambient one), a fresh root
        trace is started; the block runs with a child context installed,
        so nested :meth:`span` calls parent correctly.
        """
        parent = trace if trace is not None else current_trace()
        ctx = parent.child() if parent is not None else start_trace()
        # One wall-clock read anchors the span on the timeline; the
        # duration comes from the monotonic clock, so a wall step (NTP)
        # inside the block cannot yield a negative or inflated span.
        started = time.time()
        started_mono = time.perf_counter()
        with use_trace(ctx):
            yield ctx
        self.record_span(
            name, trace=ctx, start=started,
            end=started + (time.perf_counter() - started_mono),
            parent_id=parent.span_id if parent is not None else None,
            span_id=ctx.span_id, **attrs)

    # ------------------------------------------------------------------
    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._ring)

    def traces(self) -> dict[str, list[Span]]:
        """Ring contents grouped by trace id, spans in start order."""
        grouped: dict[str, list[Span]] = {}
        for span in self.spans():
            grouped.setdefault(span.trace_id, []).append(span)
        for spans in grouped.values():
            spans.sort(key=lambda span: span.start)
        return grouped

    def close(self) -> None:
        with self._lock:
            if self._out is not None:
                self._out.close()
                self._out = None


class StageAggregator:
    """Adapt the ``HashContext.tracer`` hook into per-stage profiles.

    The SPHINCS+ components report each structural hop through
    ``tracer.record(stage, label, value)`` (stages: ``prepare``,
    ``fors``, ``wots``, ``merkle``, ``hypertree``).  This sink
    attributes the wall time and hash-compression calls *since the
    previous hop* to the reported stage — turning the oracle's
    divergence hook into a per-stage profiler with no new plumbing in
    the signer.  Install on a backend's tappable hash context for the
    duration of one batch (see ``SigningService._dispatch``).
    """

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.stage_seconds: dict[str, float] = {}
        self.stage_hashes: dict[str, int] = {}
        self._last_time = time.perf_counter()
        self._last_calls = ctx.hash_calls

    def record(self, stage: str, label: str, value: bytes) -> None:
        now = time.perf_counter()
        calls = self.ctx.hash_calls
        self.stage_seconds[stage] = (self.stage_seconds.get(stage, 0.0)
                                     + (now - self._last_time))
        self.stage_hashes[stage] = (self.stage_hashes.get(stage, 0)
                                    + (calls - self._last_calls))
        self._last_time = now
        self._last_calls = calls


@contextlib.contextmanager
def tap_stages(backend) -> Iterator[StageAggregator | None]:
    """Install a :class:`StageAggregator` on *backend* for one batch.

    Yields ``None`` when the backend has no tappable hash context (the
    vectorized hot loops and the worker pool sign hook-free) or when a
    tracer is already installed (the conformance oracle owns the hook
    then) — callers fall back to coarse ``stage_seconds`` timings.
    """
    from ..errors import BackendError

    try:
        ctx = backend.hash_context()
    except BackendError:
        yield None
        return
    if ctx.tracer is not None:
        yield None
        return
    aggregator = StageAggregator(ctx)
    was_counting = ctx.counting
    ctx.counting = True
    ctx.tracer = aggregator
    try:
        yield aggregator
    finally:
        ctx.tracer = None
        ctx.counting = was_counting


# ----------------------------------------------------------------------
# Analysis: load a trace export and render the critical path
# ----------------------------------------------------------------------
def load_spans(path: str) -> list[Span]:
    """Read a ``--trace-out`` JSONL export back into spans.

    Tolerates trailing partial lines (a live service may still be
    appending); raises ``OSError`` for an unreadable file and
    ``ValueError`` when nothing in the file parses as a span.
    """
    spans: list[Span] = []
    bad = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                spans.append(Span.from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                bad += 1
    if not spans:
        raise ValueError(
            f"{path}: no spans found"
            + (f" ({bad} unparseable lines)" if bad else "")
        )
    return spans


def trace_breakdowns(spans: Iterable[Span]) -> list[dict]:
    """Per-trace critical-path summaries, slowest first.

    Each entry: ``trace`` (id), ``total_ms`` (root request span), the
    root's attrs (tenant, backend, batch size), and ``stages`` mapping
    each observed stage name to milliseconds.  Traces without a root
    ``request``/``client-request`` span fall back to their overall
    span extent.
    """
    grouped: dict[str, list[Span]] = {}
    for span in spans:
        grouped.setdefault(span.trace_id, []).append(span)
    breakdowns = []
    for trace_id, members in grouped.items():
        root = next((span for span in members
                     if span.name in ("request", "client-request")
                     and span.parent_id is None), None)
        if root is None:
            root = next((span for span in members
                         if span.parent_id is None), None)
        total_ms = (root.duration_ms if root is not None else
                    (max(span.end for span in members)
                     - min(span.start for span in members)) * 1000.0)
        stages: dict[str, float] = {}
        for span in members:
            if root is not None and span.span_id == root.span_id:
                continue
            stages[span.name] = (stages.get(span.name, 0.0)
                                 + span.duration_ms)
        breakdowns.append({
            "trace": trace_id,
            "total_ms": round(total_ms, 3),
            "attrs": dict(root.attrs) if root is not None else {},
            "stages": {name: round(ms, 3)
                       for name, ms in sorted(stages.items())},
            "spans": len(members),
        })
    breakdowns.sort(key=lambda entry: entry["total_ms"], reverse=True)
    return breakdowns


def render_critical_path(spans: Iterable[Span], top: int = 10) -> str:
    """The ``repro trace`` report: slowest requests + stage aggregate."""
    from ..analysis.reporting import format_table

    breakdowns = trace_breakdowns(spans)
    rows = []
    for entry in breakdowns[:top]:
        stages = entry["stages"]
        attrs = entry["attrs"]
        rows.append([
            entry["trace"][:12],
            attrs.get("tenant", "-"),
            attrs.get("backend", "-"),
            attrs.get("batch_size", "-"),
            round(entry["total_ms"], 2),
            *(round(stages.get(name, 0.0), 2) for name in CRITICAL_STAGES),
        ])
    sections = [format_table(
        ["trace", "tenant", "backend", "batch", "total ms",
         *(f"{name} ms" for name in CRITICAL_STAGES)],
        rows,
        title=f"Critical path — slowest {min(top, len(breakdowns))} of "
              f"{len(breakdowns)} traces",
    )]

    totals: dict[str, float] = {}
    grand = 0.0
    for entry in breakdowns:
        grand += entry["total_ms"]
        for name, ms in entry["stages"].items():
            totals[name] = totals.get(name, 0.0) + ms
    if grand > 0:
        sections.append(format_table(
            ["stage", "total ms", "share of request time"],
            [[name, round(ms, 2), f"{100.0 * ms / grand:.1f}%"]
             for name, ms in sorted(totals.items(),
                                    key=lambda item: -item[1])],
            title="Where the time goes (all traces)",
        ))
    return "\n\n".join(sections)
