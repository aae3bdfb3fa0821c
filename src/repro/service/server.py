"""The async signing service and its TCP front end.

:class:`SigningService` is the in-process API: ``await service.sign(...)``
resolves the request through the keystore, applies admission control,
queues it on the deadline-aware batcher, and returns a
:class:`SignOutcome` once the batch it rode in comes back from a runtime
backend.  :class:`SigningServer` fronts a service with the
newline-delimited JSON protocol over TCP (see :mod:`.protocol`).

Design notes
------------
* **Batches share a key pair.**  Queues are keyed ``(tenant, key)``; the
  dispatch path signs a batch with one ``sign_batch`` call on the cached
  backend for the tenant's parameter set.
* **Signing runs off the event loop.**  ``sign_batch`` is CPU-bound
  Python, so dispatch hands it to the default executor; a single dispatch
  lock serializes batches for in-process backends because their caches
  are not thread-safe and the GIL would serialize the hashing anyway.
  Backends that declare ``concurrent_dispatch`` (the worker pool) skip
  the lock entirely — two ready queues for different tenants sign at the
  same time on different cores.
* **A worker pool scales across cores.**  Construct the service with
  ``workers=N`` and each parameter set's backend is a
  :class:`~repro.runtime.pool.PooledBackend` over one shared, persistent
  :class:`~repro.runtime.pool.WorkerPool`: each key homes on one worker
  (cache affinity), oversized batches split across all of them, and a
  crashed worker is respawned with its batches requeued.  Every tier
  signs a batch through the same single ``sign_batch`` call.
* **Admission control sheds early.**  If queued depth has reached
  ``max_pending``, :meth:`SigningService.sign` raises
  :class:`OverloadedError` *before* queueing — the client gets an
  explicit load-shed response instead of a silently growing tail.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass

from ..errors import (FrameTooLargeError, KeystoreError, OverloadedError,
                      ProtocolError, ServiceError)
from ..obs.log import get_logger
from ..obs.trace import (TraceContext, Tracer, current_trace, new_span_id,
                         new_trace_id, stage_timeline, tap_stages,
                         use_trace)
from ..runtime.backend import SigningBackend
from ..runtime.pool import PooledBackend, WorkerPool, merge_cache_stats
from ..runtime.registry import get_backend
from ..sphincs.signer import KeyPair, Sphincs
from . import protocol
from .batcher import DeadlineBatcher, PendingSign, QueueKey
from .keystore import Keystore
from .telemetry import Telemetry, render_snapshot
from .verbs import (ConnectionState, VerbRegistry, default_registry,
                    error_body, serve_frame)

__all__ = ["SignOutcome", "SigningService", "SigningServer"]

_log = get_logger("service")


@dataclass(frozen=True)
class SignOutcome:
    """What an in-process caller gets back for one signed request."""

    signature: bytes
    tenant: str
    key_name: str
    params: str
    backend: str
    batch_size: int
    wait_ms: float   # enqueue -> batch dispatch started
    total_ms: float  # enqueue -> signature available


class SigningService:
    """Deadline-batched, multi-tenant signing over the runtime backends."""

    def __init__(self, keystore: Keystore | None = None,
                 backend: str = "vectorized",
                 target_batch_size: int = 16,
                 max_wait_s: float = 0.1,
                 max_pending: int = 256,
                 deterministic: bool = False,
                 backend_options: dict[str, dict] | None = None,
                 telemetry: Telemetry | None = None,
                 workers: int = 0,
                 pool: WorkerPool | None = None,
                 cache_budget_mb: float | None = None,
                 tracer: Tracer | None = None):
        if max_pending < 1:
            raise ServiceError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if workers < 0:
            raise ServiceError(f"workers must be >= 0, got {workers}")
        if backend == "pooled":
            raise ServiceError(
                "the service's worker tier is spelled workers=N (with an "
                "in-process backend such as 'vectorized' for the workers "
                "to host), not backend='pooled'")
        self.keystore = keystore if keystore is not None else Keystore()
        self.backend_name = backend
        self.max_pending = max_pending
        self.deterministic = deterministic
        self.backend_options = backend_options or {}
        self.cache_budget_mb = cache_budget_mb
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        #: The unified metrics registry every tier's counters land in —
        #: the ``metrics`` verb and the Prometheus endpoint read it.
        self.metrics_registry = self.telemetry.registry
        #: Optional span sink; ``None`` keeps every sign path hook-free.
        self.tracer = tracer
        self.batcher = DeadlineBatcher(
            self._dispatch, target_batch_size=target_batch_size,
            max_wait_s=max_wait_s,
        )
        self._backends: dict[str, SigningBackend] = {}
        self._sign_lock = asyncio.Lock()
        # Multi-core tier: with workers > 0 (or an externally owned pool),
        # every parameter set signs through a PooledBackend over this one
        # pool of long-lived worker processes.
        self._owns_pool = pool is None and workers > 0
        self.pool = pool if pool is not None else (
            WorkerPool(workers=workers, backend=backend,
                       deterministic=deterministic,
                       backend_options=self.backend_options.get(backend, {}),
                       cache_budget_mb=cache_budget_mb)
            if workers > 0 else None)
        #: Outcome label for the worker tier (``pooled[N]``); in-process
        #: batches carry the backend's own name.
        self._backend_label = (f"pooled[{self.pool.workers}]"
                               if self.pool is not None else None)
        # (tenant, key) -> {"slot", "batches", "messages"}: where each
        # queue's traffic homes on the pool (the ``pool.routes`` stats).
        self._routes: dict[tuple[str, str], dict] = {}
        if self.pool is not None:
            self.telemetry.set_pool_provider(self._pool_snapshot)
            # Prewarm every tenant key on its home worker now, so the
            # first real batch for a tenant skips the cold cache build.
            for params_name in dict.fromkeys(
                    self.keystore.params_for(tenant)
                    for tenant in self.keystore.tenants()):
                self._prewarm_set(self._backend_for(params_name),
                                  params_name)
        self.telemetry.set_cache_provider(self._cache_snapshot)
        # Key rotation / tenant delete must reach every tier's layer
        # cache — a retired key's cached subtrees must never sign again.
        add_listener = getattr(self.keystore, "add_listener", None)
        if add_listener is not None:
            add_listener(self._on_key_event)

    @property
    def _prewarms(self) -> bool:
        """Whether tenant keys are prewarmed: always on the worker tier,
        in-process only when the operator set an explicit cache budget."""
        return self.pool is not None or self.cache_budget_mb is not None

    def _on_key_event(self, event: str, tenant: str,
                      key_name: str | None, old_keys) -> None:
        """Keystore listener: invalidate (and re-prewarm) on key change."""
        _log.info("key-event", change=event, tenant=tenant,
                  key=key_name, invalidated=old_keys is not None)
        if old_keys is not None:
            if self.pool is not None:
                # Every worker, every set: crash recovery may have signed
                # for the key on any slot.
                self.pool.invalidate(old_keys)
            else:
                for backend in self._backends.values():
                    backend.invalidate_key(old_keys)
        if event == "key-rotated" and key_name is not None and self._prewarms:
            keys, params = self.keystore.resolve(tenant, key_name)
            # The worker tier warms the new key on its home worker now;
            # an in-process set with no backend yet prewarms all its keys
            # when its first batch creates one.
            backend = (self._backend_for(params) if self.pool is not None
                       else self._backends.get(params))
            if backend is not None:
                backend.prewarm_key(keys)

    def _pool_snapshot(self) -> dict:
        """Pool health plus the ``tenant/key`` -> home slot route table."""
        snapshot = self.pool.stats()
        snapshot["routes"] = {
            f"{tenant}/{key_name}": dict(entry)
            for (tenant, key_name), entry in sorted(self._routes.items())
        }
        return snapshot

    def _record_route(self, tenant: str, key_name: str, keys: KeyPair,
                      messages: int) -> None:
        entry = self._routes.setdefault(
            (tenant, key_name), {"slot": 0, "batches": 0, "messages": 0})
        entry["slot"] = self.pool.worker_for(PooledBackend.shard_key(keys))
        entry["batches"] += 1
        entry["messages"] += messages

    def _cache_snapshot(self) -> dict:
        """Layer-cache stats across tiers (the snapshot's ``cache``
        section): one scope per in-process backend, or one merged scope
        for the worker pool's latest per-worker reports."""
        scopes: dict[str, dict] = {}
        if self.pool is None:
            for params_name, backend in sorted(self._backends.items()):
                stats = backend.cache_stats()
                if stats:
                    scopes[f"in-process {params_name}"] = stats
        else:
            totals = merge_cache_stats(
                worker.cache for worker in self.pool.stats_by_worker)
            if totals:
                scopes["workers"] = totals
        if not scopes:
            return {}
        snapshot: dict = {"scopes": scopes}
        if self.cache_budget_mb is not None:
            snapshot["budget_mb"] = self.cache_budget_mb
        return snapshot

    # ------------------------------------------------------------------
    # In-process client API
    # ------------------------------------------------------------------
    async def sign(self, message: bytes, tenant: str,
                   key_name: str = "default",
                   deadline_ms: float | None = None) -> SignOutcome:
        """Sign *message* under the tenant's named key.

        ``deadline_ms`` is the request's *queue-wait* budget: the longest
        it may wait for its batch to fill before dispatch is forced.  It
        does not bound signing time itself.  Raises
        :class:`KeystoreError` for unknown tenants/keys and
        :class:`OverloadedError` when the service sheds the request.
        """
        self.keystore.resolve(tenant, key_name)  # fail fast, before queueing
        admit = getattr(self.keystore, "admit", None)
        if admit is not None and not admit(tenant):
            self.telemetry.record_shed(tenant)
            _log.warn("request-rate-limited", tenant=tenant)
            raise OverloadedError(
                f"tenant {tenant!r} exhausted its admission rate-limit "
                "budget; request shed"
            )
        # Dispatched-but-unsigned requests (batcher.in_flight) still hold
        # capacity: batches serialize behind the sign lock, so sustained
        # overload must shed instead of piling batches up there.
        depth = self.batcher.pending + self.batcher.in_flight
        if depth >= self.max_pending:
            self.telemetry.record_shed(tenant)
            _log.warn("request-shed", tenant=tenant, depth=depth,
                      max_pending=self.max_pending)
            raise OverloadedError(
                f"queue depth {depth} at watermark {self.max_pending}; "
                "request shed"
            )
        self.telemetry.record_submitted(tenant)
        self.telemetry.observe_depth(depth + 1)
        budget_s = None if deadline_ms is None else deadline_ms / 1000.0
        trace = None
        submitted_wall = submitted_mono = 0.0
        if self.tracer is not None:
            # Root span of this request's trace.  The trace id comes from
            # the caller's ambient context (the TCP verb layer installs
            # the client-sent id there); without one, a fresh trace
            # starts here.  The context rides the PendingSign as data —
            # the batcher's timer-fired dispatch runs in a fresh context.
            incoming = current_trace()
            trace = TraceContext(
                incoming.trace_id if incoming is not None
                else new_trace_id(),
                new_span_id())
            # Wall clock anchors the span on the timeline once; the
            # duration comes from the monotonic clock so an NTP step
            # mid-request cannot yield a negative or inflated span.
            submitted_wall = time.time()
            submitted_mono = time.perf_counter()
        outcome = await self.batcher.submit(tenant, key_name, message,
                                            budget_s=budget_s, trace=trace)
        if trace is not None:
            self.tracer.record_span(
                "request", trace=trace, span_id=trace.span_id,
                start=submitted_wall,
                end=submitted_wall + (time.perf_counter() - submitted_mono),
                tenant=tenant, key=key_name, backend=outcome.backend,
                batch_size=outcome.batch_size)
        return outcome

    async def verify(self, message: bytes, signature: bytes, tenant: str,
                     key_name: str = "default") -> tuple[bool, str]:
        """Verify *signature* over *message* under the tenant's named key.

        Returns ``(valid, canonical params name)``.  Verification never
        raises on a bad signature — ``valid`` is simply ``False`` — but
        unknown tenants/keys raise :class:`KeystoreError` exactly like
        :meth:`sign`.  The hash walk is CPU-bound, so it runs on the
        default executor; a fresh scheme per call keeps concurrent
        verifications independent of the signing backends' caches.
        """
        keys, params_name = self.keystore.resolve(tenant, key_name)
        scheme = Sphincs(params_name)
        loop = asyncio.get_running_loop()
        valid = await loop.run_in_executor(
            None, scheme.verify, message, signature, keys.public)
        return valid, params_name

    async def drain(self) -> None:
        """Dispatch and await everything still queued (shutdown path)."""
        await self.batcher.flush()

    def close(self) -> None:
        """Stop the batcher and every backend (and pool) this service
        created; an externally supplied pool stays with its owner."""
        self.batcher.close()
        for backend in self._backends.values():
            close = getattr(backend, "close", None)
            if close is not None:
                close()
        if self.pool is not None and self._owns_pool:
            self.pool.close()

    # ------------------------------------------------------------------
    # Dispatch (called by the batcher)
    # ------------------------------------------------------------------
    #: Backends whose constructor takes the shared ``cache_budget_mb``
    #: knob (the modeled backend has no layer cache to size).
    _CACHE_AWARE = ("scalar", "vectorized")

    def _new_backend(self, params_name: str) -> SigningBackend:
        if self.pool is not None:
            return PooledBackend(params_name,
                                 deterministic=self.deterministic,
                                 pool=self.pool)
        options = dict(self.backend_options.get(self.backend_name, {}))
        if (self.cache_budget_mb is not None
                and self.backend_name in self._CACHE_AWARE):
            options.setdefault("cache_budget_mb", self.cache_budget_mb)
        return get_backend(self.backend_name, params_name,
                           deterministic=self.deterministic, **options)

    def _backend_for(self, params_name: str) -> SigningBackend:
        instance = self._backends.get(params_name)
        if instance is None:
            instance = self._backends[params_name] = \
                self._new_backend(params_name)
            if self.pool is None and self.cache_budget_mb is not None:
                # Explicit budget = the operator opted into warm caches.
                # (The worker tier prewarms at construction and on key
                # rotation only.)
                self._prewarm_set(instance, params_name)
        return instance

    def _prewarm_set(self, backend: SigningBackend, params_name: str) -> None:
        """Prewarm every tenant key on *params_name* so the first batch
        already runs the fast path."""
        for tenant in self.keystore.tenants():
            if self.keystore.params_for(tenant) != params_name:
                continue
            for key_name in self.keystore.key_names(tenant):
                keys, _ = self.keystore.resolve(tenant, key_name)
                backend.prewarm_key(keys)

    async def _dispatch(self, queue_key: QueueKey,
                        batch: list[PendingSign]) -> None:
        tenant, key_name = queue_key
        loop = asyncio.get_running_loop()
        # Requests carrying a trace context (tracer installed at submit
        # time).  One dispatch span id per traced request, allocated up
        # front so worker-side spans can parent to the first one.
        traced = ([request for request in batch
                   if request.trace is not None]
                  if self.tracer is not None else [])
        dispatch_ids = [new_span_id() for _ in traced]
        stage_seconds: dict[str, float] = {}
        stage_hashes: dict[str, int] | None = None
        try:
            keys, params_name = self.keystore.resolve(tenant, key_name)
            messages = [request.message for request in batch]
            backend = self._backend_for(params_name)
            # Worker-side spans (the pooled backend) parent to the first
            # traced request's dispatch span.
            worker_trace = (TraceContext(traced[0].trace.trace_id,
                                         dispatch_ids[0])
                            if traced else None)

            def sign_batch():
                with use_trace(worker_trace):
                    return backend.sign_batch(messages, keys)

            # Concurrent-dispatch backends (the pooled one) skip the
            # lock: batches for different keys sign at the same time on
            # different worker processes.  The batcher fires each ready
            # queue as its own task, so nothing here awaits a *previous*
            # batch before this one starts.
            guard = (contextlib.nullcontext()
                     if backend.concurrent_dispatch
                     else self._sign_lock)
            async with guard:
                dispatch_started = loop.time()
                # Spans anchor on one wall-clock read; durations come
                # from the monotonic clock so an NTP step mid-batch
                # cannot produce negative or inflated sign spans.
                dispatch_wall = sign_start = time.time()
                dispatch_mono = time.perf_counter()
                # Tap the hash-context hook for a traced batch: adds
                # wots/merkle sub-stage times and per-stage hash counts
                # on backends that expose the hook (the guard lock
                # serializes access to the context).
                with (tap_stages(backend) if traced
                      else contextlib.nullcontext()) as tap:
                    result = await loop.run_in_executor(None, sign_batch)
                sign_end = dispatch_wall + (time.perf_counter()
                                            - dispatch_mono)
            signatures = result.signatures
            backend_name = self._backend_label or result.backend
            if traced:
                stage_seconds = dict(result.stage_seconds)
                if tap is not None:
                    stage_hashes = dict(tap.stage_hashes)
                    for stage, seconds in tap.stage_seconds.items():
                        stage_seconds.setdefault(stage, seconds)
                if result.spans:
                    # Worker + worker-stage spans, already carrying the
                    # first traced request's ids.
                    self.tracer.ingest(result.spans)
            if len(signatures) != len(batch):
                raise ServiceError(
                    f"backend {self.backend_name!r} returned "
                    f"{len(signatures)} signatures for "
                    f"{len(batch)} messages"
                )
        except Exception as exc:
            self.telemetry.record_failed(tenant, len(batch))
            _log.error("batch-failed", tenant=tenant, key=key_name,
                       batch=len(batch),
                       error=f"{type(exc).__name__}: {exc}")
            raise  # the batcher forwards this to every future in the batch
        done = loop.time()
        if self.pool is not None:
            self._record_route(tenant, key_name, keys, len(batch))
        if traced:
            done_wall = dispatch_wall + (time.perf_counter()
                                         - dispatch_mono)
            self._emit_spans(traced, dispatch_ids, backend_name,
                             len(batch), dispatch_wall, done_wall,
                             sign_start, sign_end, stage_seconds,
                             stage_hashes)
        self.telemetry.record_batch(len(batch))
        for request, signature in zip(batch, signatures):
            wait_ms = (dispatch_started - request.enqueued_at) * 1000.0
            total_ms = (done - request.enqueued_at) * 1000.0
            self.telemetry.record_signed(tenant, total_ms, wait_ms)
            if not request.future.done():
                request.future.set_result(SignOutcome(
                    signature=signature, tenant=tenant, key_name=key_name,
                    params=params_name, backend=backend_name,
                    batch_size=len(batch), wait_ms=round(wait_ms, 3),
                    total_ms=round(total_ms, 3),
                ))

    def _emit_spans(self, traced: list[PendingSign],
                    dispatch_ids: list[str], backend_name: str,
                    batch_size: int, dispatch_wall: float,
                    done_wall: float, sign_start: float, sign_end: float,
                    stage_seconds: dict[str, float],
                    stage_hashes: dict[str, int] | None) -> None:
        """Per-request queue/dispatch/sign (+ signer stage) spans.

        Every traced request in the batch gets the full breakdown — a
        batch amortizes one backend call over its requests, so the stage
        timings legitimately describe each request's critical path.
        """
        tracer = self.tracer
        for request, dispatch_id in zip(traced, dispatch_ids):
            trace = request.trace
            tracer.record_span(
                "queue", trace=trace, parent_id=trace.span_id,
                start=request.enqueued_wall, end=dispatch_wall,
                batch_size=batch_size)
            tracer.record_span(
                "dispatch", trace=trace, span_id=dispatch_id,
                parent_id=trace.span_id, start=dispatch_wall,
                end=done_wall, backend=backend_name,
                batch_size=batch_size)
            sign_id = new_span_id()
            tracer.record_span(
                "sign", trace=trace, span_id=sign_id,
                parent_id=dispatch_id, start=sign_start, end=sign_end)
            for stage, start, end in stage_timeline(stage_seconds,
                                                    sign_start):
                attrs = {}
                if stage_hashes and stage in stage_hashes:
                    attrs["hashes"] = stage_hashes[stage]
                tracer.record_span(stage, trace=trace, parent_id=sign_id,
                                   start=start, end=end, **attrs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Telemetry snapshot plus live queue depth and configuration."""
        snapshot = self.telemetry.snapshot()
        snapshot["queue"]["depth"] = (self.batcher.pending
                                      + self.batcher.in_flight)
        snapshot["config"] = {
            "backend": self.backend_name,
            "workers": self.pool.workers if self.pool is not None else 0,
            "target_batch_size": self.batcher.target_batch_size,
            "max_wait_ms": round(self.batcher.max_wait_s * 1000.0, 3),
            "max_pending": self.max_pending,
            "cache_budget_mb": self.cache_budget_mb,
            "tenants": {name: self.keystore.params_for(name)
                        for name in self.keystore.tenants()},
        }
        return snapshot

    def report(self, title: str = "Signing service telemetry") -> str:
        return render_snapshot(self.stats(), title=title)


class SigningServer:
    """Serve a :class:`SigningService` over TCP — JSON lines or frames.

    Requests dispatch through a :class:`~.verbs.VerbRegistry` — a handler
    table with per-verb schema validation and version gating.  Every
    connection starts at protocol v1 (``sign`` / ``stats`` / ``ping``
    served unchanged, no handshake required) and upgrades by sending
    ``hello``: v2 unlocks ``verify``, ``sign-many``, and ``keys`` over
    the same JSON lines, while a v3 hello flips the connection to binary
    frames (see :mod:`.protocol`) — the hello response is still a JSON
    line, and everything after it on the socket is framed in both
    directions, with ``sign-many`` results streamed per item.
    """

    def __init__(self, service: SigningService,
                 host: str = "127.0.0.1", port: int = 0,
                 registry: VerbRegistry | None = None):
        self.service = service
        self.host = host
        self.port = port
        self.registry = registry if registry is not None else \
            default_registry()
        self._server: asyncio.base_events.Server | None = None
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    def capabilities(self, version: int = protocol.PROTOCOL_VERSION) -> dict:
        """The ``hello`` capability payload at *version*."""
        from .. import __version__

        service = self.service
        return {
            "version": version,
            "server": f"repro/{__version__}",
            "verbs": list(self.registry.names(version)),
            # v3 streams sign-many results per item, so only the request
            # frame bounds the count — the cap rises with the version.
            "max_batch": (protocol.MAX_SIGN_MANY_V3 if version >= 3
                          else protocol.MAX_SIGN_MANY),
            "backend": service.backend_name,
            "workers": (service.pool.workers
                        if service.pool is not None else 0),
            "parameter_sets": sorted({service.keystore.params_for(name)
                                      for name in service.keystore.tenants()}),
            # Capability flag: clients may attach a ``trace`` id to sign
            # requests; spans are only recorded when a tracer is wired.
            "trace": service.tracer is not None,
        }

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=protocol.LINE_LIMIT,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        _log.info("server-started", host=self.host, port=self.port,
                  backend=self.service.backend_name)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Drain queued work, then close the listener and connections."""
        _log.info("server-stopping", port=self.port)
        await self.service.drain()
        self.service.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Close transports (not cancel) so handlers see EOF and exit their
        # loops normally — cancelling them trips asyncio's stream callback.
        for writer in list(self._connections.values()):
            writer.close()
        if self._connections:
            await asyncio.gather(*list(self._connections),
                                 return_exceptions=True)

    async def abort(self) -> None:
        """Kill the server *without* draining — simulates a node crash.

        Connections are torn down at the transport layer (peers see a
        reset, not a clean EOF) and queued work is abandoned.  Chaos and
        failover tests use this to exercise the cluster router's
        re-homing path; production shutdown goes through :meth:`stop`.
        """
        _log.warn("server-aborted", port=self.port)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._connections.values()):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        if self._connections:
            await asyncio.gather(*list(self._connections),
                                 return_exceptions=True)
        self.service.close()

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        loop = asyncio.get_running_loop()
        conn = ConnectionState()
        connection = asyncio.current_task()
        if connection is not None:
            self._connections[connection] = writer
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(writer, write_lock, {
                        "ok": False, "error": protocol.ERROR_PROTOCOL,
                        "detail": "line too long",
                    })
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                request = None
                try:
                    request = protocol.decode(line)
                except ProtocolError:
                    pass  # the serve task reports the typed decode error
                if request is not None and request.get("op") == "hello":
                    # hello is served inline, not as a task: a v3 grant
                    # flips this connection to binary frames, and the
                    # switch must land before the next read — the client
                    # sends its first frame right after the hello line.
                    await self._serve_decoded(request, writer, write_lock,
                                              conn)
                    if conn.version >= 3:
                        await self._serve_frames(reader, writer,
                                                 write_lock, conn, tasks)
                        break
                    continue
                # Each request runs as its own task so a client can
                # pipeline: a slow sign never blocks a ping or stats.
                task = loop.create_task(
                    self._serve_line(line, writer, write_lock, conn)
                    if request is None else
                    self._serve_decoded(request, writer, write_lock, conn))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if connection is not None:
                self._connections.pop(connection, None)
            if tasks:
                await asyncio.gather(*list(tasks), return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_frames(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter,
                            write_lock: asyncio.Lock, conn: ConnectionState,
                            tasks: set[asyncio.Task]) -> None:
        """The v3 read loop: binary frames from the hello onward."""
        loop = asyncio.get_running_loop()

        async def send(data: bytes) -> None:
            await self._send_raw(writer, write_lock, data)

        while True:
            try:
                frame = await protocol.read_frame(reader)
            except FrameTooLargeError as exc:
                # The oversized body was never read, so the stream cannot
                # be resynchronized: report on the reserved id 0 (no
                # request maps to it) and close the connection.
                await send(protocol.encode_frame(
                    protocol.FRAME_ERROR,
                    protocol.pack_error(protocol.ERROR_PROTOCOL, str(exc))))
                return
            except ProtocolError:
                return  # dropped mid-frame: nobody left to answer
            if frame is None:
                return
            task = loop.create_task(serve_frame(self, conn, frame, send))
            tasks.add(task)
            task.add_done_callback(tasks.discard)

    async def _serve_line(self, line: bytes, writer: asyncio.StreamWriter,
                          write_lock: asyncio.Lock,
                          conn: ConnectionState) -> None:
        try:
            request = protocol.decode(line)
        except ProtocolError as exc:
            await self._send(writer, write_lock, {
                "ok": False, "error": protocol.ERROR_PROTOCOL,
                "detail": str(exc)})
            return
        await self._serve_decoded(request, writer, write_lock, conn)

    async def _serve_decoded(self, request: dict,
                             writer: asyncio.StreamWriter,
                             write_lock: asyncio.Lock,
                             conn: ConnectionState) -> None:
        request_id = request.get("id")
        try:
            response = await self._serve_request(request, conn)
        except Exception as exc:  # noqa: BLE001 — report, don't kill the conn
            code, detail = error_body(exc, conn.version)
            response = {"ok": False, "error": code, "detail": detail}
        if request_id is not None:
            response["id"] = request_id
        await self._send(writer, write_lock, response)

    async def _serve_request(self, request: dict,
                             conn: ConnectionState) -> dict:
        verb, args = self.registry.resolve(request, conn.version)
        return await verb.handler(self, conn, args)

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, write_lock: asyncio.Lock,
                    response: dict) -> None:
        await SigningServer._send_raw(writer, write_lock,
                                      protocol.encode(response))

    @staticmethod
    async def _send_raw(writer: asyncio.StreamWriter,
                        write_lock: asyncio.Lock, data: bytes) -> None:
        try:
            async with write_lock:
                writer.write(data)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to report to
