"""The multi-core execution tier: a persistent pool of signing workers.

The vectorized backend made one batch cheap; this module makes *many
concurrent batches* scale with the machine.  :class:`WorkerPool` keeps N
long-lived worker processes, each hosting a warm
:class:`~repro.runtime.backend.SigningBackend` whose per-key caches
(midstate templates, FastOps, the persistent hypertree layer cache)
survive from batch to batch — the whole point of long-lived workers over
a throwaway ``multiprocessing.Pool``.  Work is routed by a consistent-hash ring so
batches for the same shard key land on the same worker and hit its warm
caches; batches with no affinity go to the least-loaded worker, and very
large batches can be split across every worker.

The pool is crash-tolerant: a worker that dies mid-batch is detected by
the collector thread, its in-flight batches are requeued onto sibling
workers (bounded by ``max_retries``), and the dead slot is respawned so
the pool returns to N workers.  Only when every retry also lands on a
dying worker does the caller see a typed
:class:`~repro.errors.WorkerCrashedError`.  Request and response queues
are both per-worker: no queue is ever shared between worker processes,
so a worker dying mid-``put`` can wedge only its own channel — which
dies with it at respawn — never a sibling's.

:class:`PooledBackend` wraps a pool in the standard
:class:`SigningBackend` interface and registers under the name
``"pooled"``, so the local client, the async service, the differential
oracle, and the CLI route to the multi-core tier like to any other
backend.  Signatures are
byte-identical to the inner backend in deterministic mode — workers run
the same code on the same inputs; the pool only changes *where*.
"""

from __future__ import annotations

import atexit
import bisect
import hashlib
import itertools
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..errors import BackendError, WorkerCrashedError
from ..obs.log import get_logger
from ..obs.trace import current_trace, new_span_id, stage_timeline
from ..params import SphincsParams
from ..sphincs.signer import KeyPair
from .backend import BackendCapabilities, BatchSignResult, SigningBackend

_log = get_logger("pool")

__all__ = ["HashRing", "PoolSignOutcome", "PooledBackend", "WorkerPool",
           "WorkerStats", "merge_cache_stats"]

#: How long the collector blocks on the response queue before scanning
#: worker liveness.  Small enough that a crash is noticed promptly; large
#: enough that an idle pool costs nothing measurable.
_COLLECT_TICK_S = 0.05

#: Exit code workers use for injected crashes (tests, chaos drills), so a
#: drill is distinguishable from a real fault in the logs.
_CRASH_EXIT_CODE = 13

#: Sentinel: "use the pool's configured timeout_s" (``None`` means wait
#: forever, so it cannot double as the default).
_POOL_DEFAULT = object()

#: Layer-cache fields that are per-worker configuration, identical on
#: every worker: merged by max, since summing would multiply them by N.
_CACHE_CONFIG_FIELDS = ("pinned_layers", "budget_bytes")


def merge_cache_stats(snapshots: Iterable[dict]) -> dict[str, int]:
    """Merge per-worker layer-cache snapshots into one pool-wide view:
    counters are summed, configuration fields keep their max."""
    totals: dict[str, int] = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            if key in _CACHE_CONFIG_FIELDS:
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value
    return totals


# ----------------------------------------------------------------------
# Consistent-hash ring
# ----------------------------------------------------------------------
class HashRing:
    """Consistent-hash ring over worker slots.

    Each slot contributes ``replicas`` virtual points; a shard key maps to
    the first point clockwise from its own hash.  Slots are stable across
    respawns (a respawned worker keeps its slot), so a key's affinity
    survives crashes and the mapping never churns under load.
    """

    def __init__(self, slots: int, replicas: int = 64):
        if slots < 1:
            raise BackendError(f"ring needs >= 1 slot, got {slots}")
        self.slots = slots
        points = []
        for slot in range(slots):
            for replica in range(replicas):
                points.append((self._hash(f"slot-{slot}#{replica}"), slot))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [slot for _, slot in points]

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(
            hashlib.sha256(key.encode()).digest()[:8], "big")

    def slot_for(self, shard_key: str) -> int:
        """The worker slot owning *shard_key*."""
        index = bisect.bisect_right(self._points, self._hash(shard_key))
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def preference(self, shard_key: str) -> tuple[int, ...]:
        """Every slot in clockwise ring order from *shard_key*'s point.

        The first entry is :meth:`slot_for`; the rest are the failover
        candidates in the order consistent hashing would visit them if
        earlier owners were removed from the ring.  A caller holding a
        liveness set (the cluster router) takes the first *live* entry,
        so a key re-homes deterministically when its owner goes down and
        returns to its primary the moment the owner comes back.
        """
        start = bisect.bisect_right(self._points, self._hash(shard_key))
        order: list[int] = []
        seen: set[int] = set()
        for offset in range(len(self._owners)):
            slot = self._owners[(start + offset) % len(self._owners)]
            if slot not in seen:
                seen.add(slot)
                order.append(slot)
                if len(order) == self.slots:
                    break
        return tuple(order)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(worker_id: int, backend_name: str, deterministic: bool,
                 backend_options: dict, inbox, outbox) -> None:
    """Worker loop: host warm backends, sign batches, answer control ops.

    Top-level (not a closure) so it pickles under the spawn start method.
    One backend instance per parameter set lives for the worker's whole
    life — its FastOps/subtree caches are the warmth the pool preserves.
    """
    from .registry import get_backend  # after fork/spawn, in the child

    backends: dict[str, SigningBackend] = {}
    crash_armed = False

    def backend_for(params_name: str) -> SigningBackend:
        instance = backends.get(params_name)
        if instance is None:
            instance = get_backend(backend_name, params_name,
                                   deterministic=deterministic,
                                   **backend_options)
            backends[params_name] = instance
        return instance

    while True:
        item = inbox.get()
        if item is None:  # shutdown sentinel
            break
        kind = item[0]
        if kind == "ping":
            outbox.put(("pong", worker_id, item[1]))
        elif kind == "warm":
            # Preload a tenant key: build the backend and prewarm its
            # layer cache (pinned subtrees + link signatures) so the
            # first real batch skips the cold start.
            _, params_name, key_fields = item
            try:
                backend = backend_for(params_name)
                backend.prewarm_key(KeyPair(*key_fields))
                outbox.put(("warmed", worker_id, params_name,
                            dict(backend.cache_stats())))
            except Exception as exc:  # noqa: BLE001 — report, stay alive
                outbox.put(("warm-error", worker_id,
                            f"{type(exc).__name__}: {exc}"))
        elif kind == "invalidate":
            # Drop cached per-key state (key rotation / tenant delete).
            # key_fields None means "everything for every parameter set".
            _, params_name, key_fields = item
            targets = ([backends[params_name]]
                       if params_name is not None and params_name in backends
                       else list(backends.values()))
            for backend in targets:
                if key_fields is None:
                    backend.invalidate_all()
                else:
                    backend.invalidate_key(KeyPair(*key_fields))
            outbox.put(("invalidated", worker_id))
        elif kind == "crash":
            # Fault-injection hook (tests, chaos drills): die now, or on
            # receipt of the next sign job — i.e. mid-batch.
            if item[1] == "now":
                os._exit(_CRASH_EXIT_CODE)
            crash_armed = True
        elif kind == "sign":
            _, job_id, params_name, key_fields, messages = item[:5]
            trace = item[5] if len(item) > 5 else None
            if crash_armed:
                os._exit(_CRASH_EXIT_CODE)
            started = time.perf_counter()
            started_wall = time.time()
            try:
                backend = backend_for(params_name)
                result = backend.sign_batch(messages, KeyPair(*key_fields))
                busy_s = time.perf_counter() - started
                spans = (_worker_spans(worker_id, trace, started_wall,
                                       busy_s, result)
                         if trace is not None else ())
                outbox.put(("result", worker_id, job_id, result.signatures,
                            busy_s, dict(result.cache_stats), spans))
            except Exception as exc:  # noqa: BLE001 — typed error, not a crash
                outbox.put(("error", worker_id, job_id,
                            f"{type(exc).__name__}: {exc}",
                            time.perf_counter() - started))


def _worker_spans(worker_id: int, trace: tuple, started_wall: float,
                  busy_s: float, result: BatchSignResult) -> list[dict]:
    """Span dicts for one worker-side batch, serialized for the parent.

    *trace* is the ``(trace_id, parent span id)`` pair the caller put
    on the sign message.  Stage sub-spans are laid out from the batch
    start with :func:`~repro.obs.trace.stage_timeline`.
    """
    trace_id, parent = trace
    worker_span = new_span_id()
    spans = [{
        "trace": trace_id, "span": worker_span, "parent": parent,
        "name": "worker", "start": started_wall,
        "end": started_wall + busy_s,
        "attrs": {"worker": worker_id, "backend": result.backend,
                  "batch_size": result.count},
    }]
    for stage, start, end in stage_timeline(result.stage_seconds,
                                            started_wall):
        spans.append({
            "trace": trace_id, "span": new_span_id(),
            "parent": worker_span, "name": stage,
            "start": start, "end": end,
            "attrs": {"worker": worker_id},
        })
    return spans


# ----------------------------------------------------------------------
# Parent-side bookkeeping
# ----------------------------------------------------------------------
@dataclass
class WorkerStats:
    """Parent-side accounting for one worker slot."""

    dispatched: int = 0   # sign jobs handed to this slot
    completed: int = 0    # sign jobs whose result came back
    failed: int = 0       # sign jobs that returned a typed error
    signed: int = 0       # messages signed
    busy_s: float = 0.0   # worker-reported signing time
    warms: int = 0
    warm_errors: int = 0
    last_warm_error: str = ""
    requeues: int = 0     # jobs moved OFF this slot after it died
    respawns: int = 0     # times this slot was restarted
    last_seen: float = 0.0  # monotonic time of the last message
    #: Latest layer-cache snapshot the worker reported (cumulative
    #: gauges, not per-batch deltas — always replaced, never summed).
    cache: dict = field(default_factory=dict)

    @property
    def in_flight(self) -> int:
        return self.dispatched - self.completed - self.failed


@dataclass
class _Job:
    """One submitted batch, tracked until its response arrives."""

    job_id: int
    params_name: str
    key_fields: tuple
    messages: list[bytes]
    slot: int
    retries: int = 0
    enqueued_at: float = field(default_factory=time.monotonic)
    #: ``(trace id, parent span id)`` riding to the worker, or None.
    trace: tuple | None = None


@dataclass(frozen=True)
class PoolSignOutcome:
    """What the pool hands back for one (possibly split) signed batch."""

    signatures: list[bytes]
    workers: tuple[int, ...]
    elapsed_s: float
    busy_s: float      # sum of worker-side signing time across shards
    requeues: int      # crash-recovery requeues this batch survived
    cache_stats: dict[str, int]
    #: ``time.monotonic()`` at collection — pair with a timestamp taken
    #: before submit for true per-batch latency regardless of the order
    #: results are picked up in (0.0 for empty batches).
    done_at: float = 0.0
    #: Worker-emitted span dicts (non-empty only for traced batches);
    #: the caller ingests them into its Tracer.
    spans: tuple = ()


class WorkerPool:
    """N long-lived signing processes behind sharded request queues.

    Parameters
    ----------
    workers:
        Pool size.  Each worker is one OS process hosting one warm
        backend per parameter set it has served.
    backend:
        Inner backend name each worker hosts (default ``vectorized``).
    backend_options:
        Constructor kwargs for the inner backend.
    max_retries:
        How many times a batch stranded by a dying worker is requeued
        onto a sibling before the caller gets
        :class:`~repro.errors.WorkerCrashedError`.
    replicas:
        Virtual points per slot on the consistent-hash ring.
    timeout_s:
        Default wait bound for :meth:`result` / :meth:`sign_batch`
        (per-call ``timeout`` overrides it; ``None`` waits forever).
        Sized for the slowest legitimate batch, not for crash detection —
        crashes surface in milliseconds via the collector.
    cache_budget_mb:
        Per-key layer-cache budget each worker's inner backend gets
        (merged into ``backend_options``; an explicit
        ``backend_options["cache_budget_mb"]`` wins).
    """

    def __init__(self, workers: int = 2, backend: str = "vectorized",
                 deterministic: bool = False,
                 backend_options: dict | None = None,
                 max_retries: int = 2, replicas: int = 64,
                 timeout_s: float | None = 600.0,
                 cache_budget_mb: float | None = None):
        if workers < 1:
            raise BackendError(f"workers must be >= 1, got {workers}")
        if max_retries < 0:
            raise BackendError(f"max_retries must be >= 0, got {max_retries}")
        if timeout_s is not None and timeout_s <= 0:
            raise BackendError(f"timeout_s must be > 0, got {timeout_s}")
        if backend == "pooled":
            raise BackendError(
                "a worker pool cannot host the 'pooled' backend (that "
                "nests a pool of pools); name an in-process backend "
                "such as 'vectorized'")
        import multiprocessing

        # fork over spawn/forkserver: workers inherit the warm parent
        # interpreter (no re-import, REPL/stdin-safe, same trade the
        # vectorized shard pool makes).  Respawns fork from a process
        # that has the collector thread running — safe here because the
        # children touch no parent locks: each queue pair is exclusive
        # to one worker, and the inner backend's import is resolved in
        # the parent below so a forked child never enters the import
        # machinery (the classic fork-with-threads deadlock).  Python
        # 3.12+ still warns about fork-from-threads on respawn; that is
        # the documented cost of crash recovery on the fork path.
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork
            self._mp = multiprocessing.get_context("spawn")
        from .registry import _resolve

        _resolve(backend)  # import the inner backend before any fork
        self.workers = workers
        self.backend_name = backend
        self.deterministic = deterministic
        self.backend_options = dict(backend_options or {})
        if cache_budget_mb is not None:
            self.backend_options.setdefault("cache_budget_mb",
                                            cache_budget_mb)
        self.max_retries = max_retries
        self.timeout_s = timeout_s
        self.ring = HashRing(workers, replicas=replicas)
        self.started_at = time.monotonic()

        self._inboxes: list = [None] * workers
        self._outboxes: list = [None] * workers
        self._procs: list = [None] * workers
        self.stats_by_worker = [WorkerStats() for _ in range(workers)]
        self._job_ids = itertools.count()
        self._cond = threading.Condition()
        self._jobs: dict[int, _Job] = {}           # in flight, by job id
        self._results: dict[int, tuple] = {}       # done, awaiting pickup
        self._pongs: dict[int, str] = {}           # slot -> last echoed token
        # Jobs whose caller gave up (result() timeout): their eventual
        # result is discarded instead of parking in _results forever.
        self._abandoned: set[int] = set()
        # Keys warmed per slot, replayed after a respawn so a recovered
        # worker comes back with the same prewarmed caches it died with.
        self._warm_by_slot: dict[int, dict[tuple, None]] = {}
        self._closing = False
        for slot in range(workers):
            self._spawn(slot)
        self._collector = threading.Thread(
            target=self._collect_loop, name="pool-collector", daemon=True)
        self._collector.start()
        atexit.register(self.close)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, slot: int) -> None:
        # Queues are installed before start() so that even a failed
        # spawn leaves the slot with live channels — submissions routed
        # there are tracked in _jobs and re-routed by the next recovery
        # tick, they must never hit a closed queue.
        inbox = self._mp.Queue()
        outbox = self._mp.Queue()
        self._inboxes[slot] = inbox
        self._outboxes[slot] = outbox
        proc = self._mp.Process(
            target=_worker_main,
            args=(slot, self.backend_name, self.deterministic,
                  self.backend_options, inbox, outbox),
            name=f"sign-worker-{slot}", daemon=True)
        proc.start()
        self._procs[slot] = proc
        self.stats_by_worker[slot].last_seen = time.monotonic()

    def close(self) -> None:
        """Stop every worker and the collector; idempotent."""
        with self._cond:
            if self._closing:
                return
            self._closing = True
            # Fail anything still in flight rather than blocking forever.
            for job in list(self._jobs.values()):
                self._results[job.job_id] = (
                    "error", None,
                    BackendError("worker pool closed with batches in flight"))
            self._jobs.clear()
            self._cond.notify_all()
        for inbox in self._inboxes:
            try:
                inbox.put(None)
            except (ValueError, OSError):
                pass
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.terminate()
        if self._collector.is_alive():
            self._collector.join(timeout=2.0)
        atexit.unregister(self.close)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Routing and submission
    # ------------------------------------------------------------------
    def worker_for(self, shard_key: str) -> int:
        """Consistent-hash a shard key (e.g. ``tenant/key``) to a slot."""
        return self.ring.slot_for(shard_key)

    def _least_loaded(self) -> int:
        return min(range(self.workers),
                   key=lambda slot: self.stats_by_worker[slot].in_flight)

    def submit(self, messages: Sequence[bytes], keys: KeyPair,
               params: SphincsParams | str, *, worker: int | None = None,
               shard_key: str | None = None,
               trace: tuple | None = None) -> int:
        """Queue one batch; returns a job id for :meth:`result`.

        Routing precedence: explicit ``worker`` slot, then the hash ring
        for ``shard_key`` (cache affinity), then the least-loaded slot.
        """
        params_name = params if isinstance(params, str) else params.name
        if worker is None:
            worker = (self.worker_for(shard_key) if shard_key is not None
                      else self._least_loaded())
        if not 0 <= worker < self.workers:
            raise BackendError(
                f"worker slot {worker} out of range (pool has "
                f"{self.workers})")
        key_fields = (keys.sk_seed, keys.sk_prf, keys.pk_seed, keys.pk_root)
        with self._cond:
            if self._closing:
                raise BackendError("worker pool is closed")
            job = _Job(next(self._job_ids), params_name, key_fields,
                       list(messages), worker, trace=trace)
            self._jobs[job.job_id] = job
            self.stats_by_worker[worker].dispatched += 1
            # Deliver under the lock: _recover() swaps a dead slot's inbox
            # and requeues its jobs under the same lock, so the put can
            # never land on a discarded queue while the job silently
            # moves to a sibling (mp.Queue.put is non-blocking — a feeder
            # thread drains the buffer).
            self._inboxes[worker].put(
                ("sign", job.job_id, params_name, key_fields,
                 job.messages, job.trace))
        return job.job_id

    def result(self, job_id: int, timeout=_POOL_DEFAULT) -> PoolSignOutcome:
        """Block until *job_id*'s batch is signed (or failed) and return it.

        ``timeout`` defaults to the pool's ``timeout_s``; pass ``None``
        to wait forever.  Raises
        :class:`~repro.errors.WorkerCrashedError` when the batch
        exhausted its crash-requeue budget, :class:`BackendError` for
        worker-side signing errors or timeout.
        """
        if timeout is _POOL_DEFAULT:
            timeout = self.timeout_s
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while job_id not in self._results:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    # Abandon the job so its eventual result is discarded
                    # (with counters settled) instead of retained forever.
                    if job_id in self._jobs:
                        self._abandoned.add(job_id)
                    raise BackendError(
                        f"pool job {job_id} timed out after {timeout}s")
                self._cond.wait(timeout=remaining if remaining is None
                                else min(remaining, _COLLECT_TICK_S * 4))
            kind, payload, extra = self._results.pop(job_id)
        if kind == "ok":
            return payload
        raise extra  # WorkerCrashedError or BackendError

    # ------------------------------------------------------------------
    # Convenience: blocking sign with optional cross-worker split
    # ------------------------------------------------------------------
    def sign_batch(self, messages: Sequence[bytes], keys: KeyPair,
                   params: SphincsParams | str, *,
                   worker: int | None = None, shard_key: str | None = None,
                   split: bool = False, trace: tuple | None = None,
                   timeout=_POOL_DEFAULT) -> PoolSignOutcome:
        """Sign *messages*, optionally splitting across every worker.

        With ``split=True`` and at least two messages per worker, the
        batch is chunked across all N slots — per-message signing is
        independent, so the concatenated result is byte-identical to the
        unsplit run while the wall time approaches ``1/N``.
        """
        started = time.perf_counter()
        if not messages:
            return PoolSignOutcome([], (), 0.0, 0.0, 0, {})
        if split and self.workers > 1 and len(messages) >= 2 * self.workers:
            chunk = (len(messages) + self.workers - 1) // self.workers
            jobs = [
                self.submit(messages[i:i + chunk], keys, params,
                            worker=(i // chunk) % self.workers,
                            trace=trace)
                for i in range(0, len(messages), chunk)
            ]
        else:
            jobs = [self.submit(messages, keys, params, worker=worker,
                                shard_key=shard_key, trace=trace)]
        outcomes = [self.result(job_id, timeout=timeout) for job_id in jobs]
        signatures = [sig for outcome in outcomes
                      for sig in outcome.signatures]
        return PoolSignOutcome(
            signatures=signatures,
            workers=tuple(w for outcome in outcomes
                          for w in outcome.workers),
            elapsed_s=time.perf_counter() - started,
            busy_s=sum(outcome.busy_s for outcome in outcomes),
            requeues=sum(outcome.requeues for outcome in outcomes),
            cache_stats=merge_cache_stats(
                outcome.cache_stats for outcome in outcomes),
            done_at=max(outcome.done_at for outcome in outcomes),
            spans=tuple(span for outcome in outcomes
                        for span in outcome.spans),
        )

    # ------------------------------------------------------------------
    # Health, heartbeat, warmth
    # ------------------------------------------------------------------
    def ping(self, timeout: float = 5.0) -> dict[int, bool]:
        """Heartbeat every worker; returns ``{slot: responded}``.

        A slot only counts as responsive when it echoed *this* ping's
        token — unrelated message traffic (results, a fresh respawn) is
        not proof the worker's loop is serving.
        """
        token = f"ping-{time.monotonic()}-{next(self._job_ids)}"
        for inbox in self._inboxes:
            try:
                inbox.put(("ping", token))
            except (ValueError, OSError):
                pass
        deadline = time.monotonic() + timeout

        def answered(slot: int) -> bool:
            return self._pongs.get(slot) == token

        while time.monotonic() < deadline:
            if all(answered(slot) for slot in range(self.workers)):
                break
            time.sleep(_COLLECT_TICK_S)
        return {slot: answered(slot) for slot in range(self.workers)}

    def warm(self, keys: KeyPair, params: SphincsParams | str, *,
             worker: int | None = None, shard_key: str | None = None) -> None:
        """Preload a key's caches on one slot (or its shard owner)."""
        params_name = params if isinstance(params, str) else params.name
        if worker is None:
            worker = (self.worker_for(shard_key) if shard_key is not None
                      else None)
        key_fields = (keys.sk_seed, keys.sk_prf, keys.pk_seed, keys.pk_root)
        targets = ([worker] if worker is not None
                   else list(range(self.workers)))
        # Under _cond so the put cannot race _recover swapping a dead
        # slot's queues (warming is best-effort either way — a respawned
        # worker just pays the cold start on its first batch).
        with self._cond:
            for slot in targets:
                self._warm_by_slot.setdefault(slot, {})[
                    (params_name, key_fields)] = None
                try:
                    self._inboxes[slot].put(("warm", params_name,
                                             key_fields))
                except (ValueError, OSError):
                    pass

    def invalidate(self, keys: KeyPair | None = None,
                   params: SphincsParams | str | None = None) -> None:
        """Drop cached state for *keys* (or everything) on every worker.

        Called on key rotation / tenant delete so no worker keeps signing
        off subtrees of a retired key.  Also forgets the matching warm
        registrations, so a later respawn does not resurrect the cache.
        """
        params_name = (params if isinstance(params, str) or params is None
                       else params.name)
        key_fields = (None if keys is None else
                      (keys.sk_seed, keys.sk_prf, keys.pk_seed,
                       keys.pk_root))
        with self._cond:
            for warmed in self._warm_by_slot.values():
                for entry in list(warmed):
                    if key_fields is None or entry[1] == key_fields:
                        warmed.pop(entry, None)
            for slot in range(self.workers):
                try:
                    self._inboxes[slot].put(("invalidate", params_name,
                                             key_fields))
                except (ValueError, OSError):
                    pass

    def inject_crash(self, worker: int, when: str = "next-job") -> None:
        """Fault-injection hook: kill a worker ``"now"`` or on its next
        sign job (i.e. mid-batch).  For tests and chaos drills — the
        recovery machinery treats the death exactly like a real crash."""
        if when not in ("now", "next-job"):
            raise BackendError(
                f"inject_crash wants 'now' or 'next-job', got {when!r}")
        self._inboxes[worker].put(("crash", when))

    def alive_workers(self) -> int:
        return sum(1 for proc in self._procs
                   if proc is not None and proc.is_alive())

    def stats(self) -> dict:
        """JSON-safe per-worker utilization/queue/requeue snapshot."""
        now = time.monotonic()
        uptime = max(now - self.started_at, 1e-9)
        per_worker = {}
        for slot in range(self.workers):
            stats = self.stats_by_worker[slot]
            proc = self._procs[slot]
            try:
                depth = self._inboxes[slot].qsize()
            except (NotImplementedError, OSError):
                depth = -1  # platform without qsize
            per_worker[str(slot)] = {
                "alive": bool(proc is not None and proc.is_alive()),
                "jobs": stats.completed,
                "signed": stats.signed,
                "failed": stats.failed,
                "busy_s": round(stats.busy_s, 4),
                "utilization": round(stats.busy_s / uptime, 4),
                "queue_depth": depth,
                "in_flight": stats.in_flight,
                "warms": stats.warms,
                "warm_errors": stats.warm_errors,
                "last_warm_error": stats.last_warm_error,
                "requeues": stats.requeues,
                "respawns": stats.respawns,
                "last_seen_s": round(now - stats.last_seen, 3),
                "cache": dict(stats.cache),
            }
        return {
            "workers": self.workers,
            "alive": self.alive_workers(),
            "backend": self.backend_name,
            "uptime_s": round(uptime, 3),
            "requeues": sum(s.requeues for s in self.stats_by_worker),
            "respawns": sum(s.respawns for s in self.stats_by_worker),
            "per_worker": per_worker,
        }

    # ------------------------------------------------------------------
    # Collector thread
    # ------------------------------------------------------------------
    def _drain_outboxes(self) -> int:
        """Pull every ready message off every worker's response queue."""
        drained = 0
        for slot in range(self.workers):
            outbox = self._outboxes[slot]
            if outbox is None:
                continue
            while True:
                try:
                    message = outbox.get_nowait()
                except queue.Empty:
                    break
                except (OSError, ValueError, EOFError):
                    break  # channel torn down (close/respawn race)
                self._handle_message(message)
                drained += 1
        return drained

    def _collect_loop(self) -> None:
        while True:
            if self._closing:
                return
            # The collector is the pool's only recovery mechanism: it
            # must survive anything recovery itself throws (a respawn
            # hitting EAGAIN, a queue racing close()).  An unexpected
            # error fails the in-flight jobs — callers unblock with a
            # typed error instead of hanging — and the loop keeps
            # serving; _check_liveness retries the respawn next tick.
            try:
                if self._drain_outboxes() == 0:
                    self._check_liveness()
                    time.sleep(_COLLECT_TICK_S)
            except Exception as exc:  # noqa: BLE001 — must not die
                if self._closing:
                    return
                _log.error("collector-error",
                           error=f"{type(exc).__name__}: {exc}")
                with self._cond:
                    for job in list(self._jobs.values()):
                        self._jobs.pop(job.job_id)
                        self._results[job.job_id] = ("error", None,
                                                     BackendError(
                            f"pool collector failed while recovering: "
                            f"{type(exc).__name__}: {exc}"))
                    self._cond.notify_all()

    def _discard_if_abandoned(self, job_id: int) -> bool:
        """True when the submitter timed out waiting on *job_id*: the
        slot's counters were credited normally just above, only the
        payload is dropped.  Must hold ``_cond``."""
        if job_id in self._abandoned:
            self._abandoned.discard(job_id)
            return True
        return False

    def _handle_message(self, message: tuple) -> None:
        kind, worker_id = message[0], message[1]
        stats = self.stats_by_worker[worker_id]
        stats.last_seen = time.monotonic()
        if kind == "result":
            _, _, job_id, signatures, busy_s, cache_stats = message[:6]
            spans = message[6] if len(message) > 6 else ()
            with self._cond:
                job = self._jobs.get(job_id)
                if job is None or job.slot != worker_id:
                    # Stale delivery: the job completed elsewhere, or was
                    # requeued off this slot after it died (the dead
                    # slot's dispatch accounting was already released by
                    # _recover) — crediting it here would skew in_flight.
                    return
                self._jobs.pop(job_id)
                stats.completed += 1
                stats.signed += len(signatures)
                stats.busy_s += busy_s
                if cache_stats:
                    stats.cache = dict(cache_stats)
                if self._discard_if_abandoned(job_id):
                    return
                self._results[job_id] = ("ok", PoolSignOutcome(
                    signatures=list(signatures), workers=(worker_id,),
                    elapsed_s=busy_s, busy_s=busy_s,
                    requeues=job.retries, cache_stats=cache_stats,
                    done_at=time.monotonic(), spans=tuple(spans)), None)
                self._cond.notify_all()
        elif kind == "error":
            _, _, job_id, detail, busy_s = message
            with self._cond:
                job = self._jobs.get(job_id)
                if job is None or job.slot != worker_id:
                    return
                self._jobs.pop(job_id)
                stats.failed += 1
                stats.busy_s += busy_s
                if self._discard_if_abandoned(job_id):
                    return
                self._results[job_id] = ("error", None, BackendError(
                    f"worker {worker_id} failed batch: {detail}"))
                self._cond.notify_all()
        elif kind == "warmed":
            stats.warms += 1
            if len(message) > 3 and message[3]:
                stats.cache = dict(message[3])
        elif kind == "invalidated":
            pass  # last_seen refresh above is the useful part
        elif kind == "warm-error":
            # A failed preload is not fatal (the first real batch will
            # surface the same error, typed), but it must be visible:
            # the whole point of warming is avoiding that cold start.
            stats.warm_errors += 1
            stats.last_warm_error = message[2]
        elif kind == "pong":
            self._pongs[worker_id] = message[2]

    def _check_liveness(self) -> None:
        for slot in range(self.workers):
            if self._closing:
                return
            proc = self._procs[slot]
            if proc is None:
                # A previous respawn attempt failed (e.g. fork EAGAIN);
                # keep retrying until the slot is staffed again.
                self._recover(slot, None)
            elif not proc.is_alive():
                self._recover(slot, proc.exitcode)

    def _recover(self, slot: int, exitcode: int | None) -> None:
        """A worker died: respawn its slot and requeue its batches.

        Everything — the inbox swap, the requeues, the re-deliveries —
        happens under ``_cond`` so a concurrent :meth:`submit` can never
        put onto a discarded queue or double-deliver a moved job.  The
        dead worker's inbox may hold undelivered jobs; they are all
        tracked in ``_jobs``, so a fresh queue loses nothing.
        """
        with self._cond:
            # Salvage any responses the dead worker delivered before
            # dying, then discard both of its channels.
            self._drain_outboxes()
            old_channels = (self._inboxes[slot], self._outboxes[slot])
            try:
                self._spawn(slot)
            except Exception:  # noqa: BLE001 — transient (EAGAIN); retried
                # Leave the slot unstaffed; _check_liveness retries next
                # tick.  Its jobs are still requeued onto siblings below.
                self._procs[slot] = None
            else:
                self.stats_by_worker[slot].respawns += 1
                self.stats_by_worker[slot].cache = {}
                _log.warn("worker-respawn", slot=slot, exitcode=exitcode,
                          respawns=self.stats_by_worker[slot].respawns)
                # Replay the slot's warm registrations so the respawned
                # worker rebuilds the prewarmed caches it died with
                # before any requeued/new batch reaches it.
                for params_name, key_fields in self._warm_by_slot.get(
                        slot, {}):
                    try:
                        self._inboxes[slot].put(("warm", params_name,
                                                 key_fields))
                    except (ValueError, OSError):
                        pass
            for channel in old_channels:
                try:
                    channel.cancel_join_thread()
                    channel.close()
                except (OSError, ValueError):
                    pass
            stranded = [job for job in self._jobs.values()
                        if job.slot == slot]
            for job in stranded:
                if job.job_id in self._abandoned:
                    # Its caller already timed out; don't burn a sibling
                    # on work nobody will collect.
                    self._jobs.pop(job.job_id)
                    self._abandoned.discard(job.job_id)
                    self.stats_by_worker[slot].dispatched -= 1
                    continue
                # Prefer a live sibling so a deterministic per-batch crash
                # does not chase the batch onto the freshly respawned slot.
                live = [s for s in range(self.workers)
                        if self._procs[s] is not None]
                targets = ([s for s in live if s != slot]
                           or ([slot] if slot in live else []))
                if not targets:
                    # Nowhere to deliver (respawn failed, no live
                    # sibling): park the job on this slot without
                    # charging a retry — max_retries bounds actual
                    # delivery attempts, not recovery ticks.  The next
                    # successful respawn re-runs this loop and delivers.
                    continue
                # Release the dead slot's in-flight accounting; the job is
                # either re-dispatched (counted on its new slot) or failed.
                self.stats_by_worker[slot].dispatched -= 1
                self.stats_by_worker[slot].requeues += 1
                job.retries += 1
                if job.retries > self.max_retries:
                    self._jobs.pop(job.job_id)
                    _log.error("worker-crash-exhausted", slot=slot,
                               exitcode=exitcode, job=job.job_id,
                               retries=job.retries)
                    self._results[job.job_id] = (
                        "error", None, WorkerCrashedError(
                            f"worker {slot} died (exit {exitcode}) and "
                            f"batch {job.job_id} exhausted its "
                            f"{self.max_retries} requeue(s)"))
                    continue
                job.slot = min(targets, key=lambda s:
                               self.stats_by_worker[s].in_flight)
                self.stats_by_worker[job.slot].dispatched += 1
                self._inboxes[job.slot].put(
                    ("sign", job.job_id, job.params_name,
                     job.key_fields, job.messages, job.trace))
            self._cond.notify_all()


# ----------------------------------------------------------------------
# Backend adapter
# ----------------------------------------------------------------------
class PooledBackend(SigningBackend):
    """The worker pool behind the standard :class:`SigningBackend` API.

    Registered as ``"pooled"``: ``get_backend("pooled", "128f",
    workers=4)`` gives the local client, oracle, and CLI a multi-core
    target with no new wiring, and the async service's ``workers=N``
    tier is one of these per parameter set over its shared pool.  A
    single ``sign_batch`` call is split across every worker once it
    holds at least two messages per worker; smaller batches ride the
    hash ring keyed on the public seed (:meth:`shard_key`), so repeat
    traffic under one key stays on its warm worker.

    A batch signed under an ambient trace context
    (:func:`~repro.obs.trace.current_trace`) carries it to the workers,
    and the worker spans come back on ``BatchSignResult.spans``.

    Parameters
    ----------
    workers / inner / max_retries:
        Pool construction (see :class:`WorkerPool`).  ``inner`` names the
        backend each worker hosts.
    pool:
        Share an existing pool instead of owning a new one (the async
        service does this so every parameter set rides one pool).
    """

    name = "pooled"
    #: Batches from different tenants may sign concurrently — the service
    #: must NOT serialize dispatches behind its single-backend lock.
    concurrent_dispatch = True

    def __init__(self, params: SphincsParams | str,
                 deterministic: bool = False, workers: int = 2,
                 inner: str = "vectorized", max_retries: int = 2,
                 pool: WorkerPool | None = None, **pool_options):
        super().__init__(params, deterministic=deterministic)
        if pool is not None:
            self.pool = pool
            self._owns_pool = False
        else:
            self.pool = WorkerPool(
                workers=workers, backend=inner,
                deterministic=deterministic, max_retries=max_retries,
                **pool_options)
            self._owns_pool = True

    # ------------------------------------------------------------------
    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            kind="cpu",
            vectorized=True,
            deterministic=self.deterministic,
            preferred_batch=64,
            notes=(f"{self.pool.workers}-process worker pool over "
                   f"'{self.pool.backend_name}', consistent-hash sharded, "
                   "crash-recovering"),
        )

    def hash_context(self):
        raise BackendError(
            f"backend {self.name!r} signs in worker processes; a fault "
            "installed on the parent's HashContext would never fire — "
            "install faults on the 'scalar' backend instead"
        )

    # ------------------------------------------------------------------
    @staticmethod
    def shard_key(keys: KeyPair) -> str:
        """The hash-ring key a key pair's batches and prewarms route by."""
        return keys.pk_seed.hex()

    def sign_batch(self, messages: Sequence[bytes],
                   keys: KeyPair) -> BatchSignResult:
        started = time.perf_counter()
        ctx = current_trace()
        outcome = self.pool.sign_batch(
            messages, keys, self.params.name,
            shard_key=self.shard_key(keys), split=True,
            trace=(ctx.trace_id, ctx.span_id) if ctx is not None else None)
        result = self._timed_result(
            list(outcome.signatures), started,
            stage_seconds={"pool": outcome.elapsed_s,
                           "workers_busy": outcome.busy_s},
            spans=outcome.spans,
        )
        result.cache_stats = {
            "workers": len(set(outcome.workers)),
            "requeues": outcome.requeues,
            **outcome.cache_stats,
        }
        return result

    # ------------------------------------------------------------------
    # Layer-cache hooks: forwarded to the workers.
    # ------------------------------------------------------------------
    def prewarm_key(self, keys: KeyPair) -> None:
        """Prewarm *keys* on its shard owner (same routing as signing)."""
        self.pool.warm(keys, self.params.name,
                       shard_key=self.shard_key(keys))

    def invalidate_key(self, keys: KeyPair) -> None:
        self.pool.invalidate(keys, self.params.name)

    def invalidate_all(self) -> None:
        self.pool.invalidate(None, self.params.name)

    def cache_stats(self) -> dict[str, int]:
        """The latest per-worker snapshots, merged pool-wide."""
        return merge_cache_stats(
            stats.cache for stats in self.pool.stats_by_worker)

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._owns_pool:
            self.pool.close()

    def __del__(self) -> None:  # best-effort; close() is the real API
        try:
            self.close()
        except Exception:  # noqa: BLE001 — interpreter may be tearing down
            pass
