"""``repro.service`` — the async signing service tier.

PR 1 made SPHINCS+ batch signing fast as a *library*; this package makes
it a *service*: individual requests arrive concurrently (over TCP or the
in-process API), are grouped by the deadline-aware batcher into the
batches the runtime backends want, and come back with per-request
latency accounting.  The batch-size-vs-tail-latency trade-off the paper
analyzes is the service's central knob (``target_batch_size`` ×
``max_wait_s``).

Module map
----------
:mod:`.keystore`
    Multi-tenant key registry: named keys, one parameter set per tenant,
    atomic on-disk persistence (one JSON file per tenant, fanned into
    256 hash-bucket shard directories), an LRU bound on resident
    tenants, and per-tenant admission rate limiting.
:mod:`.batcher`
    :class:`DeadlineBatcher` — per-(tenant, key) queues dispatched when
    they reach the target batch size *or* the oldest request's latency
    budget expires, whichever comes first.
:mod:`.server`
    :class:`SigningService` (keystore + batcher + admission control +
    telemetry, in-process ``await service.sign(...)`` API) and
    :class:`SigningServer` (the newline-delimited JSON TCP front end).
    With ``workers=N`` every batch signs through a
    :class:`~repro.runtime.pool.PooledBackend` over one shared
    :class:`~repro.runtime.pool.WorkerPool`, which hashes each key onto
    a home worker (cache affinity) and splits oversized batches.
:mod:`.client`
    :class:`ServiceClient` — pipelined async TCP client; many in-flight
    requests per connection, matched by request id.
:mod:`.protocol`
    The wire format: one JSON object per line; base64 binary fields;
    stable error codes; version constants (v1: ``sign`` / ``stats`` /
    ``ping``; v2 adds ``hello`` negotiation, ``verify``, ``sign-many``,
    ``keys``).
:mod:`.verbs`
    The verb registry the server dispatches through: one table of
    schema-validated, version-gated handlers (adding a verb is one
    ``Verb(...)`` row, not another if/elif branch).
:mod:`.telemetry`
    Per-tenant counters, queue-depth peaks, batch-size histogram,
    p50/p95/p99 latency — as a JSON snapshot (the ``stats`` verb) and a
    rendered report.
:mod:`.loadgen`
    Poisson / bursty / ramp arrival traces and :class:`LoadGenerator`,
    which replays them against a live service and reports what the
    *client* observed.

CLI entry points: ``python -m repro serve-async`` runs a server;
``python -m repro loadtest`` drives one (self-hosting it if no
``--connect`` target is given).  Client code should prefer the typed
facade in :mod:`repro.api` over the wire-level :class:`ServiceClient`.
"""

from ..errors import (ConnectionLostError, KeystoreError, OverloadedError,
                      ProtocolError, ServiceError, UnknownVerbError,
                      UnsupportedVersionError)
from .batcher import DeadlineBatcher, PendingSign
from .client import ServiceClient
from .keystore import Keystore, TenantRecord, derive_seed
from .loadgen import (TRACES, LoadGenerator, LoadReport, bursty_trace,
                      make_trace, poisson_trace, ramp_trace)
from .server import SigningServer, SigningService, SignOutcome
from .telemetry import Telemetry, percentile, render_snapshot
from .verbs import ConnectionState, FieldSpec, Verb, VerbRegistry, \
    default_registry

__all__ = [
    "ConnectionState", "FieldSpec", "Verb", "VerbRegistry",
    "default_registry",
    "UnknownVerbError", "UnsupportedVersionError", "ConnectionLostError",
    "DeadlineBatcher", "PendingSign",
    "Keystore", "TenantRecord", "derive_seed",
    "SigningService", "SigningServer", "SignOutcome",
    "ServiceClient",
    "Telemetry", "percentile", "render_snapshot",
    "LoadGenerator", "LoadReport", "TRACES", "make_trace",
    "poisson_trace", "bursty_trace", "ramp_trace",
    "ServiceError", "KeystoreError", "OverloadedError", "ProtocolError",
]
