"""The :class:`SigningBackend` contract of the batch-signing runtime.

A backend is a signing engine with a first-class *batch* API: callers hand
it a list of messages and get back a :class:`BatchSignResult` carrying the
signatures plus per-stage timing and cache statistics.  Every execution
strategy — the scalar reference path, the vectorized CPU path, the modeled
GPU, the worker pool — implements this one interface, so clients,
benchmarks, and services route work without knowing how a backend
executes it.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..errors import BackendError
from ..params import SphincsParams, get_params
from ..sphincs.signer import KeyPair, Sphincs

__all__ = ["BackendCapabilities", "BatchSignResult", "SigningBackend"]


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend is and how it likes to be fed.

    ``preferred_batch`` is a scheduling hint: the batch size at which the
    backend's amortizations (caches, templates, modeled graphs) pay off.
    """

    name: str
    kind: str  # "cpu" or "modeled-gpu"
    vectorized: bool
    deterministic: bool
    preferred_batch: int
    device: str | None = None
    notes: str = ""


@dataclass
class BatchSignResult:
    """The outcome of one ``sign_batch`` call."""

    backend: str
    params: str
    signatures: list[bytes]
    elapsed_s: float
    stage_seconds: dict[str, float] = field(default_factory=dict)
    cache_stats: dict[str, int] = field(default_factory=dict)
    # For modeled backends: the analytical-model outcome for the same
    # batch (a ``repro.core.batch.BatchResult``); None on pure-CPU paths.
    modeled: Any = None
    # Span dicts recorded out of process (the pooled backend's workers)
    # for a batch signed under a trace context; callers ingest them.
    spans: tuple = ()

    @property
    def count(self) -> int:
        return len(self.signatures)

    @property
    def sigs_per_s(self) -> float:
        return self.count / self.elapsed_s if self.elapsed_s > 0 else 0.0


class SigningBackend(abc.ABC):
    """Base class for batch signing engines.

    Subclasses set :attr:`name` and implement :meth:`sign_batch` and
    :meth:`capabilities`; keygen, scalar convenience signing, and batch
    verification are shared here so every backend agrees on key formats
    and the verification contract (verify never raises on bad input — it
    returns ``False``).
    """

    name: str = "abstract"
    #: Whether independent batches may be dispatched to this backend
    #: concurrently.  In-process backends default to False (their caches
    #: are not thread-safe and the GIL serializes hashing anyway); the
    #: worker-pool backend overrides this so a service overlaps batches.
    concurrent_dispatch: bool = False

    def __init__(self, params: SphincsParams | str,
                 deterministic: bool = False):
        self.params = get_params(params) if isinstance(params, str) else params
        self.deterministic = deterministic
        self._scheme = Sphincs(self.params, deterministic=deterministic)

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def capabilities(self) -> BackendCapabilities:
        """Describe this backend for routing and reporting."""

    @abc.abstractmethod
    def sign_batch(self, messages: Sequence[bytes],
                   keys: KeyPair) -> BatchSignResult:
        """Sign every message in *messages* under *keys*."""

    # ------------------------------------------------------------------
    def keygen(self, seed: bytes | None = None) -> KeyPair:
        """Generate a key pair (see :meth:`Sphincs.keygen`)."""
        return self._scheme.keygen(seed=seed)

    def hash_context(self):
        """The :class:`~repro.hashes.thash.HashContext` this backend's
        signing runs through — the attachment point the conformance
        subsystem uses for tracing and fault injection.  Backends that do
        not route hashing through the inherited scheme should override
        this to return their real context."""
        return self._scheme.ctx

    def sign(self, message: bytes, keys: KeyPair) -> bytes:
        """Scalar convenience wrapper over :meth:`sign_batch`."""
        return self.sign_batch([message], keys).signatures[0]

    # ------------------------------------------------------------------
    # Layer-cache hooks — no-ops by default so callers (worker pool,
    # service warm/invalidate paths) can drive every backend uniformly.
    # ------------------------------------------------------------------
    def prewarm_key(self, keys: KeyPair) -> None:
        """Precompute per-key warm state (layer caches), if any."""

    def invalidate_key(self, keys: KeyPair) -> None:
        """Drop per-key cached state (key rotation / tenant delete)."""

    def invalidate_all(self) -> None:
        """Drop all per-key cached state."""

    def cache_stats(self) -> dict[str, int]:
        """Aggregate cache counters for telemetry; empty if uncached."""
        return {}

    def verify_batch(self, messages: Sequence[bytes],
                     signatures: Sequence[bytes],
                     public_key: bytes) -> list[bool]:
        """Per-message verification verdicts; malformed input yields False."""
        if len(messages) != len(signatures):
            raise BackendError(
                f"verify_batch got {len(messages)} messages but "
                f"{len(signatures)} signatures"
            )
        return [
            self._scheme.verify(message, signature, public_key)
            for message, signature in zip(messages, signatures)
        ]

    # ------------------------------------------------------------------
    def _staged_sign(self, messages: Sequence[bytes], keys: KeyPair,
                     started: float,
                     fors_fn: Callable[..., tuple],
                     ht_fn: Callable[..., list]) -> BatchSignResult:
        """Shared per-message stage driver with timing accounting.

        ``fors_fn(task) -> (fors_sig, fors_pk)`` and
        ``ht_fn(task, fors_pk) -> ht_sig`` supply the backend-specific
        middle stages; prepare/assemble always run through the scheme.
        """
        scheme = self._scheme
        stage = {"prepare": 0.0, "fors": 0.0, "hypertree": 0.0,
                 "serialize": 0.0}
        signatures: list[bytes] = []
        for message in messages:
            t0 = time.perf_counter()
            task = scheme.prepare(message, keys)
            t1 = time.perf_counter()
            fors_sig, fors_pk = fors_fn(task)
            t2 = time.perf_counter()
            ht_sig = ht_fn(task, fors_pk)
            t3 = time.perf_counter()
            signatures.append(scheme.assemble(task, fors_sig, ht_sig))
            t4 = time.perf_counter()
            stage["prepare"] += t1 - t0
            stage["fors"] += t2 - t1
            stage["hypertree"] += t3 - t2
            stage["serialize"] += t4 - t3
        return self._timed_result(signatures, started, stage_seconds=stage)

    def _timed_result(self, signatures: list[bytes], started: float,
                      **extra: Any) -> BatchSignResult:
        return BatchSignResult(
            backend=self.name,
            params=self.params.name,
            signatures=signatures,
            elapsed_s=time.perf_counter() - started,
            **extra,
        )
