"""The in-process transport: a typed client over the batch runtime.

:class:`LocalClient` caches one :class:`~repro.runtime.backend.SigningBackend`
per parameter set and signs each ``(tenant, key)`` group of a call with
one ``sign_batch`` — tenant keys come from a
:class:`~repro.service.keystore.Keystore`, and any registered backend can
execute, including ``pooled`` for multi-core fan-out.  One ``sign_many``
call is one batch per key, so the local transport exposes exactly the
amortization the runtime was built for.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..errors import BackendError
from ..obs.trace import (TraceContext, current_trace, new_span_id,
                         stage_timeline, start_trace, use_trace)
from ..runtime.backend import BatchSignResult, SigningBackend
from ..runtime.registry import get_backend
from ..service.keystore import Keystore, derive_seed
from ..sphincs.signer import KeyPair, Sphincs
from .base import SigningClient
from .model import (ServiceInfo, SignRequest, SignResult, VerifyRequest,
                    VerifyResult)

__all__ = ["LocalClient"]


class LocalClient(SigningClient):
    """Sign in-process through the batch runtime.

    Parameters
    ----------
    keystore:
        Tenant/key registry; defaults to a fresh in-memory store
        (populate it with :meth:`add_tenant`).
    backend:
        Any registered runtime backend — ``vectorized`` (default),
        ``scalar``, ``modeled-gpu``, or ``pooled`` for the multi-core
        worker-pool tier.
    backend_options:
        Per-backend constructor kwargs, e.g.
        ``{"pooled": {"workers": 4}}``.
    transport_label:
        Result/telemetry label; defaults to ``"pooled"`` when the pooled
        backend executes, ``"local"`` otherwise.
    tracer:
        Optional :class:`repro.obs.trace.Tracer`.  Each facade batch
        records a root ``client-request`` span with a ``sign`` span and
        per-stage sub-spans under it (plus the workers' spans on the
        pooled backend).
    """

    def __init__(self, keystore: Keystore | None = None,
                 backend: str = "vectorized",
                 deterministic: bool = False,
                 backend_options: dict[str, dict] | None = None,
                 transport_label: str | None = None,
                 tracer=None):
        self.keystore = keystore if keystore is not None else Keystore()
        self.backend_name = backend
        self.deterministic = deterministic
        self.tracer = tracer
        self.backend_options = dict(backend_options or {})
        self.transport = transport_label or (
            "pooled" if backend == "pooled" else "local")
        self._backends: dict[str, SigningBackend] = {}
        self._pool = None
        self._owns_pool = False
        if backend == "pooled":
            # One worker pool shared by every parameter set's backend —
            # without this, each set would spawn its own processes.
            options = dict(self.backend_options.get("pooled", {}))
            if options.get("pool") is None:
                from ..runtime.pool import WorkerPool

                options["pool"] = WorkerPool(
                    workers=options.pop("workers", 2),
                    backend=options.pop("inner", "vectorized"),
                    deterministic=deterministic)
                self._owns_pool = True
            self._pool = options["pool"]
            self.backend_options["pooled"] = options
        self._closed = False

    # ------------------------------------------------------------------
    # Tenant management convenience (local transport only: remote tenants
    # are provisioned server-side)
    # ------------------------------------------------------------------
    def add_tenant(self, tenant: str, params: str = "128f",
                   key: str = "default",
                   seed: bytes | None = None) -> None:
        """Register *tenant* and generate its named key if absent.

        With ``deterministic=True`` and no explicit seed, the key derives
        from ``"<tenant>/<key>"`` — the same convention the service CLI
        uses, so local and served deterministic tenants agree.
        """
        record = self.keystore.add_tenant(tenant, params, exist_ok=True)
        if key not in self.keystore.key_names(tenant):
            if seed is None and self.deterministic:
                from ..params import get_params

                seed = derive_seed(f"{tenant}/{key}",
                                   get_params(record.params).n)
            self.keystore.generate_key(tenant, key, seed=seed)

    # ------------------------------------------------------------------
    # Transport primitives
    # ------------------------------------------------------------------
    def _backend_for(self, params_name: str) -> SigningBackend:
        backend = self._backends.get(params_name)
        if backend is None:
            backend = self._backends[params_name] = get_backend(
                self.backend_name, params_name,
                deterministic=self.deterministic,
                **self.backend_options.get(self.backend_name, {}))
        return backend

    def _sign(self, request: SignRequest) -> SignResult:
        return self._sign_many([request])[0]

    def _sign_many(self,
                   requests: Sequence[SignRequest]) -> list[SignResult]:
        # Group by (tenant, key): each group is one sign_batch call, and
        # results come back in request order.
        groups: dict[tuple[str, str], list[tuple[int, SignRequest]]] = {}
        for index, request in enumerate(requests):
            groups.setdefault((request.tenant, request.key), []).append(
                (index, request))
        results: list[SignResult | None] = [None] * len(requests)
        for (tenant, key), members in groups.items():
            keys, params_name = self.keystore.resolve(tenant, key)
            backend = self._backend_for(params_name)
            messages = [request.message for _, request in members]
            if self.tracer is not None:
                result = self._traced_sign(backend, messages, keys,
                                           tenant, key)
            else:
                result = backend.sign_batch(messages, keys)
            if result.count != len(messages):
                raise BackendError(
                    f"backend {self.backend_name!r} returned {result.count} "
                    f"signatures for {len(messages)} messages")
            total_ms = round(result.elapsed_s * 1000.0, 3)
            for (index, request), signature in zip(members,
                                                   result.signatures):
                results[index] = SignResult(
                    signature=signature, tenant=tenant, key=key,
                    params=result.params, backend=result.backend,
                    batch_size=result.count, wait_ms=0.0,
                    total_ms=total_ms, transport=self.transport)
        return [result for result in results if result is not None]

    def _traced_sign(self, backend: SigningBackend, messages: list[bytes],
                     keys: KeyPair, tenant: str,
                     key: str) -> BatchSignResult:
        """One batch as one trace: a root ``client-request`` span, the
        ``sign`` span under it, and stage spans under ``sign``."""
        ctx = current_trace() or start_trace()
        sign_ctx = TraceContext(ctx.trace_id, new_span_id())
        # Wall clock anchors the spans; durations are monotonic so an
        # NTP step mid-batch cannot distort them.
        started = time.time()
        started_mono = time.perf_counter()
        with use_trace(sign_ctx):
            result = backend.sign_batch(messages, keys)
        sign_end = started + (time.perf_counter() - started_mono)
        tracer = self.tracer
        tracer.record_span(
            "sign", trace=sign_ctx, span_id=sign_ctx.span_id,
            parent_id=ctx.span_id, start=started, end=sign_end,
            backend=result.backend, params=result.params,
            batch_size=result.count)
        for stage, start, end in stage_timeline(result.stage_seconds,
                                                started):
            tracer.record_span(stage, trace=sign_ctx,
                               parent_id=sign_ctx.span_id,
                               start=start, end=end)
        tracer.ingest(result.spans)
        tracer.record_span(
            "client-request", trace=ctx, span_id=ctx.span_id,
            start=started,
            end=started + (time.perf_counter() - started_mono),
            tenant=tenant, key=key, batch_size=len(messages))
        return result

    def _verify(self, request: VerifyRequest) -> VerifyResult:
        keys, params_name = self.keystore.resolve(request.tenant,
                                                  request.key)
        valid = Sphincs(params_name).verify(request.message,
                                            request.signature, keys.public)
        return VerifyResult(valid=valid, tenant=request.tenant,
                            key=request.key, params=params_name,
                            transport=self.transport)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def info(self) -> ServiceInfo:
        workers = self._pool.workers if self._pool is not None else 0
        return ServiceInfo(
            transport=self.transport,
            server="in-process",
            protocol_version=2,
            verbs=("info", "keys", "sign", "sign-many", "verify",
                   "verify-many"),
            backend=self.backend_name,
            workers=workers,
            max_batch=None,  # no wire frame: one call, one batch, any size
            parameter_sets=tuple(sorted({
                self.keystore.params_for(name)
                for name in self.keystore.tenants()})),
        )

    def keys(self, tenant: str) -> tuple[str, ...]:
        return self.keystore.key_names(tenant)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for backend in self._backends.values():
            close = getattr(backend, "close", None)
            if close is not None:
                close()
        self._backends.clear()
        if self._pool is not None and self._owns_pool:
            self._pool.close()
