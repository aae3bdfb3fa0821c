"""The abstract :class:`SigningClient` every transport implements.

The public methods (``sign`` / ``verify`` / ``sign_many`` / ``info`` /
``keys``) live here and do three things identically for every transport:
build the typed request objects (which validate), delegate to the
transport's ``_sign`` / ``_verify`` / ``_sign_many`` primitives, and
return the typed results.  A transport therefore cannot drift on
argument validation or call shape — only on how it executes.
"""

from __future__ import annotations

import abc
from typing import Sequence

from .model import (ServiceInfo, SignRequest, SignResult, VerifyRequest,
                    VerifyResult)

__all__ = ["SigningClient"]


class SigningClient(abc.ABC):
    """Synchronous typed client facade over one execution tier.

    Use as a context manager so transport resources (sockets, worker
    pools, event-loop threads) are released deterministically::

        with api.connect("local", keystore=ks) as client:
            result = client.sign("acme", b"payload")
            assert client.verify("acme", b"payload",
                                 result.signature).valid
    """

    #: Transport label stamped into every result (``local`` / ``pooled``
    #: / ``tcp``); set by each concrete class.
    transport: str = "abstract"

    # ------------------------------------------------------------------
    # Public API (identical across transports)
    # ------------------------------------------------------------------
    def sign(self, tenant: str, message: bytes, key: str = "default",
             deadline_ms: float | None = None) -> SignResult:
        """Sign *message* under the tenant's named key."""
        return self._sign(SignRequest(tenant=tenant, message=message,
                                      key=key, deadline_ms=deadline_ms))

    def sign_many(self, tenant: str, messages: Sequence[bytes],
                  key: str = "default",
                  deadline_ms: float | None = None) -> list[SignResult]:
        """Sign every message in *messages* under one tenant key.

        The batched entry point: transports amortize framing and batch
        the work (a TCP client packs ``max_batch``-sized ``sign-many``
        frames; the local client signs one backend batch).  Lists
        larger than the transport's frame cap are chunked transparently.

        All-or-nothing on every transport: if any message fails (shed,
        backend error), the whole call raises that typed error and no
        partial results are returned — resubmit the batch.  Callers that
        need per-item recovery on a remote service can speak the wire
        ``sign-many`` verb directly, which reports per-item outcomes.
        """
        requests = [SignRequest(tenant=tenant, message=message, key=key,
                                deadline_ms=deadline_ms)
                    for message in messages]
        return self._sign_many(requests) if requests else []

    def verify(self, tenant: str, message: bytes, signature: bytes,
               key: str = "default") -> VerifyResult:
        """Check *signature* over *message* under the tenant's named key.

        A bad signature returns ``valid=False``; exceptions are reserved
        for unknown tenants/keys and transport failures.
        """
        return self._verify(VerifyRequest(tenant=tenant, message=message,
                                          signature=signature, key=key))

    def verify_many(self, tenant: str, messages: Sequence[bytes],
                    signatures: Sequence[bytes],
                    key: str = "default") -> list[VerifyResult]:
        """Check each ``(message, signature)`` pair under one tenant key.

        The batched counterpart of :meth:`verify`, mirroring
        :meth:`sign_many`: remote transports pack ``verify-many`` frames
        (chunked to the server's ``max_batch``), the local client loops.
        Each pair answers in order with its own :class:`VerifyResult` —
        an invalid signature is a result (``valid=False``), not an
        error.  Unknown tenants/keys and transport failures raise.
        """
        if len(messages) != len(signatures):
            raise ValueError(
                f"verify_many pairs each message with a signature: got "
                f"{len(messages)} messages, {len(signatures)} signatures")
        requests = [VerifyRequest(tenant=tenant, message=message,
                                  signature=signature, key=key)
                    for message, signature in zip(messages, signatures)]
        return self._verify_many(requests) if requests else []

    @abc.abstractmethod
    def info(self) -> ServiceInfo:
        """The endpoint's capability advertisement."""

    @abc.abstractmethod
    def keys(self, tenant: str) -> tuple[str, ...]:
        """The tenant's named keys (sorted)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release transport resources; idempotent."""

    # ------------------------------------------------------------------
    # Transport primitives
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _sign(self, request: SignRequest) -> SignResult: ...

    @abc.abstractmethod
    def _sign_many(self,
                   requests: Sequence[SignRequest]) -> list[SignResult]: ...

    @abc.abstractmethod
    def _verify(self, request: VerifyRequest) -> VerifyResult: ...

    def _verify_many(self, requests: Sequence[VerifyRequest]
                     ) -> list[VerifyResult]:
        # Default: per-pair loop.  In-process transports keep it (one
        # scheme call each either way); wire transports override to pack
        # batched verify-many frames.
        return [self._verify(request) for request in requests]

    # ------------------------------------------------------------------
    def __enter__(self) -> "SigningClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} transport={self.transport!r}>"
