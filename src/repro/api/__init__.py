"""``repro.api`` — the unified typed client API over every execution tier.

Before this package there were four divergent ways to get a signature
(direct ``SigningBackend`` calls, scheduler tickets, the ``pooled``
backend, raw JSON lines through ``ServiceClient``), each with
its own request shape and error surface — and verification was not
served at all.  ``repro.api`` is the one contract:

>>> from repro import api
>>> client = api.connect("local", deterministic=True)
>>> client.add_tenant("acme", "128f")
>>> result = client.sign("acme", b"payload")
>>> client.verify("acme", b"payload", result.signature).valid
True

The same four lines work with ``api.connect("pooled", workers=4)``
(multi-core worker pool) and ``api.connect("tcp", host=..., port=...)``
(a remote ``repro serve-async`` service speaking protocol v2); asyncio
callers use :class:`AsyncClient` directly.  Results are always
:class:`SignResult` / :class:`VerifyResult`, capability discovery is
always :meth:`~SigningClient.info`, and failures are always the typed
:mod:`repro.errors` service family — ``except OverloadedError`` means
the same thing against an in-process backend and a remote server.

The public surface of this package is pinned by
``tests/api_surface.json`` (regenerate deliberately with
``pytest --regen-api-surface``), so accidental breaking changes fail CI.
"""

from __future__ import annotations

from ..errors import (ConnectionLostError, KeystoreError,
                      NodeUnavailableError, OverloadedError, ProtocolError,
                      ServiceError, UnknownVerbError,
                      UnsupportedVersionError)
from .base import SigningClient
from .cluster import AsyncClusterClient, ClusterClient
from .ledger import verify_inclusion
from .local import LocalClient
from .model import (ServiceInfo, SignRequest, SignResult, VerifyRequest,
                    VerifyResult)
from .tcp import AsyncClient, TcpClient

__all__ = [
    "connect",
    "SigningClient", "LocalClient", "TcpClient", "AsyncClient",
    "ClusterClient", "AsyncClusterClient",
    "SignRequest", "SignResult", "VerifyRequest", "VerifyResult",
    "ServiceInfo", "verify_inclusion",
    "ServiceError", "KeystoreError", "OverloadedError", "ProtocolError",
    "UnknownVerbError", "UnsupportedVersionError", "ConnectionLostError",
    "NodeUnavailableError",
]

TRANSPORTS = ("local", "pooled", "tcp", "cluster")


def connect(transport: str = "local", **options) -> SigningClient:
    """Open a typed signing client over *transport*.

    * ``"local"`` — in-process :class:`LocalClient`; options forward to
      its constructor (``keystore``, ``backend``, ``deterministic``,
      ``backend_options``).
    * ``"pooled"`` — :class:`LocalClient` on the multi-core worker-pool
      backend; ``workers=N`` sizes the pool and ``inner`` names the
      backend each worker hosts (default ``vectorized``).
    * ``"tcp"`` — :class:`TcpClient` against a ``repro serve-async``
      server; options forward to :meth:`TcpClient.connect` (``host``,
      ``port``, ``min_version``, ``timeout``).
    * ``"cluster"`` — :class:`ClusterClient` against a ``repro
      serve-cluster`` router; same options as ``"tcp"``.  Results carry
      ``transport="cluster"`` and a request no live node could take
      raises :class:`~repro.errors.NodeUnavailableError`.
    """
    if transport == "local":
        return LocalClient(**options)
    if transport == "pooled":
        backend_options = dict(options.pop("backend_options", None) or {})
        pooled = dict(backend_options.get("pooled", {}))
        if "workers" in options:
            pooled["workers"] = options.pop("workers")
        if "inner" in options:
            pooled["inner"] = options.pop("inner")
        backend_options["pooled"] = pooled
        return LocalClient(backend="pooled",
                           backend_options=backend_options, **options)
    if transport == "tcp":
        return TcpClient.connect(**options)
    if transport == "cluster":
        return ClusterClient.connect(**options)
    raise ServiceError(
        f"unknown transport {transport!r}; choose one of "
        f"{', '.join(TRANSPORTS)}"
    )
