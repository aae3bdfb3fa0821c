"""Async TCP client for the signing service wire protocol.

One connection, many in-flight requests: every request carries an ``id``
and a background reader task matches responses back to their futures, so
callers can pipeline ``sign`` calls concurrently over a single socket —
exactly how the load generator drives the service.

The client starts in newline-delimited JSON mode (protocol v1/v2).  When
a ``hello`` response grants protocol v3 the connection flips to binary
frames (see :mod:`.protocol`): hot verbs ride the zero-copy codec, cold
verbs carry their v2 JSON body as a frame payload, and ``sign-many``
results stream back one item frame at a time.  The dict-based
:meth:`request` API keeps its v2 response shapes in both modes.

This is the *wire-level* client (it speaks raw protocol frames and
returns response dicts).  Application code should prefer the typed
facade in :mod:`repro.api` — ``AsyncClient`` for asyncio callers,
``TcpClient`` for synchronous ones — which negotiates the protocol
version and returns :class:`~repro.api.SignResult` /
:class:`~repro.api.VerifyResult` objects; :meth:`ServiceClient.connect`
is deprecated in its favor.
"""

from __future__ import annotations

import asyncio
import itertools
import warnings

from ..errors import ConnectionLostError, ProtocolError, ServiceError
from . import protocol

__all__ = ["ServiceClient"]

#: Frame overhead on the wire: u32 length prefix + the 10-byte header.
_FRAME_OVERHEAD = 4 + 10


class ServiceClient:
    """Pipelined wire client: JSON lines, or binary frames after a v3
    ``hello`` (see :mod:`.protocol`)."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        #: Active sign-many streams: id -> queue of (kind, value) events.
        self._streams: dict[int, asyncio.Queue] = {}
        self._binary = False
        #: Set when the server reports a fatal (id-less) error before
        #: closing; later requests raise it instead of a generic
        #: "connection closed" so the cause survives.
        self._fatal: ConnectionLostError | None = None
        #: Raw wire accounting (both modes), for efficiency measurement.
        self.bytes_sent = 0
        self.bytes_received = 0
        self._read_task = asyncio.get_running_loop().create_task(
            self._read_loop())

    @property
    def binary(self) -> bool:
        """Whether the connection has flipped to v3 binary frames."""
        return self._binary

    @property
    def alive(self) -> bool:
        """Whether the connection can still carry requests.

        ``False`` once the read loop has exited (server hung up, fatal
        error, or :meth:`close`); callers holding pooled connections —
        the cluster router — check this before reuse instead of paying
        a doomed round trip.
        """
        return not self._read_task.done()

    @classmethod
    async def connect(cls, host: str = "127.0.0.1",
                      port: int = 7744) -> "ServiceClient":
        warnings.warn(
            "ServiceClient.connect is deprecated; use the typed facade "
            "instead — repro.api.AsyncClient.connect(host, port) for "
            "asyncio callers, or repro.api.connect('tcp', host=..., "
            "port=...) for synchronous ones",
            DeprecationWarning, stacklevel=2)
        return await cls.open(host, port)

    @classmethod
    async def open(cls, host: str = "127.0.0.1",
                   port: int = 7744) -> "ServiceClient":
        """Open a wire-level connection (no deprecation: the repro.api
        transports build on this)."""
        reader, writer = await asyncio.open_connection(
            host, port, limit=protocol.LINE_LIMIT)
        return cls(reader, writer)

    async def close(self) -> None:
        self._read_task.cancel()
        try:
            await self._read_task
        except (asyncio.CancelledError, Exception):  # noqa: BLE001
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        self._fail_pending(ConnectionLostError("client closed"))

    # ------------------------------------------------------------------
    async def ping(self) -> bool:
        return (await self.request({"op": "ping"}))["ok"] is True

    async def stats(self) -> dict:
        """The server's telemetry snapshot (render with
        :func:`repro.service.telemetry.render_snapshot`)."""
        return (await self.request({"op": "stats"}))["stats"]

    async def sign(self, message: bytes, tenant: str,
                   key_name: str = "default",
                   deadline_ms: float | None = None) -> dict:
        """Sign *message*; returns the response dict with ``signature``
        decoded to bytes (plus ``batch_size``, ``wait_ms``, ``total_ms``,
        ``params``, ``backend``)."""
        if self._binary:
            return dict(await self.request_frame(
                protocol.FRAME_CODES["sign"],
                protocol.pack_sign_request(tenant, key_name, message,
                                           deadline_ms)))
        request = {"op": "sign", "tenant": tenant, "key": key_name,
                   "message": protocol.pack_bytes(message)}
        if deadline_ms is not None:
            request["deadline_ms"] = deadline_ms
        response = await self.request(request)
        response["signature"] = protocol.unpack_bytes(
            response["signature"], name="signature")
        return response

    async def request(self, payload: dict) -> dict:
        """Send one request and await its matched response.

        Raises the typed error for ``ok: false`` responses
        (:class:`OverloadedError` for load-shed, :class:`KeystoreError`
        for unknown tenant/key, ...).  Response dicts keep their v2
        shapes (base64 ``signature`` fields) in both wire modes.
        """
        self._check_open()
        if self._binary and payload.get("op") == "sign-many":
            # Streamed on the wire, but the dict API still answers with
            # one v2-shaped response so callers are mode-agnostic.
            return await self._request_sign_many_dict(payload)
        request_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            self._write(self._encode_request(payload, request_id))
            await self._writer.drain()
            response = await future
        finally:
            self._pending.pop(request_id, None)
        if not response.get("ok"):
            error_type = protocol.error_type(response.get("error"))
            raise error_type(response.get("detail",
                                          "service reported an error"))
        signature = response.get("signature")
        if isinstance(signature, bytes):  # binary mode: back to v2 shape
            response = {**response,
                        "signature": protocol.pack_bytes(signature)}
        return response

    async def request_frame(self, verb: int, payload: bytes) -> dict:
        """Send one pre-packed hot-verb frame (v3 connections only).

        Returns the decoded response dict with binary fields as raw
        bytes — no base64 round trip.  Raises the typed error for error
        frames.
        """
        if not self._binary:
            raise ProtocolError(
                "request_frame requires a protocol-v3 connection; "
                "negotiate with a v3 hello first")
        self._check_open()
        request_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            self._write(protocol.encode_frame(verb, payload,
                                              id=request_id))
            await self._writer.drain()
            response = await future
        finally:
            self._pending.pop(request_id, None)
        if not response.get("ok"):
            error_type = protocol.error_type(response.get("error"))
            raise error_type(response.get("detail",
                                          "service reported an error"))
        return response

    async def sign_many_stream(self, tenant: str, messages: list[bytes],
                               key_name: str = "default",
                               deadline_ms: float | None = None,
                               trace: str | None = None) -> list[dict]:
        """Sign a batch over one streamed v3 ``sign-many`` frame.

        Returns per-item dicts ordered by request index: ok items carry
        raw ``signature`` bytes, failed items carry ``error``/``detail``
        (per-item failures do not raise — one shed request must not
        discard its siblings' signatures).  Whole-frame failures raise
        the typed error.
        """
        if not self._binary:
            raise ProtocolError(
                "sign_many_stream requires a protocol-v3 connection; "
                "negotiate with a v3 hello first")
        self._check_open()
        request_id = next(self._ids)
        queue: asyncio.Queue = asyncio.Queue()
        self._streams[request_id] = queue
        results: list[dict | None] = [None] * len(messages)
        try:
            self._write(protocol.encode_frame(
                protocol.FRAME_CODES["sign-many"],
                protocol.pack_sign_many_request(tenant, key_name,
                                                list(messages),
                                                deadline_ms, trace),
                id=request_id))
            await self._writer.drain()
            while True:
                kind, value = await queue.get()
                if kind == "item":
                    index, item = value
                    if not 0 <= index < len(results):
                        raise ProtocolError(
                            f"sign-many stream answered index {index} "
                            f"for a {len(results)}-item batch")
                    results[index] = item
                elif kind == "end":
                    break
                else:  # "error": whole-frame or connection failure
                    raise value
        finally:
            self._streams.pop(request_id, None)
        missing = [index for index, item in enumerate(results)
                   if item is None]
        if missing:
            raise ProtocolError(
                f"sign-many stream ended with {len(missing)} unanswered "
                f"items (indexes {missing})")
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._read_task.done():
            # The reader has exited (server closed the socket): a future
            # registered now could never be resolved, and a write into
            # the half-closed socket would not even error.
            if self._fatal is not None:
                raise self._fatal
            raise ConnectionLostError(
                "connection closed; reconnect to continue")

    def _write(self, data: bytes) -> None:
        self._writer.write(data)
        self.bytes_sent += len(data)

    def _encode_request(self, payload: dict, request_id: int) -> bytes:
        if not self._binary:
            return protocol.encode({**payload, "id": request_id})
        op = payload.get("op")
        if op == "sign":
            return protocol.encode_frame(
                protocol.FRAME_CODES["sign"],
                protocol.pack_sign_request(
                    payload.get("tenant", ""),
                    payload.get("key", "default"),
                    protocol.unpack_bytes(payload.get("message", "")),
                    payload.get("deadline_ms"), payload.get("trace")),
                id=request_id)
        if op == "verify":
            return protocol.encode_frame(
                protocol.FRAME_CODES["verify"],
                protocol.pack_verify_request(
                    payload.get("tenant", ""),
                    payload.get("key", "default"),
                    protocol.unpack_bytes(payload.get("message", "")),
                    protocol.unpack_bytes(payload.get("signature", ""),
                                          name="signature")),
                id=request_id)
        if op == "verify-many":
            messages = payload.get("messages")
            signatures = payload.get("signatures")
            if not isinstance(messages, list) \
                    or not isinstance(signatures, list):
                raise ProtocolError(
                    "'messages' and 'signatures' must be lists of "
                    "base64 strings")
            return protocol.encode_frame(
                protocol.FRAME_CODES["verify-many"],
                protocol.pack_verify_many_request(
                    payload.get("tenant", ""),
                    payload.get("key", "default"),
                    [protocol.unpack_bytes(item,
                                           name=f"messages[{index}]")
                     for index, item in enumerate(messages)],
                    [protocol.unpack_bytes(item,
                                           name=f"signatures[{index}]")
                     for index, item in enumerate(signatures)]),
                id=request_id)
        code = protocol.FRAME_CODES.get(op) if isinstance(op, str) else None
        if code is None:
            raise ProtocolError(
                f"'op' must name a verb with a frame code, got {op!r}")
        body = {name: value for name, value in payload.items()
                if name != "op"}
        return protocol.encode_frame(
            code, protocol.pack_json(body) if body else b"",
            id=request_id)

    async def _request_sign_many_dict(self, payload: dict) -> dict:
        messages = payload.get("messages")
        if not isinstance(messages, list) or not messages:
            raise ProtocolError("'messages' must be a non-empty list of "
                                "base64 strings")
        items = await self.sign_many_stream(
            payload.get("tenant", ""),
            [protocol.unpack_bytes(item, name=f"messages[{index}]")
             for index, item in enumerate(messages)],
            key_name=payload.get("key", "default"),
            deadline_ms=payload.get("deadline_ms"),
            trace=payload.get("trace"))
        results = [({**item, "signature":
                     protocol.pack_bytes(item["signature"])}
                    if item.get("ok") else item) for item in items]
        response = {"ok": True, "op": "sign-many",
                    "tenant": payload.get("tenant", ""),
                    "key": payload.get("key", "default"),
                    "results": results}
        if payload.get("trace"):
            response["trace"] = payload["trace"]
        return response

    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        # The transport dropping mid-pipeline (server restart, reset,
        # half-read line) is a *typed* failure: every in-flight future
        # fails with one ConnectionLostError naming the unanswered ids,
        # never a bare ConnectionResetError/IncompleteReadError.
        error: Exception = ConnectionLostError("connection closed by server")
        try:
            while True:
                if self._binary:
                    frame = await protocol.read_frame(self._reader)
                    if frame is None:
                        break
                    self.bytes_received += (_FRAME_OVERHEAD
                                            + len(frame.payload))
                    if not self._deliver_frame(frame):
                        return  # fatal error already failed the futures
                else:
                    line = await self._reader.readline()
                    if not line:
                        break
                    self.bytes_received += len(line)
                    if not self._deliver_line(line):
                        return
        except asyncio.CancelledError:
            # Closed under in-flight requests: to their callers the
            # connection is gone, and a router fails them over.
            error = ConnectionLostError("client closed")
            raise
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError, OSError) as exc:
            error = ConnectionLostError(f"connection lost: {exc}")
        except Exception as exc:  # noqa: BLE001 — surfaced via futures
            error = ServiceError(f"connection error: {exc}")
        finally:
            self._fail_pending(error)

    def _deliver_line(self, line: bytes) -> bool:
        """Route one JSON response; ``False`` ends the read loop."""
        response = protocol.decode(line)
        if "id" not in response:
            # An id-less error is fatal by construction: the server only
            # omits the id when it could not attribute the failure (an
            # overlong or unparseable line) and is about to close.
            # Matching it to None used to drop it on the floor — callers
            # only learned via the later generic ConnectionLostError.
            self._fatal_error(response)
            return False
        future = self._pending.pop(response["id"], None)
        if future is not None and not future.done():
            future.set_result(response)
        if (response.get("op") == "hello" and response.get("ok")
                and isinstance(response.get("version"), int)
                and response["version"] >= 3):
            # The server granted v3: every byte after its hello line is
            # a binary frame, so the flip must land before the next read.
            self._binary = True
        return True

    def _deliver_frame(self, frame: protocol.Frame) -> bool:
        """Route one v3 frame; ``False`` ends the read loop."""
        if frame.id == 0:
            # Reserved id: a fatal error frame (oversized frame, broken
            # framing) — the server closes right after sending it.
            self._fatal_error(protocol.unpack_error(frame.payload))
            return False
        if frame.verb == protocol.FRAME_SIGN_MANY_ITEM:
            queue = self._streams.get(frame.id)
            if queue is not None:
                queue.put_nowait(
                    ("item", protocol.unpack_sign_many_item(frame.payload)))
            return True
        if frame.verb == protocol.FRAME_SIGN_MANY_END:
            queue = self._streams.get(frame.id)
            if queue is not None:
                queue.put_nowait(
                    ("end", protocol.unpack_sign_many_end(frame.payload)))
            return True
        if frame.verb == protocol.FRAME_ERROR:
            response = protocol.unpack_error(frame.payload)
            queue = self._streams.get(frame.id)
            if queue is not None:  # whole-frame sign-many failure
                queue.put_nowait(("error", protocol.error_type(
                    response["error"])(response["detail"])))
                return True
        elif frame.verb == protocol.FRAME_CODES["sign"]:
            response = protocol.unpack_sign_result(frame.payload)
        elif frame.verb == protocol.FRAME_CODES["verify"]:
            response = protocol.unpack_verify_result(frame.payload)
        elif frame.verb == protocol.FRAME_CODES["verify-many"]:
            response = protocol.unpack_verify_many_result(frame.payload)
        else:
            response = protocol.unpack_json(frame.payload)
        future = self._pending.pop(frame.id, None)
        if future is not None and not future.done():
            future.set_result(response)
        return True

    def _fatal_error(self, response: dict) -> None:
        """Fail everything in flight with the server's *typed* error.

        The server's own code/detail reach the pending callers (a
        ProtocolError for "line too long", not a generic connection
        error); later :meth:`request` calls raise a
        :class:`ConnectionLostError` naming the unanswered ids.
        """
        detail = response.get("detail", "server reported a fatal error")
        typed = protocol.error_type(response.get("error"))(detail)
        ids = tuple(sorted([*self._pending, *self._streams]))
        self._fatal = ConnectionLostError(
            f"connection closed after a fatal server error: {detail}"
            + (f" ({len(ids)} requests in flight: ids {list(ids)})"
               if ids else ""),
            in_flight=ids)
        self._fail_pending(typed)

    def _fail_pending(self, error: Exception) -> None:
        in_flight = tuple(sorted([*self._pending, *self._streams]))
        if isinstance(error, ConnectionLostError) and in_flight:
            error = ConnectionLostError(
                f"{error} ({len(in_flight)} requests in flight: "
                f"ids {list(in_flight)})", in_flight=in_flight)
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()
        for queue in self._streams.values():
            queue.put_nowait(("error", error))
        self._streams.clear()
