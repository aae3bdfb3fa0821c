"""Service error paths: shed, unknown tenant/key, hostile frames, restart.

Satellite coverage for the conformance PR: every failure mode a client
can provoke must come back as a *structured* response (stable ``error``
code) or a typed exception — and a client must be able to reconnect and
resume after the server restarts.
"""

import asyncio
import json

import pytest

from repro.errors import (ConnectionLostError, KeystoreError,
                          OverloadedError, ServiceError)
from repro.params import get_params
from repro.service import (Keystore, ServiceClient, SigningServer,
                           SigningService, derive_seed, protocol)
from repro.sphincs.signer import Sphincs


def make_service(**kwargs):
    keystore = Keystore()
    keystore.add_tenant("demo", "128f")
    keystore.generate_key("demo", "default",
                          seed=derive_seed("demo/default",
                                           get_params("128f").n))
    kwargs.setdefault("target_batch_size", 2)
    kwargs.setdefault("max_wait_s", 0.05)
    kwargs.setdefault("deterministic", True)
    return SigningService(keystore, **kwargs)


class TestOverload:
    def test_max_pending_sheds_with_structured_response(self):
        async def scenario():
            service = make_service(target_batch_size=64, max_wait_s=10.0,
                                   max_pending=2)
            server = SigningServer(service, port=0)
            await server.start()
            client = await ServiceClient.open(port=server.port)
            try:
                queued = [asyncio.ensure_future(client.sign(b"q0", "demo")),
                          asyncio.ensure_future(client.sign(b"q1", "demo"))]
                for _ in range(200):
                    if service.batcher.pending >= 2:
                        break
                    await asyncio.sleep(0.01)
                # The watermark is reached: the next request sheds with
                # the stable machine-readable code, not a hang.
                with pytest.raises(OverloadedError, match="shed"):
                    await asyncio.wait_for(client.sign(b"q2", "demo"),
                                           timeout=10)
                assert service.telemetry.snapshot()[
                    "tenants"]["demo"]["shed"] == 1
                await service.drain()
                outcomes = await asyncio.wait_for(
                    asyncio.gather(*queued), timeout=60)
                assert all(o["batch_size"] == 2 for o in outcomes)
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())


class TestUnknownPrincipals:
    def test_unknown_tenant_and_key_codes(self):
        async def scenario():
            service = make_service()
            server = SigningServer(service, port=0)
            await server.start()
            reader, writer = await asyncio.open_connection(
                port=server.port, limit=protocol.LINE_LIMIT)
            try:
                for request, expect_detail in (
                        ({"op": "sign", "id": 1, "tenant": "ghost",
                          "message": "aGk="}, "unknown tenant"),
                        ({"op": "sign", "id": 2, "tenant": "demo",
                          "key": "hsm-9", "message": "aGk="}, "no key"),
                ):
                    writer.write(protocol.encode(request))
                    await writer.drain()
                    response = json.loads(await asyncio.wait_for(
                        reader.readline(), timeout=10))
                    assert response["ok"] is False
                    assert response["error"] == protocol.ERROR_UNKNOWN_KEY
                    assert expect_detail in response["detail"]
                    assert response["id"] == request["id"]
            finally:
                writer.close()
                await server.stop()

        asyncio.run(scenario())

    def test_shed_and_unknown_never_touch_the_queue(self):
        async def scenario():
            service = make_service(max_pending=1)
            with pytest.raises(KeystoreError):
                await service.sign(b"x", "ghost")
            assert service.batcher.pending == 0
            service.close()

        asyncio.run(scenario())


class TestHostileFrames:
    def test_oversized_frame_gets_error_then_close(self):
        """A line beyond LINE_LIMIT cannot be parsed incrementally; the
        server must answer with a structured protocol error and close —
        not hang, not crash."""
        async def scenario():
            service = make_service()
            server = SigningServer(service, port=0)
            await server.start()
            reader, writer = await asyncio.open_connection(
                port=server.port, limit=protocol.LINE_LIMIT)
            try:
                writer.write(b"\x20" * (protocol.LINE_LIMIT + 4096) + b"\n")
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout=10)
                response = json.loads(line)
                assert response["ok"] is False
                assert response["error"] == protocol.ERROR_PROTOCOL
                assert "too long" in response["detail"]
                # Server closes its end afterwards: EOF, not a hang.
                assert await asyncio.wait_for(reader.read(),
                                              timeout=10) == b""
            finally:
                writer.close()
                await server.stop()

        asyncio.run(scenario())

    def test_garbage_bytes_between_valid_requests(self):
        async def scenario():
            service = make_service(target_batch_size=1)
            server = SigningServer(service, port=0)
            await server.start()
            reader, writer = await asyncio.open_connection(
                port=server.port, limit=protocol.LINE_LIMIT)
            try:
                writer.write(b"\xde\xad\xbe\xef garbage\n")
                writer.write(protocol.encode(
                    {"op": "sign", "id": 7, "tenant": "demo",
                     "message": protocol.pack_bytes(b"after garbage")}))
                await writer.drain()
                responses = [
                    json.loads(await asyncio.wait_for(reader.readline(),
                                                      timeout=30))
                    for _ in range(2)]
                by_ok = sorted(responses, key=lambda r: r["ok"])
                assert by_ok[0]["error"] == protocol.ERROR_PROTOCOL
                assert by_ok[1]["id"] == 7
                keys, params = service.keystore.resolve("demo")
                assert Sphincs(params).verify(
                    b"after garbage",
                    protocol.unpack_bytes(by_ok[1]["signature"]),
                    keys.public)
            finally:
                writer.close()
                await server.stop()

        asyncio.run(scenario())


class TestConnectionLost:
    def test_mid_pipeline_drop_is_typed_and_names_in_flight_ids(self):
        """A server closing mid-pipeline must surface as one typed
        ConnectionLostError on every unanswered request — carrying the
        wire ids still in flight, never a bare ConnectionResetError or
        IncompleteReadError — and a reconnect resumes signing."""
        async def scenario():
            async def rude_server(reader, writer):
                # Read the pipelined requests, answer none, drop the line.
                for _ in range(3):
                    await reader.readline()
                writer.close()

            stub = await asyncio.start_server(rude_server, "127.0.0.1", 0)
            port = stub.sockets[0].getsockname()[1]
            client = ServiceClient(*await asyncio.open_connection(
                port=port, limit=protocol.LINE_LIMIT))
            pipelined = [asyncio.ensure_future(
                client.sign(f"m{i}".encode(), "demo")) for i in range(3)]
            outcomes = await asyncio.wait_for(
                asyncio.gather(*pipelined, return_exceptions=True),
                timeout=30)
            assert all(isinstance(o, ConnectionLostError)
                       for o in outcomes)
            # Every unanswered wire id is reported, on each failure.
            for outcome in outcomes:
                assert outcome.in_flight == (1, 2, 3)
                assert "in flight" in str(outcome)
            # New requests on the dead connection fail fast and typed.
            with pytest.raises(ConnectionLostError, match="reconnect"):
                await client.ping()
            await client.close()
            stub.close()
            await stub.wait_closed()

            # Reconnecting against a real server resumes service; the
            # caller decides per in-flight id what to resubmit.
            server = SigningServer(make_service(target_batch_size=1),
                                   port=0)
            await server.start()
            fresh = await ServiceClient.open(port=server.port)
            try:
                response = await asyncio.wait_for(
                    fresh.sign(b"m0", "demo"), timeout=60)
                keys, params = server.service.keystore.resolve("demo")
                assert Sphincs(params).verify(b"m0", response["signature"],
                                              keys.public)
            finally:
                await fresh.close()
                await server.stop()

        asyncio.run(scenario())

    def test_reset_mid_read_maps_to_connection_lost(self):
        """An abortive close (RST while a response is owed) must map the
        stdlib ConnectionResetError to the typed error."""
        async def scenario():
            async def resetting_server(reader, writer):
                await reader.readline()
                socket_obj = writer.get_extra_info("socket")
                # SO_LINGER 0: close() sends RST instead of FIN.
                import socket as socket_module
                import struct

                socket_obj.setsockopt(
                    socket_module.SOL_SOCKET, socket_module.SO_LINGER,
                    struct.pack("ii", 1, 0))
                writer.close()

            stub = await asyncio.start_server(resetting_server,
                                              "127.0.0.1", 0)
            port = stub.sockets[0].getsockname()[1]
            client = ServiceClient(*await asyncio.open_connection(
                port=port, limit=protocol.LINE_LIMIT))
            with pytest.raises(ConnectionLostError) as excinfo:
                await asyncio.wait_for(client.sign(b"m", "demo"),
                                       timeout=30)
            assert excinfo.value.in_flight == (1,)
            await client.close()
            stub.close()
            await stub.wait_closed()

        asyncio.run(scenario())


class TestRestart:
    def test_client_reconnects_after_server_restart(self):
        async def scenario():
            service = make_service(target_batch_size=1)
            server = SigningServer(service, port=0)
            await server.start()
            port = server.port
            client = await ServiceClient.open(port=port)
            first = await asyncio.wait_for(client.sign(b"gen-1", "demo"),
                                           timeout=60)
            await server.stop()
            # The old connection fails fast with a typed error...
            await asyncio.wait_for(asyncio.shield(client._read_task),
                                   timeout=5)
            with pytest.raises(ServiceError, match="connection closed"):
                await client.ping()
            await client.close()
            # ... and a reconnect against the restarted server (same
            # port, same keystore) resumes byte-identical signing.
            restarted = SigningServer(make_service(target_batch_size=1),
                                      port=port)
            await restarted.start()
            client = await ServiceClient.open(port=port)
            try:
                second = await asyncio.wait_for(
                    client.sign(b"gen-1", "demo"), timeout=60)
                assert second["signature"] == first["signature"]
            finally:
                await client.close()
                await restarted.stop()

        asyncio.run(scenario())

    def test_close_fails_in_flight_requests_as_connection_lost(self):
        """Closing a client under in-flight requests fails them with the
        retryable typed error, so a router that drops a slow node's wire
        fails the request over instead of reporting it as an error."""
        async def scenario():
            async def silent_server(reader, writer):
                await reader.readline()
                await reader.read()  # never answers

            stub = await asyncio.start_server(silent_server, "127.0.0.1", 0)
            port = stub.sockets[0].getsockname()[1]
            client = ServiceClient(*await asyncio.open_connection(
                port=port, limit=protocol.LINE_LIMIT))
            pending = asyncio.ensure_future(client.sign(b"m", "demo"))
            await asyncio.sleep(0.05)
            await client.close()
            with pytest.raises(ConnectionLostError, match="client closed"):
                await asyncio.wait_for(pending, timeout=30)
            stub.close()
            await stub.wait_closed()

        asyncio.run(scenario())
