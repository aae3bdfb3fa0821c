"""The three workloads, their seeded inputs and their correctness gate.

Each workload drives a running :class:`~server.ServerProcess` over
loopback TCP with protocol v3 and fills a :class:`Window` with what the
client saw.  Inputs come only from the seed: the server receives the
generated messages and nothing else.

* ``sign-distinct`` — closed loop, one connection, ``sign_many`` batches
  of 8 distinct 256-byte messages.  Inputs share almost no work, so the
  lower hypertree layers miss the layer cache on nearly every signature.
* ``sign-repeat`` — open loop, Poisson arrivals at 30 requests/s, single
  ``sign`` requests cycling a working set of 8 payloads signed once
  before timing.  Every hypertree subtree and link hits the cache, so
  per-request overheads (batcher deadline, codec, pool hand-off) show.
* ``ledger-read-heavy`` — closed loop: one ``log-append`` of 4 events,
  then 16 ``log-proof`` fetches at seeded indexes, each checked with
  ``api.verify_inclusion`` through the served ``verify`` verb.  Mostly
  verification and Merkle proofs; the pool signs only the appends.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import AsyncClient, TcpClient, verify_inclusion
from repro.errors import ServiceError
from repro.ledger import InclusionProof, decode_entry, run_audit
from repro.service import ServiceClient, protocol
from repro.sphincs.signer import Sphincs

from server import EVENTS_PER_APPEND, TENANT, build_keystore

MESSAGE_BYTES = 256
DISTINCT_BATCH = 8
REPEAT_WORKING_SET = 8
REPEAT_RATE_PER_S = 30.0
#: Work per run is fixed by ``--seconds`` and these nominal rates (what
#: the reference two-core host sustains), never by the clock: every run
#: of one seed then does exactly the same hash work.
DISTINCT_NOMINAL_SIGS_PER_S = 10.0
LEDGER_NOMINAL_ROUNDS_PER_S = 0.7
#: A request answered later than this after its due time misses the SLO.
SLO_MS = 100.0
PROOFS_PER_APPEND = 16
#: Seeded signatures per run re-signed by the scalar reference scheme.
REFERENCE_SAMPLE = 2
#: How long an open-loop window waits for stragglers after its last send.
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Window:
    """What the client observed over one timed window."""

    elapsed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    ops: int = 0
    samples: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list))
    #: Every (message, signature) pair the server returned.
    signed: list[tuple[bytes, bytes]] = field(default_factory=list)
    #: Every inclusion proof fetched (wire dicts), ledger only.
    proofs: list[dict] = field(default_factory=list)
    verifies: int = 0
    #: ``(params, backend)`` as the server named them in its results.
    result_meta: tuple[str, str] = ("", "")
    #: ``stats`` snapshots around the traced window, and their round
    #: trips' total time (the only work tracing adds to a run).
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    stats_s: float = 0.0

    def fail(self, count: int = 1) -> None:
        self.attempted += count
        self.failed += count


def _message(rng: random.Random) -> bytes:
    return rng.randbytes(MESSAGE_BYTES)


class Workload:
    """Base: a seeded input stream plus the client connection(s)."""

    name = ""
    ledger = False
    #: What one counted operation is, for the report.
    op = ""

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, *label: object) -> random.Random:
        return random.Random("/".join(map(str, (self.name, self.seed)
                                          + label)))

    async def open(self, client: AsyncClient, port: int) -> None:
        """Take over the setup connection; open any others."""
        self.client = client

    async def prepare(self) -> None:
        """Untimed warm-up before the timed window."""

    async def stats(self) -> dict:
        return await self.client.stats()

    async def close(self) -> None:
        await self.client.close()

    def sign_units(self, window: Window) -> list[list[bytes]]:
        """The workload's own signing batches, for in-process replay."""
        raise NotImplementedError

    def codec(self, window: Window):
        """``(encode, decode, signatures)`` for one operation's frames:
        ``encode()`` packs every request and response frame it puts on
        the wire, ``decode(frames)`` unpacks them all again."""
        raise NotImplementedError

    def warm_messages(self) -> list[bytes]:
        """Messages the server's cache had already signed before timing."""
        return []

    def returned(self, window: Window) -> list[tuple[bytes, bytes]]:
        """The (message, signature) pairs the gate checks."""
        return window.signed

    def check(self, window: Window, ledger_root: Path | None
              ) -> tuple[int, list[float], list[str]]:
        """The correctness gate, outside every timed window.

        Returns ``(failures, verify_ms samples, problems)``: every
        returned signature must verify under the tenant key, and a
        seeded sample must equal deterministic ``Sphincs.sign`` byte for
        byte.
        """
        keys, params = build_keystore().resolve(TENANT)
        scheme = Sphincs(params, deterministic=True)
        signed = self.returned(window)
        verdicts: dict[tuple[bytes, bytes], bool] = {}
        verify_ms = []
        for pair in signed:
            if pair not in verdicts:
                started = time.perf_counter()
                verdicts[pair] = scheme.verify(pair[0], pair[1], keys.public)
                verify_ms.append((time.perf_counter() - started) * 1000.0)
        failures = sum(not verdicts[pair] for pair in signed)
        problems = ([f"{failures} returned signatures do not verify"]
                    if failures else [])
        sample = self.rng("reference").sample(
            sorted(set(signed)), min(REFERENCE_SAMPLE, len(set(signed))))
        mismatched = sum(scheme.sign(message, keys) != signature
                         for message, signature in sample)
        if mismatched:
            problems.append(f"{mismatched} sampled signatures differ from "
                            "deterministic Sphincs.sign")
        return failures + mismatched, verify_ms, problems


class SignDistinct(Workload):
    name = "sign-distinct"
    op = "signature"

    def batch(self, index: int) -> list[bytes]:
        rng = self.rng("batch", index)
        return [_message(rng) for _ in range(DISTINCT_BATCH)]

    async def run(self, window: Window, seconds: float) -> None:
        """Closed loop over a fixed number of batches."""
        batches = max(1, round(seconds * DISTINCT_NOMINAL_SIGS_PER_S
                               / DISTINCT_BATCH))
        started = time.perf_counter()
        for index in range(batches):
            messages = self.batch(index)
            sent = time.perf_counter()
            try:
                results = await self.client.sign_many(TENANT, messages)
            except ServiceError:
                window.fail(len(messages))
                continue
            rtt_ms = (time.perf_counter() - sent) * 1000.0
            window.attempted += len(messages)
            window.ops += len(messages)
            window.samples["latency_ms"].append(rtt_ms)
            window.samples["rate_per_s"].append(
                len(messages) * 1000.0 / rtt_ms)
            window.samples["wire_ms"].append(
                rtt_ms - max(result.total_ms for result in results))
            for result in results:
                window.samples["wait_ms"].append(result.wait_ms)
                window.samples["sign_ms"].append(
                    result.total_ms - result.wait_ms)
                window.samples["batch_size"].append(result.batch_size)
            window.signed += [(message, result.signature) for message, result
                              in zip(messages, results)]
            window.result_meta = (results[0].params, results[0].backend)
        window.elapsed_s = time.perf_counter() - started

    def codec(self, window: Window):
        messages = [message for message, _ in window.signed[:DISTINCT_BATCH]]
        signatures = [sig for _, sig in window.signed[:DISTINCT_BATCH]]
        params, backend = window.result_meta

        def encode() -> list[bytes]:
            return [
                protocol.encode_frame(
                    protocol.FRAME_CODES["sign-many"],
                    protocol.pack_sign_many_request(TENANT, "default",
                                                    messages), id=1),
                # Timing fields are fixed-width doubles: their values do
                # not change the frame.
                *(protocol.encode_frame(
                    protocol.FRAME_SIGN_MANY_ITEM,
                    protocol.pack_sign_many_item(index, {
                        "signature": signature, "params": params,
                        "backend": backend, "batch_size": len(messages),
                        "wait_ms": 0.5, "total_ms": 700.0}),
                    id=1, flags=protocol.FLAG_OK)
                  for index, signature in enumerate(signatures)),
                protocol.encode_frame(
                    protocol.FRAME_SIGN_MANY_END,
                    protocol.pack_sign_many_end(len(messages)), id=1,
                    flags=protocol.FLAG_OK),
            ]

        def decode(frames: list[bytes]) -> None:
            payloads = [protocol.decode_frame(frame[4:]).payload
                        for frame in frames]
            protocol.unpack_sign_many_request(payloads[0])
            for payload in payloads[1:-1]:
                protocol.unpack_sign_many_item(payload)
            protocol.unpack_sign_many_end(payloads[-1])

        return encode, decode, len(signatures)

    def sign_units(self, window: Window) -> list[list[bytes]]:
        messages = [message for message, _ in window.signed]
        return [messages[i:i + DISTINCT_BATCH]
                for i in range(0, min(len(messages), 3 * DISTINCT_BATCH),
                               DISTINCT_BATCH)]


class SignRepeat(Workload):
    name = "sign-repeat"
    op = "request"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng("working-set")
        self.working_set = [_message(rng) for _ in range(REPEAT_WORKING_SET)]

    def warm_messages(self) -> list[bytes]:
        return self.working_set

    async def prepare(self) -> None:
        await self.client.sign_many(TENANT, self.working_set)

    async def run(self, window: Window, seconds: float) -> None:
        """Open loop: Poisson sends for *seconds*, timed from due time."""
        # A Poisson process conditioned on its count: rate x seconds
        # arrivals at uniform random offsets, so every run offers the
        # same load and only the spacing varies with the seed.
        rng = self.rng("arrivals")
        schedule = sorted(rng.uniform(0.0, seconds) for _ in
                          range(max(1, round(REPEAT_RATE_PER_S * seconds))))

        async def one(due: float, sent: float, message: bytes) -> None:
            try:
                result = await self.client.sign(TENANT, message)
            except ServiceError:
                window.fail()
                window.samples["slo_met"].append(0.0)
                return
            done = time.perf_counter()
            latency_ms = (done - due) * 1000.0
            window.attempted += 1
            window.ops += 1
            window.samples["latency_ms"].append(latency_ms)
            window.samples["slo_met"].append(float(latency_ms <= SLO_MS))
            window.samples["wire_ms"].append(
                (done - sent) * 1000.0 - result.total_ms)
            window.samples["wait_ms"].append(result.wait_ms)
            window.samples["sign_ms"].append(result.total_ms - result.wait_ms)
            window.samples["batch_size"].append(result.batch_size)
            window.signed.append((message, result.signature))
            window.result_meta = (result.params, result.backend)

        tasks = []
        started = time.perf_counter()
        for number, offset in enumerate(schedule):
            due = started + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            window.samples["late_ms"].append((sent - due) * 1000.0)
            message = self.working_set[number % REPEAT_WORKING_SET]
            tasks.append(asyncio.create_task(one(due, sent, message)))
        done, pending = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_S) \
            if tasks else (set(), set())
        for task in pending:
            task.cancel()
            window.fail()
            window.samples["slo_met"].append(0.0)
        await asyncio.gather(*done, *pending, return_exceptions=True)
        window.elapsed_s = time.perf_counter() - started

    def sign_units(self, window: Window) -> list[list[bytes]]:
        return [[message] for message in self.working_set]

    def codec(self, window: Window):
        message, signature = window.signed[0]
        params, backend = window.result_meta
        code = protocol.FRAME_CODES["sign"]

        def encode() -> list[bytes]:
            return [
                protocol.encode_frame(code, protocol.pack_sign_request(
                    TENANT, "default", message), id=1),
                protocol.encode_frame(code, protocol.pack_sign_result(
                    signature, params, backend, 1, 10.0, 50.0),
                    id=1, flags=protocol.FLAG_OK),
            ]

        def decode(frames: list[bytes]) -> None:
            request, response = (protocol.decode_frame(frame[4:]).payload
                                 for frame in frames)
            protocol.unpack_sign_request(request)
            protocol.unpack_sign_result(response)

        return encode, decode, 1


class _CountingVerifier:
    """The sync client ``verify_inclusion`` calls, with every served
    ``verify`` counted and timed."""

    def __init__(self, client: TcpClient):
        self.client = client
        self.window: Window | None = None

    def verify(self, *args, **kwargs):
        started = time.perf_counter()
        result = self.client.verify(*args, **kwargs)
        self.window.samples["verify_rtt_ms"].append(
            (time.perf_counter() - started) * 1000.0)
        self.window.verifies += 1
        return result


class LedgerReadHeavy(Workload):
    name = "ledger-read-heavy"
    ledger = True
    op = "verified proof"

    async def open(self, client: AsyncClient, port: int) -> None:
        # Two connections: the raw wire client for the log-* verbs on this
        # thread, and the sync typed client verify_inclusion needs.
        await client.close()
        self.client = await ServiceClient.open(port=port)
        await self.client.request({"op": "hello", "version": 3})
        self.verifier = _CountingVerifier(TcpClient.connect(port=port))

    async def close(self) -> None:
        self.verifier.client.close()
        await self.client.close()

    def events(self, round_index: int) -> list[bytes]:
        rng = self.rng("events", round_index)
        return [_message(rng) for _ in range(EVENTS_PER_APPEND)]

    async def run(self, window: Window, seconds: float) -> None:
        """Closed loop over a fixed number of append-then-prove rounds."""
        self.verifier.window = window
        rounds = max(1, round(seconds * LEDGER_NOMINAL_ROUNDS_PER_S))
        started = time.perf_counter()
        for round_index in range(rounds):
            events = self.events(round_index)
            rng = self.rng("proofs", round_index)
            round_started = time.perf_counter()
            verified = window.ops
            try:
                appended = await self.client.request({
                    "op": "log-append",
                    "entries": [protocol.pack_bytes(event)
                                for event in events]})
            except ServiceError:
                window.fail()
                continue
            window.attempted += 1
            window.samples["latency_ms"].append(
                (time.perf_counter() - round_started) * 1000.0)
            size = appended["checkpoint"]["size"]
            for _ in range(PROOFS_PER_APPEND):
                index = rng.randrange(size)
                sent = time.perf_counter()
                try:
                    proof = (await self.client.request({
                        "op": "log-proof", "index": index,
                        "size": size}))["proof"]
                    window.samples["proof_rtt_ms"].append(
                        (time.perf_counter() - sent) * 1000.0)
                    # Blocks this loop while the sync client's own thread
                    # does the I/O; nothing else is in flight (closed loop).
                    valid = verify_inclusion(self.verifier, proof)
                except ServiceError:
                    window.fail()
                    continue
                window.attempted += 1
                window.proofs.append(proof)
                if valid:
                    window.ops += 1
                else:
                    window.failed += 1
            window.samples["rate_per_s"].append(
                (window.ops - verified) / (time.perf_counter() - round_started))
        window.elapsed_s = time.perf_counter() - started

    def sign_units(self, window: Window) -> list[list[bytes]]:
        return [self.events(0), self.events(1)]

    def codec(self, window: Window):
        """One verified proof: the ``log-proof`` round trip plus the two
        served ``verify`` round trips ``verify_inclusion`` makes."""
        wire = window.proofs[0]
        proof = InclusionProof.from_dict(wire)
        checkpoint = proof.checkpoint
        checks = [(checkpoint.body, checkpoint.signature),
                  decode_entry(proof.entry)]
        proof_code = protocol.FRAME_CODES["log-proof"]
        verify_code = protocol.FRAME_CODES["verify"]

        def encode() -> list[bytes]:
            frames = [
                protocol.encode_frame(proof_code, protocol.pack_json(
                    {"index": proof.index, "size": proof.size}), id=1),
                protocol.encode_frame(proof_code, protocol.pack_json(
                    {"ok": True, "op": "log-proof", "proof": wire}),
                    id=1, flags=protocol.FLAG_OK),
            ]
            for message, signature in checks:
                frames += [
                    protocol.encode_frame(verify_code,
                                          protocol.pack_verify_request(
                                              TENANT, "default", message,
                                              signature), id=2),
                    protocol.encode_frame(verify_code,
                                          protocol.pack_verify_result(
                                              True, checkpoint.params),
                                          id=2, flags=protocol.FLAG_OK),
                ]
            return frames

        def decode(frames: list[bytes]) -> None:
            payloads = [protocol.decode_frame(frame[4:]).payload
                        for frame in frames]
            protocol.unpack_json(payloads[0])
            protocol.unpack_json(payloads[1])
            for request, response in zip(payloads[2::2], payloads[3::2]):
                protocol.unpack_verify_request(request)
                protocol.unpack_verify_result(response)

        return encode, decode, len(checks)

    def returned(self, window: Window) -> list[tuple[bytes, bytes]]:
        """The entry and checkpoint signatures every served proof carried
        (each also checked through ``verify_inclusion`` in the window)."""
        pairs = []
        for wire in window.proofs:
            proof = InclusionProof.from_dict(wire)
            pairs += [decode_entry(proof.entry),
                      (proof.checkpoint.body, proof.checkpoint.signature)]
        return pairs

    def check(self, window: Window, ledger_root: Path | None
              ) -> tuple[int, list[float], list[str]]:
        """The base gate on :meth:`returned`, plus an audit of the log."""
        failures, verify_ms, problems = super().check(window, ledger_root)
        report = run_audit(ledger_root, build_keystore(), tenant=TENANT)
        if not report["ok"]:
            failures += 1
            problems += report["problems"][:3]
        return failures, verify_ms, problems


WORKLOADS = {cls.name: cls for cls in (SignDistinct, SignRepeat,
                                       LedgerReadHeavy)}
