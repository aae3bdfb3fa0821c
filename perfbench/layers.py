"""Per-layer probes for the traced run, all from outside the program.

Each probe calls one layer's public functions in this process on the
workload's own inputs and times them; none of them adds tracing inside
``src/``.  Counters the server already exposes (``SignResult`` fields,
the ``stats`` verb) are read by :mod:`run` directly.
"""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path

from repro.hashes.address import AddressTemplate, AddressType, packed_u32
from repro.ledger import LedgerService, MerkleLog
from repro.obs.trace import tap_stages
from repro.runtime.fastops import FastOps
from repro.runtime.layercache import HypertreeLayerCache
from repro.runtime.pool import WorkerPool
from repro.runtime.vectorized import VectorizedBackend
from repro.sphincs.signer import KeyPair, Sphincs

from server import TENANT


def _round_times(fn, calls: int, rounds: int = 15) -> list[float]:
    """Mean seconds per call of ``fn()`` in each of *rounds* rounds."""
    per_call = []
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - started) / calls)
    return per_call


def floor_us(keys: KeyPair, params: str) -> float:
    """One hash at the floor: the ``mid.copy(); update; digest`` step of
    FastOps' WOTS chain walk, in microseconds.  The fastest round wins:
    a floor is what the host can do, not what a noisy neighbour left."""
    mid = Sphincs(params).ctx.midstate(keys.pk_seed)
    prefix = AddressTemplate(0, 0, AddressType.WOTS_HASH, 0).prefix \
        + packed_u32(0)
    word, value = packed_u32(1), bytes(len(keys.pk_seed))

    def step() -> None:
        h = mid.copy()
        h.update(prefix)
        h.update(word)
        h.update(value)
        h.digest()

    return min(_round_times(step, calls=20000)) * 1e6


class _Reference:
    """The scalar reference stages over a layer cache warmed the way the
    server's is: pinned layers prewarmed, then *warm* messages signed."""

    def __init__(self, keys: KeyPair, params: str, budget_mb: float,
                 warm: list[bytes]):
        self.keys = keys
        self.scheme = Sphincs(params, deterministic=True)
        self.cache = HypertreeLayerCache(params, int(budget_mb * 2 ** 20))
        ops = FastOps(self.scheme.ctx, keys.sk_seed, keys.pk_seed,
                      self.cache)
        ops.prewarm()
        for message in warm:
            task = self.scheme.prepare(message, keys)
            _, fors_pk = ops.fors_sign(task.fors_msg, task.idx_tree,
                                       task.idx_leaf)
            ops.hypertree_sign(fors_pk, task.idx_tree, task.idx_leaf)

    def hash_context(self):
        return self.scheme.ctx

    def sign(self, message: bytes) -> None:
        task = self.scheme.prepare(message, self.keys)
        _, fors_pk = self.scheme.fors_stage(task, self.keys)
        self.scheme.hypertree_stage(task, self.keys, fors_pk,
                                    cache=self.cache)


def hashes_per_sig(keys: KeyPair, params: str, budget_mb: float,
                   warm: list[bytes], sample: list[bytes]) -> dict:
    """Exact hash calls per signature by stage (``tap_stages`` counts)."""
    reference = _Reference(keys, params, budget_mb, warm)
    with tap_stages(reference) as tap:
        for message in sample:
            reference.sign(message)
    counts = tap.stage_hashes
    return {
        "fors": counts.get("fors", 0) / len(sample),
        "hypertree": sum(counts.get(stage, 0) for stage
                         in ("wots", "merkle", "hypertree")) / len(sample),
    }


def fastops_ms_per_sig(keys: KeyPair, params: str, budget_mb: float,
                       warm: list[bytes], units: list[list[bytes]]) -> dict:
    """``VectorizedBackend.sign_batch`` stage times on the workload's own
    batches, per signature."""
    backend = VectorizedBackend(params, deterministic=True,
                                cache_budget_mb=budget_mb)
    backend.prewarm_key(keys)
    if warm:
        backend.sign_batch(warm, keys)
    totals = {"fors": 0.0, "hypertree": 0.0}
    for unit in units:
        stages = backend.sign_batch(unit, keys).stage_seconds
        for stage in totals:
            totals[stage] += stages[stage]
    count = sum(len(unit) for unit in units)
    return {stage: seconds * 1000.0 / count
            for stage, seconds in totals.items()}


def pool_overhead_ms(keys: KeyPair, params: str, settings: dict,
                     warm: list[bytes], units: list[list[bytes]],
                     seed: int) -> float:
    """Median ``WorkerPool.sign_batch`` elapsed minus worker busy time on
    replayed batches: the pool's IPC and collector hand-off per batch,
    on a pool built from the deployment *settings*.

    Each batch follows a seeded random pause, so the hand-off is caught
    at a random phase of the pool's polling collector, as batches that
    arrive on their own schedule are; back-to-back replays would lock
    onto one phase.
    """
    pauses = random.Random(f"pool-replay/{seed}")
    with WorkerPool(workers=settings["workers"],
                    backend=settings["backend"],
                    deterministic=settings["deterministic"],
                    cache_budget_mb=settings["cache_budget_mb"]) as pool:
        # Routed as the service's pooled backend routes: by key shard,
        # with batches split across the workers.
        route = {"shard_key": keys.pk_seed.hex()}
        pool.warm(keys, params, **route)
        # Queued behind the prewarm, so timing starts on a warm worker.
        pool.sign_batch(warm or [b"pool warm-up"], keys, params,
                        split=True, **route)
        overheads = []
        for unit in units:
            time.sleep(pauses.uniform(0.0, 0.1))
            outcome = pool.sign_batch(unit, keys, params, split=True,
                                      **route)
            # A split batch keeps several workers busy at once.
            busy_s = outcome.busy_s / max(1, len(set(outcome.workers)))
            overheads.append((outcome.elapsed_s - busy_s) * 1000.0)
    return statistics.median(overheads)


def prove_ms(ledger_root: Path, proofs: list[dict]) -> float:
    """Median ``LedgerService.prove`` time for the proofs the window
    fetched, on the server's own log (after the server stopped)."""
    ledger = LedgerService(None, tenant=TENANT, root=ledger_root)
    samples = []
    for proof in proofs:
        started = time.perf_counter()
        ledger.prove(proof["index"], proof["size"])
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


def durable_append_ms(root: Path, entries: list[bytes],
                      rounds: int = 5) -> float:
    """Median ``MerkleLog.append`` time for one seal's entries (segment
    write plus fsync) into a fresh log under *root*."""
    log = MerkleLog(root)
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        log.append(entries)
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


def codec_us(encode, decode, calls: int = 200) -> tuple[float, float]:
    """Median microseconds for one ``encode()`` and one ``decode(frames)``."""
    frames = encode()
    return (statistics.median(_round_times(encode, calls)) * 1e6,
            statistics.median(_round_times(lambda: decode(frames), calls))
            * 1e6)
