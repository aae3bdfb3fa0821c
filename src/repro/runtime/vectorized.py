"""The vectorized CPU backend: batched, template-driven, cache-amortized.

Same hashes, far less interpreter overhead.  One shared
:class:`HashContext` midstate cache feeds every stage; addresses come from
precomputed templates (:mod:`repro.runtime.fastops`); Merkle subtrees and
upper-layer WOTS link signatures persist in a per-key
:class:`~repro.runtime.layercache.HypertreeLayerCache` — the upper
hypertree layers are shared by construction, so a warm key recomputes
only the message-dependent bottom of each path.  An optional
multiprocessing shard pool splits very large batches across cores.

Signatures are byte-identical to the scalar backend in deterministic mode
(pinned by ``tests/runtime``) because every SHA-256 input is unchanged —
this backend only reorganizes *when* and *how cheaply* they are computed.
"""

from __future__ import annotations

import os
import time
from typing import Sequence

from ..errors import BackendError
from ..hashes.thash import HashContext
from ..params import SphincsParams
from ..sphincs.signer import KeyPair
from .backend import BackendCapabilities, BatchSignResult, SigningBackend
from .fastops import FastOps
from .layercache import DEFAULT_BUDGET_MB, HypertreeLayerCache

__all__ = ["VectorizedBackend"]


def _shard_worker(job: tuple) -> list[bytes]:
    """Sign one shard in a worker process (top-level for picklability)."""
    params_name, deterministic, key_fields, messages = job
    backend = VectorizedBackend(params_name, deterministic=deterministic)
    return backend.sign_batch(messages, KeyPair(*key_fields)).signatures


class VectorizedBackend(SigningBackend):
    """Batch signing with amortized hot paths.

    Parameters
    ----------
    shards:
        When > 1, batches of at least ``2 * shards`` messages are split
        across a ``multiprocessing`` pool of this many worker processes.
        Default 0 (in-process); per-stage timings and cache statistics are
        only available in-process.
    cache_budget_mb:
        Per-key layer-cache byte budget (pinned top layers + LRU working
        set, sized by :mod:`repro.runtime.layercache`).  Default
        ``DEFAULT_BUDGET_MB``.
    """

    name = "vectorized"

    def __init__(self, params: SphincsParams | str,
                 deterministic: bool = False, shards: int = 0,
                 cache_budget_mb: float | None = None):
        super().__init__(params, deterministic=deterministic)
        if shards < 0:
            raise BackendError(f"shards must be >= 0, got {shards}")
        self.shards = shards
        if cache_budget_mb is None:
            cache_budget_mb = DEFAULT_BUDGET_MB
        if cache_budget_mb <= 0:
            raise BackendError(
                f"cache_budget_mb must be > 0, got {cache_budget_mb}")
        self._budget_bytes = int(cache_budget_mb * 1024 * 1024)
        self.ctx: HashContext = self._scheme.ctx  # shared midstate cache
        self._fastops: dict[tuple[bytes, bytes], FastOps] = {}

    # ------------------------------------------------------------------
    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            kind="cpu",
            vectorized=True,
            deterministic=self.deterministic,
            preferred_batch=64,
            notes="address templates + shared midstates + per-key layer cache"
            + (f", {self.shards}-process shard pool" if self.shards > 1 else ""),
        )

    def _ops(self, keys: KeyPair) -> FastOps:
        key = (keys.sk_seed, keys.pk_seed)
        ops = self._fastops.get(key)
        if ops is None:
            if len(self._fastops) >= 8:  # a service signs under few keys
                self._fastops.pop(next(iter(self._fastops)))
            ops = FastOps(self.ctx, keys.sk_seed, keys.pk_seed,
                          HypertreeLayerCache(self.params,
                                              self._budget_bytes))
            self._fastops[key] = ops
        return ops

    # ------------------------------------------------------------------
    def prewarm_key(self, keys: KeyPair) -> None:
        """Precompute the pinned cache layers for *keys*."""
        self._ops(keys).prewarm()

    def invalidate_key(self, keys: KeyPair) -> None:
        """Drop all cached state for *keys* (rotation / tenant delete)."""
        self._fastops.pop((keys.sk_seed, keys.pk_seed), None)

    def invalidate_all(self) -> None:
        self._fastops.clear()

    def cache_stats(self) -> dict[str, int]:
        """Aggregate layer-cache counters across every resident key."""
        totals: dict[str, int] = {"keys": len(self._fastops)}
        for ops in self._fastops.values():
            for field, value in ops.cache.stats.items():
                if field in ("pinned_layers", "budget_bytes"):
                    totals[field] = max(totals.get(field, 0), value)
                else:
                    totals[field] = totals.get(field, 0) + value
        return totals

    # ------------------------------------------------------------------
    def hash_context(self) -> HashContext:
        """Not tappable: the hot path hashes straight off midstate
        templates (:mod:`repro.runtime.fastops`) and never calls
        ``HashContext.thash``/``prf``, so a fault installed there would
        silently never fire.  Fault injection targets the scalar
        backend."""
        raise BackendError(
            f"backend {self.name!r} hashes via midstate templates, not "
            "through HashContext.thash/prf; install faults on the "
            "'scalar' backend instead"
        )

    # ------------------------------------------------------------------
    def keygen(self, seed: bytes | None = None) -> KeyPair:
        """Fast-path keygen; also pre-warms the top subtree in the memo."""
        n = self.params.n
        if seed is None:
            seed = os.urandom(3 * n)
        if len(seed) != 3 * n:
            # Delegate so the error message stays identical to the scalar path.
            return self._scheme.keygen(seed=seed)
        sk_seed, sk_prf, pk_seed = seed[:n], seed[n:2 * n], seed[2 * n:]
        keys = KeyPair(sk_seed, sk_prf, pk_seed, b"")
        ops = self._ops(keys)  # bounded insert; shares the eviction policy
        return KeyPair(sk_seed, sk_prf, pk_seed, ops.root())

    # ------------------------------------------------------------------
    def sign_batch(self, messages: Sequence[bytes],
                   keys: KeyPair) -> BatchSignResult:
        started = time.perf_counter()
        if self.shards > 1 and len(messages) >= 2 * self.shards:
            return self._sign_sharded(messages, keys, started)

        ops = self._ops(keys)

        def fors_fn(task):
            return ops.fors_sign(task.fors_msg, task.idx_tree, task.idx_leaf)

        def ht_fn(task, fors_pk):
            ht_sig, root = ops.hypertree_sign(
                fors_pk, task.idx_tree, task.idx_leaf
            )
            if root != keys.pk_root:
                raise BackendError(
                    "vectorized hypertree root does not match public key"
                )
            return ht_sig

        result = self._staged_sign(messages, keys, started, fors_fn, ht_fn)
        result.cache_stats = dict(ops.cache.stats)
        return result

    def _sign_sharded(self, messages: Sequence[bytes], keys: KeyPair,
                      started: float) -> BatchSignResult:
        import multiprocessing

        shards = min(self.shards, len(messages))
        chunk = (len(messages) + shards - 1) // shards
        jobs = [
            (self.params.name, self.deterministic,
             (keys.sk_seed, keys.sk_prf, keys.pk_seed, keys.pk_root),
             list(messages[i:i + chunk]))
            for i in range(0, len(messages), chunk)
        ]
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork: spawn still works
            context = multiprocessing.get_context("spawn")
        with context.Pool(len(jobs)) as pool:
            shard_sigs = pool.map(_shard_worker, jobs)
        signatures = [sig for sigs in shard_sigs for sig in sigs]
        return self._timed_result(
            signatures, started,
            stage_seconds={"shard_pool": time.perf_counter() - started},
            cache_stats={"shards": len(jobs)},
        )
