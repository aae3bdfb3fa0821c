"""The worker pool: sharded routing, byte-identity, and crash recovery.

The load-bearing properties: (1) the pooled path produces signatures
byte-identical to the scalar reference — split or unsplit, crash or no
crash; (2) a worker that dies mid-batch is transparent to the caller —
the batch is requeued onto a sibling, the dead slot respawns, and only
retry exhaustion surfaces as the typed
:class:`~repro.errors.WorkerCrashedError`.
"""

import time

import pytest

from repro.errors import BackendError, WorkerCrashedError
from repro.runtime import WorkerPool, available_backends, get_backend
from repro.runtime import pool as pool_module
from repro.runtime.pool import HashRing

MESSAGES = [b"alpha", b"bravo", b"charlie", b"delta", b"echo"]
SEED = bytes(48)


@pytest.fixture(scope="module")
def keys():
    return get_backend("scalar", "128f", deterministic=True).keygen(seed=SEED)


@pytest.fixture(scope="module")
def reference(keys):
    scalar = get_backend("scalar", "128f", deterministic=True)
    return scalar.sign_batch(MESSAGES, keys).signatures


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(workers=2, deterministic=True) as shared:
        yield shared


def _wait_until(predicate, timeout_s: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


class TestHashRing:
    def test_routing_is_deterministic_and_in_range(self):
        ring = HashRing(4)
        slots = [ring.slot_for(f"tenant-{i}/default") for i in range(64)]
        assert slots == [ring.slot_for(f"tenant-{i}/default")
                         for i in range(64)]
        assert all(0 <= slot < 4 for slot in slots)
        # 64 tenants over 4 slots: consistent hashing must actually spread.
        assert len(set(slots)) > 1

    def test_zero_slots_rejected(self):
        with pytest.raises(BackendError, match="slot"):
            HashRing(0)


class TestPoolSigning:
    def test_byte_identical_to_reference(self, pool, keys, reference):
        outcome = pool.sign_batch(MESSAGES, keys, "128f",
                                  shard_key="acme/default")
        assert outcome.signatures == reference
        assert outcome.requeues == 0
        assert len(outcome.workers) == 1

    def test_split_batch_byte_identical(self, pool, keys, reference):
        outcome = pool.sign_batch(MESSAGES * 2, keys, "128f", split=True)
        assert outcome.signatures == reference + reference
        assert set(outcome.workers) == {0, 1}

    def test_shard_affinity_is_stable(self, pool, keys):
        slot = pool.worker_for("acme/default")
        for _ in range(3):
            outcome = pool.sign_batch([b"affine"], keys, "128f",
                                      shard_key="acme/default")
            assert outcome.workers == (slot,)

    def test_empty_batch(self, pool, keys):
        outcome = pool.sign_batch([], keys, "128f")
        assert outcome.signatures == []
        assert outcome.workers == ()

    def test_ping_and_stats_shape(self, pool):
        assert pool.ping(timeout=10.0) == {0: True, 1: True}
        stats = pool.stats()
        assert stats["workers"] == 2
        assert stats["alive"] == 2
        assert set(stats["per_worker"]) == {"0", "1"}
        for worker in stats["per_worker"].values():
            assert worker["alive"] is True
            assert worker["utilization"] >= 0.0
            assert worker["in_flight"] >= 0

    def test_warm_preloads_key_caches(self, keys):
        with WorkerPool(workers=1, deterministic=True) as fresh:
            fresh.warm(keys, "128f")
            assert _wait_until(
                lambda: fresh.stats()["per_worker"]["0"]["warms"] == 1)

    def test_result_timeout_abandons_the_job(self, pool, keys):
        job_id = pool.submit([b"slow enough to outlive 1ms"], keys, "128f",
                             worker=0)
        with pytest.raises(BackendError, match="timed out"):
            pool.result(job_id, timeout=0.001)
        # The worker still finishes the batch, but the result must be
        # discarded (not parked forever) and the accounting must settle.
        assert _wait_until(lambda: job_id not in pool._jobs)
        assert _wait_until(
            lambda: pool.stats()["per_worker"]["0"]["in_flight"] == 0)
        assert job_id not in pool._results
        assert job_id not in pool._abandoned
        # The slot keeps serving afterwards.
        assert pool.sign_batch([b"next"], keys, "128f",
                               worker=0).signatures

    def test_worker_side_error_is_typed_not_a_crash(self, pool, keys):
        from repro.sphincs.signer import KeyPair

        bad = KeyPair(b"\x00" * 3, keys.sk_prf, keys.pk_seed, keys.pk_root)
        with pytest.raises(BackendError, match="failed batch"):
            pool.sign_batch([b"x"], bad, "128f")
        # The worker survived the error and keeps serving.
        assert pool.sign_batch([b"y"], keys, "128f").signatures


class TestValidation:
    def test_bad_sizes_rejected(self):
        with pytest.raises(BackendError, match="workers"):
            WorkerPool(workers=0)
        with pytest.raises(BackendError, match="max_retries"):
            WorkerPool(workers=1, max_retries=-1)

    def test_out_of_range_slot_rejected(self, pool, keys):
        with pytest.raises(BackendError, match="out of range"):
            pool.submit([b"x"], keys, "128f", worker=7)

    def test_bad_crash_spec_rejected(self, pool):
        with pytest.raises(BackendError, match="inject_crash"):
            pool.inject_crash(0, when="eventually")

    def test_closed_pool_rejects_submissions(self, keys):
        closing = WorkerPool(workers=1, deterministic=True)
        closing.close()
        with pytest.raises(BackendError, match="closed"):
            closing.submit([b"x"], keys, "128f")


class TestCrashRecovery:
    """Kill workers mid-batch; the acceptance story of the pool."""

    def test_mid_batch_crash_requeues_to_sibling(self, keys, reference):
        with WorkerPool(workers=2, deterministic=True,
                        max_retries=2) as pool:
            victim = pool.worker_for("victim/default")
            sibling = 1 - victim
            pool.inject_crash(victim, when="next-job")
            outcome = pool.sign_batch(MESSAGES, keys, "128f",
                                      shard_key="victim/default")
            # Byte-identical result despite the crash, served by the
            # sibling, and the requeue is visible to the caller.
            assert outcome.signatures == reference
            assert outcome.workers == (sibling,)
            assert outcome.requeues == 1
            # The pool heals back to N workers...
            assert _wait_until(lambda: pool.alive_workers() == 2)
            stats = pool.stats()
            assert stats["respawns"] == 1
            assert stats["per_worker"][str(victim)]["requeues"] == 1
            # ...and the respawned slot serves again.
            again = pool.sign_batch(MESSAGES[:1], keys, "128f",
                                    worker=victim)
            assert again.workers == (victim,)

    def test_retry_exhaustion_raises_typed_error(self, keys):
        with WorkerPool(workers=2, deterministic=True,
                        max_retries=0) as pool:
            pool.inject_crash(0, when="next-job")
            pool.inject_crash(1, when="next-job")
            with pytest.raises(WorkerCrashedError, match="exhausted"):
                pool.sign_batch(MESSAGES[:2], keys, "128f", worker=0)

    def test_failed_respawns_do_not_burn_the_retry_budget(self, keys):
        """max_retries bounds actual delivery attempts, not recovery
        ticks: with every respawn transiently failing and no live
        sibling, the batch parks instead of exhausting its budget at
        one tick per 50 ms."""
        with WorkerPool(workers=1, deterministic=True,
                        max_retries=1) as pool:
            real_spawn = pool._spawn
            failures = {"left": 4}

            def flaky_spawn(slot):
                if failures["left"] > 0:
                    failures["left"] -= 1
                    raise OSError("fork: EAGAIN (simulated)")
                real_spawn(slot)

            pool._spawn = flaky_spawn
            pool.inject_crash(0, when="next-job")
            outcome = pool.sign_batch([b"parked"], keys, "128f",
                                      worker=0, timeout=60.0)
            # Four failed respawn ticks passed before delivery; only the
            # single real redelivery counts against max_retries=1.
            assert outcome.requeues == 1
            assert failures["left"] == 0
            scalar = get_backend("scalar", "128f", deterministic=True)
            assert outcome.signatures == [scalar.sign(b"parked", keys)]

    def test_crash_now_respawns_idle_worker(self, keys):
        with WorkerPool(workers=2, deterministic=True) as pool:
            pool.inject_crash(0, when="now")
            assert _wait_until(lambda: pool.stats()["respawns"] == 1)
            assert _wait_until(lambda: pool.alive_workers() == 2)
            # Both slots still sign correctly after the respawn.
            outcome = pool.sign_batch(MESSAGES[:2], keys, "128f",
                                      worker=0)
            assert outcome.workers == (0,)


class TestEventDrivenHandOff:
    """Results, crashes and shutdown wake the collector at once.  The
    only timed wait left, the respawn retry interval, is stretched to
    30 s: any of these paths that still waited on it would time out."""

    @pytest.fixture(autouse=True)
    def slow_retry_interval(self, monkeypatch):
        monkeypatch.setattr(pool_module, "_RESPAWN_RETRY_S", 30.0)

    def test_warm_result_is_handed_off_without_a_tick(self, keys):
        with WorkerPool(workers=1, deterministic=True) as pool:
            pool.sign_batch([b"warm-up"], keys, "128f", timeout=10.0)
            outcome = pool.sign_batch([b"warm"], keys, "128f",
                                      timeout=10.0)
        assert outcome.elapsed_s - outcome.busy_s < 1.0

    def test_crash_is_detected_through_the_sentinel(self, keys, reference):
        with WorkerPool(workers=2, deterministic=True) as pool:
            victim = pool.worker_for("victim/default")
            pool.inject_crash(victim, when="next-job")
            started = time.monotonic()
            outcome = pool.sign_batch(MESSAGES, keys, "128f",
                                      shard_key="victim/default",
                                      timeout=10.0)
            assert time.monotonic() - started < 10.0
        assert outcome.requeues == 1
        assert outcome.signatures == reference

    def test_close_wakes_a_blocked_collector(self):
        pool = WorkerPool(workers=2, deterministic=True)
        time.sleep(0.2)  # let the idle collector block
        started = time.monotonic()
        pool.close()
        assert time.monotonic() - started < 5.0
        assert not pool._collector.is_alive()
        assert pool.alive_workers() == 0


class TestPooledBackend:
    def test_registered_in_registry(self):
        assert "pooled" in available_backends()

    def test_backend_byte_identical_and_reports_workers(self, keys,
                                                        reference):
        backend = get_backend("pooled", "128f", deterministic=True,
                              workers=2)
        try:
            result = backend.sign_batch(MESSAGES, keys)
            assert result.signatures == reference
            assert result.backend == "pooled"
            assert result.cache_stats["workers"] >= 1
            assert result.cache_stats["requeues"] == 0
            caps = backend.capabilities()
            assert caps.name == "pooled"
            assert "worker pool" in caps.notes
            assert backend.concurrent_dispatch is True
        finally:
            backend.close()

    def test_shared_pool_is_not_closed_by_backend(self, pool, keys):
        backend = get_backend("pooled", "128f", deterministic=True,
                              pool=pool)
        assert backend.sign_batch([b"shared"], keys).count == 1
        backend.close()  # must NOT close the shared pool
        assert pool.alive_workers() == 2
        assert pool.sign_batch([b"still-up"], keys, "128f").signatures

    def test_hash_context_declared_untappable(self):
        backend = get_backend("pooled", "128f", deterministic=True,
                              workers=1)
        try:
            with pytest.raises(BackendError, match="scalar"):
                backend.hash_context()
        finally:
            backend.close()

    def test_local_client_routes_to_pooled(self, reference):
        from repro.api import LocalClient

        client = LocalClient(backend="pooled", deterministic=True,
                             backend_options={"pooled": {"workers": 2}})
        try:
            client.add_tenant("acme", "128f", seed=SEED)
            results = client.sign_many("acme", MESSAGES)
        finally:
            client.close()
        assert client._pool.alive_workers() == 0  # owned pool closed
        assert [result.signature for result in results] == reference
        assert {result.backend for result in results} == {"pooled"}
        assert {result.batch_size for result in results} == {len(MESSAGES)}
