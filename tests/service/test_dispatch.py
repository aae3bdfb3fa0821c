"""Service dispatch and the pooled service tier.

Covers the service-side half of the multi-core story: consistent-hash
routing of each key onto a worker by :class:`PooledBackend`, the pooled
end-to-end signing path (byte-identical, crash-transparent), per-worker
telemetry and the route table in the ``stats`` snapshot, the service's
process lifecycle, and the dispatch-overlap regression — two ready
batches for different tenants must sign *concurrently* when the backend
supports it, instead of serializing behind the service's sign lock.
"""

import asyncio
import multiprocessing
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.runtime import (PooledBackend, WorkerPool, get_backend,
                           register_backend)
from repro.runtime.backend import BackendCapabilities, SigningBackend
from repro.runtime.registry import _REGISTRY
from repro.service import (Keystore, SigningService, derive_seed,
                           render_snapshot)

SEED = bytes(48)


def _keystore(tenants=("acme", "beta")) -> Keystore:
    keystore = Keystore()
    for name in tenants:
        keystore.add_tenant(name, "128f")
        keystore.generate_key(name, "default",
                              seed=derive_seed(f"{name}/default", 16))
    return keystore


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(workers=2, deterministic=True) as shared:
        yield shared


def _jobs_by_slot(pool) -> dict[str, int]:
    return {slot: worker["jobs"]
            for slot, worker in pool.stats()["per_worker"].items()}


class TestPooledBackendRouting:
    def test_batch_lands_on_stable_shard_slot(self, pool):
        backend = PooledBackend("128f", deterministic=True, pool=pool)
        keys, _ = _keystore(("acme",)).resolve("acme", "default")
        slot = pool.worker_for(PooledBackend.shard_key(keys))
        assert slot == pool.worker_for(PooledBackend.shard_key(keys))
        assert 0 <= slot < pool.workers
        before = _jobs_by_slot(pool)
        result = backend.sign_batch([b"one", b"two"], keys)
        after = _jobs_by_slot(pool)
        assert {s: after[s] - before[s] for s in after} == {
            str(s): int(s == slot) for s in range(pool.workers)}
        scalar = get_backend("scalar", "128f", deterministic=True)
        assert result.signatures == scalar.sign_batch([b"one", b"two"],
                                                      keys).signatures

    def test_split_batch_byte_identical(self, pool):
        backend = PooledBackend("128f", deterministic=True, pool=pool)
        keys, _ = _keystore(("acme",)).resolve("acme", "default")
        messages = [f"m{i}".encode() for i in range(2 * pool.workers)]
        result = backend.sign_batch(messages, keys)
        assert result.cache_stats["workers"] == pool.workers
        scalar = get_backend("scalar", "128f", deterministic=True)
        assert result.signatures == scalar.sign_batch(messages,
                                                      keys).signatures

    def test_routes_recorded_in_stats(self, pool):
        keystore = _keystore(("acme",))
        keys, _ = keystore.resolve("acme", "default")
        service = SigningService(keystore, target_batch_size=2,
                                 max_wait_s=0.05, deterministic=True,
                                 pool=pool)

        async def run():
            await asyncio.gather(service.sign(b"one", "acme"),
                                 service.sign(b"two", "acme"))
            return service.stats()

        try:
            stats = asyncio.run(run())
        finally:
            service.close()
        assert pool.alive_workers() == pool.workers  # not the service's
        assert stats["pool"]["routes"] == {"acme/default": {
            "slot": pool.worker_for(PooledBackend.shard_key(keys)),
            "batches": 1, "messages": 2}}


class TestPooledService:
    def test_end_to_end_byte_identical_with_stats(self):
        keystore = _keystore()
        service = SigningService(keystore, target_batch_size=2,
                                 max_wait_s=0.05, deterministic=True,
                                 workers=2)

        async def run():
            outcomes = await asyncio.gather(*[
                service.sign(f"m{i}".encode(), tenant)
                for i in range(2) for tenant in ("acme", "beta")])
            await service.drain()
            return outcomes, service.stats()

        try:
            outcomes, stats = asyncio.run(run())
        finally:
            service.close()

        assert all(o.backend == "pooled[2]" for o in outcomes)
        for tenant in ("acme", "beta"):
            keys, _ = keystore.resolve(tenant, "default")
            scalar = get_backend("scalar", "128f", deterministic=True)
            for i, outcome in enumerate(o for o in outcomes
                                        if o.tenant == tenant):
                assert outcome.signature == scalar.sign(
                    f"m{i}".encode(), keys)
        # Per-worker telemetry rides the stats verb...
        assert stats["config"]["workers"] == 2
        pool_stats = stats["pool"]
        assert pool_stats["alive"] == 2
        assert {"acme/default", "beta/default"} <= set(pool_stats["routes"])
        # ...and renders in the human report.
        report = render_snapshot(stats)
        assert "Worker pool (2/2 alive" in report
        assert "Shard routing (consistent hash)" in report

    def test_tenant_keys_preloaded_on_home_workers(self):
        keystore = _keystore()
        service = SigningService(keystore, deterministic=True, workers=2)
        try:
            def warmed() -> int:
                per_worker = service.pool.stats()["per_worker"].values()
                return sum(worker["warms"] for worker in per_worker)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and warmed() < 2:
                time.sleep(0.05)
            assert warmed() == 2  # one key per tenant, each warmed once
        finally:
            service.close()

    def test_prewarm_only_at_construction_and_rotation(self):
        keystore = _keystore(("acme",))
        service = SigningService(keystore, target_batch_size=1,
                                 max_wait_s=0.01, deterministic=True,
                                 workers=2)
        warmed = []
        real_warm = service.pool.warm

        def warm(keys, params, **kwargs):
            warmed.append(keys.pk_seed)
            real_warm(keys, params, **kwargs)

        service.pool.warm = warm
        # A set whose first tenant arrives after startup: its first
        # batch signs cold instead of queueing behind a set-wide warm.
        keystore.add_tenant("late", "192f")
        for key_name in ("default", "spare"):
            keystore.generate_key("late", key_name,
                                  seed=derive_seed(f"late/{key_name}", 24))

        async def first_batch():
            outcome = await service.sign(b"late", "late")
            await service.drain()
            return outcome

        try:
            outcome = asyncio.run(first_batch())
            assert outcome.backend == "pooled[2]"
            assert warmed == []
            rotated = keystore.rotate_key(
                "late", "default", seed=derive_seed("late/rotated", 24))
            assert warmed == [rotated.pk_seed]
        finally:
            service.close()

    def test_worker_crash_is_transparent_to_clients(self):
        keystore = _keystore(("acme",))
        service = SigningService(keystore, target_batch_size=4,
                                 max_wait_s=0.05, deterministic=True,
                                 workers=2)

        keys, _ = keystore.resolve("acme", "default")

        async def run():
            victim = service.pool.worker_for(PooledBackend.shard_key(keys))
            service.pool.inject_crash(victim, when="next-job")
            outcome = await service.sign(b"survives", "acme")
            await service.drain()
            return outcome

        try:
            outcome = asyncio.run(run())
        finally:
            service.close()
        keys, _ = keystore.resolve("acme", "default")
        scalar = get_backend("scalar", "128f", deterministic=True)
        assert outcome.signature == scalar.sign(b"survives", keys)

    def test_rejects_negative_workers(self):
        with pytest.raises(Exception, match="workers"):
            SigningService(_keystore(), workers=-1)

    def test_rejects_pooled_backend_naming_workers(self):
        with pytest.raises(ServiceError, match="workers=N"):
            SigningService(_keystore(), backend="pooled")


class TestServiceLifecycle:
    def test_close_leaves_no_worker_processes(self):
        """Two tenants on two parameter sets over the worker tier:
        every process the service started is gone after close()."""
        before = set(multiprocessing.active_children())
        keystore = Keystore()
        for name, params in (("acme", "128f"), ("beta", "192f")):
            keystore.add_tenant(name, params)
            keystore.generate_key(name, "default")
        service = SigningService(keystore, target_batch_size=1,
                                 max_wait_s=0.05, workers=2)

        async def run():
            await asyncio.gather(service.sign(b"a", "acme"),
                                 service.sign(b"b", "beta"))

        try:
            asyncio.run(run())
            assert set(multiprocessing.active_children()) - before
        finally:
            service.close()
        assert set(multiprocessing.active_children()) - before == set()

    def test_close_closes_every_backend_it_created(self):
        closed = []

        class Closable(SigningBackend):
            name = "test-closable"

            def capabilities(self):
                return BackendCapabilities(
                    name=self.name, kind="cpu", vectorized=False,
                    deterministic=True, preferred_batch=1)

            def sign_batch(self, messages, keys):
                return self._timed_result([b"sig" for _ in messages],
                                          time.perf_counter())

            def close(self):
                closed.append(self.params.name)

        register_backend("test-closable", Closable)
        keystore = _keystore(("acme",))
        keystore.add_tenant("beta", "192f")
        keystore.generate_key("beta", "default")
        service = SigningService(keystore, backend="test-closable",
                                 target_batch_size=1, max_wait_s=0.05)

        async def run():
            await asyncio.gather(service.sign(b"a", "acme"),
                                 service.sign(b"b", "beta"))

        try:
            asyncio.run(run())
        finally:
            service.close()
            _REGISTRY.pop("test-closable", None)
        assert sorted(closed) == ["SPHINCS+-128f", "SPHINCS+-192f"]


class TestDispatchOverlap:
    """Regression: dispatch must not serialize independent batches.

    The service used to hold one sign lock across every dispatch, so two
    ready queues for different tenants signed strictly one-after-another
    even on a backend built for concurrency.  With a concurrent-dispatch
    backend, both batches must be *inside* ``sign_batch`` at the same
    time — proven here with a barrier that only opens when the two
    dispatches overlap (the old serialized behaviour deadlocks the
    barrier and fails the test by timeout exception).
    """

    def test_two_tenant_batches_sign_concurrently(self):
        barrier = threading.Barrier(2, timeout=15.0)

        class Rendezvous(SigningBackend):
            name = "test-rendezvous"
            concurrent_dispatch = True

            def capabilities(self):
                return BackendCapabilities(
                    name=self.name, kind="cpu", vectorized=False,
                    deterministic=True, preferred_batch=1)

            def sign_batch(self, messages, keys):
                barrier.wait()  # both tenants' batches must be here at once
                return self._timed_result(
                    [b"sig" for _ in messages], time.perf_counter())

        register_backend("test-rendezvous", Rendezvous)
        keystore = _keystore()
        service = SigningService(keystore, backend="test-rendezvous",
                                 target_batch_size=1, max_wait_s=0.05,
                                 deterministic=True)

        async def run():
            return await asyncio.gather(
                service.sign(b"a", "acme"), service.sign(b"b", "beta"))

        try:
            outcomes = asyncio.run(run())
            assert [o.signature for o in outcomes] == [b"sig", b"sig"]
        finally:
            service.close()
            _REGISTRY.pop("test-rendezvous", None)

    def test_pooled_batches_overlap_across_tenants(self):
        """The same property through the real pool: with 2 workers and 2
        tenants homed on different slots, both batches are in flight at
        once (observed from the pool's own accounting)."""
        keystore = _keystore()
        service = SigningService(keystore, target_batch_size=8,
                                 max_wait_s=0.02, deterministic=True,
                                 workers=2)
        peak = {"in_flight": 0}

        async def run():
            async def watch():
                for _ in range(400):
                    stats = service.pool.stats()
                    in_flight = sum(w["in_flight"]
                                    for w in stats["per_worker"].values())
                    peak["in_flight"] = max(peak["in_flight"], in_flight)
                    await asyncio.sleep(0.005)

            watcher = asyncio.create_task(watch())
            await asyncio.gather(*[
                service.sign(f"m{i}".encode(), tenant)
                for i in range(3) for tenant in ("acme", "beta")])
            watcher.cancel()
            await service.drain()

        try:
            asyncio.run(run())
        finally:
            service.close()
        assert peak["in_flight"] >= 2, (
            "two tenants' batches never overlapped in the pool"
        )
