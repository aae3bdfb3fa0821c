"""The per-key hypertree layer cache: model, lifecycle, and byte-identity.

Three properties carry the whole feature:

* the **model** (``repro.runtime.layercache``) sizes pinned regions
  sanely — budgets map to layer counts monotonically and the prewarm cap
  is honored;
* the **cache** itself is a correct two-region store — pinned entries
  survive any pressure, LRU entries evict oldest-first within the byte
  budget, and invalidation really forgets;
* a **warm cache changes no bytes** — cached-vs-cold signatures are
  identical on every pinned KAT parameter set, and key rotation / tenant
  deletion drop the stale state before it can sign again.
"""

import asyncio

import pytest

from repro.params import get_params
from repro.runtime import WorkerPool, get_backend
from repro.runtime.layercache import (
    DEFAULT_BUDGET_MB,
    HypertreeLayerCache,
    choose_pinned_layers,
    link_entry_bytes,
    pinned_bytes,
    pinned_link_count,
    pinned_tree_count,
    prewarm_hashes,
    savings_fraction,
    tradeoff_table,
    tree_entry_bytes,
)
from repro.testing.kat import KAT_SETS


def _seed(params_name: str) -> bytes:
    return bytes(3 * get_params(params_name).n)


def _fake_levels(params):
    """Structurally-shaped subtree levels with meaningless bytes."""
    levels = []
    width = params.tree_leaves
    while width >= 1:
        levels.append([bytes(params.n) for _ in range(width)])
        width //= 2
    return levels


class TestModel:
    def test_pinned_tree_count_is_geometric(self):
        params = get_params("128f")
        leaves = params.tree_leaves
        assert pinned_tree_count(params, 0) == 0
        assert pinned_tree_count(params, 1) == 1
        assert pinned_tree_count(params, 3) == 1 + leaves + leaves ** 2
        # Links: one per pinned tree below the top layer.
        assert pinned_link_count(params, 3) == pinned_tree_count(params, 3) - 1

    def test_choose_pinned_layers_monotone_in_budget(self):
        params = get_params("128f")
        tiny = choose_pinned_layers(params, 4 * tree_entry_bytes(params))
        default = choose_pinned_layers(
            params, int(DEFAULT_BUDGET_MB * 1024 * 1024))
        assert 0 <= tiny <= default
        assert default >= 1  # the default budget must cache *something*
        # The chosen region actually fits in half the budget.
        assert (pinned_bytes(params, default)
                <= int(DEFAULT_BUDGET_MB * 1024 * 1024) // 2)

    def test_choose_pinned_layers_honors_prewarm_cap(self):
        params = get_params("128f")
        budget = int(DEFAULT_BUDGET_MB * 1024 * 1024)
        assert choose_pinned_layers(params, budget,
                                    max_prewarm_hashes=0) == 0
        capped = choose_pinned_layers(params, budget,
                                      max_prewarm_hashes=10_000)
        uncapped = choose_pinned_layers(params, budget)
        assert capped <= uncapped
        assert prewarm_hashes(params, uncapped) <= 600_000

    def test_tradeoff_table_covers_every_set(self):
        rows = tradeoff_table()
        names = {row["params"] for row in rows}
        assert {get_params(name).name for name in KAT_SETS} <= names
        for row in rows:
            assert row["pinned_layers"] >= 1, row
            assert 0.0 < row["saved_fraction"] < 1.0, row
            assert row["prewarm_hashes"] <= 600_000, row

    def test_savings_fraction_grows_with_layers(self):
        params = get_params("128f")
        assert savings_fraction(params, 0) == 0.0
        assert (savings_fraction(params, 1)
                < savings_fraction(params, 2)
                < savings_fraction(params, 3))


class TestCacheLifecycle:
    def test_miss_then_hit_counters(self):
        params = get_params("128f")
        cache = HypertreeLayerCache(params, pinned_layers=0)
        assert cache.lookup_tree(0, 7) is None
        cache.store_tree(0, 7, _fake_levels(params))
        assert cache.lookup_tree(0, 7) is not None
        assert cache.stats["misses"] == 1
        assert cache.stats["hits"] == 1

    def test_lru_evicts_oldest_under_byte_pressure(self):
        params = get_params("128f")
        budget = 2 * tree_entry_bytes(params)
        cache = HypertreeLayerCache(params, budget_bytes=budget,
                                    pinned_layers=0)
        for tree in range(4):
            cache.store_tree(0, tree, _fake_levels(params))
        assert cache.stats["evictions"] == 2
        assert cache.bytes_used <= budget
        assert cache.lookup_tree(0, 0) is None  # oldest, gone
        assert cache.lookup_tree(0, 3) is not None  # newest, resident

    def test_lookup_refreshes_recency(self):
        params = get_params("128f")
        budget = 2 * tree_entry_bytes(params)
        cache = HypertreeLayerCache(params, budget_bytes=budget,
                                    pinned_layers=0)
        cache.store_tree(0, 0, _fake_levels(params))
        cache.store_tree(0, 1, _fake_levels(params))
        cache.lookup_tree(0, 0)  # 0 becomes most-recent
        cache.store_tree(0, 2, _fake_levels(params))  # evicts 1, not 0
        assert cache.lookup_tree(0, 1) is None
        assert cache.lookup_tree(0, 0) is not None

    def test_pinned_entries_survive_pressure(self):
        params = get_params("128f")
        top = params.d - 1
        cache = HypertreeLayerCache(
            params, budget_bytes=2 * tree_entry_bytes(params),
            pinned_layers=1)
        cache.store_tree(top, 0, _fake_levels(params))  # pinned region
        for tree in range(6):
            cache.store_tree(0, tree, _fake_levels(params))
        assert cache.lookup_tree(top, 0) is not None
        assert cache.stats["pinned_trees"] == 1

    def test_layer0_links_never_cached(self):
        params = get_params("128f")
        cache = HypertreeLayerCache(params, pinned_layers=0)
        cache.store_link(0, 0, 0, [b"chain"])
        assert cache.lookup_link(0, 0, 0) is None
        cache.store_link(1, 0, 0, [b"chain"])
        assert cache.lookup_link(1, 0, 0) == [b"chain"]
        cache.drop_link(1, 0, 0)
        assert cache.lookup_link(1, 0, 0) is None

    def test_link_budget_accounting(self):
        params = get_params("128f")
        budget = 2 * link_entry_bytes(params)
        cache = HypertreeLayerCache(params, budget_bytes=budget,
                                    pinned_layers=0)
        for leaf in range(4):
            cache.store_link(1, 0, leaf, [b"chain"])
        assert cache.stats["evictions"] == 2
        assert cache.lookup_link(1, 0, 0) is None
        assert cache.lookup_link(1, 0, 3) is not None

    def test_clear_forgets_everything(self):
        params = get_params("128f")
        cache = HypertreeLayerCache(params, pinned_layers=1)
        cache.store_tree(params.d - 1, 0, _fake_levels(params))
        cache.store_tree(0, 0, _fake_levels(params))
        cache.store_link(1, 0, 0, [b"chain"])
        assert len(cache) == 3
        cache.clear()
        assert len(cache) == 0
        assert cache.bytes_used == 0
        assert not cache.prewarmed


class TestBackendIntegration:
    def test_prewarm_populates_pinned_region(self):
        params = get_params("128f")
        backend = get_backend("vectorized", "128f", deterministic=True)
        keys = backend.keygen(seed=_seed("128f"))
        backend.prewarm_key(keys)
        stats = backend.cache_stats()
        expected_layers = choose_pinned_layers(
            params, int(DEFAULT_BUDGET_MB * 1024 * 1024))
        assert stats["pinned_layers"] == expected_layers
        assert stats["pinned_trees"] >= pinned_tree_count(
            params, expected_layers)

    def test_prewarmed_signatures_match_scalar(self):
        scalar = get_backend("scalar", "128f", deterministic=True)
        vectorized = get_backend("vectorized", "128f", deterministic=True)
        keys = scalar.keygen(seed=_seed("128f"))
        vectorized.prewarm_key(keys)
        messages = [b"prewarm-a", b"prewarm-b"]
        assert (vectorized.sign_batch(messages, keys).signatures
                == scalar.sign_batch(messages, keys).signatures)

    def test_invalidate_key_drops_cached_state(self):
        backend = get_backend("vectorized", "128f", deterministic=True)
        keys = backend.keygen(seed=_seed("128f"))
        backend.prewarm_key(keys)
        assert backend.cache_stats().get("pinned_trees", 0) > 0
        backend.invalidate_key(keys)
        assert backend.cache_stats() == {"keys": 0}

    def test_scalar_layer_cache_byte_identical(self):
        cold = get_backend("scalar", "128f", deterministic=True)
        cached = get_backend("scalar", "128f", deterministic=True,
                             cache_budget_mb=8.0)
        keys = cold.keygen(seed=_seed("128f"))
        messages = [b"scalar-cache-0", b"scalar-cache-1"]
        expected = cold.sign_batch(messages, keys).signatures
        # Two passes: the second serves the warm cache.
        assert cached.sign_batch(messages, keys).signatures == expected
        assert cached.sign_batch(messages, keys).signatures == expected
        stats = cached.cache_stats()
        assert stats["hits"] > 0

    @pytest.mark.parametrize("params_name", KAT_SETS)
    def test_cached_vs_cold_byte_identity(self, params_name):
        """Pass 2 (warm layer cache) must equal pass 1 (cold) everywhere."""
        backend = get_backend("vectorized", params_name, deterministic=True)
        keys = backend.keygen(seed=_seed(params_name))
        message = f"layer-cache {params_name}".encode()
        cold = backend.sign_batch([message], keys).signatures
        warm_result = backend.sign_batch([message], keys)
        assert warm_result.signatures == cold
        assert backend.verify_batch([message], warm_result.signatures,
                                    keys.public) == [True]
        # The warm pass genuinely came out of the cache.
        assert warm_result.cache_stats["hits"] > 0


class TestServiceInvalidation:
    def _service(self, tmp_path, budget=1.0):
        from repro.service import Keystore, SigningService, derive_seed

        keystore = Keystore()
        keystore.add_tenant("acme", "128f")
        keystore.generate_key("acme", "default",
                              seed=derive_seed("acme/default", 16))
        service = SigningService(keystore, backend="vectorized",
                                 target_batch_size=1, max_wait_s=0.01,
                                 deterministic=True,
                                 cache_budget_mb=budget)
        return keystore, service

    def test_rotation_invalidates_and_rewarmss(self, tmp_path):
        async def run():
            keystore, service = self._service(tmp_path)
            try:
                before = await service.sign(b"pre-rotation", "acme")
                old_pk = keystore.resolve("acme")[0].public
                new_keys = keystore.rotate_key("acme", "default")
                after = await service.sign(b"post-rotation", "acme")
                scheme_verify = service._backend_for("SPHINCS+-128f")
                assert scheme_verify.verify_batch(
                    [b"post-rotation"], [after.signature],
                    new_keys.public) == [True]
                # The old key's signature no longer verifies under the new
                # public key — and the new signature was produced by a
                # freshly warmed cache, not stale subtrees of the old key.
                assert scheme_verify.verify_batch(
                    [b"pre-rotation"], [before.signature],
                    new_keys.public) == [False]
                assert old_pk != new_keys.public
            finally:
                await service.drain()
                service.close()

        asyncio.run(run())

    def test_tenant_delete_invalidates_cache(self, tmp_path):
        async def run():
            keystore, service = self._service(tmp_path)
            try:
                await service.sign(b"hello", "acme")
                backend = service._backend_for("SPHINCS+-128f")
                assert backend.cache_stats().get("keys", 0) > 0
                keystore.delete_tenant("acme")
                assert backend.cache_stats().get("keys", 0) == 0
            finally:
                await service.drain()
                service.close()

        asyncio.run(run())

    def test_keystore_listener_event_order(self):
        from repro.service import Keystore, derive_seed

        keystore = Keystore()
        keystore.add_tenant("acme", "128f")
        keystore.generate_key("acme", "default",
                              seed=derive_seed("acme/default", 16))
        keystore.generate_key("acme", "backup",
                              seed=derive_seed("acme/backup", 16))
        events = []
        keystore.add_listener(
            lambda event, tenant, key, old: events.append(
                (event, tenant, key, old is not None)))
        keystore.rotate_key("acme", "default")
        keystore.delete_tenant("acme")
        assert events[0] == ("key-rotated", "acme", "default", True)
        assert (("tenant-deleted", "acme", "backup", True) in events
                and ("tenant-deleted", "acme", "default", True) in events)


class TestPoolPrewarm:
    def test_warm_on_spawn_reports_cache_snapshot(self):
        scalar = get_backend("scalar", "128f", deterministic=True)
        keys = scalar.keygen(seed=_seed("128f"))
        messages = [b"pool-cache-0", b"pool-cache-1"]
        expected = scalar.sign_batch(messages, keys).signatures
        with WorkerPool(workers=1, deterministic=True) as pool:
            pool.warm(keys, "128f")
            pool.ping(timeout=10.0)
            per_worker = pool.stats()["per_worker"]
            cache = per_worker["0"]["cache"]
            assert cache["pinned_trees"] > 0
            assert cache["pinned_layers"] >= 1
            outcome = pool.sign_batch(messages, keys, "128f")
            assert outcome.signatures == expected
            # Invalidation round-trips without killing the worker.
            pool.invalidate(keys, "128f")
            assert pool.sign_batch(messages, keys,
                                   "128f").signatures == expected
