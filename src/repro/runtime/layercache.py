"""Per-key hypertree layer cache and its shared cost/memory model.

The top ``c`` XMSS layers of a SPHINCS+ hypertree are message-independent
per key: at layer ``l >= 1`` the node being WOTS-signed is the root of
the child subtree at ``(l - 1, tree * tree_leaves + leaf)``, which is a
pure function of the key — only layer 0 signs the (message-dependent)
FORS public key.  So both the subtrees *and* the WOTS link signatures of
the upper layers can be precomputed once per key and reused for every
signature, and in deterministic mode WOTS signing is reproducible, so a
cached link is byte-identical to a recomputed one.

:class:`HypertreeLayerCache` holds two regions per key:

* a **pinned** region for the top ``pinned_layers`` layers — subtrees and
  link signatures that every signing path traverses, populated by
  :meth:`prewarm` (or on demand) and never evicted;
* a byte-budgeted **LRU** region for everything below — the bottom-layer
  subtrees a busy key happens to revisit.

The model functions size the cache: every tier (scalar backend,
vectorized backend, worker pool, service CLI) converts the single
``--cache-budget-mb`` knob to bytes and asks :func:`choose_pinned_layers`
for the default ``c`` per parameter set, trading prewarm cost and memory
against per-signature hash savings (the caching/fault-analysis trade-off
follows Genet's SPHINCS+ layer-caching work — see
``docs/architecture.md`` ("The hypertree layer cache") for the per-set
table and the fault-attack caveat).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from ..params import PARAMETER_SETS, SphincsParams, get_params
from ..sphincs.merkle import TreeLevels

__all__ = [
    "DEFAULT_BUDGET_MB",
    "HypertreeLayerCache",
    "choose_pinned_layers",
    "link_entry_bytes",
    "pinned_bytes",
    "pinned_link_count",
    "pinned_tree_count",
    "prewarm_hashes",
    "savings_fraction",
    "sign_hashes_saved",
    "subtree_build_hashes",
    "tradeoff_table",
    "tree_entry_bytes",
    "wots_link_sign_hashes",
]

DEFAULT_BUDGET_MB = 32.0

# Per-entry bookkeeping (dict slot, key tuple, list headers) on top of the
# raw node bytes.  Deliberately coarse: the model only has to rank layer
# counts against a megabyte-scale budget, not audit the allocator.
_ENTRY_OVERHEAD = 96


# ----------------------------------------------------------------------
# Cost/memory model
# ----------------------------------------------------------------------
def tree_entry_bytes(params: SphincsParams) -> int:
    """Bytes to hold one cached XMSS subtree (all Merkle levels)."""
    return (2 * params.tree_leaves - 1) * params.n + _ENTRY_OVERHEAD


def link_entry_bytes(params: SphincsParams) -> int:
    """Bytes to hold one cached WOTS link signature (the chain values)."""
    return params.wots_len * params.n + _ENTRY_OVERHEAD


def subtree_build_hashes(params: SphincsParams) -> int:
    """Hash calls to build one XMSS subtree from scratch."""
    return (params.tree_leaves * params.hashes_per_wots_leaf
            + params.tree_leaves - 1)


def wots_link_sign_hashes(params: SphincsParams) -> int:
    """Average hash calls for one WOTS signature (PRF + w/2 steps/chain)."""
    return params.wots_len * (1 + params.w // 2)


def pinned_tree_count(params: SphincsParams, layers: int) -> int:
    """Subtrees in the top *layers* layers reachable from the root.

    Layer ``d-1`` has one tree; each layer below multiplies by
    ``tree_leaves``: ``1 + L + L^2 + ... + L^(layers-1)``.
    """
    layers = max(0, min(layers, params.d))
    leaves = params.tree_leaves
    return (leaves ** layers - 1) // (leaves - 1)


def pinned_link_count(params: SphincsParams, layers: int) -> int:
    """Precomputable WOTS link signatures within the pinned region.

    A link at layer ``l`` signs the root of its child tree, so it is
    precomputable exactly when that child tree is pinned too — one link
    per pinned tree below the top layer.
    """
    count = pinned_tree_count(params, layers)
    return count - 1 if count else 0


def pinned_bytes(params: SphincsParams, layers: int) -> int:
    """Resident bytes of a fully prewarmed pinned region."""
    return (pinned_tree_count(params, layers) * tree_entry_bytes(params)
            + pinned_link_count(params, layers) * link_entry_bytes(params))


def prewarm_hashes(params: SphincsParams, layers: int) -> int:
    """One-time hash cost to populate the pinned region for one key."""
    return (pinned_tree_count(params, layers) * subtree_build_hashes(params)
            + pinned_link_count(params, layers) * wots_link_sign_hashes(params))


def sign_hashes_saved(params: SphincsParams, layers: int) -> int:
    """Per-signature hash calls a warm pinned region removes.

    Every signing path traverses all pinned layers: *layers* subtree
    builds plus, for each pinned layer except the lowest, the WOTS link
    signature above it.
    """
    layers = max(0, min(layers, params.d))
    if layers == 0:
        return 0
    return (layers * subtree_build_hashes(params)
            + (layers - 1) * wots_link_sign_hashes(params))


def savings_fraction(params: SphincsParams, layers: int) -> float:
    """Fraction of a fresh signature's total hashes the cache removes."""
    return sign_hashes_saved(params, layers) / params.total_sign_hashes()


def choose_pinned_layers(params: SphincsParams, budget_bytes: int,
                         max_prewarm_hashes: int = 600_000) -> int:
    """Default pinned layer count for *params* under *budget_bytes*.

    Picks the largest ``c`` whose fully-warm pinned region fits in half
    the budget (the other half stays available to the LRU working set)
    and whose one-time prewarm stays under *max_prewarm_hashes* — keys
    must become warm in well under a second of hashing, or prewarm
    itself would blow the latency it exists to fix.
    """
    best = 0
    for layers in range(1, params.d + 1):
        if pinned_bytes(params, layers) > budget_bytes // 2:
            break
        if prewarm_hashes(params, layers) > max_prewarm_hashes:
            break
        best = layers
    return best


def tradeoff_table(budget_bytes: int | None = None,
                   max_prewarm_hashes: int = 600_000) -> list[dict]:
    """Per-parameter-set cache trade-off rows (docs + tests).

    Each row reports the chosen default ``c``, resident pinned bytes,
    one-time prewarm hashes, and per-signature savings fraction.
    """
    if budget_bytes is None:
        budget_bytes = int(DEFAULT_BUDGET_MB * 1024 * 1024)
    rows = []
    for name in sorted(PARAMETER_SETS):
        params = get_params(name)
        layers = choose_pinned_layers(params, budget_bytes,
                                      max_prewarm_hashes)
        rows.append({
            "params": name,
            "pinned_layers": layers,
            "pinned_trees": pinned_tree_count(params, layers),
            "pinned_kib": round(pinned_bytes(params, layers) / 1024, 1),
            "prewarm_hashes": prewarm_hashes(params, layers),
            "saved_per_sign": sign_hashes_saved(params, layers),
            "saved_fraction": round(savings_fraction(params, layers), 4),
        })
    return rows


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class HypertreeLayerCache:
    """Pinned top layers + byte-budgeted LRU working set for one key.

    Subtrees are keyed ``(layer, tree)``; WOTS link signatures are keyed
    ``(layer, tree, leaf)`` and only ever cached for ``layer >= 1``
    (layer 0 signs the message-dependent FORS pk).  Entries at or above
    the pinned floor (``d - pinned_layers``) are never evicted; entries
    below compete for the remaining byte budget under LRU.
    """

    def __init__(self, params: SphincsParams | str,
                 budget_bytes: int | None = None,
                 pinned_layers: int | None = None):
        self.params = get_params(params) if isinstance(params, str) else params
        if budget_bytes is None:
            budget_bytes = int(DEFAULT_BUDGET_MB * 1024 * 1024)
        self.budget_bytes = max(0, int(budget_bytes))
        if pinned_layers is None:
            pinned_layers = choose_pinned_layers(self.params,
                                                 self.budget_bytes)
        self.pinned_layers = max(0, min(pinned_layers, self.params.d))
        #: Lowest pinned layer; layers >= this are never evicted.
        self.pinned_floor = self.params.d - self.pinned_layers

        self._tree_bytes = tree_entry_bytes(self.params)
        self._link_bytes = link_entry_bytes(self.params)
        self._pinned_trees: dict[tuple[int, int], TreeLevels] = {}
        self._pinned_links: dict[tuple[int, int, int], list[bytes]] = {}
        self._lru_trees: OrderedDict[tuple[int, int], TreeLevels] = \
            OrderedDict()
        self._lru_links: OrderedDict[tuple[int, int, int], list[bytes]] = \
            OrderedDict()
        self._lru_bytes = 0

        self.hits = 0
        self.misses = 0
        self.link_hits = 0
        self.link_misses = 0
        self.evictions = 0
        self.prewarmed = False

    # ------------------------------------------------------------------
    # Subtrees
    # ------------------------------------------------------------------
    def lookup_tree(self, layer: int, tree: int) -> TreeLevels | None:
        levels = self._pinned_trees.get((layer, tree))
        if levels is None:
            levels = self._lru_trees.get((layer, tree))
            if levels is not None:
                self._lru_trees.move_to_end((layer, tree))
        if levels is None:
            self.misses += 1
            return None
        self.hits += 1
        return levels

    def store_tree(self, layer: int, tree: int, levels: TreeLevels) -> None:
        if layer >= self.pinned_floor:
            self._pinned_trees[(layer, tree)] = levels
            return
        key = (layer, tree)
        if key not in self._lru_trees:
            self._lru_bytes += self._tree_bytes
        self._lru_trees[key] = levels
        self._lru_trees.move_to_end(key)
        self._evict()

    def get_or_build(self, key: tuple[int, int],
                     build: Callable[[], TreeLevels]) -> TreeLevels:
        """The subtree at ``key = (layer, tree)``, built and stored on a
        miss."""
        layer, tree = key
        levels = self.lookup_tree(layer, tree)
        if levels is None:
            levels = build()
            self.store_tree(layer, tree, levels)
        return levels

    # ------------------------------------------------------------------
    # WOTS link signatures (layer >= 1 only)
    # ------------------------------------------------------------------
    def lookup_link(self, layer: int, tree: int,
                    leaf: int) -> list[bytes] | None:
        chains = self._pinned_links.get((layer, tree, leaf))
        if chains is None:
            chains = self._lru_links.get((layer, tree, leaf))
            if chains is not None:
                self._lru_links.move_to_end((layer, tree, leaf))
        if chains is None:
            self.link_misses += 1
            return None
        self.link_hits += 1
        return chains

    def store_link(self, layer: int, tree: int, leaf: int,
                   chains: list[bytes]) -> None:
        if layer < 1:
            return  # layer 0 signs the message-dependent FORS pk
        if layer >= self.pinned_floor:
            self._pinned_links[(layer, tree, leaf)] = chains
            return
        key = (layer, tree, leaf)
        if key not in self._lru_links:
            self._lru_bytes += self._link_bytes
        self._lru_links[key] = chains
        self._lru_links.move_to_end(key)
        self._evict()

    def drop_link(self, layer: int, tree: int, leaf: int) -> None:
        """Forget one link signature (fault injection / targeted tests)."""
        if self._pinned_links.pop((layer, tree, leaf), None) is None:
            if self._lru_links.pop((layer, tree, leaf), None) is not None:
                self._lru_bytes -= self._link_bytes

    # ------------------------------------------------------------------
    def _evict(self) -> None:
        lru_budget = max(0, self.budget_bytes
                         - pinned_bytes(self.params, self.pinned_layers))
        while self._lru_bytes > lru_budget:
            if self._lru_trees:
                self._lru_trees.popitem(last=False)
                self._lru_bytes -= self._tree_bytes
            elif self._lru_links:
                self._lru_links.popitem(last=False)
                self._lru_bytes -= self._link_bytes
            else:
                break
            self.evictions += 1

    # ------------------------------------------------------------------
    def prewarm(self, build_tree: Callable[[int, int], TreeLevels],
                sign_link: Callable[[bytes, int, int, int], list[bytes]]
                | None = None) -> None:
        """Populate the pinned region bottom-up.

        ``build_tree(layer, tree)`` computes a subtree's levels;
        ``sign_link(node, layer, tree, leaf)`` WOTS-signs *node* with
        keypair *leaf* of subtree ``(layer, tree)``.  Building runs
        bottom-up so each layer's link signatures can sign the child
        roots built just before.  Bypasses the hit/miss counters — a
        prewarm is neither.
        """
        params = self.params
        leaves = params.tree_leaves
        for layer in range(self.pinned_floor, params.d):
            for tree in range(leaves ** (params.d - 1 - layer)):
                if (layer, tree) not in self._pinned_trees:
                    self._pinned_trees[(layer, tree)] = \
                        build_tree(layer, tree)
                if sign_link is None or layer == self.pinned_floor \
                        or layer < 1:
                    continue
                for leaf in range(leaves):
                    if (layer, tree, leaf) in self._pinned_links:
                        continue
                    child = self._pinned_trees[
                        (layer - 1, tree * leaves + leaf)]
                    self._pinned_links[(layer, tree, leaf)] = \
                        sign_link(child[-1][0], layer, tree, leaf)
        self.prewarmed = True

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every entry (key rotation / tenant delete)."""
        self._pinned_trees.clear()
        self._pinned_links.clear()
        self._lru_trees.clear()
        self._lru_links.clear()
        self._lru_bytes = 0
        self.prewarmed = False

    def __len__(self) -> int:
        return (len(self._pinned_trees) + len(self._pinned_links)
                + len(self._lru_trees) + len(self._lru_links))

    @property
    def bytes_used(self) -> int:
        return (len(self._pinned_trees) * self._tree_bytes
                + len(self._pinned_links) * self._link_bytes
                + self._lru_bytes)

    @property
    def stats(self) -> dict[str, int]:
        """Counters for telemetry (``hits``/``misses`` count subtrees)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._pinned_trees) + len(self._lru_trees),
            "link_hits": self.link_hits,
            "link_misses": self.link_misses,
            "evictions": self.evictions,
            "bytes": self.bytes_used,
            "pinned_trees": len(self._pinned_trees),
            "pinned_layers": self.pinned_layers,
            "budget_bytes": self.budget_bytes,
        }
