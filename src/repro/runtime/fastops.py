"""Template-based SPHINCS+ hot loops for the vectorized backend.

The scalar functional layer spends most of its time in Python overhead, not
SHA-256: every hash call re-packs a 22-byte compressed address from six
fields, walks through ``HashContext.thash``'s varargs loop, and tallies.
This module removes that overhead without changing a single hash input:

* address byte strings are precomputed with :class:`AddressTemplate`
  (``hashes.address``) — inner loops append one cached 4-byte word;
* every hash is ``midstate.copy() -> update -> digest`` against the
  *shared* ``HashContext`` midstate cache;
* Merkle subtrees and upper-layer WOTS link signatures are held in a
  per-key :class:`~repro.runtime.layercache.HypertreeLayerCache` — a
  batch signed under one key revisits the upper hypertree layers for
  every message, and at layers >= 1 the signed node (the child subtree
  root) is message-independent, so the whole link signature is reusable.

Because the byte stream fed to SHA-256 is identical to the scalar path's,
:class:`FastOps` produces **byte-identical** signatures; the test suite
pins this equivalence.
"""

from __future__ import annotations

from ..hashes.address import AddressTemplate, AddressType, packed_u32
from ..hashes.thash import HashContext
from ..params import SphincsParams
from ..sphincs.encoding import base_w, checksum_digits, message_to_indices
from ..sphincs.fors import ForsSignature
from ..sphincs.hypertree import HypertreeSignature
from ..sphincs.merkle import TreeLevels, auth_path, batched_leaves
from .layercache import HypertreeLayerCache

__all__ = ["FastOps"]

_Z4 = b"\x00\x00\x00\x00"


class FastOps:
    """Low-overhead signing primitives for one (parameter set, key pair).

    Bound to the *sk_seed*/*pk_seed* of one key so address templates and
    the per-key :class:`HypertreeLayerCache` (subtrees and WOTS link
    signatures) can be reused across every message of every batch
    signed under that key.
    """

    def __init__(self, ctx: HashContext, sk_seed: bytes, pk_seed: bytes,
                 cache: HypertreeLayerCache | None = None):
        self.params: SphincsParams = ctx.params
        self.n = ctx.n
        self.sk_seed = sk_seed
        self._mid = ctx.midstate(pk_seed)
        self.cache = (cache if cache is not None
                      else HypertreeLayerCache(self.params))
        # Word caches for the loop-varying ADRS words.
        self._chain_words = [packed_u32(i) for i in range(self.params.wots_len)]
        self._pos_words = [packed_u32(i) for i in range(self.params.w)]

    # ------------------------------------------------------------------
    # WOTS+
    # ------------------------------------------------------------------
    def wots_leaf(self, layer: int, tree: int, keypair: int) -> bytes:
        """``wots_gen_leaf`` — the hottest loop of the whole scheme."""
        mid, n, sk_seed = self._mid, self.n, self.sk_seed
        prf_pre = AddressTemplate(
            layer, tree, AddressType.WOTS_PRF, keypair).prefix
        hash_pre = AddressTemplate(
            layer, tree, AddressType.WOTS_HASH, keypair).prefix
        pos_words = self._pos_words[:self.params.w - 1]
        values = []
        for c4 in self._chain_words:
            h = mid.copy()
            h.update(prf_pre); h.update(c4); h.update(_Z4); h.update(sk_seed)
            value = h.digest()[:n]
            pre = hash_pre + c4
            for p4 in pos_words:
                h = mid.copy()
                h.update(pre); h.update(p4); h.update(value)
                value = h.digest()[:n]
            values.append(value)
        h = mid.copy()
        h.update(AddressTemplate(
            layer, tree, AddressType.WOTS_PK, keypair, 0, 0).prefix)
        for value in values:
            h.update(value)
        return h.digest()[:n]

    def wots_sign(self, message: bytes, layer: int, tree: int,
                  keypair: int) -> list[bytes]:
        """WOTS-sign an n-byte *message*: walk each chain to its digit."""
        params = self.params
        digits = base_w(message, params.w, params.wots_len1)
        digits += checksum_digits(digits, params)
        mid, n, sk_seed = self._mid, self.n, self.sk_seed
        prf_pre = AddressTemplate(
            layer, tree, AddressType.WOTS_PRF, keypair).prefix
        hash_pre = AddressTemplate(
            layer, tree, AddressType.WOTS_HASH, keypair).prefix
        pos_words = self._pos_words
        signature = []
        for c4, digit in zip(self._chain_words, digits):
            h = mid.copy()
            h.update(prf_pre); h.update(c4); h.update(_Z4); h.update(sk_seed)
            value = h.digest()[:n]
            pre = hash_pre + c4
            for p4 in pos_words[:digit]:
                h = mid.copy()
                h.update(pre); h.update(p4); h.update(value)
                value = h.digest()[:n]
            signature.append(value)
        return signature

    # ------------------------------------------------------------------
    # Merkle reduction (shared by FORS trees and XMSS subtrees)
    # ------------------------------------------------------------------
    def merkle_levels(self, leaves: list[bytes], node_prefix: bytes,
                      base: int = 0) -> TreeLevels:
        """Bottom-up reduction; *node_prefix* freezes ADRS through word1.

        ``base`` applies the FORS forest's global node offset
        (``base >> height`` per level); XMSS subtrees use 0.
        """
        mid, n = self._mid, self.n
        levels: TreeLevels = [leaves]
        height = 1
        while len(levels[-1]) > 1:
            below = levels[-1]
            h4 = packed_u32(height)
            offset = base >> height
            level = []
            for i in range(0, len(below), 2):
                h = mid.copy()
                h.update(node_prefix); h.update(h4)
                h.update(packed_u32(offset + (i >> 1)))
                h.update(below[i]); h.update(below[i + 1])
                level.append(h.digest()[:n])
            levels.append(level)
            height += 1
        return levels

    # ------------------------------------------------------------------
    # Hypertree
    # ------------------------------------------------------------------
    def subtree_levels(self, layer: int, tree: int) -> TreeLevels:
        """Cached XMSS subtree at (layer, tree)."""
        return self.cache.get_or_build(
            (layer, tree), lambda: self._build_subtree(layer, tree)
        )

    def _build_subtree(self, layer: int, tree: int) -> TreeLevels:
        leaves = batched_leaves(
            lambda i: self.wots_leaf(layer, tree, i), self.params.tree_leaves
        )
        node_prefix = AddressTemplate(layer, tree, AddressType.TREE, 0).prefix
        return self.merkle_levels(leaves, node_prefix)

    def tree_node_hash(self, layer: int, tree: int, height: int,
                       index: int, left: bytes, right: bytes) -> bytes:
        """One XMSS internal node — same byte stream as ``merkle_levels``.

        Exposed for targeted recomputation of cached-tree ancestors (the
        fault injector's consistent-flip mode rebuilds a node's path to
        the root after corrupting a leaf-level sibling).
        """
        h = self._mid.copy()
        h.update(AddressTemplate(layer, tree, AddressType.TREE, 0).prefix)
        h.update(packed_u32(height)); h.update(packed_u32(index))
        h.update(left); h.update(right)
        return h.digest()[:self.n]

    def root(self) -> bytes:
        """The SPHINCS+ public root (top-layer subtree root)."""
        return self.subtree_levels(self.params.d - 1, 0)[-1][0]

    def prewarm(self) -> None:
        """Precompute the cache's pinned layers (subtrees + links)."""
        self.cache.prewarm(self._build_subtree, self.wots_sign_node)

    def wots_sign_node(self, node: bytes, layer: int, tree: int,
                       leaf: int) -> list[bytes]:
        """WOTS-sign *node* with keypair *leaf* of subtree (layer, tree)."""
        return self.wots_sign(node, layer, tree, leaf)

    def hypertree_sign(self, message: bytes, idx_tree: int,
                       idx_leaf: int) -> tuple[HypertreeSignature, bytes]:
        """Sign along the hypertree path (see ``Hypertree.sign``).

        At layers >= 1 the signed node is the child subtree root — fixed
        per key — so the WOTS link signature is served from (and fed
        back into) the layer cache.
        """
        params = self.params
        links = self.cache
        signature: HypertreeSignature = []
        node = message
        tree, leaf = idx_tree, idx_leaf
        for layer in range(params.d):
            levels = self.subtree_levels(layer, tree)
            chain_values = (links.lookup_link(layer, tree, leaf)
                            if layer else None)
            if chain_values is None:
                chain_values = self.wots_sign(node, layer, tree, leaf)
                if layer:
                    links.store_link(layer, tree, leaf, chain_values)
            signature.append((chain_values, auth_path(levels, leaf)))
            node = levels[-1][0]
            leaf = tree & (params.tree_leaves - 1)
            tree >>= params.tree_height
        return signature, node

    # ------------------------------------------------------------------
    # FORS
    # ------------------------------------------------------------------
    def fors_sign(self, fors_msg: bytes, idx_tree: int,
                  idx_leaf: int) -> tuple[ForsSignature, bytes]:
        """FORS-sign the message chunk (see ``Fors.sign``)."""
        params = self.params
        mid, n, sk_seed = self._mid, self.n, self.sk_seed
        indices = message_to_indices(fors_msg, params)
        prf_pre = AddressTemplate(
            0, idx_tree, AddressType.FORS_PRF, idx_leaf, 0).prefix
        leaf_pre = AddressTemplate(
            0, idx_tree, AddressType.FORS_TREE, idx_leaf, 0).prefix
        node_prefix = AddressTemplate(
            0, idx_tree, AddressType.FORS_TREE, idx_leaf).prefix
        t = params.t
        signature: ForsSignature = []
        roots = []
        for tree, leaf_idx in enumerate(indices):
            base = tree * t
            secrets = []
            leaves = []
            for j in range(t):
                i4 = packed_u32(base + j)
                h = mid.copy()
                h.update(prf_pre); h.update(i4); h.update(sk_seed)
                secret = h.digest()[:n]
                secrets.append(secret)
                h = mid.copy()
                h.update(leaf_pre); h.update(i4); h.update(secret)
                leaves.append(h.digest()[:n])
            levels = self.merkle_levels(leaves, node_prefix, base=base)
            signature.append((secrets[leaf_idx], auth_path(levels, leaf_idx)))
            roots.append(levels[-1][0])
        h = mid.copy()
        h.update(AddressTemplate(
            0, idx_tree, AddressType.FORS_ROOTS, idx_leaf, 0, 0).prefix)
        for root in roots:
            h.update(root)
        return signature, h.digest()[:n]
