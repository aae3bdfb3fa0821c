"""Merkle tree primitives: treehash, authentication paths, root recovery.

These helpers are shared by FORS (k small trees) and the hypertree (d
XMSS layers).  ``treehash`` computes every node level-by-level — the same
bottom-up reduction the GPU kernels parallelize (paper Figure 7) — and
returns all levels so callers can slice out authentication paths without
recomputing.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..errors import SignatureFormatError
from ..hashes.address import Address
from ..hashes.thash import HashContext

__all__ = [
    "treehash",
    "auth_path",
    "root_from_auth",
    "batched_leaves",
    "TreeLevels",
]

# levels[0] is the leaf level; levels[-1] == [root].
TreeLevels = list[list[bytes]]


def batched_leaves(leaf_fn: Callable[[int], bytes], count: int) -> list[bytes]:
    """Materialize *count* leaves from an index-addressed generator.

    The single chokepoint for leaf production: both the scalar hypertree
    walk and the vectorized backend's cached builds route through it, so a
    future sharded or accelerated leaf stage only has to replace this
    function.
    """
    return [leaf_fn(index) for index in range(count)]


def treehash(
    leaves: Sequence[bytes],
    ctx: HashContext,
    pk_seed: bytes,
    adrs: Address,
) -> TreeLevels:
    """Hash *leaves* (a power-of-two count) up to the root.

    ``adrs`` is mutated per node: ``tree_height`` is the level of the node
    being *produced* and ``tree_index`` its index within the level, as the
    specification requires.

    Returns every level, leaves first.
    """
    count = len(leaves)
    if count == 0 or count & (count - 1):
        raise SignatureFormatError(f"treehash needs a power-of-two leaf count, got {count}")
    levels: TreeLevels = [list(leaves)]
    height = 1
    while len(levels[-1]) > 1:
        below = levels[-1]
        adrs.set_tree_height(height)
        level = []
        for i in range(0, len(below), 2):
            adrs.set_tree_index(i // 2)
            level.append(ctx.thash(pk_seed, adrs, below[i], below[i + 1]))
        levels.append(level)
        height += 1
    return levels


def auth_path(levels: TreeLevels, leaf_index: int) -> list[bytes]:
    """Sibling nodes from *leaf_index* up to (excluding) the root."""
    path = []
    idx = leaf_index
    for level in levels[:-1]:
        path.append(level[idx ^ 1])
        idx >>= 1
    return path


def root_from_auth(
    leaf: bytes,
    leaf_index: int,
    path: Sequence[bytes],
    ctx: HashContext,
    pk_seed: bytes,
    adrs: Address,
) -> bytes:
    """Recompute the root from a leaf and its authentication path."""
    node = leaf
    idx = leaf_index
    for height, sibling in enumerate(path, start=1):
        adrs.set_tree_height(height)
        adrs.set_tree_index(idx >> 1)
        if idx & 1:
            node = ctx.thash(pk_seed, adrs, sibling, node)
        else:
            node = ctx.thash(pk_seed, adrs, node, sibling)
        idx >>= 1
    return node
