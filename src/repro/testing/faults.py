"""Deterministic fault injection into the tweakable-hash layer.

The SPHINCS+ fault-attack literature (Genet et al., "Practical Fault
Injection Attacks on SPHINCS") shows that a *single* corrupted hash inside
the WOTS/FORS computation silently yields a signature over the wrong
intermediate value — the signer notices nothing, but the signature either
fails verification (the benign outcome this suite demands) or, in a
grafted-tree attack, becomes forgery material.  A conformance suite for a
signing service therefore has to prove the *detection* property: every
injected hash fault must surface as a verification failure or a structured
error, never as a silently-served wrong signature.

:class:`BitFlipFault` is the deterministic injector: it wraps one
:class:`~repro.hashes.thash.HashContext` instance and flips one bit of the
output of the N-th ``thash`` (or ``prf``) call.  Determinism — same call
index, same bit, same traffic — is what lets the oracle pin the resulting
divergence to a stage and lets CI replay the exact same fault on every
push.

:class:`CachedNodeFault` extends the threat model to the hypertree layer
cache: it corrupts one node *inside a cached subtree* between two signing
passes.  A naive flip leaves the auth path inconsistent with the root, so
verification fails — detectable.  The dangerous variant (``consistent``,
the default) also recomputes the flipped node's ancestors, producing a
subtree that is internally consistent but *wrong*: the signer happily
emits a signature that still **verifies**, yet differs byte-for-byte from
the reference — exactly the fault-attack class only a differential oracle
catches.

Fault specs are parsed from strings so the CLI can take them directly::

    thash:bitflip            # defaults: call 7, bit 0
    thash:bitflip:120        # flip a bit of thash call #120
    thash:bitflip:120:5      # ... bit 5 of its output
    prf:bitflip:3            # flip the 4th PRF output instead
    cache:flip               # consistent flip in a cached subtree
    cache:flip:0:3           # ... level 0, bit 3
    cache:flip:0:0:benign    # naive flip (auth path breaks, verify fails)
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from ..errors import ConformanceError
from ..hashes.thash import HashContext

__all__ = ["BitFlipFault", "CachedNodeFault", "flip_bit", "parse_fault"]

_TARGETS = ("thash", "prf")


def flip_bit(data: bytes, bit: int) -> bytes:
    """Return *data* with absolute bit index *bit* flipped (MSB-first)."""
    if not 0 <= bit < 8 * len(data):
        raise ConformanceError(
            f"bit {bit} out of range for {len(data)}-byte value"
        )
    out = bytearray(data)
    out[bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(out)


@dataclass
class BitFlipFault:
    """Flip one bit of one hash-call output, deterministically.

    Parameters
    ----------
    target:
        ``"thash"`` or ``"prf"`` — which hash-context entry point to tap.
    call_index:
        Zero-based index of the tapped call, counted from installation.
        The default lands inside the very first FORS tree build on every
        parameter set, so the corrupted node provably feeds the signature.
    bit:
        Bit of the n-byte output to flip.
    """

    target: str = "thash"
    call_index: int = 7
    bit: int = 0
    #: How many target calls the installed hook has seen.
    calls_seen: int = field(default=0, init=False)
    #: Whether the fault actually fired (the tapped call was reached).
    fired: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.target not in _TARGETS:
            raise ConformanceError(
                f"unknown fault target {self.target!r}; "
                f"known: {', '.join(_TARGETS)}"
            )
        if self.call_index < 0:
            raise ConformanceError(
                f"call_index must be >= 0, got {self.call_index}"
            )

    @property
    def spec(self) -> str:
        return f"{self.target}:bitflip:{self.call_index}:{self.bit}"

    @contextmanager
    def install(self, ctx: HashContext):
        """Tap *ctx* for the duration of the ``with`` block.

        The hook shadows the bound method with an instance attribute and
        deletes it on exit, so the context is bit-for-bit back to normal
        afterwards.  Counters (:attr:`calls_seen`, :attr:`fired`) reset on
        each installation.
        """
        if self.target in ctx.__dict__:
            raise ConformanceError(
                f"a fault is already installed on this context's "
                f"{self.target}"
            )
        self.calls_seen = 0
        self.fired = False
        original = getattr(ctx, self.target)

        def tapped(*args, **kwargs):
            out = original(*args, **kwargs)
            if self.calls_seen == self.call_index:
                out = flip_bit(out, self.bit)
                self.fired = True
            self.calls_seen += 1
            return out

        setattr(ctx, self.target, tapped)
        try:
            yield self
        finally:
            del ctx.__dict__[self.target]


@dataclass
class CachedNodeFault:
    """Flip one bit of one node inside a cached hypertree subtree.

    Models a memory fault (rowhammer, cosmic ray, hostile DMA) hitting
    the layer cache *after* it was built and validated.  Applied between
    two signing passes over the same traffic, so the divergence is
    provably the cached state and nothing else.

    Parameters
    ----------
    level:
        Subtree level of the corrupted node (0 = WOTS leaves).  The node
        chosen is the *sibling* on the signing leaf's auth path, so the
        flip provably lands in emitted signature bytes.
    bit:
        Bit of the n-byte node value to flip.
    layer_from_top:
        How far below the top hypertree layer to strike (>= 1; the top
        tree's root is pinned in the public key, so corrupting it raises
        a root mismatch instead of diverging silently).
    consistent:
        When true (default), recompute the flipped node's ancestors so
        the subtree stays internally consistent — the resulting signature
        still *verifies* but is wrong (the attack class only the
        differential oracle catches).  When false, leave the ancestors
        stale: the auth path no longer reaches the root and verification
        fails (the benign, self-detecting outcome).
    """

    level: int = 0
    bit: int = 0
    layer_from_top: int = 1
    consistent: bool = True
    #: Entry point tapped — mirrors BitFlipFault for CLI diagnostics.
    target: str = field(default="cache", init=False)
    #: How many cache strikes the fault has performed.
    calls_seen: int = field(default=0, init=False)
    #: Whether the fault actually fired (a cached subtree was corrupted).
    fired: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ConformanceError(f"level must be >= 0, got {self.level}")
        if self.layer_from_top < 1:
            raise ConformanceError(
                "layer_from_top must be >= 1: the top tree's root is "
                "pinned in the public key, a flip there cannot diverge "
                "silently"
            )

    @property
    def spec(self) -> str:
        base = f"cache:flip:{self.level}:{self.bit}"
        return base if self.consistent else base + ":benign"

    def apply(self, ops, idx_tree: int) -> str:
        """Corrupt the cached subtree that signing *idx_tree* traverses.

        *ops* is the backend's per-key :class:`~.runtime.fastops.FastOps`
        instance; its layer cache holds (or will hold) the target
        subtree.  Returns a human-readable detail string for the report.
        """
        params = ops.params
        th = params.tree_height
        layer = params.d - 1 - self.layer_from_top
        if layer < 0:
            raise ConformanceError(
                f"layer_from_top {self.layer_from_top} exceeds hypertree "
                f"depth d={params.d}"
            )
        if self.level >= th:
            raise ConformanceError(
                f"level {self.level} out of range for tree_height {th}"
            )
        tree = idx_tree >> (th * layer)
        leaf = ((idx_tree >> (th * (layer - 1))) & (params.tree_leaves - 1)
                if layer else idx_tree & (params.tree_leaves - 1))
        # Build-or-fetch the cached subtree, then mutate it in place —
        # the next signing pass serves the corrupted copy.
        levels = ops.subtree_levels(layer, tree)
        sibling = (leaf >> self.level) ^ 1
        levels[self.level][sibling] = flip_bit(
            levels[self.level][sibling], self.bit)
        if self.consistent:
            # Recompute the ancestors along the leaf's path so the tree
            # is self-consistent again (with a different root).
            for height in range(self.level + 1, th + 1):
                index = leaf >> height
                left = levels[height - 1][2 * index]
                right = levels[height - 1][2 * index + 1]
                levels[height][index] = ops.tree_node_hash(
                    layer, tree, height, index, left, right)
            # The parent layer's cached WOTS link signs the *old* root;
            # drop it so the signer re-signs the corrupted root (a fresh
            # link that verifies) instead of failing on a stale one.
            ops.cache.drop_link(layer + 1, tree >> th,
                                tree & (params.tree_leaves - 1))
        self.calls_seen += 1
        self.fired = True
        mode = ("ancestors recomputed, still verifies"
                if self.consistent else "auth path left stale")
        return (f"flipped bit {self.bit} of cached node "
                f"level {self.level} index {sibling} in subtree "
                f"(layer {layer}, tree {tree}); {mode}")


def _parse_cache_fault(spec: str, parts: list[str]) -> CachedNodeFault:
    """Parse ``cache:flip[:level[:bit]][:benign]``."""
    fields = parts[2:]
    consistent = True
    if fields and fields[-1] == "benign":
        consistent = False
        fields = fields[:-1]
    kwargs: dict[str, int] = {}
    try:
        if len(fields) >= 1:
            kwargs["level"] = int(fields[0])
        if len(fields) >= 2:
            kwargs["bit"] = int(fields[1])
        if len(fields) > 2:
            raise ValueError("too many fields")
    except ValueError as exc:
        raise ConformanceError(f"bad fault spec {spec!r}: {exc}") from exc
    return CachedNodeFault(consistent=consistent, **kwargs)


def parse_fault(spec: str) -> BitFlipFault | CachedNodeFault:
    """Parse a fault spec: ``target:bitflip[:call_index[:bit]]`` for the
    hash taps, ``cache:flip[:level[:bit]][:benign]`` for the layer cache.
    """
    parts = spec.strip().split(":")
    if len(parts) >= 2 and parts[0] == "cache" and parts[1] == "flip":
        return _parse_cache_fault(spec, parts)
    if len(parts) < 2 or parts[1] != "bitflip":
        raise ConformanceError(
            f"unsupported fault spec {spec!r}; expected "
            "'thash:bitflip[:call_index[:bit]]', 'prf:bitflip[...]', or "
            "'cache:flip[:level[:bit]][:benign]'"
        )
    kwargs: dict[str, int] = {}
    try:
        if len(parts) >= 3:
            kwargs["call_index"] = int(parts[2])
        if len(parts) >= 4:
            kwargs["bit"] = int(parts[3])
        if len(parts) > 4:
            raise ValueError("too many fields")
    except ValueError as exc:
        raise ConformanceError(f"bad fault spec {spec!r}: {exc}") from exc
    return BitFlipFault(target=parts[0], **kwargs)
