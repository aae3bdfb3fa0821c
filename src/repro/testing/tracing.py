"""Structured signing traces over the sphincs/ instrumentation hooks.

Every SPHINCS+ component reports its per-stage output through the optional
``HashContext.tracer`` sink (see ``repro.hashes.thash``): the message
digestion, each FORS forest, every Merkle subtree root, every WOTS+ chain
bundle, and the final hypertree root.  A trace is the ordered list of
those hops, each compressed to a short digest — two signing runs computed
the same signature if and only if their traces match hop for hop, and
when they do *not* match, the first differing hop names the stage where
the computations parted ways.

That is how the conformance oracle localizes an injected fault: capture a
clean trace and a faulted trace of the same (message, key) pair and
report :func:`first_divergence`.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass

from ..params import SphincsParams
from ..sphincs.signer import KeyPair, Sphincs

__all__ = ["TraceHop", "TraceRecorder", "capture_trace", "first_divergence"]


@dataclass(frozen=True)
class TraceHop:
    """One recorded stage output: where it came from and a short digest."""

    stage: str   # "prepare" | "fors" | "merkle" | "wots" | "hypertree"
    label: str   # stage-specific position, e.g. "layer=2/tree=7"
    digest: str  # first 16 hex chars of SHA-256 over the stage output

    def __str__(self) -> str:
        return f"{self.stage}[{self.label}]={self.digest}"


class TraceRecorder:
    """A ``HashContext.tracer`` sink that appends :class:`TraceHop`\\ s."""

    def __init__(self) -> None:
        self.hops: list[TraceHop] = []

    def record(self, stage: str, label: str, value: bytes) -> None:
        self.hops.append(TraceHop(
            stage=stage, label=label,
            digest=hashlib.sha256(value).hexdigest()[:16],
        ))

    def clear(self) -> None:
        self.hops.clear()


def capture_trace(params: SphincsParams | str, message: bytes,
                  keys: KeyPair | None = None,
                  fault=None) -> list[TraceHop]:
    """Sign *message* on the reference path and return its stage trace.

    Uses a fresh deterministic :class:`Sphincs` scheme so traces of the
    same (params, message, keys) triple are reproducible.  *keys* defaults
    to the all-zero-seed deterministic pair (the same one the KAT store
    pins).  *fault* is an optional injector from
    :mod:`repro.testing.faults`, installed for the duration of the sign.
    """
    scheme = Sphincs(params, deterministic=True)
    if keys is None:
        keys = scheme.keygen(seed=bytes(3 * scheme.params.n))
    recorder = TraceRecorder()
    scheme.ctx.tracer = recorder
    guard = fault.install(scheme.ctx) if fault is not None else nullcontext()
    try:
        with guard:
            scheme.sign(message, keys)
    finally:
        scheme.ctx.tracer = None
    return recorder.hops


def first_divergence(a: list[TraceHop],
                     b: list[TraceHop]) -> tuple[int, TraceHop, TraceHop] | None:
    """The first hop where two traces differ, or None if identical.

    Returns ``(index, hop_a, hop_b)``; a length mismatch past the common
    prefix is reported at the first missing index with a synthetic
    ``<absent>`` hop.
    """
    absent = TraceHop(stage="<absent>", label="-", digest="-")
    for index in range(max(len(a), len(b))):
        hop_a = a[index] if index < len(a) else absent
        hop_b = b[index] if index < len(b) else absent
        if hop_a != hop_b:
            return index, hop_a, hop_b
    return None
