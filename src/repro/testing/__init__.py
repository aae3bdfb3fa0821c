"""Conformance & fault-injection subsystem.

Correctness in this repository is enforced by machinery, not eyeballs:

* :mod:`.oracle` — the cross-backend **differential oracle**: every
  signing path (backends, service, clients) over one adversarial
  corpus, byte-compared against the reference scheme, divergences
  localized to the first diverging hop.
* :mod:`.kat` — **pinned KAT vectors** for 128s/128f/192s/256s under
  ``tests/vectors/``, with regeneration and drift checking.
* :mod:`.corpus` — seeded, stdlib-only **fuzz generation**: message edge
  cases, malformed protocol frames, corrupt keystore files.
* :mod:`.faults` — deterministic **bit-flip injection** into the
  tweakable-hash layer (the Genet-style SPHINCS+ fault model).
* :mod:`.tracing` — structured signing **traces** over the ``sphincs/``
  instrumentation hooks, for naming the hop where two runs diverge.
* :mod:`.chaos` — a seeded **flaky-TCP proxy** for service-tier chaos
  tests.
* :mod:`.fixtures` — the same machinery as a **pytest fixture library**.

CLI entry point: ``python -m repro conformance`` (see the README's
"Correctness: machine-checked" section).
"""

from .chaos import FlakyProxy
from .corpus import (corrupt_keystore_payloads, malformed_frames,
                     message_corpus)
from .faults import BitFlipFault, CachedNodeFault, flip_bit, parse_fault
from .kat import (KAT_SETS, check_kat, default_vectors_dir, generate_kat,
                  kat_corpus, load_kat)
from .oracle import (ConformanceReport, DifferentialOracle, Divergence,
                     PathResult, localize_divergence)
from .tracing import TraceHop, TraceRecorder, capture_trace, first_divergence

__all__ = [
    "BitFlipFault",
    "CachedNodeFault",
    "ConformanceReport",
    "DifferentialOracle",
    "Divergence",
    "FlakyProxy",
    "KAT_SETS",
    "PathResult",
    "TraceHop",
    "TraceRecorder",
    "capture_trace",
    "check_kat",
    "corrupt_keystore_payloads",
    "default_vectors_dir",
    "first_divergence",
    "flip_bit",
    "generate_kat",
    "kat_corpus",
    "load_kat",
    "localize_divergence",
    "malformed_frames",
    "message_corpus",
    "parse_fault",
]
