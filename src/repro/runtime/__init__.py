"""The unified batch-signing runtime.

This package is the scaling seam of the reproduction: every execution
engine — the scalar reference path, the vectorized CPU path, the modeled
GPU, the multi-process :class:`WorkerPool` behind :class:`PooledBackend`
— sits behind one :class:`SigningBackend` interface with a first-class
``sign_batch`` call.  Every tier above it (the local client, the async
service, the CLI) signs a batch with exactly one such call.

Adding a new device or strategy (sharded, async, a real GPU) means
registering one new backend — not forking the signer.

>>> from repro import runtime
>>> backend = runtime.get_backend("vectorized", "128f", deterministic=True)
>>> keys = backend.keygen(seed=bytes(48))
>>> result = backend.sign_batch([b"a", b"b"], keys)
>>> backend.verify_batch([b"a", b"b"], result.signatures, keys.public)
[True, True]
"""

from .backend import BackendCapabilities, BatchSignResult, SigningBackend
from .pool import PooledBackend, PoolSignOutcome, WorkerPool
from .registry import available_backends, get_backend, register_backend

__all__ = [
    "BackendCapabilities",
    "BatchSignResult",
    "SigningBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "WorkerPool",
    "PooledBackend",
    "PoolSignOutcome",
]
