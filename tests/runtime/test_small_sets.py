"""Runtime-level coverage for the small (-s) parameter sets.

The paper evaluates the fast sets; the functional layer has always
supported 128s/192s/256s, and these tests push them through the batch
runtime's single entry point, ``SigningBackend.sign_batch``.  One
message per set end-to-end (they sign in seconds, not milliseconds —
that's what "small signature, slow signing" buys).
"""

import pytest

from repro.params import get_params
from repro.runtime import get_backend

SMALL_SETS = ("128s", "192s", "256s")


@pytest.mark.parametrize("params", SMALL_SETS)
def test_backend_sign_verify_small_set(params):
    backend = get_backend("vectorized", params, deterministic=True)
    keys = backend.keygen(seed=bytes(3 * get_params(params).n))
    message = f"small-set {params}".encode()
    result = backend.sign_batch([message], keys)

    assert result.params == get_params(params).name
    [signature] = result.signatures
    assert len(signature) == get_params(params).sig_bytes
    assert backend.verify_batch([message], [signature],
                                keys.public) == [True]
    # Tampered input must not verify.
    assert backend.verify_batch([message + b"!"], [signature],
                                keys.public) == [False]
