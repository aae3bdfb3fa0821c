"""Backend factory: names -> :class:`SigningBackend` constructors.

Built-in backends are registered lazily by import path so that
``import repro.runtime`` stays light (the modeled-GPU backend pulls in the
whole analytical model).  Third-party engines register a factory under a
new name and every client, service, benchmark, and CLI command can
route to them immediately.
"""

from __future__ import annotations

import importlib
from typing import Callable

from ..errors import BackendError
from ..params import SphincsParams
from .backend import SigningBackend

__all__ = ["available_backends", "get_backend", "register_backend"]

BackendFactory = Callable[..., SigningBackend]

# name -> "module:attr" (lazy) or a callable factory (registered at runtime).
_REGISTRY: dict[str, str | BackendFactory] = {
    "scalar": "repro.runtime.scalar:ScalarBackend",
    "vectorized": "repro.runtime.vectorized:VectorizedBackend",
    "modeled-gpu": "repro.runtime.modeled_gpu:ModeledGpuBackend",
    "pooled": "repro.runtime.pool:PooledBackend",
}


def available_backends() -> tuple[str, ...]:
    """All registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def register_backend(name: str, factory: BackendFactory,
                     replace: bool = False) -> None:
    """Register *factory* under *name*.

    The factory is called as ``factory(params, deterministic=..., **kwargs)``
    and must return a :class:`SigningBackend`.  Registering over an
    existing name requires ``replace=True`` — silently shadowing the
    built-ins is almost always a bug.
    """
    if name in _REGISTRY and not replace:
        raise BackendError(
            f"backend {name!r} is already registered; pass replace=True "
            "to override"
        )
    _REGISTRY[name] = factory


def _resolve(name: str) -> BackendFactory:
    try:
        entry = _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_backends())
        raise BackendError(
            f"unknown backend {name!r}; registered: {known}"
        ) from None
    if isinstance(entry, str):
        module_name, _, attr = entry.partition(":")
        entry = getattr(importlib.import_module(module_name), attr)
        _REGISTRY[name] = entry
    return entry


def get_backend(name: str, params: SphincsParams | str = "128f",
                deterministic: bool = False, **kwargs) -> SigningBackend:
    """Construct the backend registered under *name*.

    >>> get_backend("scalar", "128f").capabilities().kind
    'cpu'
    """
    factory = _resolve(name)
    return factory(params, deterministic=deterministic, **kwargs)
