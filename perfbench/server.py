"""The deployment under test: one signing (or ledger) server process.

``python3 perfbench/server.py --deployment KEY=VALUE,... [--ledger-root DIR]``
builds the tenant keystore, a :class:`~repro.service.SigningService` from
the deployment settings, and the stock :class:`~repro.service.SigningServer`
(or :class:`~repro.ledger.LedgerServer` when ``--ledger-root`` is given).
It prints ``ready <port>`` once it listens and serves until its standard
input closes, so the server never outlives the benchmark that started it.

The deployment settings are passed verbatim as ``SigningService`` keyword
arguments: the benchmark records them in its own command line and never
relies on CLI defaults that could change under it.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.ledger import LedgerServer, LedgerService
from repro.params import get_params
from repro.service import (Keystore, SigningServer, SigningService,
                           derive_seed)

TENANT = "bench"
PARAMS = "128f"
#: Events per ``log-append`` in the ledger workload; the ledger seals
#: that many at once, so one append is one seal (4 entry signatures plus
#: one checkpoint signature and the fsyncs).
EVENTS_PER_APPEND = 4


def parse_deployment(spec: str) -> dict:
    """``"a=1,b=0.5,c=true,d=name"`` -> ``{"a": 1, "b": 0.5, ...}``."""
    settings: dict = {}
    for item in spec.split(","):
        name, sep, raw = item.partition("=")
        if not sep or not name.strip():
            raise ValueError(f"deployment item {item!r} is not KEY=VALUE")
        raw = raw.strip()
        value: object
        if raw in ("true", "false"):
            value = raw == "true"
        else:
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
        settings[name.strip()] = value
    return settings


#: Settings the traced run's probes and the correctness gate are built
#: for: the gate compares signatures with deterministic ``Sphincs.sign``,
#: and the per-layer probes replay FastOps on a worker pool.
MODELLED = {"backend": ("vectorized",), "deterministic": (True,)}


def check_modelled(settings: dict) -> None:
    """Refuse a deployment the probes would measure as something else."""
    for name, allowed in MODELLED.items():
        if settings.get(name) not in allowed:
            raise ValueError(f"deployment needs {name} in {allowed}, got "
                             f"{settings.get(name)!r}")
    workers = settings.get("workers")
    if not isinstance(workers, int) or workers < 1:
        raise ValueError(f"deployment needs workers >= 1 (a worker pool), "
                         f"got {workers!r}")


def pin(cores: set[int]) -> None:
    """Pin every thread of this process to *cores* (threads started
    later inherit the mask of the thread that starts them)."""
    for task in os.listdir("/proc/self/task"):
        os.sched_setaffinity(int(task), cores)


def split_cores(workers: int) -> tuple[set[int], set[int]]:
    """``(front, worker)`` cores: the pool workers get the last *workers*
    cores (all but one at most); the server loop and the load generator
    share the rest.  One core hosts everything."""
    cores = sorted(os.sched_getaffinity(0))
    split = max(1, len(cores) - workers)
    return set(cores[:split]), set(cores[split:] or cores)


def build_keystore() -> Keystore:
    """The single 128f tenant, keyed by ``derive_seed`` so the benchmark
    can rebuild the same key pair to check signatures."""
    keystore = Keystore()
    keystore.add_tenant(TENANT, PARAMS)
    keystore.generate_key(TENANT, "default",
                          seed=derive_seed(f"{TENANT}/default",
                                           get_params(PARAMS).n))
    return keystore


class _ServiceSigner:
    """The ledger's signing client: the hosted service itself, so seals
    ride the same batcher and worker pool as every other request."""

    def __init__(self, service: SigningService):
        self._service = service

    async def sign(self, tenant: str, message: bytes, key: str = "default"):
        return await self._service.sign(message, tenant, key_name=key)

    async def sign_many(self, tenant: str, messages, key: str = "default"):
        return list(await asyncio.gather(
            *(self.sign(tenant, message, key) for message in messages)))


async def serve(settings: dict, ledger_root: str | None) -> None:
    front, worker = split_cores(settings["workers"])
    # The pool forks its worker from this thread while the service is
    # built, so the worker inherits the worker core; then every thread
    # of this process (loop, pool collector, queue feeders) moves off it.
    os.sched_setaffinity(0, worker)
    service = SigningService(build_keystore(), **settings)
    pin(front)
    if ledger_root is None:
        server = SigningServer(service, port=0)
    else:
        ledger = LedgerService(_ServiceSigner(service), tenant=TENANT,
                               root=ledger_root,
                               batch_size=EVENTS_PER_APPEND)
        server = LedgerServer(service, ledger, port=0)
    await server.start()
    loop = asyncio.get_running_loop()
    stdin_closed = asyncio.Event()
    # Started after the service so the worker pool forks from a process
    # with no extra threads.
    threading.Thread(
        target=lambda: (sys.stdin.buffer.read(),
                        loop.call_soon_threadsafe(stdin_closed.set)),
        daemon=True).start()
    print(f"ready {server.port}", flush=True)
    try:
        await stdin_closed.wait()
    finally:
        await server.stop()


class ServerProcess:
    """Parent-side handle: start this script, wait for ``ready``, read
    the process tree's peak memory from ``/proc``, stop it."""

    READY_TIMEOUT_S = 120.0
    STOP_TIMEOUT_S = 60.0

    def __init__(self, deployment: str, root: Path,
                 ledger_root: Path | None = None):
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--deployment", deployment]
        if ledger_root is not None:
            command += ["--ledger-root", str(ledger_root)]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=root, env=env,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    self.READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        if not line.startswith(b"ready "):
            self.stop()
            raise RuntimeError(f"server did not start (got {line!r})")
        self.port = int(line.split()[1])

    def stop(self) -> None:
        """Close stdin (the server drains and exits); kill if it hangs."""
        if self.proc.stdin is not None and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(self.STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            for pid in reversed(self.pids()):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()

    def pids(self) -> list[int]:
        """The server and every live descendant (the pool workers)."""
        pids, index = [self.proc.pid], 0
        while index < len(pids):
            for children in Path(f"/proc/{pids[index]}/task").glob(
                    "*/children"):
                with contextlib.suppress(OSError):
                    pids += [int(pid) for pid in children.read_text().split()]
            index += 1
        return pids

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the process tree, in MiB."""
        total_kb = 0
        for pid in self.pids():
            with contextlib.suppress(OSError):
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--deployment", required=True,
                        help="SigningService keyword arguments, "
                             "KEY=VALUE,...")
    parser.add_argument("--ledger-root", default=None,
                        help="host a transparency log in this directory")
    args = parser.parse_args()
    asyncio.run(serve(parse_deployment(args.deployment), args.ledger_root))


if __name__ == "__main__":
    main()
