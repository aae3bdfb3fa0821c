"""The cross-backend differential oracle.

Every execution strategy in this repository — the scalar reference
backend, the vectorized CPU backend, the modeled-GPU backend, the worker
pool, the async :class:`~repro.service.server.SigningService` (in-process
and with ``workers=N``), and the unified
:mod:`repro.api` client facade over each transport (``client:local``,
``client:pooled``, ``client:tcp`` pinned to the v2 JSON wire, and
``client:tcp-v3`` over the binary framing with streamed sign-many —
both against a live server) — promises the same thing:
byte-identical SPHINCS+ signatures
in deterministic mode.  The
oracle *enforces* that promise.  It signs a shared adversarial corpus
(:func:`repro.testing.corpus.message_corpus`) on a reference scheme, runs
every registered path over the same corpus and keys, and reports:

* **matched** — signature bytes identical to the reference, and
* **verified** — the signature round-trips through ``verify``.

When a path diverges, the oracle names the first diverging hop: it
deserializes both signatures and walks the component layout in signing
order (randomizer -> FORS trees -> per-layer WOTS chains -> per-layer
Merkle auth paths), so a report says ``wots (layer 2)``, not "bytes
differ".  A diverging signature that still *verifies* would be a silently
wrong signature — the one outcome a conformance suite exists to make
impossible — and is flagged as undetected, which fails the run louder
than an ordinary mismatch.

Fault injection plugs in here: install a
:class:`~repro.testing.faults.BitFlipFault` on one backend and the oracle
must (a) catch the divergence, (b) name the stage, and (c) confirm the
faulty signature fails verification.  The reference path additionally
localizes the fault with the ``sphincs/`` tracing hooks
(:func:`repro.testing.tracing.capture_trace`).

A :class:`~repro.testing.faults.CachedNodeFault` runs a focused two-pass
flow instead: warm the vectorized backend's hypertree layer cache over
the corpus (pass 1 must byte-match), corrupt one cached subtree node,
then sign the corpus again — the divergence is provably the cached state.
A *consistent* strike produces signatures that still verify, so the
report must show ``verify_failed=False`` divergences: the fault-attack
class only the differential compare catches.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass, field

from ..errors import ConformanceError, SignatureFormatError, TuningError
from ..params import SphincsParams, get_params
from ..runtime.registry import available_backends, get_backend
from ..sphincs.signer import KeyPair, Sphincs
from .corpus import message_corpus
from .faults import BitFlipFault, CachedNodeFault
from .tracing import capture_trace, first_divergence

__all__ = ["Divergence", "PathResult", "ConformanceReport",
           "DifferentialOracle", "localize_divergence"]


@dataclass(frozen=True)
class Divergence:
    """One path/case pair whose signature differed from the reference.

    ``verify_failed`` records *how* the divergence was caught.  ``True``
    means plain verification already rejects the signature.  ``False`` is
    the more dangerous class from the SPHINCS+ fault-attack literature: a
    corrupted auth-path node used consistently in both the signature and
    the root computation yields a *valid-looking* signature that only the
    byte-level differential compare exposes — verification alone would
    have served it.  Either way the oracle caught it; the report just
    says which net did.
    """

    path: str      # e.g. "backend:vectorized"
    case: str      # corpus case name
    stage: str     # first diverging component, e.g. "wots (layer 2)"
    verify_failed: bool
    detail: str = ""

    def __str__(self) -> str:
        verdict = ("caught by verify" if self.verify_failed
                   else "verifies — caught by differential compare only "
                        "(fault-attack class)")
        text = f"{self.path} / {self.case}: diverges at {self.stage} ({verdict})"
        return f"{text} — {self.detail}" if self.detail else text


@dataclass
class PathResult:
    """One signing path's outcome over the whole corpus."""

    path: str
    count: int = 0
    matched: int = 0
    verified: int = 0
    elapsed_s: float = 0.0
    divergences: list[Divergence] = field(default_factory=list)
    error: str = ""    # a path that failed outright (exception) reports here
    skipped: str = ""  # a path that cannot serve this parameter set

    @property
    def ok(self) -> bool:
        if self.skipped:
            return True  # a declared capability limit is not a divergence
        return (not self.divergences and not self.error
                and self.matched == self.count == self.verified)


@dataclass
class ConformanceReport:
    """Everything one oracle run established."""

    params: str
    cases: list[str]
    results: list[PathResult]
    fault_spec: str | None = None
    fault_fired: bool = False
    fault_hop: str | None = None  # trace-level localization, reference path

    @property
    def passed(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def divergences(self) -> list[Divergence]:
        return [d for result in self.results for d in result.divergences]

    def first_divergence(self) -> Divergence | None:
        found = self.divergences
        return found[0] if found else None

    def render(self, title: str = "Conformance oracle") -> str:
        from ..analysis.reporting import format_table

        rows = []
        for result in self.results:
            status = ("skipped" if result.skipped
                      else "ok" if result.ok
                      else "ERROR" if result.error else "DIVERGED")
            rows.append([result.path, result.count, result.matched,
                         result.verified, round(result.elapsed_s, 3), status])
        lines = [format_table(
            ["path", "cases", "matched", "verified", "wall s", "status"],
            rows, title=f"{title} — {self.params}, {len(self.cases)} cases",
        )]
        for result in self.results:
            if result.error:
                lines.append(f"  {result.path}: {result.error}")
            elif result.skipped:
                lines.append(f"  {result.path}: skipped — {result.skipped}")
        for divergence in self.divergences:
            lines.append(f"  {divergence}")
        if self.fault_spec is not None:
            fired = "fired" if self.fault_fired else "NEVER FIRED"
            lines.append(f"  injected fault {self.fault_spec}: {fired}")
            if self.fault_hop is not None:
                if (self.fault_spec or "").startswith("cache:"):
                    lines.append(f"  cache strike: {self.fault_hop}")
                else:
                    lines.append(
                        f"  reference trace diverges at {self.fault_hop}")
        return "\n".join(lines)


def localize_divergence(scheme: Sphincs, expected: bytes,
                        actual: bytes) -> str:
    """Name the first diverging component of two signature blobs.

    Components are compared in signing order, so the answer is the first
    *hop* at which the two computations parted ways: ``randomizer``,
    ``fors (tree k ...)``, ``wots (layer d)``, or ``merkle (layer d auth
    path)``.
    """
    if len(expected) != len(actual):
        return f"length ({len(actual)} bytes, expected {len(expected)})"
    try:
        rand_e, fors_e, ht_e = scheme.deserialize(expected)
        rand_a, fors_a, ht_a = scheme.deserialize(actual)
    except SignatureFormatError as exc:
        return f"format ({exc})"
    if rand_e != rand_a:
        return "randomizer"
    for tree, ((sec_e, path_e), (sec_a, path_a)) in enumerate(
            zip(fors_e, fors_a)):
        if sec_e != sec_a:
            return f"fors (tree {tree} revealed secret)"
        if path_e != path_a:
            return f"fors (tree {tree} auth path)"
    for layer, ((chains_e, path_e), (chains_a, path_a)) in enumerate(
            zip(ht_e, ht_a)):
        if chains_e != chains_a:
            return f"wots (layer {layer})"
        if path_e != path_a:
            return f"merkle (layer {layer} auth path)"
    return "none (byte-identical)"


class DifferentialOracle:
    """Run every signing path over one corpus and compare the bytes.

    Parameters
    ----------
    params:
        Parameter set under test.
    backends:
        Backend names to include; defaults to every registered backend,
        so a backend added via ``register_backend`` joins the oracle with
        no further wiring.
    corpus:
        ``(case, message)`` pairs; defaults to :func:`message_corpus`.
    include_service:
        Also push the corpus through the async ``SigningService``
        (vectorized).  When the ``pooled`` backend is in play, the
        service pass additionally runs with ``workers=service_workers``,
        proving the whole multi-core tier byte-identical.
    include_clients:
        Also drive the corpus through the :mod:`repro.api` facade on
        every transport: ``client:local`` (in-process backend),
        ``client:pooled`` (worker pool, when ``pooled`` is among the
        backends), ``client:tcp`` (an AsyncClient pinned to the v2 JSON
        wire), and ``client:tcp-v3`` (the same client over v3 binary
        frames with streamed sign-many) — both against a live server.
        Each path byte-compares against the reference and additionally
        round-trips a ``verify`` call through the same facade.
    include_ledger:
        Also push the corpus through the transparency-log pipeline
        (``ledger:audit``): append every message to a disk-backed
        :class:`~repro.ledger.service.LedgerService`, byte-compare the
        batch signatures embedded in the committed entries against the
        reference, check every receipt's inclusion proof client-side,
        and replay the log with :func:`repro.ledger.run_audit` in
        deterministic mode — each checkpoint signature must byte-match
        a reference re-sign of the same tree head.
    fault / fault_target:
        Optional :class:`BitFlipFault` installed on *fault_target*'s
        direct-backend pass — the oracle then demonstrates detection.
    """

    def __init__(self, params: SphincsParams | str = "128f",
                 backends: list[str] | None = None,
                 corpus: list[tuple[str, bytes]] | None = None,
                 seed: int = 0, smoke: bool = False,
                 include_service: bool = True,
                 include_clients: bool = True,
                 include_ledger: bool = True,
                 service_backend: str = "vectorized",
                 service_workers: int = 2,
                 fault: BitFlipFault | CachedNodeFault | None = None,
                 fault_target: str = "scalar"):
        self.params = get_params(params) if isinstance(params, str) else params
        self.backends = (list(backends) if backends is not None
                         else list(available_backends()))
        self.corpus = (corpus if corpus is not None
                       else message_corpus(seed=seed, smoke=smoke))
        self.include_service = include_service
        self.include_clients = include_clients
        self.include_ledger = include_ledger
        self.service_backend = service_backend
        self.service_workers = service_workers
        self.fault = fault
        self.fault_target = fault_target

    # ------------------------------------------------------------------
    def run(self) -> ConformanceReport:
        scheme = Sphincs(self.params, deterministic=True)
        keys = scheme.keygen(seed=bytes(3 * self.params.n))

        reference = PathResult(path="reference")
        expected: dict[str, bytes] = {}
        started = time.perf_counter()
        for case, message in self.corpus:
            signature = scheme.sign(message, keys)
            expected[case] = signature
            reference.count += 1
            reference.matched += 1
            if scheme.verify(message, signature, keys.public):
                reference.verified += 1
            else:
                reference.divergences.append(Divergence(
                    path="reference", case=case, stage="verify",
                    verify_failed=True,
                    detail="reference signature failed verification",
                ))
        reference.elapsed_s = time.perf_counter() - started

        results = [reference]
        if isinstance(self.fault, CachedNodeFault):
            # Focused two-pass flow: warm pass, cache strike, faulted
            # pass.  The service/client tiers share the same
            # backend code, so the cached-state property is established
            # once, where the cache lives.
            cached_results, fault_hop = self._run_cached_fault(
                scheme, keys, expected)
            results.extend(cached_results)
            return ConformanceReport(
                params=self.params.name,
                cases=[case for case, _ in self.corpus],
                results=results,
                fault_spec=self.fault.spec,
                fault_fired=self.fault.fired,
                fault_hop=fault_hop,
            )
        fault_fired = False
        for name in self.backends:
            fault = self.fault if name == self.fault_target else None
            results.append(self._run_backend(name, scheme, keys, expected,
                                             fault))
            if fault is not None:
                fault_fired = fault.fired
        if self.fault is None:
            results.extend(self._run_warm_paths(scheme, keys, expected))
        if self.include_service:
            results.append(asyncio.run(
                self._run_service(scheme, keys, expected)))
            if "pooled" in self.backends:
                # The multi-core execution tier must honor the same
                # byte-identical contract end to end: async service ->
                # pooled backend -> worker pool -> inner backend.
                results.append(asyncio.run(
                    self._run_service(scheme, keys, expected,
                                      workers=self.service_workers)))
        if self.include_clients:
            # The unified facade must uphold the same contract through
            # every transport it abstracts over.
            results.append(self._run_client(
                "client:local", scheme, keys, expected,
                backend=self.service_backend))
            if "pooled" in self.backends:
                results.append(self._run_client(
                    "client:pooled", scheme, keys, expected,
                    backend="pooled",
                    backend_options={"pooled":
                                     {"workers": self.service_workers}}))
            # Both wire generations must produce byte-identical output:
            # v2 JSON lines pinned explicitly, and the v3 binary framing
            # with its streamed sign-many.
            results.append(asyncio.run(
                self._run_client_tcp(scheme, keys, expected, version=2)))
            results.append(asyncio.run(
                self._run_client_tcp(scheme, keys, expected, version=3)))
            # The cluster tier joins the same contract: placement and
            # failover must never change a byte of signature output.
            results.append(asyncio.run(
                self._run_client_cluster(scheme, keys, expected)))
            results.append(asyncio.run(
                self._run_client_cluster(scheme, keys, expected,
                                         chaos=True)))
        if self.include_ledger and self.fault is None:
            results.append(asyncio.run(
                self._run_ledger(scheme, keys, expected)))

        fault_hop = None
        if self.fault is not None and self.corpus:
            # Localize on the reference path via the sphincs/ trace hooks:
            # same fault parameters, fresh counters, first corpus message.
            replica = dataclasses.replace(self.fault)
            case, message = self.corpus[0]
            clean = capture_trace(self.params, message, keys)
            faulted = capture_trace(self.params, message, keys, fault=replica)
            hit = first_divergence(clean, faulted)
            if hit is not None:
                index, _, hop = hit
                fault_hop = f"hop {index}: {hop.stage}[{hop.label}]"

        return ConformanceReport(
            params=self.params.name,
            cases=[case for case, _ in self.corpus],
            results=results,
            fault_spec=self.fault.spec if self.fault is not None else None,
            fault_fired=fault_fired,
            fault_hop=fault_hop,
        )

    # ------------------------------------------------------------------
    def _compare(self, result: PathResult, scheme: Sphincs, keys: KeyPair,
                 expected: dict[str, bytes],
                 produced: dict[str, bytes],
                 corpus: list[tuple[str, bytes]] | None = None) -> None:
        for case, message in (self.corpus if corpus is None else corpus):
            result.count += 1
            signature = produced.get(case)
            if signature is None:
                result.divergences.append(Divergence(
                    path=result.path, case=case, stage="missing",
                    verify_failed=True, detail="path produced no signature",
                ))
                continue
            verifies = scheme.verify(message, signature, keys.public)
            if verifies:
                result.verified += 1
            if signature == expected[case]:
                result.matched += 1
                if not verifies:
                    result.divergences.append(Divergence(
                        path=result.path, case=case, stage="verify",
                        verify_failed=True,
                        detail="matching signature failed verification",
                    ))
            else:
                stage = localize_divergence(scheme, expected[case], signature)
                result.divergences.append(Divergence(
                    path=result.path, case=case, stage=stage,
                    verify_failed=not verifies,
                ))

    def _run_backend(self, name: str, scheme: Sphincs, keys: KeyPair,
                     expected: dict[str, bytes],
                     fault: BitFlipFault | None) -> PathResult:
        result = PathResult(path=f"backend:{name}")
        started = time.perf_counter()
        try:
            backend = get_backend(name, self.params, deterministic=True)
            messages = [message for _, message in self.corpus]
            if fault is not None:
                get_context = getattr(backend, "hash_context", None)
                if get_context is None:
                    raise ConformanceError(
                        f"backend {name!r} does not expose hash_context(); "
                        "cannot install a fault on it (see "
                        "SigningBackend.hash_context)"
                    )
                try:
                    context = get_context()
                except Exception as exc:  # declared untappable
                    raise ConformanceError(
                        f"cannot install fault on backend {name!r}: {exc}"
                    ) from exc
                with fault.install(context):
                    signatures = backend.sign_batch(messages, keys).signatures
            else:
                signatures = backend.sign_batch(messages, keys).signatures
            produced = {case: signature for (case, _), signature
                        in zip(self.corpus, signatures)}
            self._compare(result, scheme, keys, expected, produced)
        except ConformanceError:
            raise  # harness misconfiguration, not a conformance finding
        except TuningError as exc:
            # The backend declares it cannot serve this parameter set
            # (e.g. modeled-gpu: a 128s FORS tree exceeds the thread
            # budget).  A stated capability limit is not a divergence.
            result.skipped = str(exc)
        except Exception as exc:  # noqa: BLE001 — a path failing is a finding
            result.error = f"{type(exc).__name__}: {exc}"
        result.elapsed_s = time.perf_counter() - started
        return result

    def _run_warm_paths(self, scheme: Sphincs, keys: KeyPair,
                        expected: dict[str, bytes]) -> list[PathResult]:
        """Cache-enabled byte-identity passes.

        ``backend:scalar+layercache`` runs the reference backend with the
        hypertree layer cache switched on (it is off by default there);
        ``backend:vectorized+warm`` signs the corpus twice on one backend
        instance and compares the *second* pass, whose subtrees and
        upper-layer WOTS link signatures come out of a warm cache.  Both
        must stay byte-identical to the cold reference.
        """
        results = []
        messages = [message for _, message in self.corpus]
        if "scalar" in self.backends:
            result = PathResult(path="backend:scalar+layercache")
            started = time.perf_counter()
            try:
                backend = get_backend("scalar", self.params,
                                      deterministic=True,
                                      cache_budget_mb=32.0)
                signatures = backend.sign_batch(messages, keys).signatures
                produced = {case: signature for (case, _), signature
                            in zip(self.corpus, signatures)}
                self._compare(result, scheme, keys, expected, produced)
            except Exception as exc:  # noqa: BLE001
                result.error = f"{type(exc).__name__}: {exc}"
            result.elapsed_s = time.perf_counter() - started
            results.append(result)
        if "vectorized" in self.backends:
            result = PathResult(path="backend:vectorized+warm")
            started = time.perf_counter()
            try:
                backend = get_backend("vectorized", self.params,
                                      deterministic=True)
                backend.sign_batch(messages, keys)  # warms the cache
                signatures = backend.sign_batch(messages, keys).signatures
                produced = {case: signature for (case, _), signature
                            in zip(self.corpus, signatures)}
                self._compare(result, scheme, keys, expected, produced)
            except Exception as exc:  # noqa: BLE001
                result.error = f"{type(exc).__name__}: {exc}"
            result.elapsed_s = time.perf_counter() - started
            results.append(result)
        return results

    def _run_cached_fault(self, scheme: Sphincs, keys: KeyPair,
                          expected: dict[str, bytes]
                          ) -> tuple[list[PathResult], str | None]:
        """Warm the layer cache, strike one cached node, sign again.

        Returns the warm-pass and faulted-pass results plus the strike's
        detail string (reported as the fault localization).  The warm
        pass must byte-match — otherwise the faulted pass would prove
        nothing about the cache.
        """
        fault = self.fault
        messages = [message for _, message in self.corpus]
        warm_result = PathResult(path="backend:vectorized+warm")
        fault_result = PathResult(path="backend:vectorized+cached-fault")
        detail = None
        started = time.perf_counter()
        try:
            backend = get_backend("vectorized", self.params,
                                  deterministic=True)
            signatures = backend.sign_batch(messages, keys).signatures
            produced = {case: signature for (case, _), signature
                        in zip(self.corpus, signatures)}
            self._compare(warm_result, scheme, keys, expected, produced)
            warm_result.elapsed_s = time.perf_counter() - started
            if warm_result.divergences:
                # The clean warm pass is already wrong; a cache strike on
                # top of it would be meaningless.  fired stays False, so
                # the CLI reports the fault as never having fired.
                return [warm_result], None
            # Strike the cached subtree that the first corpus message's
            # hypertree walk traverses, then serve the corrupted cache.
            started = time.perf_counter()
            task = scheme.prepare(self.corpus[0][1], keys)
            detail = fault.apply(backend._ops(keys), task.idx_tree)
            signatures = backend.sign_batch(messages, keys).signatures
            produced = {case: signature for (case, _), signature
                        in zip(self.corpus, signatures)}
            self._compare(fault_result, scheme, keys, expected, produced)
            if fault.consistent and not fault_result.divergences:
                fault_result.divergences.append(Divergence(
                    path=fault_result.path, case=self.corpus[0][0],
                    stage="cache", verify_failed=False,
                    detail="consistent cached-node flip produced no "
                           "divergence — the strike missed the signing "
                           "path",
                ))
        except Exception as exc:  # noqa: BLE001
            fault_result.error = f"{type(exc).__name__}: {exc}"
        fault_result.elapsed_s = time.perf_counter() - started
        return [warm_result, fault_result], detail

    def _client_keystore(self):
        """A keystore whose 'oracle' tenant key equals the reference key
        (same deterministic seed), so facade signatures byte-compare."""
        from ..service import Keystore

        keystore = Keystore()
        keystore.add_tenant("oracle", self.params.name)
        keystore.generate_key("oracle", "default",
                              seed=bytes(3 * self.params.n))
        return keystore

    def _client_compare(self, result: PathResult, scheme: Sphincs,
                        keys: KeyPair, expected: dict[str, bytes],
                        corpus: list[tuple[str, bytes]],
                        signed: list, verdict) -> None:
        produced = {case: item.signature
                    for (case, _), item in zip(corpus, signed)}
        self._compare(result, scheme, keys, expected, produced,
                      corpus=corpus)
        # The facade's verify must accept what the facade signed —
        # the served-verification half of the contract.
        if corpus and not verdict.valid:
            result.divergences.append(Divergence(
                path=result.path, case=corpus[0][0], stage="client-verify",
                verify_failed=True,
                detail="facade verify rejected a facade signature",
            ))

    def _run_client(self, label: str, scheme: Sphincs, keys: KeyPair,
                    expected: dict[str, bytes], backend: str,
                    backend_options: dict | None = None) -> PathResult:
        from ..api import LocalClient

        result = PathResult(path=label)
        started = time.perf_counter()
        client = None
        try:
            client = LocalClient(self._client_keystore(), backend=backend,
                                 deterministic=True,
                                 backend_options=backend_options)
            signed = client.sign_many(
                "oracle", [message for _, message in self.corpus])
            case, message = self.corpus[0]
            verdict = client.verify("oracle", message, signed[0].signature)
            self._client_compare(result, scheme, keys, expected,
                                 self.corpus, signed, verdict)
        except TuningError as exc:
            result.skipped = str(exc)
        except Exception as exc:  # noqa: BLE001 — a path failing is a finding
            result.error = f"{type(exc).__name__}: {exc}"
        finally:
            if client is not None:
                client.close()
        result.elapsed_s = time.perf_counter() - started
        return result

    async def _run_client_tcp(self, scheme: Sphincs, keys: KeyPair,
                              expected: dict[str, bytes],
                              version: int = 3) -> PathResult:
        from ..api import AsyncClient
        from ..service import SigningServer, SigningService, protocol

        result = PathResult(path="client:tcp" if version < 3
                            else "client:tcp-v3")
        started = time.perf_counter()
        # The wire can only frame messages up to the per-mode message
        # bound (the full corpus includes a 1 MiB case); skipping
        # oversized cases is a stated transport bound, not a divergence.
        budget = (protocol.MAX_MESSAGE_BYTES_V3 if version >= 3
                  else protocol.MAX_MESSAGE_BYTES)
        corpus = [(case, message) for case, message in self.corpus
                  if len(message) <= budget]
        server = None
        client = None
        try:
            service = SigningService(
                self._client_keystore(), backend=self.service_backend,
                target_batch_size=max(2, len(corpus) // 2),
                max_wait_s=0.05, max_pending=max(64, 2 * len(corpus)),
                deterministic=True)
            server = SigningServer(service, port=0)
            await server.start()
            client = await AsyncClient.connect(port=server.port,
                                               version=version)
            signed = await client.sign_many(
                "oracle", [message for _, message in corpus])
            case, message = corpus[0]
            verdict = await client.verify("oracle", message,
                                          signed[0].signature)
            self._client_compare(result, scheme, keys, expected, corpus,
                                 signed, verdict)
        except Exception as exc:  # noqa: BLE001
            result.error = f"{type(exc).__name__}: {exc}"
        finally:
            if client is not None:
                await client.close()
            if server is not None:
                await server.stop()
        result.elapsed_s = time.perf_counter() - started
        return result

    async def _run_client_cluster(self, scheme: Sphincs, keys: KeyPair,
                                  expected: dict[str, bytes],
                                  chaos: bool = False) -> PathResult:
        """Facade -> cluster router -> 2 signing nodes, byte-compared.

        With ``chaos=True`` the node owning the "oracle" tenant is
        killed halfway through the corpus: the router must re-home the
        shard onto the surviving node and — because both nodes hold
        identically seeded keys and sign deterministically — the
        failover signatures must stay byte-identical too.
        """
        from ..api import AsyncClusterClient
        from ..cluster import LocalCluster
        from ..service import SigningService, protocol

        result = PathResult(path="client:cluster-chaos" if chaos
                            else "client:cluster")
        started = time.perf_counter()
        budget = protocol.MAX_MESSAGE_BYTES_V3
        corpus = [(case, message) for case, message in self.corpus
                  if len(message) <= budget]
        cluster = None
        client = None
        try:
            def factory() -> SigningService:
                return SigningService(
                    self._client_keystore(), backend=self.service_backend,
                    target_batch_size=max(2, len(corpus) // 2),
                    max_wait_s=0.05,
                    max_pending=max(64, 2 * len(corpus)),
                    deterministic=True)

            cluster = await LocalCluster(
                [factory, factory], health_interval_s=0.05).start()
            client = await AsyncClusterClient.connect(port=cluster.port)
            messages = [message for _, message in corpus]
            if chaos:
                half = max(1, len(messages) // 2)
                signed = list(await client.sign_many(
                    "oracle", messages[:half]))
                # Kill the shard's current owner between batches: the
                # second half must come back from the failover node.
                await cluster.kill_node(cluster.owner("oracle"))
                signed.extend(await client.sign_many(
                    "oracle", messages[half:]))
            else:
                signed = list(await client.sign_many("oracle", messages))
            case, message = corpus[0]
            verdict = await client.verify("oracle", message,
                                          signed[0].signature)
            self._client_compare(result, scheme, keys, expected, corpus,
                                 signed, verdict)
        except Exception as exc:  # noqa: BLE001
            result.error = f"{type(exc).__name__}: {exc}"
        finally:
            if client is not None:
                await client.close()
            if cluster is not None:
                await cluster.stop()
        result.elapsed_s = time.perf_counter() - started
        return result

    async def _run_service(self, scheme: Sphincs, keys: KeyPair,
                           expected: dict[str, bytes],
                           workers: int = 0) -> PathResult:
        from ..service import Keystore, SigningService

        label = (f"service:pooled[{workers}]" if workers
                 else f"service:{self.service_backend}")
        result = PathResult(path=label)
        started = time.perf_counter()
        service = None
        try:
            keystore = Keystore()
            keystore.add_tenant("oracle", self.params.name)
            keystore.generate_key("oracle", "default",
                                  seed=bytes(3 * self.params.n))
            service = SigningService(
                keystore, backend=self.service_backend,
                target_batch_size=max(2, len(self.corpus) // 2),
                max_wait_s=0.05, max_pending=max(64, 2 * len(self.corpus)),
                deterministic=True, workers=workers)
            outcomes = await asyncio.gather(*[
                service.sign(message, "oracle")
                for _, message in self.corpus])
            produced = {case: outcome.signature for (case, _), outcome
                        in zip(self.corpus, outcomes)}
            self._compare(result, scheme, keys, expected, produced)
        except Exception as exc:  # noqa: BLE001
            result.error = f"{type(exc).__name__}: {exc}"
        finally:
            if service is not None:
                await service.drain()
                service.close()
        result.elapsed_s = time.perf_counter() - started
        return result

    async def _run_ledger(self, scheme: Sphincs, keys: KeyPair,
                          expected: dict[str, bytes]) -> PathResult:
        """Corpus -> transparency log -> differential audit.

        Three nets, in order: the batch signature embedded in each
        committed entry must byte-match the reference; every
        acknowledged receipt must yield an inclusion proof the
        client-side checker accepts (the pipeline's core invariant);
        and the deterministic replay audit over the raw on-disk bytes
        must re-sign every checkpoint body to the identical signature.
        """
        import tempfile
        from pathlib import Path

        from ..api import LocalClient, verify_inclusion
        from ..ledger import LedgerService, decode_entry, run_audit

        result = PathResult(path="ledger:audit")
        started = time.perf_counter()
        client = None
        try:
            with tempfile.TemporaryDirectory(
                    prefix="repro-oracle-ledger-") as tmp:
                root = Path(tmp) / "log"
                keystore = self._client_keystore()
                client = LocalClient(keystore, backend=self.service_backend,
                                     deterministic=True)
                ledger = LedgerService(
                    client, tenant="oracle", root=root,
                    batch_size=max(2, len(self.corpus) // 2))
                receipts = await ledger.append_many(
                    [message for _, message in self.corpus])
                produced = {case: decode_entry(receipt.entry)[1]
                            for (case, _), receipt
                            in zip(self.corpus, receipts)}
                self._compare(result, scheme, keys, expected, produced)
                for (case, _), receipt in zip(self.corpus, receipts):
                    proof = ledger.prove(receipt.index,
                                         receipt.checkpoint.size)
                    if not verify_inclusion(client, proof):
                        result.divergences.append(Divergence(
                            path=result.path, case=case, stage="inclusion",
                            verify_failed=True,
                            detail=f"acknowledged entry {receipt.index} "
                                   "has no verifying inclusion proof"))
                await ledger.close()
                report = run_audit(root, keystore, tenant="oracle",
                                   deterministic=True)
                if not report["ok"]:
                    for problem in report["problems"]:
                        result.divergences.append(Divergence(
                            path=result.path, case="<audit>", stage="audit",
                            verify_failed=True, detail=problem))
                elif report["signatures_matched"] != report["checkpoints"]:
                    result.divergences.append(Divergence(
                        path=result.path, case="<audit>", stage="audit",
                        verify_failed=False,
                        detail=f"only {report['signatures_matched']} of "
                               f"{report['checkpoints']} checkpoint "
                               "signatures matched the reference"))
        except TuningError as exc:
            result.skipped = str(exc)
        except Exception as exc:  # noqa: BLE001
            result.error = f"{type(exc).__name__}: {exc}"
        finally:
            if client is not None:
                client.close()
        result.elapsed_s = time.perf_counter() - started
        return result
