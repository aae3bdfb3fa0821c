"""The differential oracle: clean passes, fault catches, extensibility."""

import pytest

from repro.errors import ConformanceError
from repro.runtime import registry
from repro.runtime.scalar import ScalarBackend
from repro.testing import (DifferentialOracle, localize_divergence,
                           message_corpus, parse_fault)
from repro.sphincs.signer import Sphincs

SMALL_CORPUS = message_corpus(smoke=True)[:3]


class TestCleanTree:
    def test_all_paths_byte_identical(self, differential_oracle):
        oracle = differential_oracle(
            "128f", backends=["scalar", "vectorized"], corpus=SMALL_CORPUS)
        report = oracle.run()
        assert report.passed
        assert report.first_divergence() is None
        paths = {result.path for result in report.results}
        assert paths == {"reference", "backend:scalar", "backend:vectorized",
                         "backend:scalar+layercache",
                         "backend:vectorized+warm",
                         "ledger:audit"}
        for result in report.results:
            assert result.count == result.matched == result.verified == 3
        assert "ok" in report.render()

    def test_ledger_path_appends_proves_and_audits(self, differential_oracle):
        """The ledger:audit path appends the corpus through a real
        LedgerService, byte-compares the entry payload signatures,
        requires every receipt's inclusion proof to verify, and replays
        the on-disk log through the differential audit."""
        oracle = differential_oracle(
            "128f", backends=["scalar"], corpus=SMALL_CORPUS)
        report = oracle.run()
        assert report.passed, report.render()
        ledger = next(result for result in report.results
                      if result.path == "ledger:audit")
        assert ledger.count == ledger.matched == ledger.verified == 3
        assert not ledger.error and not ledger.skipped

        without = differential_oracle(
            "128f", backends=["scalar"], corpus=SMALL_CORPUS,
            include_ledger=False).run()
        assert not any(result.path == "ledger:audit"
                       for result in without.results)

    def test_service_path_included(self, differential_oracle):
        oracle = differential_oracle(
            "128f", backends=["vectorized"], corpus=SMALL_CORPUS,
            include_service=True)
        report = oracle.run()
        assert report.passed
        assert any(result.path == "service:vectorized"
                   for result in report.results)

    def test_client_facade_paths_byte_identical(self, differential_oracle):
        """Acceptance: the repro.api facade joins the oracle —
        client:local, client:pooled, client:tcp (pinned to the v2 line
        protocol), client:tcp-v3 (binary frames), and the cluster router
        (including the kill-a-node chaos variant) all byte-identical to
        the reference scheme."""
        oracle = differential_oracle(
            "128f", backends=["vectorized", "pooled"], corpus=SMALL_CORPUS,
            include_clients=True)
        report = oracle.run()
        assert report.passed, report.render()
        client_paths = {result.path for result in report.results
                        if result.path.startswith("client:")}
        assert client_paths == {"client:local", "client:pooled",
                                "client:tcp", "client:tcp-v3",
                                "client:cluster", "client:cluster-chaos"}
        for result in report.results:
            if result.path.startswith("client:"):
                assert result.count == result.matched == result.verified == 3


class TestFaultInjection:
    def test_fault_caught_named_and_localized(self, differential_oracle):
        fault = parse_fault("thash:bitflip:7:0")
        oracle = differential_oracle(
            "128f", backends=["scalar", "vectorized"], corpus=SMALL_CORPUS,
            fault=fault, fault_target="scalar")
        report = oracle.run()
        assert not report.passed
        assert report.fault_fired
        divergence = report.first_divergence()
        assert divergence is not None
        assert divergence.path == "backend:scalar"
        # The flip lands in the first FORS tree: whichever component it
        # surfaces in, the stage must name a real signing hop.
        assert divergence.stage.split(" ")[0] in {"fors", "wots", "merkle",
                                                  "randomizer"}
        # The trace hooks localize the same fault on the reference path.
        assert report.fault_hop is not None
        assert "fors" in report.fault_hop
        # The untouched backend stays clean.
        vectorized = [r for r in report.results
                      if r.path == "backend:vectorized"]
        assert vectorized[0].ok

    def test_unfired_fault_reports_not_fired(self, differential_oracle):
        fault = parse_fault("thash:bitflip:999999999")
        oracle = differential_oracle(
            "128f", backends=["scalar"], corpus=SMALL_CORPUS[:1],
            fault=fault)
        report = oracle.run()
        assert report.passed  # nothing corrupted...
        assert not report.fault_fired  # ...and the report says why
        assert "NEVER FIRED" in report.render()


class TestExtensibility:
    def test_registered_backend_joins_and_gets_caught(self):
        class CorruptedBackend(ScalarBackend):
            name = "test-corrupted"

            def sign_batch(self, messages, keys):
                result = super().sign_batch(messages, keys)
                blob = bytearray(result.signatures[0])
                blob[-1] ^= 0x01  # last byte: top-layer merkle auth path
                result.signatures[0] = bytes(blob)
                return result

        registry.register_backend("test-corrupted", CorruptedBackend)
        try:
            oracle = DifferentialOracle(
                "128f", backends=["test-corrupted"], corpus=SMALL_CORPUS[:1],
                include_service=False, include_clients=False)
            report = oracle.run()
            assert not report.passed
            divergence = report.first_divergence()
            assert divergence.path == "backend:test-corrupted"
            assert divergence.stage.startswith("merkle (layer")
            assert divergence.verify_failed  # tampering breaks the root walk
        finally:
            registry._REGISTRY.pop("test-corrupted")

    def test_capability_limited_backend_skips_not_fails(self):
        """A backend that declares it cannot serve a parameter set (the
        modeled-gpu backend on 128s: FORS tree over the thread budget)
        is reported as skipped, not as a conformance failure."""
        from repro.errors import TuningError

        def limited_factory(params, deterministic=False, **kwargs):
            raise TuningError("one FORS tree needs more threads than exist")

        registry.register_backend("test-limited", limited_factory)
        try:
            report = DifferentialOracle(
                "128f", backends=["test-limited"], corpus=SMALL_CORPUS[:1],
                include_service=False, include_clients=False).run()
            assert report.passed
            limited = [r for r in report.results
                       if r.path.endswith("test-limited")]
            assert len(limited) == 1  # the direct backend path
            assert all(r.skipped and r.ok for r in limited)
            assert "skipped" in report.render()
        finally:
            registry._REGISTRY.pop("test-limited")

    def test_fault_on_hookless_backend_is_misconfig_not_divergence(self):
        """Installing a fault needs the backend's hash context; a
        third-party backend without the hook must fail loud and typed,
        not be recorded as a signature divergence."""
        class Hookless:
            def __init__(self, params, deterministic=False, **kwargs):
                pass

        registry.register_backend("test-hookless", Hookless)
        try:
            oracle = DifferentialOracle(
                "128f", backends=["test-hookless"], corpus=SMALL_CORPUS[:1],
                include_service=False, include_clients=False,
                fault=parse_fault("thash:bitflip"),
                fault_target="test-hookless")
            with pytest.raises(ConformanceError, match="hash_context"):
                oracle.run()
        finally:
            registry._REGISTRY.pop("test-hookless")

    def test_unknown_backend_is_an_error_not_a_crash(self):
        oracle = DifferentialOracle(
            "128f", backends=["no-such-backend"], corpus=SMALL_CORPUS[:1],
            include_service=False, include_clients=False)
        report = oracle.run()
        assert not report.passed
        broken = [r for r in report.results
                  if r.path == "backend:no-such-backend"]
        assert "BackendError" in broken[0].error
        assert "ERROR" in report.render()


class TestLocalizeDivergence:
    def test_component_walk_names_the_right_hop(self):
        scheme = Sphincs("128f", deterministic=True)
        keys = scheme.keygen(seed=bytes(48))
        clean = scheme.sign(b"hop", keys)
        params = scheme.params

        tampered = bytearray(clean)
        tampered[0] ^= 1
        assert localize_divergence(scheme, clean,
                                   bytes(tampered)) == "randomizer"

        tampered = bytearray(clean)
        tampered[params.n] ^= 1  # first FORS revealed secret
        assert localize_divergence(
            scheme, clean, bytes(tampered)) == "fors (tree 0 revealed secret)"

        fors_bytes = params.n + params.k * (1 + params.log_t) * params.n
        tampered = bytearray(clean)
        tampered[fors_bytes] ^= 1  # first WOTS chain value, layer 0
        assert localize_divergence(scheme, clean,
                                   bytes(tampered)) == "wots (layer 0)"

        assert localize_divergence(scheme, clean, clean[:-1]).startswith(
            "length")
