"""The repository benchmark: one command, three workloads, two modes.

Run from the repository root::

    python3 perfbench/run.py --deployment backend=vectorized,workers=1,... \\
        --workload sign-distinct --seed 1 --seconds 15 --trace 0

``BENCHMARK.json`` holds the full command with the deployment settings.
``--trace 0`` measures the end-to-end metrics: it starts a fresh server
several times (set-up time is their median), then drives the workload
for ``--seconds`` against the last one.  ``--trace 1`` is the traced
run: one server, the same window with ``stats`` snapshots around it,
then per-layer probes in this process.  Both modes check the outputs
afterwards, print a report with units and sample counts, and end with
one JSON line; the exit code is 1 when any check failed and 2 when the
tree holds no ``src/repro`` to measure or the deployment is not one the
probes model.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import math
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Server starts per untraced run; ``setup_s`` is their median.
SETUPS = 7
#: Signed to prove the server serves; set-up time ends at its answer.
SETUP_PROBE = b"perfbench set-up probe"
#: Messages per run whose hashes the traced run counts on the reference.
COUNT_SAMPLE = 2


def tail_percentile(samples: list[float], wanted: float = 99.0,
                    beyond: int = 10) -> tuple[float, float]:
    """``(p, value)``: the nearest-rank percentile closest to *wanted*
    that still has *beyond* samples above it (never below the median)."""
    ordered = sorted(samples)
    if not ordered:
        return wanted, 0.0
    p = max(50.0, min(wanted, 100.0 * (len(ordered) - beyond)
                      / len(ordered)))
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return p, ordered[rank - 1]


def _median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def _mean(samples) -> float:
    return statistics.fmean(samples) if samples else 0.0


def throughput(window) -> float:
    """Operations per second: the median over a closed loop's rounds
    (robust to a burst of host noise inside the window), or completions
    over the window for the open loop."""
    rates = window.samples["rate_per_s"]
    return _median(rates) if rates else window.ops / window.elapsed_s


async def measure(args: argparse.Namespace, settings: dict,
                  scratch: Path) -> dict:
    """Set up, run the window, stop, check; returns the raw record."""
    from repro.api import AsyncClient

    import layers
    from server import (PARAMS, TENANT, ServerProcess, build_keystore, pin,
                        split_cores)
    from workloads import WORKLOADS, Window

    workload = WORKLOADS[args.workload](args.seed)
    keys = build_keystore().resolve(TENANT)[0]
    front, worker = split_cores(settings["workers"])

    def floor_on_worker_core() -> float:
        pin(worker)
        try:
            return layers.floor_us(keys, PARAMS)
        finally:
            pin(front | worker)

    floor_start = floor_on_worker_core()
    setups = []
    starts = 1 if args.trace else SETUPS
    for attempt in range(starts):
        ledger_root = scratch / f"log{attempt}" if workload.ledger else None
        server = ServerProcess(args.deployment, ROOT, ledger_root)
        try:
            client = await AsyncClient.connect(port=server.port)
            await client.sign(TENANT, SETUP_PROBE)
        except BaseException:
            server.stop()
            raise
        setups.append(time.perf_counter() - server.started)
        if attempt < starts - 1:
            await client.close()
            server.stop()
    # The load generator shares the server loop's core, never the
    # worker's.  Pinned only now: the servers started above inherit this
    # process's mask and must see every core.
    pin(front)
    window = Window()
    try:
        await workload.open(client, server.port)
        await workload.prepare()
        if args.trace:
            started = time.perf_counter()
            window.stats_before = await workload.stats()
            window.stats_s = time.perf_counter() - started
        await workload.run(window, args.seconds)
        if args.trace:
            started = time.perf_counter()
            window.stats_after = await workload.stats()
            window.stats_s += time.perf_counter() - started
        peak_rss_mb = server.peak_rss_mb()
        processes = len(server.pids())
    finally:
        await workload.close()
        server.stop()
    pin(front | worker)
    failures, verify_ms, problems = workload.check(window, ledger_root)
    floor_end = floor_on_worker_core()
    return {
        "workload": workload, "keys": keys, "window": window,
        "setups": setups, "peak_rss_mb": peak_rss_mb,
        "processes": processes, "failures": failures,
        "verify_ms": verify_ms, "problems": problems,
        "ledger_root": ledger_root, "floor_start": floor_start,
        "floor_end": floor_end,
    }


def end_to_end(record: dict) -> tuple[dict, list[str]]:
    """The untraced metrics, plus report lines naming each with its
    unit and sample count (under each workload's own metric names)."""
    workload, window = record["workload"], record["window"]
    samples = window.samples
    latency = samples["latency_ms"]
    metrics = {
        "setup_s": (_median(record["setups"]), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        "throughput_per_s": (throughput(window), "1/s"),
        "latency_p50_ms": (_median(latency), "ms"),
    }
    attempted = window.attempted
    failed = window.failed + record["failures"]
    lines = [
        f"  setup_s           {metrics['setup_s'][0]:10.4f} s    "
        f"(median of n={len(record['setups'])} server starts)",
        f"  peak_rss_mb       {record['peak_rss_mb']:10.2f} MB   "
        f"(VmHWM summed over n={record['processes']} processes)",
        f"  error_rate        {failed / max(attempted, 1):10.4f}      "
        f"({failed} of n={attempted} {workload.op}s failed, shed or "
        "incorrect)",
    ]
    rate = metrics["throughput_per_s"][0]
    if workload.name == "sign-distinct":
        lines += [
            f"  sign_per_s        {rate:10.3f} 1/s  "
            f"(median over n={len(latency)} batches; {window.ops} "
            f"signatures in {window.elapsed_s:.2f} s) = throughput_per_s",
            f"  latency_p50_ms    {_median(latency):10.2f} ms   "
            f"(sign-many round trip of 8, n={len(latency)} batches)",
        ]
    elif workload.name == "sign-repeat":
        p, tail = tail_percentile(latency)
        slo = samples["slo_met"]
        lines += [
            f"  latency_p50_ms    {_median(latency):10.2f} ms   "
            f"(from due time, n={len(latency)} requests)",
            f"  latency_p99_ms    {tail:10.2f} ms   (reported at "
            f"p{p:.2f}, the highest with >=10 of n={len(latency)} "
            "samples beyond it)",
            f"  slo_met_fraction  {_mean(slo):10.4f}      "
            f"(answered within 100 ms of due, n={len(slo)} offered)",
            f"  throughput_per_s  {rate:10.3f} 1/s  "
            f"(n={window.ops} requests, offered at 30/s)",
        ]
    else:
        lines += [
            f"  proof_per_s       {rate:10.3f} 1/s  "
            f"(median over n={len(latency)} rounds; {window.ops} verified "
            f"proofs in {window.elapsed_s:.2f} s) = throughput_per_s",
            f"  append_p50_ms     {_median(latency):10.2f} ms   "
            f"(log-append round trip, n={len(latency)} appends) "
            "= latency_p50_ms",
        ]
    return metrics, lines


def _cache_delta(window, field: str) -> int:
    def value(stats: dict) -> int:
        return stats.get("cache", {}).get("scopes", {}).get(
            "workers", {}).get(field, 0)

    return value(window.stats_after) - value(window.stats_before)


def _pool_busy_s(stats: dict) -> float:
    return sum(worker.get("busy_s", 0.0) for worker
               in stats.get("pool", {}).get("per_worker", {}).values())


def _tenant_delta(window, field: str) -> int:
    def total(stats: dict) -> int:
        return sum(counters.get(field, 0)
                   for counters in stats.get("tenants", {}).values())

    return total(window.stats_after) - total(window.stats_before)


def attribution(workload, window, m: dict) -> dict:
    """Where one operation's mean end-to-end time goes, layer by layer.

    The parts come from the per-layer metrics in *m* and the window's own
    samples; ``unattributed`` is what none of them accounts for.
    """
    samples = window.samples
    parts = dict.fromkeys(("loadgen", "queue", "fastops", "pool", "wire",
                           "append", "prove", "verify", "verify_service"),
                          0.0)
    verify_ms = m["sphincs.verify_ms"][0]
    if workload.ledger:
        ops = max(window.ops, 1)
        fetched = len(window.proofs)
        prove = m["ledger.prove_ms"][0]
        op_ms = window.elapsed_s * 1000.0 / ops
        parts["append"] = sum(samples["latency_ms"]) / ops
        parts["prove"] = prove * fetched / ops
        parts["wire"] = (_mean(samples["proof_rtt_ms"]) - prove) * fetched / ops
        parts["verify"] = window.verifies / ops * verify_ms
        parts["verify_service"] = (window.verifies / ops
                                   * (_mean(samples["verify_rtt_ms"])
                                      - verify_ms))
    else:
        op_ms = _mean(samples["latency_ms"])
        parts["loadgen"] = _mean(samples["late_ms"])
        parts["queue"] = _mean(samples["wait_ms"])
        parts["fastops"] = (_mean(samples["batch_size"])
                            * (m["runtime.fors_ms_per_sig"][0]
                               + m["runtime.hypertree_ms_per_sig"][0]))
        parts["pool"] = m["pool.overhead_ms_per_batch"][0]
        parts["wire"] = _mean(samples["wire_ms"])
    parts["unattributed"] = op_ms - sum(parts.values())
    shares = {f"attribution.{part}_share":
              (value / op_ms if op_ms else 0.0, "fraction")
              for part, value in parts.items()}
    return {"attribution.op_ms": (op_ms, "ms"),
            "attribution.unattributed_ms": (parts["unattributed"], "ms"),
            **shares}


def per_layer(record: dict, args: argparse.Namespace, scratch: Path,
              settings: dict) -> tuple[dict, list[str]]:
    """The traced run's per-layer metrics, each raw and (for times) in
    units of the host's hash floor, plus the attribution of one
    operation's end-to-end time to the layers."""
    import random

    import layers
    from repro.service import protocol
    from server import EVENTS_PER_APPEND, PARAMS

    workload, keys = record["workload"], record["keys"]
    traced = record["window"]
    samples = traced.samples
    budget = settings["cache_budget_mb"]
    warm = workload.warm_messages()
    units = workload.sign_units(traced)
    messages = [message for unit in units for message in unit]
    sample = random.Random(f"count/{args.seed}").sample(
        messages, min(COUNT_SAMPLE, len(messages)))
    counts = layers.hashes_per_sig(keys, PARAMS, budget, warm, sample)
    fastops = layers.fastops_ms_per_sig(keys, PARAMS, budget, warm, units)
    pool_overhead = layers.pool_overhead_ms(keys, PARAMS, settings, warm,
                                            units, args.seed)
    encode, decode, sigs = workload.codec(traced)
    encode_us, decode_us = layers.codec_us(encode, decode)
    wire_bytes = sum(len(frame) for frame in encode())
    floor_start, floor_end = record["floor_start"], record["floor_end"]
    floor = (floor_start + floor_end) / 2.0
    verify_ms = _median(record["verify_ms"])

    m: dict[str, tuple[float, str]] = {}
    m["hashes.floor_us"] = (floor, "us")
    m["hashes.floor_drift"] = (floor_end / floor_start - 1.0,
                               "fraction")
    m["sphincs.hashes_per_sig.fors"] = (counts["fors"], "count")
    m["sphincs.hashes_per_sig.hypertree"] = (counts["hypertree"], "count")
    m["sphincs.verify_ms"] = (verify_ms, "ms")
    m["runtime.fors_ms_per_sig"] = (fastops["fors"], "ms")
    m["runtime.hypertree_ms_per_sig"] = (fastops["hypertree"], "ms")
    m["runtime.floor_efficiency"] = (
        (counts["fors"] + counts["hypertree"]) * floor
        / ((fastops["fors"] + fastops["hypertree"]) * 1000.0), "ratio")

    def ratio(hits: str, misses: str) -> float:
        hit, miss = _cache_delta(traced, hits), _cache_delta(traced, misses)
        return hit / (hit + miss) if hit + miss else 0.0

    m["layercache.tree_hit_ratio"] = (ratio("hits", "misses"), "ratio")
    m["layercache.link_hit_ratio"] = (ratio("link_hits", "link_misses"),
                                      "ratio")
    m["layercache.bytes"] = (float(traced.stats_after.get("cache", {}).get(
        "scopes", {}).get("workers", {}).get("bytes", 0)), "bytes")
    m["pool.busy_fraction"] = (
        (_pool_busy_s(traced.stats_after) - _pool_busy_s(traced.stats_before))
        / traced.elapsed_s, "fraction")
    m["pool.overhead_ms_per_batch"] = (pool_overhead, "ms")

    batches = (traced.stats_after["batches"]["dispatched"]
               - traced.stats_before["batches"]["dispatched"])
    signed = _tenant_delta(traced, "signed")
    if workload.ledger:
        latency = traced.stats_after["latency_ms"]
        wait_p50 = latency["wait"]["p50"]
        sign_p50 = latency["total"]["p50"] - wait_p50
    else:
        wait_p50 = _median(samples["wait_ms"])
        sign_p50 = _median(samples["sign_ms"])
    m["service.queue_wait_p50_ms"] = (wait_p50, "ms")
    m["service.sign_ms_p50"] = (sign_p50, "ms")
    m["service.batch_size_mean"] = (signed / batches if batches else 0.0,
                                    "count")
    m["service.verify_rtt_ms"] = (
        _median(samples["verify_rtt_ms"]) - verify_ms
        if workload.ledger else 0.0, "ms")
    m["service.shed"] = (float(_tenant_delta(traced, "shed")), "count")
    m["service.failed"] = (float(_tenant_delta(traced, "failed")), "count")

    prove = verifies_per_proof = append_ms = 0.0
    if workload.ledger:
        ledger_root = record["ledger_root"]
        prove = layers.prove_ms(ledger_root, traced.proofs)
        verifies_per_proof = traced.verifies / len(traced.proofs)
        entries = {proof["index"]: proof["entry"] for proof in traced.proofs}
        append_ms = layers.durable_append_ms(
            scratch / "append-probe",
            [protocol.unpack_bytes(entry, name="entry")
             for entry in list(entries.values())[:EVENTS_PER_APPEND]])
        wire_p50 = _median(samples["proof_rtt_ms"]) - prove
    else:
        wire_p50 = _median(samples["wire_ms"])
    m["protocol.client_wire_ms_p50"] = (wire_p50, "ms")
    m["protocol.encode_us"] = (encode_us / sigs, "us")
    m["protocol.decode_us"] = (decode_us / sigs, "us")
    m["protocol.bytes_per_sig"] = (wire_bytes / sigs, "bytes")
    m["ledger.prove_ms"] = (prove, "ms")
    m["ledger.verifies_per_proof"] = (verifies_per_proof, "count")
    m["ledger.durable_append_ms"] = (append_ms, "ms")
    late = samples["late_ms"]
    m["loadgen.late_p99_ms"] = (tail_percentile(late)[1] if late else 0.0,
                                "ms")
    # The snapshots are all tracing adds inside the run; the counted
    # verifies and every probe run outside the window or in both modes.
    m["trace.overhead_fraction"] = (
        traced.stats_s / (traced.elapsed_s + traced.stats_s), "fraction")

    m.update(attribution(workload, traced, m))

    # Host calibration: every timed metric again, in hash-floor units.
    for name, (value, unit) in list(m.items()):
        if unit in ("ms", "us") and name != "hashes.floor_us":
            micros = value * (1000.0 if unit == "ms" else 1.0)
            m[f"{name}.floors"] = (micros / floor, "floor")

    lines = [f"  {name:40s} {value:14.4f} {unit}"
             for name, (value, unit) in m.items()]
    lines.insert(0, f"  (traced window n={traced.ops} {workload.op}s in "
                    f"{traced.elapsed_s:.2f} s)")
    return m, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload against a fresh server.")
    parser.add_argument("--deployment", required=True,
                        help="SigningService settings, KEY=VALUE,...")
    parser.add_argument("--workload", required=True,
                        choices=("sign-distinct", "sign-repeat",
                                 "ledger-read-heavy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from server import check_modelled, parse_deployment

    try:
        settings = parse_deployment(args.deployment)
        check_modelled(settings)
    except ValueError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench" / f"run-{time.time_ns()}"
    scratch.mkdir(parents=True)
    try:
        record = asyncio.run(measure(args, settings, scratch))
        if args.trace:
            metrics, lines = per_layer(record, args, scratch, settings)
        else:
            metrics, lines = end_to_end(record)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            scratch.parent.rmdir()
    window = record["window"]
    attempted = window.attempted
    failed = window.failed + record["failures"]
    correct = failed == 0
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {'correct' if correct else 'INCORRECT'}")
    print("\n".join(lines))
    for problem in record["problems"]:
        print(f"  check failed: {problem}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
