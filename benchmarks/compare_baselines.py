#!/usr/bin/env python
"""CI perf-regression gate: diff measured baselines against pinned ones.

The JSON perf baselines (``backend_throughput.json``,
``service_latency.json``, ``pool_scaling.json``,
``obs_overhead.json``, ``wire_efficiency.json``,
``cluster_scaling.json``, ``ledger_throughput.json``) are pinned under
``benchmarks/results/`` (full mode) and ``benchmarks/results/smoke/``
(``REPRO_SMOKE=1`` mode) and committed to the repository.  Running the
benchmarks writes fresh numbers to the gitignored
``benchmarks/results/latest/`` (``latest/smoke/`` in smoke mode) and
never touches the pinned files; this script then compares every watched
metric in the fresh files against the pinned copies and exits non-zero
naming each metric that regressed beyond the tolerance.

Modes are compared like-for-like — a smoke measurement is only ever
diffed against the pinned smoke baseline — so the CI gate can run the
cheap smoke configuration on every push without comparing apples to the
full-mode numbers.

Usage::

    REPRO_SMOKE=1 python -m pytest benchmarks/test_backend_throughput.py \
        benchmarks/test_service_latency.py benchmarks/test_pool_scaling.py \
        benchmarks/test_obs_overhead.py benchmarks/test_wire_efficiency.py \
        benchmarks/test_cluster_scaling.py -q
    REPRO_SMOKE=1 python benchmarks/compare_baselines.py [--tolerance 0.25]

    python benchmarks/compare_baselines.py --self-check
        # injects a fake regression into the measured numbers and exits 0
        # only if the gate catches it (the fault-injection pattern: prove
        # the alarm rings before trusting its silence)

    python benchmarks/compare_baselines.py --regen-baselines
        # re-runs the watched benchmarks and copies their fresh output
        # onto this mode's pinned files (commit the result), mirroring
        # --regen-kats; the only writer of the tracked results

By default the pinned copy is the tracked file in the working tree;
pass ``--baseline-dir`` to diff against a directory instead.

Exit codes: 0 clean, 1 regression (or self-check alarm failure),
2 misconfiguration (missing files).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
#: Where benchmark runs write fresh numbers (see ``conftest.py``).
LATEST_DIR = RESULTS_DIR / "latest"

#: The benchmark files that (re)generate each baseline.
BASELINE_SOURCES = {
    "backend_throughput.json": "test_backend_throughput.py",
    "service_latency.json": "test_service_latency.py",
    "pool_scaling.json": "test_pool_scaling.py",
    "obs_overhead.json": "test_obs_overhead.py",
    "wire_efficiency.json": "test_wire_efficiency.py",
    "cluster_scaling.json": "test_cluster_scaling.py",
    "ledger_throughput.json": "test_ledger_throughput.py",
}


def verify_command(filename: str) -> str:
    """The exact invocation that (re)generates *filename*'s baseline.

    ``pyproject.toml`` configures ``pythonpath = ["src"]`` for pytest,
    so the command needs no ``PYTHONPATH`` prefix — only the smoke flag
    when this gate is running in smoke mode.  Printed verbatim in the
    "run its benchmark first" misconfiguration path so a dev outside CI
    can copy-paste it.
    """
    env = "REPRO_SMOKE=1 " if smoke_mode() else ""
    return f"{env}python -m pytest benchmarks/{BASELINE_SOURCES[filename]} -q"


@dataclass(frozen=True)
class Metric:
    """One watched number inside a baseline file."""

    path: tuple[str, ...]   # key path into the JSON record
    higher_is_better: bool
    optional: bool = False  # absent in some configurations (no 4w config)

    @property
    def name(self) -> str:
        return ".".join(self.path)


WATCHED: dict[str, list[Metric]] = {
    "backend_throughput.json": [
        Metric(("speedup",), higher_is_better=True),
        Metric(("scalar", "sigs_per_s"), higher_is_better=True),
        Metric(("vectorized", "sigs_per_s"), higher_is_better=True),
        Metric(("warm", "sigs_per_s"), higher_is_better=True,
               optional=True),
        Metric(("warm", "speedup_vs_cold"), higher_is_better=True,
               optional=True),
    ],
    "service_latency.json": [
        Metric(("achieved_sigs_per_s",), higher_is_better=True),
        Metric(("latency_ms", "p95"), higher_is_better=False),
        Metric(("steady_state", "achieved_sigs_per_s"),
               higher_is_better=True, optional=True),
        Metric(("steady_state", "latency_ms", "p50"),
               higher_is_better=False, optional=True),
    ],
    "pool_scaling.json": [
        Metric(("configs", "1", "sigs_per_s"), higher_is_better=True),
        Metric(("configs", "2", "sigs_per_s"), higher_is_better=True),
        Metric(("configs", "4", "sigs_per_s"), higher_is_better=True,
               optional=True),
        Metric(("scaling", "2w_vs_1w"), higher_is_better=True),
        Metric(("scaling", "4w_vs_1w"), higher_is_better=True,
               optional=True),
    ],
    "obs_overhead.json": [
        Metric(("sigs_per_s", "tracing_off"), higher_is_better=True),
        Metric(("sigs_per_s", "tracing_on"), higher_is_better=True),
        # A clean run pins ~0.0, which the `base <= 0` rule skips; the
        # gate only engages once a real overhead has been pinned.
        Metric(("overhead_fraction",), higher_is_better=False,
               optional=True),
    ],
    "wire_efficiency.json": [
        # Bytes moved per signature are deterministic for a fixed
        # message shape; the v3 framing PR's >=25% reduction must hold.
        Metric(("live", "bytes_reduction"), higher_is_better=True),
        Metric(("live", "v3_bytes_per_sig"), higher_is_better=False),
        Metric(("codec", "cpu_speedup"), higher_is_better=True),
        # Median of drift-cancelling paired rounds — the stable form
        # of "v3 spends less CPU per signature than v2".
        Metric(("live", "cpu_saved_s_per_sig"), higher_is_better=True),
    ],
    "cluster_scaling.json": [
        Metric(("configs", "1", "sigs_per_s"), higher_is_better=True),
        Metric(("configs", "2", "sigs_per_s"), higher_is_better=True),
        # 2-node vs single-node throughput at the same latency deadline;
        # skipped (like the pool gate) when the host lacks the cores.
        Metric(("scaling", "2n_vs_1n"), higher_is_better=True),
        # Chaos invariants: the benchmark asserts unresolved == 0, and
        # the gate additionally watches that the kill keeps resolving
        # requests (the `base <= 0` rule skips degenerate pins).
        Metric(("node_kill", "signed"), higher_is_better=True,
               optional=True),
    ],
    "ledger_throughput.json": [
        # The write path: batched seals + checkpoint signing + fsync.
        Metric(("append", "appends_per_s"), higher_is_better=True),
        # The monitor's read path: generate + verify inclusion proofs.
        Metric(("proofs", "proofs_per_s"), higher_is_better=True),
        # The differential audit replay over the on-disk bytes.
        Metric(("audit", "entries_per_s"), higher_is_better=True),
    ],
}


def smoke_mode() -> bool:
    return os.environ.get("REPRO_SMOKE", "") not in ("", "0")


def mode_dir() -> pathlib.Path:
    """This mode's pinned (tracked) baselines."""
    return RESULTS_DIR / "smoke" if smoke_mode() else RESULTS_DIR


def measured_dir() -> pathlib.Path:
    """This mode's freshly measured (gitignored) numbers."""
    return LATEST_DIR / "smoke" if smoke_mode() else LATEST_DIR


def lookup(record: dict, path: tuple[str, ...]):
    node = record
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, (int, float)) else None


def _load(path: pathlib.Path) -> dict | None:
    return json.loads(path.read_text()) if path.exists() else None


def load_measured(filename: str) -> dict | None:
    return _load(measured_dir() / filename)


def load_pinned(filename: str,
                baseline_dir: pathlib.Path | None) -> dict | None:
    return _load((baseline_dir or mode_dir()) / filename)


@dataclass(frozen=True)
class Verdict:
    file: str
    metric: str
    pinned: float
    measured: float
    regressed: bool
    detail: str


def _scaling_lanes(metric: Metric) -> int | None:
    """For a ``scaling.<N>w_vs_1w`` / ``scaling.<N>n_vs_1n`` metric, the
    concurrency N (workers or nodes) the ratio claims to scale across."""
    if metric.path[0] != "scaling":
        return None
    head = ""
    for char in metric.path[1]:
        if not char.isdigit():
            break
        head += char
    return int(head) if head else None


def compare_record(filename: str, pinned: dict, measured: dict,
                   tolerance: float) -> list[Verdict]:
    verdicts = []
    for metric in WATCHED[filename]:
        if filename in ("pool_scaling.json", "cluster_scaling.json"):
            # A `<N>w vs 1w` / `<N>n vs 1n` speedup gate is only
            # meaningful when the host can actually run N workers or
            # nodes concurrently; on a single-core CI runner the ratio
            # is ~1.0 by physics, not regression.  The benchmarks
            # record the core count for exactly this decision.
            lanes = _scaling_lanes(metric)
            cores = measured.get("cpu_count")
            if (lanes is not None and isinstance(cores, int)
                    and cores < lanes):
                print(f"  [skipped  ] {filename}: {metric.name} — host "
                      f"has {cores} core(s) < {lanes} lanes; "
                      "scaling gate not meaningful here")
                continue
        base = lookup(pinned, metric.path)
        fresh = lookup(measured, metric.path)
        if base is None or fresh is None:
            if not metric.optional and (base is None) != (fresh is None):
                verdicts.append(Verdict(
                    filename, metric.name, base or 0.0, fresh or 0.0,
                    regressed=True,
                    detail="metric present on only one side"))
            continue
        if base <= 0:
            continue  # a degenerate pin can only be fixed by --regen
        ratio = fresh / base
        if metric.higher_is_better:
            regressed = ratio < 1.0 - tolerance
            direction = "dropped" if regressed else "ok"
        else:
            regressed = ratio > 1.0 + tolerance
            direction = "grew" if regressed else "ok"
        verdicts.append(Verdict(
            filename, metric.name, base, fresh, regressed,
            detail=f"{direction}: pinned {base:g} -> measured {fresh:g} "
                   f"({ratio:.2f}x, tolerance ±{tolerance:.0%})"))
    return verdicts


def run_gate(tolerance: float,
             baseline_dir: pathlib.Path | None) -> tuple[int, list[Verdict]]:
    verdicts: list[Verdict] = []
    compared_any = False
    for filename in WATCHED:
        measured = load_measured(filename)
        if measured is None:
            # Outside CI, print the copy-pasteable invocation.  This is
            # derived from BASELINE_SOURCES and the pyproject pytest
            # config (pythonpath = ["src"]), so it never drifts into a
            # stale `PYTHONPATH=...` hint again.
            print(f"{filename}: no fresh measurement in {measured_dir()} — "
                  f"run its benchmark first:\n"
                  f"    {verify_command(filename)}", file=sys.stderr)
            return 2, verdicts
        pinned = load_pinned(filename, baseline_dir)
        if pinned is None:
            print(f"{filename}: no pinned baseline (first run?) — skipped")
            continue
        if bool(pinned.get("smoke")) != bool(measured.get("smoke")):
            print(f"{filename}: pinned/measured smoke modes differ — "
                  "skipped (regen the pinned baseline for this mode)")
            continue
        if pinned.get("snapshot_schema") != measured.get("snapshot_schema"):
            # Shape drift, not perf drift: the service snapshot the
            # benchmark read changed versions, so the recorded sections
            # may not mean the same thing.  Surface it loudly and skip
            # rather than comparing apples to renamed apples.
            print(f"{filename}: snapshot_schema drifted "
                  f"(pinned {pinned.get('snapshot_schema')} -> measured "
                  f"{measured.get('snapshot_schema')}) — skipped; regen "
                  "the pinned baseline after reviewing the shape change")
            continue
        compared_any = True
        verdicts.extend(compare_record(filename, pinned, measured,
                                       tolerance))
    regressions = [v for v in verdicts if v.regressed]
    for verdict in verdicts:
        marker = "REGRESSED" if verdict.regressed else "ok"
        print(f"  [{marker:9s}] {verdict.file}: {verdict.metric} — "
              f"{verdict.detail}")
    if regressions:
        names = ", ".join(f"{v.file}:{v.metric}" for v in regressions)
        print(f"perf gate: FAILED — regressed beyond tolerance: {names}",
              file=sys.stderr)
        return 1, verdicts
    if not compared_any:
        print("perf gate: nothing compared (no pinned baselines) — "
              "treating as misconfiguration", file=sys.stderr)
        return 2, verdicts
    print("perf gate: ok — every watched metric within tolerance")
    return 0, verdicts


def run_self_check(tolerance: float,
                   baseline_dir: pathlib.Path | None) -> int:
    """Prove the gate fires: perturb each file's first comparable metric
    past tolerance in the regressing direction and require a failure."""
    missed = []
    proved = 0
    for filename, metrics in WATCHED.items():
        measured = load_measured(filename)
        pinned = load_pinned(filename, baseline_dir)
        if measured is None or pinned is None:
            print(f"self-check: {filename} unavailable — skipped")
            continue
        if bool(pinned.get("smoke")) != bool(measured.get("smoke")):
            print(f"self-check: {filename} mode mismatch — skipped")
            continue
        target = next((m for m in metrics
                       if lookup(pinned, m.path) not in (None, 0)
                       and lookup(measured, m.path) is not None), None)
        if target is None:
            print(f"self-check: {filename} has no comparable metric — "
                  "skipped")
            continue
        doctored = json.loads(json.dumps(measured))
        node = doctored
        for key in target.path[:-1]:
            node = node[key]
        factor = ((1.0 - 2.0 * tolerance) if target.higher_is_better
                  else (1.0 + 2.0 * tolerance))
        node[target.path[-1]] = lookup(measured, target.path) * max(
            factor, 0.01)
        verdicts = compare_record(filename, pinned, doctored, tolerance)
        if any(v.regressed and v.metric == target.name for v in verdicts):
            proved += 1
            print(f"self-check: {filename}:{target.name} — injected "
                  "regression caught")
        else:
            missed.append(f"{filename}:{target.name}")
    if missed:
        print(f"self-check: FAILED — gate did not fire for: "
              f"{', '.join(missed)}", file=sys.stderr)
        return 1
    if proved == 0:
        # Skipping everything must not read as a passing alarm test.
        print("self-check: nothing injected (no comparable baselines) — "
              "treating as misconfiguration", file=sys.stderr)
        return 2
    print("self-check: ok — the gate fires on injected regressions")
    return 0


def regen_baselines() -> int:
    """Re-run the watched benchmarks, then copy the files that run wrote
    (JSON baselines and their tables) onto this mode's pinned files."""
    files = [str(BENCH_DIR / source)
             for source in BASELINE_SOURCES.values()]
    started = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", *files],
        cwd=REPO_ROOT)
    if proc.returncode != 0:
        print("regen: benchmark run failed; baselines not refreshed",
              file=sys.stderr)
        return 2
    fresh = [path for path in sorted(measured_dir().glob("*"))
             if path.is_file() and path.stat().st_mtime >= started]
    for path in fresh:
        shutil.copyfile(path, mode_dir() / path.name)
    print(f"regen: refreshed {', '.join(path.name for path in fresh)} "
          f"under {mode_dir()} — review `git diff benchmarks/results` "
          "and commit to pin")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="diff measured perf baselines against the pinned ones")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional regression per metric "
                             "(default 0.25 = ±25%%)")
    parser.add_argument("--baseline-dir", default=None,
                        help="diff against this directory instead of the "
                             "committed files at git HEAD")
    parser.add_argument("--self-check", action="store_true",
                        help="inject a fake regression and require the "
                             "gate to catch it")
    parser.add_argument("--regen-baselines", action="store_true",
                        help="re-run the watched benchmarks to refresh "
                             "this mode's pinned files")
    args = parser.parse_args(argv)
    if not 0 < args.tolerance < 1:
        print(f"--tolerance must be in (0, 1), got {args.tolerance}",
              file=sys.stderr)
        return 2
    baseline_dir = (pathlib.Path(args.baseline_dir)
                    if args.baseline_dir else None)
    if args.regen_baselines:
        return regen_baselines()
    if args.self_check:
        return run_self_check(args.tolerance, baseline_dir)
    code, _ = run_gate(args.tolerance, baseline_dir)
    return code


if __name__ == "__main__":
    sys.exit(main())
