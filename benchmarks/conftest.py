"""Benchmark-harness fixtures.

Every bench renders its paper-vs-measured table through :func:`emit`, which
prints it (visible with ``pytest -s`` and in the benchmark log) and writes
it under ``benchmarks/results/latest/`` so the full set of reproduced
tables can be inspected after a run.

Measured output never lands on the pinned files: ``benchmarks/results/``
(and ``results/smoke/``) hold the committed baselines, and only
``python benchmarks/compare_baselines.py --regen-baselines`` rewrites
them.  ``results/latest/`` is gitignored.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.gpusim.device import get_device
from repro.gpusim.engine import TimingEngine

#: Where a run writes what it measured (gitignored).
LATEST_DIR = pathlib.Path(__file__).parent / "results" / "latest"

#: Smoke mode (``REPRO_SMOKE=1``): tiny configurations for CI.  Output is
#: mode-specific — smoke runs write under ``latest/smoke/`` so the two
#: modes never mix; ``compare_baselines.py`` diffs each mode's fresh
#: numbers against the matching pinned file.
SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")


def json_baseline_dir() -> pathlib.Path:
    """Where this run's tables and JSON perf numbers go (mode-specific)."""
    directory = LATEST_DIR / "smoke" if SMOKE else LATEST_DIR
    directory.mkdir(parents=True, exist_ok=True)
    return directory


@pytest.fixture(scope="session")
def rtx4090():
    return get_device("RTX 4090")


@pytest.fixture(scope="session")
def engine():
    return TimingEngine()


@pytest.fixture(scope="session")
def emit():
    directory = json_baseline_dir()

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (directory / f"{name}.txt").write_text(text + "\n")

    return _emit
