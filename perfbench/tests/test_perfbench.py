"""The benchmark's own alarms.

A benchmark that cannot fail proves nothing, so these tests corrupt one
byte of what the server returned and require the run to report it, and
require a minimum-size run of every workload to emit exactly the metrics
``BENCHMARK.json`` names.  They start real servers; run them from the
repository root with ``python3 -m pytest perfbench/tests -q`` (a few
minutes on two cores).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
from repro.api import AsyncClient  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

#: The recorded command's arguments after ``python3 perfbench/run.py``.
ARGS = BENCHMARK["command"][2:]


def invoke(capsys, workload: str, trace: int = 0) -> tuple[int, dict, str]:
    code = run.main(ARGS + ["--workload", workload, "--seed", "7",
                            "--seconds", "1", "--trace", str(trace)])
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in BENCHMARK["workloads"]])
def test_minimum_run_emits_every_listed_metric(capsys, workload, trace):
    code, result, _ = invoke(capsys, workload, trace)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in listed}
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_flipped_signature_byte_fails_the_run(capsys, monkeypatch):
    original = AsyncClient._sign_many
    flipped = []

    async def tampered(self, requests):
        results = await original(self, requests)
        if not flipped:
            signature = bytearray(results[0].signature)
            signature[len(signature) // 2] ^= 0x01
            results[0] = dataclasses.replace(results[0],
                                             signature=bytes(signature))
            flipped.append(True)
        return results

    monkeypatch.setattr(AsyncClient, "_sign_many", tampered)
    code, result, out = invoke(capsys, "sign-distinct")
    assert flipped
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "do not verify" in out


def test_flipped_proof_path_byte_fails_the_run(capsys, monkeypatch):
    original = ServiceClient.request
    flipped = []

    async def tampered(self, payload):
        response = await original(self, payload)
        if payload.get("op") == "log-proof" and not flipped \
                and response["proof"]["path"]:
            path = response["proof"]["path"]
            node = bytearray.fromhex(path[0])
            node[0] ^= 0x01
            path[0] = node.hex()
            flipped.append(True)
        return response

    monkeypatch.setattr(ServiceClient, "request", tampered)
    code, result, out = invoke(capsys, "ledger-read-heavy")
    assert flipped
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "INCORRECT" in out


@pytest.mark.parametrize("change", [("backend=vectorized", "backend=scalar"),
                                    ("workers=1", "workers=0"),
                                    ("deterministic=true",
                                     "deterministic=false")])
def test_refuses_a_deployment_the_probes_do_not_model(capsys, change):
    args = list(ARGS)
    args[1] = args[1].replace(*change)
    assert args[1] != ARGS[1]
    code = run.main(args + ["--workload", "sign-repeat", "--seed", "1",
                            "--seconds", "1", "--trace", "1"])
    assert code == 2
    assert '"correct"' not in capsys.readouterr().out


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        BENCHMARK["command"] + ["--workload", "sign-distinct", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
