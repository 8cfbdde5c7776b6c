"""The benchmark's own tests: short runs of the real command.

    python3 -m pytest perfbench/tests -q

Each run starts real server processes, so the suite takes a few
minutes; it is not part of the repository's tier-1 tests.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = "2"


def bench(workload: str, seed: int, *extra: str, trace: int = 0, cwd: str = ROOT,
          seconds: str = SECONDS):
    """Run the benchmark command; returns (exit code, result line or None)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=400,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def record(workload: str, seed: int, trace: int) -> dict:
    """The newest full record the run kept for this workload and seed."""
    paths = glob.glob(os.path.join(
        ROOT, ".perfbench", "results", f"{workload}-seed{seed}-trace{trace}-*.json"))
    with open(max(paths, key=os.path.getmtime)) as handle:
        return json.load(handle)


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


#: layers that do much of their work on a workload (README's layer table)
BUSY = {
    "flood": ["network", "protocol", "server", "subscription_index",
              "impact_index", "beq_tree", "field", "regions"],
    "durable_fleet": ["network", "protocol", "server", "beq_tree", "construct",
                      "sharding", "journal"],
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    code, result = bench(workload, 101)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("end_to_end")
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", ["flood", "durable_fleet"])
def test_traced_run_emits_every_layer_and_reconciles_with_server_cpu(workload):
    code, result = bench(workload, 102, trace=1)
    assert code == 0 and result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("per_layer")
    layers = record(workload, 102, 1)["traced"]["layers"]
    shares = layers["_layer_cpu_s"]
    # every layer the workload leans on has exclusive CPU of its own
    for layer in BUSY[workload]:
        assert shares[layer] > 0.0, layer
    # the network (or worker) remainder is what is left after the wrapped
    # layers and the tracer's hooks: it can never be negative
    assert all(seconds >= 0 for seconds in shares.values())
    assert sum(shares.values()) + layers["trace.hook_cpu_s"] == pytest.approx(
        layers["trace.server_cpu_s"], rel=1e-9)
    # ... and the kernel's count of the same window agrees
    assert 0.95 <= layers["trace.cpu_reconcile_frac"] <= 1.02


def test_a_dropped_notification_is_a_failure():
    code, result = bench("flood", 103, "--fault", "drop-notification")
    assert code == 0
    assert result["failed"] >= 1 and not result["correct"]
    assert record("flood", 103, 0)["untraced"]["failures"]["missing"] >= 1


def test_a_dropped_notification_to_a_walker_is_a_failure():
    # a full-length run: the dropped streamed event has expired long
    # before the final resync, which therefore cannot send it again;
    # only the check by the positions the walkers reported sees it
    code, result = bench("durable_fleet", 103, "--fault", "drop-notification",
                         seconds="20")
    assert code == 0
    assert result["failed"] >= 1 and not result["correct"]
    untraced = record("durable_fleet", 103, 0)["untraced"]
    assert untraced["dropped_by_fault"] is not None
    assert untraced["redelivered_by_final_resync"] == 0
    assert untraced["failures"]["missing"] >= 1


def test_a_server_killed_mid_phase_is_a_failure():
    code, result = bench("commute", 104, "--fault", "kill-server")
    assert code == 0
    assert result["failed"] >= 1 and not result["correct"]


def test_a_checkout_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = bench(WORKLOADS[0], 105, cwd=str(tmp_path))
    assert code != 0 and result is None
