"""Tests of the benchmark itself, on tiny versions of its workloads.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workload  # noqa: E402

from repro.service import VolumePool  # noqa: E402

TINY = {
    "bulk-write": dict(element_size=1024, num_stripes=8, max_op_bytes=20 * 1024, ops_per_second=300),
    "degraded-rebuild": dict(element_size=512, num_stripes=8, max_op_bytes=2048, ops_per_second=800),
}


def tiny(name: str) -> workload.Workload:
    return dataclasses.replace(workload.WORKLOADS[name], rebuild_cycles_per_second=1, **TINY[name])


def run_tiny(name: str, seed: int = 1, traced: bool = False) -> dict:
    return workload.run(tiny(name), seed, 1.0, traced)


def declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_workload_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = {w["name"] for w in json.load(fh)["workloads"]}
    assert names == set(workload.WORKLOADS) == set(TINY)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_metric_names_and_units(name, traced):
    out = run_tiny(name, traced=traced)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    assert reported == declared("per_layer" if traced else "end_to_end")
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if traced:
        # Layer self times plus the generator's own time cover the
        # window to within about 10 % (above 1 by the generator's
        # overlap with the worker's spans).
        assert 0.9 <= result["metrics"]["trace.coverage"]["value"] <= 1.15


def _counts(name: str, seed: int) -> dict:
    end_to_end = run_tiny(name, seed)["result"]["metrics"]
    per_layer = run_tiny(name, seed, traced=True)["result"]["metrics"]
    counts = {"write_amp": end_to_end["write_amp"]["value"]}
    prefixes = ("io.", "journal.", "stripe_cache.", "compile.plan_cache_")
    for key, metric in per_layer.items():
        if key.startswith(prefixes) and metric["unit"] != "s":
            counts[key] = metric["value"]
    return counts


@pytest.mark.parametrize("name", sorted(TINY))
def test_count_metrics_repeat_for_the_same_seed(name):
    first = _counts(name, 7)
    assert first == _counts(name, 7)
    assert {"write_amp", "io.device_writes", "journal.calls", "stripe_cache.evictions"} <= set(first)


def test_a_new_seed_changes_the_trace_hash():
    spec = tiny("degraded-rebuild")
    same = workload.make_inputs(spec, 1, 0.5).trace.trace_hash
    assert same == workload.make_inputs(spec, 1, 0.5).trace.trace_hash
    assert same != workload.make_inputs(spec, 2, 0.5).trace.trace_hash


def test_a_planted_wrong_read_is_counted_as_a_failure(monkeypatch):
    real_read = VolumePool.read
    planted = []

    def wrong_once(self, shard, local_offset, size):
        data = real_read(self, shard, local_offset, size)
        if not planted:
            planted.append(True)
            return bytes([data[0] ^ 0xFF]) + data[1:]
        return data

    monkeypatch.setattr(VolumePool, "read", wrong_once)
    out = run_tiny("degraded-rebuild")
    assert planted
    assert out["detail"]["failures"] == {"read_mismatches": 1}
    assert out["result"]["failed"] == 1
    assert out["result"]["correct"] is False


def test_command_line_prints_the_result_last(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code = workload.main(["--workload", "degraded-rebuild", "--seed", "3", "--seconds", "0.05"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert "fingerprint" in json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == set(declared("end_to_end"))


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "degraded-rebuild", "--seed", "1"]
    done = subprocess.run(
        cmd + ["--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, timeout=60
    )
    assert done.returncode != 0
    assert done.stdout == b""
