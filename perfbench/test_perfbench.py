"""The benchmark's own tests: smoke runs emit every metric and pass every check."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from tracing import layer_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric_and_passes_its_checks(trace, kind):
    out = bench("--workload", "all", "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 3 * len(WORKLOADS)
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for key, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), key


def test_every_gated_workload_exists():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_single_workload_prints_unprefixed_metric_names():
    out = bench("--workload", "cw2-poset-lib", "--seed", "2", "--seconds", "0", "--trace", "0", "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(result["metrics"][name]["value"] > 0 for name in result["metrics"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.fit", 0.0, 10.0, -1],
        ["fitting.fit_idr", 1.0, 7.0, 0],
        ["solvers.pav", 2.0, 5.0, 1],
        ["serialize.save_model", 8.0, 9.5, 0],
    ]
    got = layer_times(spans)
    assert got["cli.self_s"] == pytest.approx(2.5)
    assert got["fitting.self_s"] == pytest.approx(3.0)
    assert got["solvers.self_s"] == pytest.approx(3.0)
    assert got["serialize.dump_s"] == pytest.approx(1.5)
    assert got["cli.calls"] == 1 and got["solvers.calls"] == 1


def test_repeat_runs_the_minimum_then_stops_within_the_seconds():
    import time

    from workloads import repeat

    def nap(index):
        time.sleep(0.01)
        return index

    assert repeat(nap, 0.0, 3, time.monotonic() + 60) == [0, 1, 2]
    start = time.perf_counter()
    done = repeat(nap, 0.2, 1, time.monotonic() + 60)
    assert time.perf_counter() - start <= 0.2 + 0.005 + 0.05
    assert done == list(range(len(done))) and len(done) >= 5
