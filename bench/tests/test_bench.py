"""Tests of the benchmark runner.

Run from the repository root with `python3 -m pytest bench/tests`.  The
traced runs make one untraced and one traced pass of every workload,
twice; on 2 cores the tests take about three minutes.
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from hostprobe import HostProbe  # noqa: E402
from layers import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return res


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        list(run.PER_LAYER)


def test_untraced_run_reports_end_to_end_metrics():
    res = result(bench("m11-exact", 3, 0))
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_layer_counts_repeat_across_runs_and_seeds(workload):
    first, second = (result(bench(workload, seed, 1)) for seed in (1, 2))
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(first["metrics"]) == names
    counted = [n for n, unit in run.PER_LAYER if unit in ("count", "bytes")]
    assert ({n: first["metrics"][n]["value"] for n in counted}
            == {n: second["metrics"][n]["value"] for n in counted})


def test_checkout_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("m11-exact", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    pct, value = run.tail([float(i) for i in range(20)])
    assert value == 9.0 and pct == 50.0


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1], ["inner", 2.0, 5.0, 0],
                    ["inner", 6.0, 7.0, 0]]
    summary = tracer.summary()
    assert summary["self_s"] == {"outer": 6.0, "inner": 4.0}
    assert summary["calls"] == {"outer": 1, "inner": 2}


def test_host_probe_samples_during_the_block_only():
    before = signal.getsignal(signal.SIGALRM)
    probe = HostProbe()
    with probe:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.2:
            pass
    assert len(probe.times) >= 5
    assert probe.spent == sum(probe.times) and probe.chunk_s() > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
