"""The benchmark's own tests: every workload at toy size, both modes.

Run from the repository root (the flags keep bytecode and pytest's
cache out of the tree)::

    PYTHONDONTWRITEBYTECODE=1 python3 -m pytest -q -p no:cacheprovider perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from layers import LayerTracer

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
#: The gated workloads of BENCHMARK.json plus the ungated service-replay.
WORKLOADS = ["capacity-grid", "app-sweeps", "service-drain", "service-replay"]


def bench(workload: str, trace: int, cwd: Path = REPO, seed: int = 0):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = json.loads(next(l for l in lines if l.startswith("report "))[7:])
    return report, json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out[workload, trace] = parse(bench(workload, trace))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(runs, workload, trace):
    report, result = runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["error_rate"] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_within_wall(runs, workload):
    layers = runs[workload, 1][1]["metrics"]
    wall = layers["trace.wall_s"]["value"]
    selfs = [v["value"] for k, v in layers.items() if k.endswith(".self_s")]
    assert all(0.0 <= s <= wall for s in selfs)
    assert layers["unattributed_s"]["value"] >= 0.0
    assert sum(selfs) + layers["unattributed_s"]["value"] == pytest.approx(wall)


def test_layer_expectations(runs):
    cap = runs["capacity-grid", 1][1]["metrics"]
    selfs = {k: v["value"] for k, v in cap.items() if k.endswith(".self_s")}
    assert max(selfs, key=selfs.get) == "workloads.line_pmf.self_s"
    assert runs["app-sweeps", 1][1]["metrics"]["workloads.line_pmf.calls"]["value"] == 0
    drain = runs["service-drain", 1][1]["metrics"]
    replay = runs["service-replay", 1][1]["metrics"]
    assert drain["core.runner.cache_hit_ratio"]["value"] == 0.0
    assert replay["core.runner.cache_hit_ratio"]["value"] == 1.0
    assert replay["engine.accesses"]["value"] == 0


def test_service_latency_reported(runs):
    for workload in ("service-drain", "service-replay"):
        report = runs[workload, 0][0]
        assert report["job_samples"] >= 1
        assert 0 < report["job_ms_p50"] <= report["job_ms_p90"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_steal_subtracted(runs, workload):
    report = runs[workload, 0][0]
    busy = [w - s for w, s in zip(report["round_wall_s"], report["round_stolen_s"])]
    assert all(s >= 0.0 for s in report["round_stolen_s"])
    assert report["wall_s"] == pytest.approx(statistics.median(busy))
    assert 0 < report["wall_s"] <= report["host_wall_s"]


def test_tracer_partitions_nested_spans():
    tracer = LayerTracer()
    leaf = tracer.wrap("b", lambda: sum(range(10_000)))
    outer = tracer.wrap("a", lambda: [leaf() for _ in range(3)])
    with tracer.window() as w:
        outer()
        leaf()
    assert tracer.calls == {"a": 1, "b": 4}
    assert tracer.attributed_s() == pytest.approx(tracer.top_s)
    assert tracer.top_s <= w["wall_s"]
    assert not tracer.faults


def test_tracer_reports_window_closed_inside_span():
    tracer = LayerTracer()
    window = tracer.window()
    window.__enter__()
    tracer.wrap("a", lambda: window.__exit__(None, None, None))()
    assert tracer.faults and "inside open spans: a" in tracer.faults[0]


def test_wrong_output_counts_as_failed(tmp_path):
    """A reference digest that no longer matches fails the run's check."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("src", "results"):
        (tmp_path / name).symlink_to(REPO / name)
    refs_path = tmp_path / "perfbench" / "refs.json"
    refs = json.loads(refs_path.read_text())
    refs["service"]["1"][3] = "0" * 16
    refs_path.write_text(json.dumps(refs))
    report, result = parse(bench("service-drain", 0, cwd=tmp_path, seed=1))
    assert not result["correct"]
    assert result["failed"] >= 1 and report["error_rate"] > 0
    assert any("(spec 3): artifact differs" in e for e in report["errors"])


def test_fails_without_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((REPO / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("capacity-grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
