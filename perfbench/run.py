#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction: one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload capacity-grid --seed 0 --seconds 30 --trace 0

``--trace 0`` times rounds of the workload with the program untouched
and prints the end-to-end metrics; ``--trace 1`` alternates untraced
rounds with rounds traced by ``layers.LayerTracer`` and prints the
per-layer metrics. Every round's outputs are checked. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
machine block and the full report. See README.md.

Times are taken on one CPU: the process pins itself to the first CPU
it may run on, and every timed window subtracts the steal time that
``/proc/stat`` charges to that CPU, the time the hypervisor ran other
guests on it. Raw wall times are in the report line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
BUILD = REPO / ".bench_build"

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "points/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_TIMED = [
    "workloads.line_pmf", "models.ehr", "workloads.start", "workloads.fill_block",
    "engine.setup", "engine.warmup", "engine.measure", "core.runner",
    "core.cache.get", "core.cache.put", "core.journal.open", "core.journal.record",
    "core.sweep",
    "cluster", "experiments", "service.broker.submit", "service.broker.lease",
    "service.broker.complete", "service.broker.renew", "service.broker.other",
    "service.agent.run_job", "service.artifact.write", "service.store.record_job",
    "service.store.other",
]
#: Layers whose entry count is reported as ``<layer>.calls``.
PER_LAYER_CALLS = [
    "workloads.line_pmf", "models.ehr", "workloads.fill_block", "core.cache.get",
    "core.cache.put", "core.journal.record", "service.broker.submit",
    "service.broker.lease", "service.broker.complete", "service.broker.renew",
    "service.store.record_job",
]

CHILD_IMPORT = """
import importlib, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
for name in sys.argv[2:]:
    importlib.import_module(name)
from repro.engine import _ckernel
_ckernel.available()
print(time.perf_counter() - t0)
"""


def per_layer_units() -> Dict[str, str]:
    units = {}
    for layer in PER_LAYER_TIMED:
        if layer in PER_LAYER_CALLS:
            units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "engine.accesses": "count",
        "engine.accesses_per_s": "1/s",
        "core.runner.points": "count",
        "core.runner.cache_hits": "count",
        "core.runner.cache_hit_ratio": "ratio",
        "core.runner.retries": "count",
        "core.runner.failures": "count",
        "service.broker.queue_wait_ms_p50": "ms",
        "service.broker.log_bytes": "bytes",
        "unattributed_s": "s",
        "trace.wall_s": "s",
        "trace.off_main_s": "s",
        "trace.overhead_ratio": "ratio",
    })
    return units


def hermetic_env(tmp: Path) -> None:
    """Scrub every ``REPRO_*`` knob and keep all writes in the checkout."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CKERNEL_CACHE"] = str(BUILD / "ckernel")
    os.environ["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    os.environ["TMPDIR"] = str(tmp)
    sys.pycache_prefix = os.environ["PYTHONPYCACHEPREFIX"]
    tempfile.tempdir = str(tmp)


def pin_cpu() -> Optional[int]:
    """Pin this process (and the threads and processes it starts) to the
    first CPU it may run on; None where affinity is not supported."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def steal_clock(cpu: Optional[int]) -> Callable[[], float]:
    """A clock that reads the steal time charged to ``cpu`` so far; it
    reads 0.0 where the kernel does not report it."""
    prefix = f"cpu{cpu} "

    def stolen_s() -> float:
        if cpu is None:
            return 0.0
        try:
            with open("/proc/stat") as fh:
                for line in fh:
                    if line.startswith(prefix):
                        return int(line.split()[8]) / CLOCK_TICKS
        except OSError:
            pass
        return 0.0

    return stolen_s


def machine_block(cpu: Optional[int]) -> Dict[str, Any]:
    import numpy
    from repro.engine import _ckernel

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ckernel_available": _ckernel.available(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "pinned_cpu": cpu,
    }


def child_import_s(modules) -> float:
    """Import time of the workload's modules in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", CHILD_IMPORT, str(SRC), *modules],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


@contextmanager
def plain_window() -> Iterator[Dict[str, float]]:
    out: Dict[str, float] = {}
    t0 = time.perf_counter()
    try:
        yield out
    finally:
        out["wall_s"] = time.perf_counter() - t0


def less_steal(window: Callable[[], ContextManager[Dict[str, float]]],
               stolen_s: Callable[[], float]):
    """``window`` that also records the steal time inside it, read from
    the clock ``stolen_s``, as ``stolen_s``."""

    @contextmanager
    def timed() -> Iterator[Dict[str, float]]:
        s0 = stolen_s()
        with window() as out:
            yield out
        out["stolen_s"] = stolen_s() - s0

    return timed


def busy_s(r: Any) -> float:
    """A round's wall time less the steal inside it."""
    return r.wall_s - r.stolen_s


def median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive method); 0.0 for no samples."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(args: argparse.Namespace, tmp: Path, cpu: Optional[int]) -> Dict[str, Any]:
    import suite
    from layers import LayerTracer

    from repro.obs.tracer import tracer as program_tracer

    if program_tracer().enabled:
        raise RuntimeError("the program's own tracer must stay off")
    machine = machine_block(cpu)
    stolen_s = steal_clock(cpu)
    print("machine " + json.dumps(machine, sort_keys=True), flush=True)
    if not machine["ckernel_available"]:
        print("warning: C kernel unavailable; the engine runs pure Python",
              file=sys.stderr)

    workload = suite.WORKLOADS[args.workload](args.seed, args.toy, tmp)
    setups = []
    for _ in range(SETUP_REPS):
        s0 = stolen_s()
        imports = child_import_s(workload.modules)
        t0 = time.perf_counter()
        workload.prepare()
        setups.append(imports + time.perf_counter() - t0 - (stolen_s() - s0))

    tracer = LayerTracer() if args.trace else None
    min_rounds = 1 if args.toy else (2 if args.trace else 3)
    plain: List[Any] = []
    traced: List[Any] = []
    # The traced run compares medians of few rounds, so a warm-up round
    # (checked, not timed) keeps first-call costs out of the overhead.
    plain_timed = less_steal(plain_window, stolen_s)
    warmup = [workload.run_round(plain_timed)] if tracer is not None else []
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        if tracer is not None and len(traced) < len(plain):
            tracer.install()
            try:
                traced.append(workload.run_round(less_steal(tracer.window, stolen_s)))
            finally:
                tracer.uninstall()
        else:
            plain.append(workload.run_round(plain_timed))
            if len(plain) == min_rounds:
                # Peak memory over a fixed amount of work, not over however
                # many rounds fit in the time.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        last = time.perf_counter() - t_round
        enough = len(plain) >= min_rounds and (tracer is None or len(traced) >= min_rounds)
        if enough and time.perf_counter() - start + last / 2 >= args.seconds:
            break

    rounds = warmup + plain + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    errors = [e for r in rounds for e in r.errors]
    walls = [busy_s(r) for r in plain]
    job_ms = [v for r in plain for v in r.job_ms]
    report: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(plain),
        "setup_s": median(setups),
        "wall_s": median(walls),
        "host_wall_s": median([r.wall_s for r in plain]),
        "stolen_s": median([r.stolen_s for r in plain]),
        "points_per_s": median([r.points / busy_s(r) for r in plain]),
        "peak_rss_mb": peak_rss_mb,
        "error_rate": failed / attempted,
        "points_per_round": plain[0].points,
        "round_wall_s": [r.wall_s for r in plain],
        "round_stolen_s": [r.stolen_s for r in plain],
    }
    if plain[0].jobs:
        report.update({
            "jobs_per_s": median([r.jobs / busy_s(r) for r in plain]),
            "job_ms_p50": percentile(job_ms, 50),
            "job_ms_p90": percentile(job_ms, 90),
            "job_samples": len(job_ms),
        })
    metrics = {name: report[name] for name in END_TO_END}
    units = dict(END_TO_END)
    if tracer is not None:
        layer = layer_metrics(tracer, traced, walls)
        report["layers"] = layer
        report["layers_missing"] = tracer.missing
        metrics = layer
        units = per_layer_units()
        errors.extend(tracer.faults)
    report["errors"] = errors[:20]
    print("report " + json.dumps(report, sort_keys=True), flush=True)
    for line in errors[:20]:
        print(f"error: {line}", file=sys.stderr)
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def layer_metrics(tracer, traced: List[Any], plain_walls: List[float]) -> Dict[str, Any]:
    """Per-round means over the traced rounds, plus the overhead ratio."""
    n = len(traced)
    out: Dict[str, Any] = {}
    for layer in PER_LAYER_TIMED:
        if layer in PER_LAYER_CALLS:
            out[f"{layer}.calls"] = tracer.calls.get(layer, 0) / n
        out[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0) / n
    engine_s = sum(tracer.self_s.get(k, 0.0) for k in (
        "engine.warmup", "engine.measure", "workloads.fill_block"))
    runner = {k: sum(r.runner[k] for r in traced) / n
              for k in ("points", "cache_hits", "retries", "failures")}
    traced_walls = [r.wall_s for r in traced]
    wall = sum(traced_walls) / n
    waits = [v for r in traced for v in r.queue_wait_ms]
    out.update({
        "engine.accesses": tracer.accesses / n,
        "engine.accesses_per_s": tracer.accesses / engine_s if engine_s else 0.0,
        "core.runner.points": runner["points"],
        "core.runner.cache_hits": runner["cache_hits"],
        "core.runner.cache_hit_ratio": (runner["cache_hits"] / runner["points"]
                                        if runner["points"] else 0.0),
        "core.runner.retries": runner["retries"],
        "core.runner.failures": runner["failures"],
        "service.broker.queue_wait_ms_p50": median(waits),
        "service.broker.log_bytes": sum(r.log_bytes for r in traced) / n,
        # Main-thread self times partition the wall; off-main-thread time
        # (lease renewals) overlaps it and is reported on its own.
        "unattributed_s": wall - tracer.attributed_s() / n,
        "trace.wall_s": wall,
        "trace.off_main_s": sum(tracer.off_main_s.values()) / n,
        "trace.overhead_ratio": (median([busy_s(r) for r in traced])
                                 / median(plain_walls) - 1.0),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy-size rounds (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2

    cpu = pin_cpu()
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=BUILD / "tmp"))
    hermetic_env(tmp)
    sys.path.insert(0, str(SRC))
    try:
        import suite

        if args.workload not in suite.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; pick one of "
                  f"{sorted(suite.WORKLOADS)}", file=sys.stderr)
            return 2
        result = run(args, tmp, cpu)
    except Exception:  # noqa: BLE001 - report and fail the run
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
