"""The benchmark's four workloads.

Each workload turns the benchmark seed into program inputs, can be set
up repeatedly (``prepare``), and runs identical *rounds*: one round is
a fixed amount of work whose timed region is handed to the caller's
``timed`` context manager, followed (outside the timed region) by a
check of every output against a reference.

References: seed ``s`` runs reference set ``s % N_REFS``. Reference set
0 of the experiment workloads is the committed record under
``results/``; every other set is a table of digests in ``refs.json``,
written by ``make_refs.py`` from the same code paths.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Optional, Tuple

import repro.experiments.common as common
import repro.experiments.fig6 as fig6
import repro.experiments.fig9 as fig9
import repro.experiments.fig11 as fig11
from repro.core.parallel import reset_session_telemetry, session_telemetry
from repro.errors import ServiceOverloaded
from repro.service.broker import DONE
from repro.service.client import ServiceClient
from repro.service.jobs import JobSpec
from repro.units import KiB, MiB

N_REFS = 16
HERE = Path(__file__).resolve().parent
REPO = HERE.parent
REFS_PATH = HERE / "refs.json"

Timed = Callable[[], ContextManager[Dict[str, float]]]


def digest(value: Any) -> str:
    """Stable digest of a JSON value (floats keep every digit)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_refs() -> Dict[str, Any]:
    return json.loads(REFS_PATH.read_text()) if REFS_PATH.exists() else {}


@dataclasses.dataclass
class RoundResult:
    """One round: its timed wall, the work it did, and its check."""

    wall_s: float
    points: int
    attempted: int
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)
    #: Session RunnerTelemetry counters for the round.
    runner: Dict[str, Any] = dataclasses.field(default_factory=dict)
    jobs: int = 0
    job_ms: List[float] = dataclasses.field(default_factory=list)
    queue_wait_ms: List[float] = dataclasses.field(default_factory=list)
    log_bytes: int = 0
    #: Steal time inside the timed region, when the caller measures it.
    stolen_s: float = 0.0


def _runner_counters() -> Dict[str, Any]:
    tele = session_telemetry()
    return {
        "points": tele.points_total,
        "cache_hits": tele.cache_hits,
        "retries": tele.retries,
        "failures": tele.failures + tele.gaps,
    }


def mismatches(got: Dict[str, Tuple[Any, int]], want: Dict[str, str]) -> List[str]:
    """Keys of ``{key: (value, points)}`` whose digest differs from (or
    is missing in) the reference digests ``want``."""
    return sorted(k for k, (v, _) in got.items() if want.get(k) != digest(v))


# -- experiment workloads -------------------------------------------------------


class _ExperimentWorkload:
    """Shared round logic for the two campaign workloads."""

    name = ""
    #: Modules a fresh process imports to run this workload.
    modules: Tuple[str, ...] = ()

    def __init__(self, seed: int, toy: bool, tmp: Path):
        self.seed = seed
        self.ref = seed % N_REFS
        self.toy = toy
        self.tmp = tmp
        self._want: Dict[str, str] = {}

    def prepare(self) -> None:
        """Input generation: the reference digests this seed is checked
        against (the cache starts cold in every round)."""
        self._want = self.reference()

    def reference(self) -> Dict[str, str]:
        if self.ref == 0:
            return {k: digest(v) for k, (v, _) in self.committed_items().items()}
        return load_refs().get(self.name, {}).get(str(self.ref), {})

    def committed_items(self) -> Dict[str, Tuple[Any, int]]:
        raise NotImplementedError

    def compute(self) -> List[Dict[str, Any]]:
        """The timed work; returns the records it produced as JSON."""
        raise NotImplementedError

    def items(self, records: List[Dict[str, Any]]) -> Dict[str, Tuple[Any, int]]:
        raise NotImplementedError

    def run_round(self, timed: Timed) -> RoundResult:
        cache = Path(tempfile.mkdtemp(prefix="cache-", dir=self.tmp))
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        reset_session_telemetry()
        try:
            with timed() as t:
                records = self.compute()
        finally:
            del os.environ["REPRO_CACHE_DIR"]
            shutil.rmtree(cache, ignore_errors=True)
        runner = _runner_counters()
        got = self.items(records)
        points = sum(p for _, p in got.values())
        bad = mismatches(got, self._want)
        errors = [f"{self.name}: {key} differs from reference" for key in bad]
        failed = sum(got[key][1] for key in bad)
        if any(got[key][1] == 0 for key in bad) or runner["failures"]:
            # Record-level items (weight 0) and runner failures taint
            # every point of the round.
            failed = points
        if runner["failures"]:
            errors.append(f"{self.name}: {runner['failures']} runner failures")
        return RoundResult(
            wall_s=t["wall_s"], points=runner["points"], attempted=points,
            failed=failed, errors=errors, runner=runner,
            stolen_s=t.get("stolen_s", 0.0),
        )


@contextmanager
def _fig6_grid(sizes_mb: List[int], ops: List[int], ks: List[int]) -> Iterator[None]:
    """Restrict ``run_fig6``'s smoke grid to a sub-grid for one call."""
    saved = (common.probe_buffer_sizes_mb, common.ops_per_load, common.csthr_counts)
    common.probe_buffer_sizes_mb = lambda mode=None: list(sizes_mb)
    common.ops_per_load = lambda mode=None: list(ops)
    common.csthr_counts = lambda mode=None: list(ks)
    try:
        yield
    finally:
        common.probe_buffer_sizes_mb, common.ops_per_load, common.csthr_counts = saved


def _fig6_items(record: Dict[str, Any]) -> Dict[str, Tuple[Any, int]]:
    """One item per (ops, k, buffer size) panel cell: its mean and
    sigma over the distributions, weighted by the points behind it."""
    sizes = record["params"]["sizes_mb"]
    n_dists = len(record["params"]["distributions"])
    out: Dict[str, Tuple[Any, int]] = {}
    for ops, by_k in record["data"]["panels"].items():
        for k, series in by_k.items():
            for i, size in enumerate(sizes):
                key = f"ops={ops}/k={k}/mb={size}"
                out[key] = ([series["mean"][i], series["std"][i]], n_dists)
    return out


class CapacityGrid(_ExperimentWorkload):
    """Smoke Fig. 6 sub-grid through ``run_fig6`` with a cold cache."""

    name = "capacity-grid"
    modules = ("repro.experiments.fig6",)
    SIZES_MB = [50]
    OPS = [1, 100]
    KS = [0, 2, 5]

    def grid(self) -> Tuple[List[int], List[int], List[int]]:
        if self.toy:
            return self.SIZES_MB, [1], [0]
        return self.SIZES_MB, self.OPS, self.KS

    def committed_items(self) -> Dict[str, Tuple[Any, int]]:
        return _fig6_items(json.loads((REPO / "results" / "fig6.json").read_text()))

    def compute(self) -> List[Dict[str, Any]]:
        sizes, ops, ks = self.grid()
        with _fig6_grid(sizes, ops, ks):
            record = fig6.run_fig6("smoke", seed=self.ref)
        out = json.loads(record.to_json())
        got = (out["params"]["sizes_mb"], out["params"]["ops_levels"],
               out["params"]["csthr_counts"])
        if got != (sizes, ops, ks):
            raise RuntimeError(f"run_fig6 ignored the benchmark grid: ran {got}")
        return [out]

    def items(self, records: List[Dict[str, Any]]) -> Dict[str, Tuple[Any, int]]:
        return _fig6_items(records[0])


def _app_items(record: Dict[str, Any]) -> Dict[str, Tuple[Any, int]]:
    """One item per simulated job time, plus the record's params and
    notes (weight 0: a mismatch there fails every point of the record)."""
    exp = record["experiment_id"]
    out: Dict[str, Tuple[Any, int]] = {}
    for panel, by_value in record["data"].items():
        for value, kinds in by_value.items():
            for kind, times in kinds.items():
                for k, t in times.items():
                    out[f"{exp}/{panel}/{value}/{kind}/{k}"] = (t, 1)
    n_points = len(out)
    out[f"{exp}/params"] = (record["params"], 0)
    out[f"{exp}/notes"] = (record["notes"], 0)
    out[f"{exp}/points"] = (n_points, 0)
    return out


class AppSweeps(_ExperimentWorkload):
    """Paper-mode Fig. 9 + Fig. 11 (MCB and Lulesh degradation sweeps)."""

    name = "app-sweeps"
    modules = ("repro.experiments.fig9", "repro.experiments.fig11")

    def runs(self) -> List[Callable[..., Any]]:
        # Toy size keeps only Fig. 11, a strict subset of the full round,
        # so every reference set still covers it.
        return [fig11.run_fig11] if self.toy else [fig9.run_fig9, fig11.run_fig11]

    def committed_items(self) -> Dict[str, Tuple[Any, int]]:
        out: Dict[str, Tuple[Any, int]] = {}
        for exp in ("fig9", "fig11"):
            path = REPO / "results" / "paper" / f"{exp}.json"
            out.update(_app_items(json.loads(path.read_text())))
        return out

    def compute(self) -> List[Dict[str, Any]]:
        return [
            json.loads(run("paper", seed=self.ref).to_json()) for run in self.runs()
        ]

    def items(self, records: List[Dict[str, Any]]) -> Dict[str, Tuple[Any, int]]:
        out: Dict[str, Tuple[Any, int]] = {}
        for record in records:
            out.update(_app_items(record))
        return out


# -- service workloads ------------------------------------------------------------

TENANTS = ("t0", "t1", "t2", "t3")
REPLAY_TENANTS = ("r0", "r1", "r2", "r3")
APPS = ("probe", "stream", "hotcold", "chase")
PRIORITIES = (0, 1, 2)


#: Per-app parameter sets; spec ``i`` of app ``a`` takes set ``(i // 8) % 4``.
APP_PARAMS: Dict[str, Tuple[Dict[str, Any], ...]] = {
    "probe": tuple({"dist": d, "buffer_bytes": b * KiB}
                   for d, b in (("uniform", 32), ("zipf", 64), ("uniform", 128),
                                ("zipf", 128))),
    "stream": tuple({"array_bytes": b * KiB} for b in (32, 64, 96, 128)),
    "hotcold": tuple({"hot_bytes": h * KiB, "hot_fraction": f}
                     for h, f in ((4, 0.9), (8, 0.8), (8, 0.9), (12, 0.8))),
    "chase": tuple({"buffer_bytes": b * MiB} for b in (16, 32, 48, 64)),
}


#: Accesses per point, twice the JobSpec defaults: a larger engine share
#: makes a round less sensitive to the host's syscall latency, which
#: swings far more under load than computation does.
WARMUP_ACCESSES, MEASURE_ACCESSES = 50_000, 30_000


def service_specs(ref: int, n: int) -> List[JobSpec]:
    """``n`` unique tiny-preset job specs for reference set ``ref``.

    The app, kind, interference level and parameter set cycle, so every
    reference set (and every prefix of 32) has the same mix and the
    same amount of work. A distinct spec seed per reference set and
    index makes every spec a distinct measurement.
    """
    specs = []
    for i in range(n):
        app = APPS[i % len(APPS)]
        j = i // len(APPS)
        specs.append(JobSpec(
            app=app, preset="tiny", kind=("cs", "bw")[j % 2], ks=(0, 1 + j % 3),
            seed=ref * 1000 + i, app_params=APP_PARAMS[app][(j // 2) % 4],
            warmup_accesses=WARMUP_ACCESSES, measure_accesses=MEASURE_ACCESSES,
        ))
    return specs


def _history_t(job: Any, event: str) -> Optional[float]:
    for entry in job.history:
        if entry["event"] == event:
            return float(entry["t"])
    return None


class _ServiceWorkload:
    """Shared logic: submit waves from four tenants, drain each wave with
    the inline agent, then check every artifact and store row."""

    name = ""
    modules = ("repro.service.client",)

    def __init__(self, seed: int, toy: bool, tmp: Path):
        self.seed = seed
        self.ref = seed % N_REFS
        self.toy = toy
        self.tmp = tmp
        self.specs: List[JobSpec] = []
        self.waves: List[List[Tuple[str, int]]] = []
        self._want: List[str] = []

    def n_specs(self) -> int:
        raise NotImplementedError

    def make_waves(self, rng: random.Random) -> List[List[Tuple[str, int]]]:
        raise NotImplementedError

    def prepare(self) -> None:
        n = self.n_specs()
        self._want = load_refs().get("service", {}).get(str(self.ref), [])[:n]
        rng = random.Random(f"perfbench-{self.name}-{self.seed}")
        base = service_specs(self.ref, n)
        self.specs = [
            dataclasses.replace(s, priority=rng.choice(PRIORITIES)) for s in base
        ]
        self.waves = self.make_waves(rng)

    def fresh_root(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="root-", dir=self.tmp))

    def round_root(self) -> Path:
        return self.fresh_root()

    def run_round(self, timed: Timed) -> RoundResult:
        root = self.round_root()
        queue = root / "queue.jsonl"
        log0 = queue.stat().st_size if queue.exists() else 0
        submitted: List[Tuple[str, int, float]] = []
        shed = 0
        reset_session_telemetry()
        try:
            with timed() as t:
                client = ServiceClient(root)
                for wave in self.waves:
                    for tenant, idx in wave:
                        t_sub = time.time()
                        try:
                            job_id = client.submit(self.specs[idx], tenant=tenant)
                        except ServiceOverloaded:
                            shed += 1
                            continue
                        submitted.append((job_id, idx, t_sub))
                    client.drain()
            result = self._check(client, submitted, shed)
            result.wall_s = t["wall_s"]
            result.stolen_s = t.get("stolen_s", 0.0)
            result.log_bytes = queue.stat().st_size - log0
            client.store.close()
            return result
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def _check(self, client: ServiceClient, submitted: List[Tuple[str, int, float]],
               shed: int) -> RoundResult:
        attempted = len(submitted) + shed
        errors = [f"{self.name}: {shed} submissions shed"] if shed else []
        failed = shed
        job_ms, waits = [], []
        for job_id, idx, t_sub in submitted:
            job = client.broker.job(job_id)
            bad = self._check_job(client, job, idx)
            if bad:
                failed += 1
                errors.append(f"{self.name}: job {job_id} (spec {idx}): {bad}")
                continue
            job_ms.append((_history_t(job, "complete") - t_sub) * 1e3)
            waits.append((_history_t(job, "lease") - _history_t(job, "submit")) * 1e3)
        runner = _runner_counters()
        return RoundResult(
            wall_s=0.0, points=runner["points"], attempted=attempted,
            failed=failed, errors=errors, runner=runner, jobs=len(submitted),
            job_ms=job_ms, queue_wait_ms=waits,
        )

    def _check_job(self, client: ServiceClient, job: Any, idx: int) -> str:
        if job is None or job.state != DONE or not job.result_path:
            state = None if job is None else job.state
            return f"not done (state={state})"
        artifact = Path(job.result_path).read_bytes()
        if idx >= len(self._want) or digest(json.loads(artifact)) != self._want[idx]:
            return "artifact differs from reference"
        stored = json.dumps(client.store.point_payload(job.id), sort_keys=True,
                            indent=1).encode()
        if stored != artifact:
            return "store row differs from artifact"
        return ""


class ServiceDrain(_ServiceWorkload):
    """Unique specs from four tenants in two waves, cold cache."""

    name = "service-drain"

    def n_specs(self) -> int:
        return 8 if self.toy else 32

    def make_waves(self, rng: random.Random) -> List[List[Tuple[str, int]]]:
        n = self.n_specs()
        waves = []
        for lo in (0, n // 2):
            idx = list(range(lo, lo + n // 2))
            rng.shuffle(idx)
            waves.append([(TENANTS[j % len(TENANTS)], i) for j, i in enumerate(idx)])
        return waves


class ServiceReplay(_ServiceWorkload):
    """The same specs resubmitted by other tenants against a root whose
    shared cache set-up already warmed: every point is a cache hit."""

    name = "service-replay"

    def __init__(self, seed: int, toy: bool, tmp: Path):
        super().__init__(seed, toy, tmp)
        self.primed: Optional[Path] = None

    def n_specs(self) -> int:
        return 4 if self.toy else 32

    def make_waves(self, rng: random.Random) -> List[List[Tuple[str, int]]]:
        waves = []
        for _ in range(2):
            idx = list(range(self.n_specs()))
            rng.shuffle(idx)
            waves.append([(REPLAY_TENANTS[j % len(REPLAY_TENANTS)], i)
                          for j, i in enumerate(idx)])
        return waves

    def prepare(self) -> None:
        super().prepare()
        if self.primed is not None:
            shutil.rmtree(self.primed, ignore_errors=True)
        self.primed = self.fresh_root()
        client = ServiceClient(self.primed)
        ids = [client.submit(spec, tenant=TENANTS[i % len(TENANTS)])
               for i, spec in enumerate(self.specs)]
        client.drain()
        undone = [j for j in ids if client.status(j).state != DONE]
        if undone:
            raise RuntimeError(f"cache priming left jobs undone: {undone}")

    def round_root(self) -> Path:
        root = self.fresh_root()
        shutil.copytree(self.primed, root, dirs_exist_ok=True)
        return root


WORKLOADS = {
    w.name: w for w in (CapacityGrid, AppSweeps, ServiceDrain, ServiceReplay)
}
