"""Per-layer self time, measured from outside the program.

The traced run wraps calls into each layer's public functions (the
wrappers live here, never in ``src/``) and keeps one stack of open
spans on the main thread. A layer's self time is a span's duration
minus the time its child spans cover, so the self times of all layers
plus the unattributed remainder add up to the wall time of the traced
window, without double counting.

A call into a layer from inside the same layer opens no new span: the
``calls`` counters count entries into a layer from outside it.
Calls made on other threads (the agent's lease heartbeat) overlap the
main thread's time; they are counted and timed under ``off_main_s``,
kept out of the wall-time partition.

Each window checks its own bookkeeping when it closes: no span may
still be open, the self times must add up to the separately summed
durations of the outermost spans, and those must fit in the window.
A failed check is appended to ``faults``.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


def _accesses_of_outcome(outcome: Any) -> int:
    return int(getattr(outcome, "total_accesses", 0) or 0)


def _accesses_of_result(result: Any) -> int:
    counters = getattr(result, "core_counters", None) or {}
    return sum(int(getattr(c, "accesses", 0)) for c in counters.values())


#: (module, class or None, attribute, layer, access counter)
_TARGETS: List[Tuple[str, Optional[str], str, str, Optional[Callable[[Any], int]]]] = [
    # Eq. 4 model path.
    ("repro.workloads.synthetic", "ProbabilisticBenchmark", "line_pmf",
     "workloads.line_pmf", None),
    ("repro.models.ehr", "EHRModel", "__post_init__", "models.ehr", None),
    ("repro.models.ehr", "EHRModel", "miss_rate", "models.ehr", None),
    ("repro.models.ehr", "EHRModel", "effective_capacity_bytes", "models.ehr", None),
    ("repro.models.ehr", "EHRModel", "check", "models.ehr", None),
    # Engine.
    ("repro.engine.socket_sim", "SocketSimulator", "__init__", "engine.setup", None),
    ("repro.engine.socket_sim", "SocketSimulator", "add_thread", "engine.setup", None),
    ("repro.engine.socket_sim", "SocketSimulator", "warmup", "engine.warmup",
     _accesses_of_outcome),
    ("repro.engine.socket_sim", "SocketSimulator", "measure", "engine.measure",
     _accesses_of_result),
    ("repro.engine.socket_sim", "SocketSimulator", "run_to_completion",
     "engine.measure", _accesses_of_result),
    ("repro.engine.node", "NodeSimulator", "__init__", "engine.setup", None),
    ("repro.engine.node", "NodeSimulator", "add_thread", "engine.setup", None),
    ("repro.engine.node", "NodeSimulator", "warmup", "engine.warmup",
     _accesses_of_outcome),
    ("repro.engine.node", "NodeSimulator", "measure", "engine.measure",
     _accesses_of_result),
    # Campaign core.
    ("repro.core.parallel", "PointRunner", "run", "core.runner", None),
    ("repro.core.parallel", "ResultCache", "get", "core.cache.get", None),
    ("repro.core.parallel", "ResultCache", "put", "core.cache.put", None),
    ("repro.core.journal", "CampaignJournal", "__init__", "core.journal.open", None),
    ("repro.core.journal", "CampaignJournal", "record_point",
     "core.journal.record", None),
    ("repro.core.sweep", "ActiveMeasurement", "__init__", "core.sweep", None),
    ("repro.core.sweep", "ActiveMeasurement", "sweep", "core.sweep", None),
    ("repro.core.sweep", "ActiveMeasurement", "run_point", "core.sweep", None),
    # Cluster job composition (Figs. 9/11).
    ("repro.cluster.job", "ClusterJob", "run", "cluster", None),
    # Experiment entry points.
    ("repro.experiments.fig6", None, "run_fig6", "experiments", None),
    ("repro.experiments.fig6", None, "_panel_point", "experiments", None),
    ("repro.experiments.fig9", None, "run_fig9", "experiments", None),
    ("repro.experiments.fig11", None, "run_fig11", "experiments", None),
    ("repro.experiments.appsweeps", None, "interference_sweep", "experiments", None),
    ("repro.experiments.appsweeps", None, "_run_job_time", "experiments", None),
    # Service.
    ("repro.service.broker", "DurableBroker", "submit", "service.broker.submit", None),
    ("repro.service.broker", "DurableBroker", "lease", "service.broker.lease", None),
    ("repro.service.broker", "DurableBroker", "complete",
     "service.broker.complete", None),
    ("repro.service.broker", "DurableBroker", "renew", "service.broker.renew", None),
    ("repro.service.broker", "DurableBroker", "__init__", "service.broker.other", None),
    ("repro.service.broker", "DurableBroker", "fail", "service.broker.other", None),
    ("repro.service.broker", "DurableBroker", "job", "service.broker.other", None),
    ("repro.service.broker", "DurableBroker", "jobs", "service.broker.other", None),
    ("repro.service.broker", "DurableBroker", "drained", "service.broker.other", None),
    ("repro.service.agent", "MeasurementAgent", "run_job",
     "service.agent.run_job", None),
    ("repro.service.agent", None, "write_result_atomic", "service.artifact.write",
     None),
    ("repro.service.store", "ResultsStore", "__init__", "service.store.other", None),
    ("repro.service.store", "ResultsStore", "record_job",
     "service.store.record_job", None),
]

#: Every SimThread subclass's own implementation of these methods is
#: wrapped (workloads and application proxies alike).
_THREAD_METHODS = (("start", "workloads.start"), ("fill_block", "workloads.fill_block"))


def _subclasses(root: type) -> List[type]:
    """``root`` and every class derived from it."""
    seen: List[type] = []
    todo = [root]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


class LayerTracer:
    """Self-time accounting over wrapped layer entry points.

    ``install()`` patches the wrappers in, ``uninstall()`` restores the
    originals, so untraced rounds run the unmodified program.
    """

    def __init__(self) -> None:
        self.recording = False
        self._main = threading.main_thread()
        self._stack: List[List[Any]] = []  # [layer, child_s]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.off_main_s: Dict[str, float] = defaultdict(float)
        self.accesses = 0
        #: Summed durations of outermost main-thread spans.
        self.top_s = 0.0
        #: Bookkeeping errors found when a window closed.
        self.faults: List[str] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Targets absent from this version of the program.
        self.missing: List[str] = []

    # -- wrapping -------------------------------------------------------------

    def wrap(self, layer: str, fn: Callable,
             count: Optional[Callable[[Any], int]] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return fn(*args, **kwargs)
            if threading.current_thread() is not tracer._main:
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    with tracer._lock:
                        tracer.off_main_s[layer] += time.perf_counter() - t0
                        tracer.calls[layer] += 1
            stack = tracer._stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                tracer.self_s[layer] += dt - frame[1]
                tracer.calls[layer] += 1
                if stack:
                    stack[-1][1] += dt
                else:
                    tracer.top_s += dt
            if count is not None:
                tracer.accesses += count(result)
            return result

        return traced

    def _patch(self, owner: Any, attr: str, layer: str,
               count: Optional[Callable[[Any], int]] = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer, original, count))

    def install(self) -> None:
        if self._patches:
            return
        for module_name, cls_name, attr, layer, count in _TARGETS:
            try:
                owner: Any = importlib.import_module(module_name)
                if cls_name is not None:
                    owner = getattr(owner, cls_name)
            except (ImportError, AttributeError):
                self._note_missing(module_name, cls_name, attr)
                continue
            present = (attr in owner.__dict__) if isinstance(owner, type) \
                else hasattr(owner, attr)
            if not present:
                self._note_missing(module_name, cls_name, attr)
                continue
            self._patch(owner, attr, layer, count)
        # Import every module that defines a SimThread subclass.
        importlib.import_module("repro.workloads")
        importlib.import_module("repro.apps")
        from repro.engine.thread import SimThread
        from repro.workloads.distributions import IndexDistribution

        for cls in _subclasses(IndexDistribution):
            if "line_pmf" in cls.__dict__:
                self._patch(cls, "line_pmf", "workloads.line_pmf")
        for cls in _subclasses(SimThread):
            for attr, layer in _THREAD_METHODS:
                if attr in cls.__dict__:
                    self._patch(cls, attr, layer)

    def _note_missing(self, module_name: str, cls_name: Optional[str],
                      attr: str) -> None:
        name = ".".join(p for p in (module_name, cls_name, attr) if p)
        if name not in self.missing:
            self.missing.append(name)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- windows ---------------------------------------------------------------

    @contextmanager
    def window(self) -> Iterator[Dict[str, float]]:
        """Record spans for the body; yields a dict that receives the
        window's ``wall_s`` when the body ends."""
        out: Dict[str, float] = {}
        attributed0, top0 = self.attributed_s(), self.top_s
        self.recording = True
        t0 = time.perf_counter()
        try:
            yield out
        finally:
            out["wall_s"] = wall = time.perf_counter() - t0
            self.recording = False
            self._check_window(wall, self.attributed_s() - attributed0,
                               self.top_s - top0)

    def _check_window(self, wall: float, attributed: float, top: float) -> None:
        if self._stack:
            self.faults.append("window closed inside open spans: "
                               + ", ".join(frame[0] for frame in self._stack))
        tol = 1e-7 * max(1.0, wall)
        if abs(attributed - top) > tol:
            self.faults.append(f"self times sum to {attributed:.9f} s but the "
                               f"outermost spans to {top:.9f} s")
        if top > wall + tol:
            self.faults.append(f"outermost spans ({top:.9f} s) exceed the "
                               f"window ({wall:.9f} s)")

    def attributed_s(self) -> float:
        return sum(self.self_s.values())
