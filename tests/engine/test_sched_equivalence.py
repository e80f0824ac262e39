"""Engine-path equivalence: compiled production path vs Python reference.

The production path (the array kernel with the compiled ``sched_step``)
must be *bit-identical* to the reference path (the list kernel driven by
the scheduler's pure-Python macro step): every event counter equal as
integers, every clock and finish time equal as floats (hex-exact, not
approx). This is the contract that lets the compiled path be the
default — any simulation result is reproducible under
``REPRO_KERNEL=lists``.

Each path also runs with ``fill_block`` hidden, so the universal
``chunks()`` refill fallback is held to the vectorised blocks too.

The suite drives all six hand-picked workloads (the two paper
interference threads, the probabilistic benchmark, STREAM triad,
hot/cold probe and bubble) through warmup + measure windows, covers the
macro-stepping edge cases — budget exhaustion mid-block, generator
exhaustion mid-block, window reopen, runaway guards and the roster
tie-break invariant — and finishes with a generated test over random
rosters (those workloads plus the pointer chase, a small comm-enabled
rank and tiny MCB and Lulesh ranks), seeds, quanta and budgets.
Without a C compiler only the reference legs run.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import (
    BufferSpec,
    CommEnv,
    LuleshProxy,
    MCBProxy,
    RandomPhase,
    RankApp,
    StreamPhase,
)
from repro.cluster import CommModel, Distance, NoiseModel, ProcessMapping
from repro.config import tiny_socket, xeon20mb, xeon20mb_cluster
from repro.engine import (
    AccessChunk,
    ArraySocket,
    CoreState,
    FastSocket,
    Scheduler,
    _ckernel,
)
from repro.engine import scheduler as scheduler_mod
from repro.engine.thread import SimThread, ThreadContext
from repro.errors import SimulationError
from repro.mem import AddressSpace
from repro.workloads import (
    BWThr,
    BubbleProbe,
    CSThr,
    HotColdProbe,
    PointerChase,
    StreamTriad,
)
from repro.workloads.distributions import ExponentialDist, UniformDist
from repro.workloads.synthetic import ProbabilisticBenchmark

INT_COUNTERS = (
    "accesses", "l1_hits", "l2_hits", "l3_hits", "prefetch_hits",
    "l3_misses", "prefetch_fills", "writebacks", "compute_ops",
)
NS_COUNTERS = ("compute_ns", "offsocket_ns", "stall_ns", "elapsed_ns")

#: (label, kernel, hide fill_block). The compiled legs need a C compiler.
REFERENCE = ("reference", "lists", False)
PATHS = (
    ("compiled", "arrays", False),
    ("compiled-gen", "arrays", True),
    REFERENCE,
    ("reference-gen", "lists", True),
)

needs_c = pytest.mark.skipif(not _ckernel.available(), reason="no C toolchain")


def available_paths(kernel=None):
    return [
        p for p in PATHS
        if (kernel is None or p[1] == kernel)
        and (p[1] == "lists" or _ckernel.available())
    ]


def build_sched(threads_and_flags, socket=None, kernel="arrays",
                hide_fill=False, seed0=7):
    """Fresh kernel + scheduler over freshly started threads."""
    if socket is None:
        socket = tiny_socket(n_cores=8)
    fast = ArraySocket(socket) if kernel == "arrays" else FastSocket(socket)
    space = AddressSpace(line_bytes=socket.line_bytes)
    cores = []
    for idx, (thread, is_main) in enumerate(threads_and_flags):
        if hide_fill:
            thread.supports_fill_block = False
        ctx = ThreadContext(
            socket=socket,
            addrspace=space,
            rng=np.random.default_rng(seed0 + idx),
            core_id=idx,
        )
        thread.start(ctx)
        cores.append(
            CoreState(core_id=idx, thread=thread, gen=thread.chunks(), is_main=is_main)
        )
    return Scheduler(fast, cores)


def fingerprint(sched, outcomes) -> Tuple:
    """Hex-exact snapshot of every per-core and per-window observable."""
    rows: List[Tuple] = []
    for cs in sched.cores:
        rows.append((
            cs.core_id, cs.accesses, cs.done, float(cs.clock_ns).hex(),
            None if cs.finish_ns is None else float(cs.finish_ns).hex(),
        ))
    for o in outcomes:
        rows.append((
            sorted((k, float(v).hex()) for k, v in o.main_finish_ns.items()),
            float(o.start_ns).hex(), float(o.end_ns).hex(), o.total_accesses,
        ))
    for cid, c in enumerate(sched.fast.counters):
        rows.append(
            tuple(getattr(c, f) for f in INT_COUNTERS)
            + tuple(float(getattr(c, f)).hex() for f in NS_COUNTERS)
        )
    return tuple(rows)


class FixedThread(SimThread):
    """Yields ``n_chunks`` chunks of ``size`` accesses (generator path)."""

    def __init__(self, n_chunks=None, size=8, ops=1, name="fixed"):
        self.n_chunks = n_chunks
        self.size = size
        self.ops = ops
        self.name = name
        self.base = 0

    def start(self, ctx: ThreadContext) -> None:
        buf = ctx.addrspace.alloc(64 * self.size * 4, elem_bytes=4)
        self.base = buf.base_line

    def chunks(self) -> Iterator[AccessChunk]:
        i = 0
        while self.n_chunks is None or i < self.n_chunks:
            lines = [self.base + (j % 4) for j in range(self.size)]
            yield AccessChunk(lines=lines, ops_per_access=self.ops)
            i += 1


def all_workloads():
    """All six workloads: four mains + the two paper interference threads."""
    return [
        (ProbabilisticBenchmark(UniformDist(), 4 * 1024 * 1024), True),
        (HotColdProbe(2 * 1024 * 1024, hot_fraction=0.9), True),
        (StreamTriad(array_bytes=8 * 1024 * 1024), True),
        (BubbleProbe(0.75), True),
        (CSThr(buffer_bytes=2 * 1024 * 1024), False),
        (BWThr(n_buffers=7), False),
    ]


def run_windows(sched, budgets):
    outcomes = [sched.run(main_access_budget=budgets[0])]
    for b in budgets[1:]:
        sched.reopen_mains()
        outcomes.append(sched.run(main_access_budget=b))
    return outcomes


def path_prints(shape, budgets, socket=None, paths=None):
    """Fingerprint of ``shape`` run through each path, keyed by label."""
    prints = {}
    for label, kernel, hide in paths or available_paths():
        sched = build_sched(shape(), socket=socket, kernel=kernel, hide_fill=hide)
        prints[label] = fingerprint(sched, run_windows(sched, budgets))
    return prints


def assert_all_equal(prints):
    ref = next(iter(prints.values()))
    for label, fp in prints.items():
        assert fp == ref, label


class TestModeEquivalence:
    @pytest.mark.parametrize("kernel", ["arrays", "lists"])
    def test_all_six_workloads_bit_identical(self, kernel):
        """Over two windows, the ``kernel``'s path — with fill_block and
        with it hidden — matches the reference path."""
        if kernel == "arrays" and not _ckernel.available():
            pytest.skip("no C toolchain")
        paths = [REFERENCE] + [p for p in available_paths(kernel) if p != REFERENCE]
        assert_all_equal(
            path_prints(all_workloads, [6_000, 8_000], xeon20mb(), paths)
        )

    def test_exotic_shapes_bit_identical(self):
        """Pure-hot probe (uniform-block path), zero-pressure bubble (no
        stream chunks) and a finite fill_block main that exhausts
        mid-window all agree across paths."""
        def shape():
            return [
                (HotColdProbe(1024 * 1024, hot_fraction=1.0), True),
                (BubbleProbe(0.0), True),
                (ProbabilisticBenchmark(
                    UniformDist(), 1024 * 1024, n_accesses=3_777), True),
                (CSThr(buffer_bytes=1024 * 1024), False),
            ]

        assert_all_equal(path_prints(shape, [2_500, 3_000], xeon20mb()))

    def test_generator_fallback_bit_identical(self):
        """Threads without fill_block ride the generator refill path on
        both kernels and agree exactly."""
        def shape():
            return [
                (FixedThread(n_chunks=None, size=10, ops=3, name="m"), True),
                (FixedThread(n_chunks=None, size=7, ops=1, name="i"), False),
            ]

        assert_all_equal(path_prints(shape, [500, 700]))

    def test_small_block_size_bit_identical(self, monkeypatch):
        """The smallest block that holds a whole fill_block cycle gives
        the same results as the default block."""
        ref = path_prints(all_workloads, [3_000], xeon20mb(), [REFERENCE])
        monkeypatch.setattr(scheduler_mod, "BLOCK_CHUNKS", 8)
        small = path_prints(all_workloads, [3_000], xeon20mb())
        for label, fp in small.items():
            assert fp == ref["reference"], label


class TestMacroEdgeCases:
    def test_budget_exhausts_mid_block(self):
        """A window budget far smaller than one staged block stops at
        chunk granularity: the first chunk boundary at or past it."""
        for label, kernel, hide in available_paths():
            sched = build_sched(
                [(FixedThread(n_chunks=None, size=10), True)], kernel=kernel
            )
            sched.run(main_access_budget=95)
            assert sched.cores[0].accesses == 100, label  # 10 chunks of 10

    def test_generator_exhausts_mid_block(self):
        """A finite generator shorter than one block finishes with the
        same finish time on every path."""
        def shape():
            return [(FixedThread(n_chunks=10, size=9), True)]

        prints = path_prints(shape, [None])
        assert_all_equal(prints)
        sched = build_sched(shape(), kernel="lists")
        run_windows(sched, [None])
        assert sched.cores[0].accesses == 90

    def test_reopen_after_exhaustion_completes_immediately(self):
        """A main whose generator ran dry stays finished when the window
        reopens — same as calling next() on a spent generator."""
        for label, kernel, hide in available_paths():
            sched = build_sched([
                (FixedThread(n_chunks=5, size=10, name="spent"), True),
                (FixedThread(n_chunks=None, size=10, name="intf"), False),
            ], kernel=kernel)
            sched.run()
            first = sched.cores[0].accesses
            sched.reopen_mains()
            outcome = sched.run(main_access_budget=1_000)
            assert sched.cores[0].accesses == first == 50, label
            assert sched.cores[0].done, label
            assert 0 in outcome.main_finish_ns, label

    def test_interference_runaway_names_offending_core(self):
        """The pre-dispatch safety limit fires before the crossing chunk
        executes and the error names the interference core, on every
        path."""
        for label, kernel, hide in available_paths():
            # Main's first chunk costs ~5000 ops, so after the t=0
            # tie-break the interference core (100-access chunks) is
            # always least-advanced and crosses max_total first.
            sched = build_sched([
                (FixedThread(n_chunks=None, size=1, ops=5000, name="main"), True),
                (FixedThread(n_chunks=None, size=100, ops=1, name="intf"), False),
            ], kernel=kernel)
            with pytest.raises(SimulationError, match=r"core 1 \('intf'\)"):
                sched.run(main_access_budget=10_000, max_total_accesses=250)
            assert sched.fast.counters[1].accesses <= 250, label

    def test_runaway_total_never_overshoots(self):
        for label, kernel, hide in available_paths():
            sched = build_sched(
                [(FixedThread(n_chunks=None, size=10), True)], kernel=kernel
            )
            with pytest.raises(SimulationError, match="exceeded"):
                sched.run(main_access_budget=10_000, max_total_accesses=95)
            assert sched.cores[0].accesses <= 95, label


class TestRosterTieBreak:
    def test_roster_sorted_by_core_id(self):
        socket = tiny_socket(n_cores=8)
        fast = FastSocket(socket)
        space = AddressSpace(line_bytes=socket.line_bytes)
        cores = []
        for cid in (5, 1, 3):
            t = FixedThread(n_chunks=None, size=10, name=f"t{cid}")
            t.start(ThreadContext(
                socket=socket, addrspace=space,
                rng=np.random.default_rng(cid), core_id=cid,
            ))
            cores.append(
                CoreState(core_id=cid, thread=t, gen=t.chunks(), is_main=True)
            )
        sched = Scheduler(fast, cores)
        assert [c.core_id for c in sched.cores] == [1, 3, 5]

    @pytest.mark.parametrize("kernel", ["arrays", "lists"])
    def test_construction_order_does_not_change_results(self, kernel):
        """The t=0 tie-break goes to the lowest core id regardless of the
        order CoreStates were handed to the Scheduler."""
        if kernel == "arrays" and not _ckernel.available():
            pytest.skip("no C toolchain")

        def run_order(order):
            socket = tiny_socket(n_cores=8)
            fast = ArraySocket(socket) if kernel == "arrays" else FastSocket(socket)
            space = AddressSpace(line_bytes=socket.line_bytes)
            cores = {}
            for cid in sorted(order):
                t = FixedThread(n_chunks=None, size=10 + cid, name=f"t{cid}")
                t.start(ThreadContext(
                    socket=socket, addrspace=space,
                    rng=np.random.default_rng(cid), core_id=cid,
                ))
                cores[cid] = CoreState(
                    core_id=cid, thread=t, gen=t.chunks(), is_main=True
                )
            sched = Scheduler(fast, [cores[c] for c in order])
            return fingerprint(sched, run_windows(sched, [400]))

        assert run_order([2, 0, 1]) == run_order([0, 1, 2])


# ---------------------------------------------------------------------------
# Generated rosters: compiled == reference
# ---------------------------------------------------------------------------

class SmallRank(RankApp):
    """A comm-enabled rank with every kind of segment: a stream phase
    whose last chunk is short, uniform and distribution random phases,
    and remote plus local staging sweeps."""

    def buffer_specs(self):
        return [
            BufferSpec("grid", 12 * 1024, elem_bytes=8),
            BufferSpec("table", 4 * 1024, elem_bytes=4),
        ]

    def iteration_phases(self):
        return [
            StreamPhase("grid", passes=1.5, ops_per_access=3),
            RandomPhase("table", n_accesses=300, ops_per_access=5, is_write=True),
            RandomPhase("table", n_accesses=200, ops_per_access=2,
                        distribution=ExponentialDist(8)),
            StreamPhase("table", passes=1.0, ops_per_access=1, is_write=True),
        ]

    def comm_bytes_by_distance(self):
        return {Distance.SOCKET: 3 * 1024, Distance.REMOTE: 5 * 1024}


class TinyMCB(MCBProxy):
    """MCB's phases over its buffers shrunk 256-fold (the tiny socket is
    unscaled, so paper-sized buffers would never finish a phase)."""

    def buffer_specs(self):
        return [
            BufferSpec(s.label, max(s.paper_bytes // 256, 64), s.elem_bytes)
            for s in super().buffer_specs()
        ]


_CLUSTER = xeon20mb_cluster(n_nodes=32)


def comm_env(n_ranks):
    return CommEnv(
        comm_model=CommModel.for_network(_CLUSTER.network),
        noise=NoiseModel(),  # sigma > 0: each iteration draws a jitter
        n_ranks=n_ranks,
    )


def with_quantum(thread, q):
    thread.quantum = q
    return thread


#: Workload factories by roster name, sized for the 16 KiB-L3 tiny socket
#: so every level of the hierarchy sees traffic.
WORKLOADS = {
    "rank": lambda q: with_quantum(
        SmallRank(n_iterations=3, comm_env=comm_env(8)), q
    ),
    "mcb": lambda q: with_quantum(TinyMCB(
        n_particles=240, n_ranks=24, mapping=ProcessMapping(_CLUSTER, 24, 4),
        comm_env=comm_env(24),
    ), q),
    "lulesh": lambda q: with_quantum(LuleshProxy(
        edge=4, n_ranks=64, mapping=ProcessMapping(_CLUSTER, 64, 2),
        comm_env=comm_env(64),
    ), q),
    "probe": lambda q: ProbabilisticBenchmark(UniformDist(), 64 * 1024, quantum=q),
    "csthr": lambda q: CSThr(buffer_bytes=32 * 1024, quantum=q),
    "bwthr": lambda q: BWThr(buffer_bytes=8 * 1024, n_buffers=3, quantum=q),
    "triad": lambda q: StreamTriad(array_bytes=16 * 1024, quantum=q),
    "hotcold": lambda q: HotColdProbe(8 * 1024, hot_fraction=0.9, quantum=q),
    "chase": lambda q: PointerChase(32 * 1024, quantum=q),
    "bubble": lambda q: BubbleProbe(0.5, resident_bytes=16 * 1024, quantum=q),
}

roster_strategy = st.lists(
    st.tuples(
        st.sampled_from(sorted(WORKLOADS)),
        st.booleans(),                              # main?
        st.sampled_from([4, 16, 64, 256]),          # quantum
    ),
    min_size=1,
    max_size=8,
)


@needs_c
@given(
    roster=roster_strategy,
    seed=st.integers(min_value=0, max_value=2**16),
    warmup=st.integers(min_value=0, max_value=2_000),
    measure=st.integers(min_value=1, max_value=3_000),
    hide_compiled=st.booleans(),
    hide_reference=st.booleans(),
)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_generated_rosters_compiled_match_reference(
    roster, seed, warmup, measure, hide_compiled, hide_reference
):
    """Random 1-8 core rosters, seeds, quanta, warm-up/measure budgets
    and fill_block on or hidden: counters bit-identical and finish times
    hex-equal between the compiled and the reference path."""
    # The first thread is always a main, so every roster has one.
    flags = [True] + [is_main for _, is_main, _ in roster[1:]]
    budgets = ([warmup] if warmup else []) + [measure]

    def shape():
        return [
            (WORKLOADS[name](quantum), main)
            for (name, _, quantum), main in zip(roster, flags)
        ]

    prints = {}
    for kernel, hide in (("arrays", hide_compiled), ("lists", hide_reference)):
        sched = build_sched(shape(), kernel=kernel, hide_fill=hide, seed0=seed)
        prints[kernel] = fingerprint(sched, run_windows(sched, budgets))
    assert prints["arrays"] == prints["lists"]
