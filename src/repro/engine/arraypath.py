"""Array-native single-socket simulation kernel.

:class:`ArraySocket` is a drop-in replacement for
:class:`~repro.engine.fastpath.FastSocket` (the reference list kernel)
that keeps every piece of mutable simulation state in flat, preallocated,
C-contiguous buffers:

- per-level **tag arrays** (``int64``, one slot per cache way, sets laid
  out consecutively) plus **monotonic age counters**: LRU victim = the
  first min-age slot of the set (a branch-free scan with strict ``<``).
  Empty slots carry age 0 and are therefore filled first, in slot order,
  which reproduces the list kernel's append-then-evict recency order
  exactly (cross-validated bit-for-bit by
  ``tests/engine/test_kernel_equivalence.py``);
- a **line-state byte** (``uint8``) per line address, grown on demand:
  bit 0 is the dirty bit and bits 1-7 hold the line's L3 way + 1 (0 = not
  in L3), so the compiled loop finds an L3 line without scanning its set.
  Prefetch candidates outside the table (negative, or past its end) are
  the only L3 lookups that still scan; growing the table marks those
  already resident. Seven bits cap the L3 at :data:`MAX_L3_WAYS` ways;
- **arrival slots** (``float64``, one per L3 way) replacing the staged-
  line dict: a line with a pending link transfer is always still
  L3-resident (staging inserts it; consumption or eviction pops it), so
  the arrival time can live with the L3 slot itself;
- small **register blocks** holding the bandwidth arbiter's controller
  state and the per-core stride-prefetcher stream tables, so the Python
  views (:class:`_ArbiterView`) and the compiled loop share one source of
  truth.

The hot loop over this state is a small C function compiled on first use
from :mod:`repro.engine._ckernel` (stdlib ``ctypes``, no build
dependency), ~20x the list kernel's throughput. It mirrors the list
kernel's floating-point operation order exactly (the C build disables FP
contraction), so per-chunk finish times and all event counters are
bit-identical to the list kernel, not merely within tolerance. Runs of
repeated accesses to one line take a *hit-streak fast path*: after the
first L1 MRU hit the loop charges the remaining repeats' time directly,
skipping tag probes and LRU updates they cannot change.

Kernel selection for simulators goes through :func:`make_socket_kernel`,
driven by the ``REPRO_KERNEL`` env var (``arrays`` | ``lists``) which
overrides :attr:`repro.config.SocketConfig.kernel` (default ``arrays``).
Without a C compiler the list kernel is the only one there is.
"""

from __future__ import annotations

import ctypes
import os
import warnings
from typing import Callable, Dict, Optional, Union

import numpy as np

from ..config import SocketConfig
from ..errors import ConfigError
from ..mem.counters import CoreCounters, SocketCounters
from . import _ckernel
from .chunk import AccessChunk
from .envconf import env_choice
from .fastpath import FastSocket

EMPTY_TAG = _ckernel.EMPTY_TAG

#: Initial line-state table capacity (line addresses); doubled on demand.
_LSTATE_CAP0 = 1 << 16

#: Most L3 ways the line-state byte can name (bits 1-7 hold way + 1).
MAX_L3_WAYS = 127

# aregs slots (float64)
_A_HWM, _A_WSTART, _A_RHO, _A_RHO_S, _A_DELAY, _A_KNEE, _A_BUSY = range(7)
# airegs slots (int64)
_AI_WCOUNT, _AI_WDEMAND, _AI_FILL_B, _AI_WB_B = range(4)


class _ArbiterView:
    """:class:`~repro.mem.bandwidth.BandwidthArbiter` API over the array
    kernel's shared register blocks.

    The controller state lives in ``aregs``/``airegs`` so the compiled
    loop and this view always agree; the arithmetic below is an exact
    transliteration of ``BandwidthArbiter`` (the node kernel charges
    remote fills through it; the C loop runs the same expressions
    natively).
    """

    WINDOW_FILLS = 512
    MIN_WINDOW_SPAN_NS = 16384.0
    DELAY_DAMPING = 0.7
    MAX_DELAY_SERVICES = 512.0

    def __init__(self, socket: SocketConfig, aregs: np.ndarray, airegs: np.ndarray):
        self.line_bytes = socket.line_bytes
        self.capacity_Bps = socket.dram_bandwidth_Bps
        self.service_ns = socket.line_bytes / socket.dram_bandwidth_Bps * 1e9
        self._a = aregs
        self._ai = airegs

    # -- counters (read via properties so the C loop's updates show) --------

    @property
    def busy_ns(self) -> float:
        return float(self._a[_A_BUSY])

    @property
    def fill_bytes(self) -> int:
        return int(self._ai[_AI_FILL_B])

    @property
    def writeback_bytes(self) -> int:
        return int(self._ai[_AI_WB_B])

    # -- core ---------------------------------------------------------------

    def request_fill(self, now_ns: float, demand: bool = True) -> float:
        a, ai = self._a, self._ai
        if now_ns > a[_A_HWM]:
            a[_A_HWM] = now_ns
        ai[_AI_WCOUNT] += 1
        if demand:
            ai[_AI_WDEMAND] += 1
        span = float(a[_A_HWM]) - float(a[_A_WSTART])
        if ai[_AI_WCOUNT] >= self.WINDOW_FILLS and span >= self.MIN_WINDOW_SPAN_NS:
            n = int(ai[_AI_WCOUNT])
            a[_A_RHO] = n * self.service_ns / span
            deficit_ns = n * self.service_ns - span
            correction = deficit_ns / max(int(ai[_AI_WDEMAND]), 1)
            delay = float(a[_A_DELAY]) + self.DELAY_DAMPING * correction
            max_delay = self.MAX_DELAY_SERVICES * self.service_ns
            a[_A_DELAY] = min(max(delay, 0.0), max_delay)
            rho_smooth = float(a[_A_RHO_S]) + 0.3 * (float(a[_A_RHO]) - float(a[_A_RHO_S]))
            a[_A_RHO_S] = rho_smooth
            rho_k = min(rho_smooth, 0.97)
            target = self.service_ns * rho_k * rho_k / (1.0 - rho_k)
            a[_A_KNEE] = float(a[_A_KNEE]) + 0.25 * (target - float(a[_A_KNEE]))
            a[_A_WSTART] = a[_A_HWM]
            ai[_AI_WCOUNT] = 0
            ai[_AI_WDEMAND] = 0
        a[_A_BUSY] += self.service_ns
        ai[_AI_FILL_B] += self.line_bytes
        return float(a[_A_DELAY]) + float(a[_A_KNEE])

    # -- inspection ---------------------------------------------------------

    def offered_rho(self) -> float:
        return float(self._a[_A_RHO])

    def current_delay_ns(self) -> float:
        return float(self._a[_A_DELAY]) + float(self._a[_A_KNEE])

    def utilization(self, window_ns: float) -> float:
        # Unclamped, matching BandwidthArbiter (DESIGN decision 10):
        # over-unity busy fractions are accounting errors and must show.
        return self.busy_ns / window_ns if window_ns > 0 else 0.0

    def reset_counters(self) -> None:
        self._a[_A_BUSY] = 0.0
        self._ai[_AI_FILL_B] = 0
        self._ai[_AI_WB_B] = 0


class _PrefetcherView:
    """Per-core view of the shared stream-table arrays (introspection
    parity with :class:`~repro.mem.prefetch.StridePrefetcher`)."""

    def __init__(self, owner: "ArraySocket", core: int):
        self._owner = owner
        self._core = core
        self.config = owner.socket.prefetch

    @property
    def issued_batches(self) -> int:
        return int(self._owner._pf_issued[self._core])

    def reset(self) -> None:
        self._owner._pf_count[self._core] = 0
        self._owner._pf_issued[self._core] = 0


class ArraySocket:
    """Array-native socket kernel; public API matches ``FastSocket``.

    Parameters
    ----------
    socket:
        Machine description (geometry, timing, prefetch, bandwidth).
    track_owner:
        Maintain a last-toucher owner tag per resident L3 slot for
        :meth:`l3_occupancy_by_owner`.

    Raises :class:`~repro.errors.ConfigError` when the C kernel cannot be
    loaded (no compiler, or ``REPRO_NO_CKERNEL`` set).
    """

    def __init__(self, socket: SocketConfig, track_owner: bool = False):
        self.socket = socket
        n = socket.n_cores
        lib = _ckernel.load()
        if lib is None:
            raise ConfigError(
                "the array kernel needs the compiled C kernel: "
                f"{_no_ckernel_cause()} (use REPRO_KERNEL=lists)"
            )
        self._lib = lib

        s1, w1 = socket.l1.n_sets, socket.l1.ways
        s2, w2 = socket.l2.n_sets, socket.l2.ways
        s3, w3 = socket.l3.n_sets, socket.l3.ways
        if w3 > MAX_L3_WAYS:
            raise ConfigError(
                f"the array kernel supports at most {MAX_L3_WAYS} L3 ways "
                f"(got {w3}); use REPRO_KERNEL=lists"
            )
        ns = socket.prefetch.n_streams
        self._l1_mask, self._l2_mask, self._l3_mask = s1 - 1, s2 - 1, s3 - 1
        self._w1, self._w2, self._w3 = w1, w2, w3
        self._blk1, self._blk2 = s1 * w1, s2 * w2

        self._tags1 = np.full(n * s1 * w1, EMPTY_TAG, dtype=np.int64)
        self._ages1 = np.zeros(n * s1 * w1, dtype=np.int64)
        self._tags2 = np.full(n * s2 * w2, EMPTY_TAG, dtype=np.int64)
        self._ages2 = np.zeros(n * s2 * w2, dtype=np.int64)
        self._tags3 = np.full(s3 * w3, EMPTY_TAG, dtype=np.int64)
        self._ages3 = np.zeros(s3 * w3, dtype=np.int64)
        self._owner3: Optional[np.ndarray] = (
            np.full(s3 * w3, -1, dtype=np.int64) if track_owner else None
        )
        self._arrival3 = np.full(s3 * w3, -1.0, dtype=np.float64)
        # Per line address: bit 0 dirty, bits 1-7 the line's L3 way + 1
        # (0 = not in L3), kept in step with _tags3 by the C loop.
        self._lstate = np.zeros(_LSTATE_CAP0, dtype=np.uint8)
        self._lstate_cap = _LSTATE_CAP0

        # [0]=L3 age counter, [1]=pending staged-line count,
        # [2+2c]/[3+2c]=core c's L1/L2 age counters.
        self._iregs = np.zeros(2 + 2 * n, dtype=np.int64)
        self._aregs = np.zeros(7, dtype=np.float64)
        self._airegs = np.zeros(4, dtype=np.int64)

        self._pf_sid = np.zeros(n * ns, dtype=np.int64)
        self._pf_last = np.zeros(n * ns, dtype=np.int64)
        self._pf_stride = np.zeros(n * ns, dtype=np.int64)
        self._pf_streak = np.zeros(n * ns, dtype=np.int64)
        self._pf_expected = np.zeros(n * ns, dtype=np.int64)
        self._pf_order = np.zeros(n * ns, dtype=np.int64)
        self._pf_count = np.zeros(n, dtype=np.int64)
        self._pf_issued = np.zeros(n, dtype=np.int64)

        self.arbiter = _ArbiterView(socket, self._aregs, self._airegs)
        self.prefetchers = [_PrefetcherView(self, c) for c in range(n)]
        self.counters = [CoreCounters() for _ in range(n)]

        t = socket.timing
        self._ns_per_op = t.ns_per_op
        self._l1_ns = t.l1_hit_ns
        self._l2_ns = t.l2_hit_ns
        self._l3_ns = t.l3_hit_ns
        self._pf_ns = t.prefetch_hit_ns
        self._dram_ns = t.dram_latency_ns / t.mlp
        self._dram_serial_ns = t.dram_latency_ns

        self._out = np.zeros(7, dtype=np.int64)
        self._ks = self._build_struct()
        self._ksp = ctypes.pointer(self._ks)
        self._outp = self._out.ctypes.data

    # -- C plumbing ----------------------------------------------------------

    def _build_struct(self) -> "_ckernel.KStruct":
        s = self.socket
        ks = _ckernel.KStruct()
        ks.tags1 = self._tags1.ctypes.data
        ks.ages1 = self._ages1.ctypes.data
        ks.tags2 = self._tags2.ctypes.data
        ks.ages2 = self._ages2.ctypes.data
        ks.tags3 = self._tags3.ctypes.data
        ks.ages3 = self._ages3.ctypes.data
        ks.owner3 = self._owner3.ctypes.data if self._owner3 is not None else None
        ks.arrival3 = self._arrival3.ctypes.data
        ks.lstate = self._lstate.ctypes.data
        ks.iregs = self._iregs.ctypes.data
        ks.aregs = self._aregs.ctypes.data
        ks.airegs = self._airegs.ctypes.data
        ks.pf_sid = self._pf_sid.ctypes.data
        ks.pf_last = self._pf_last.ctypes.data
        ks.pf_stride = self._pf_stride.ctypes.data
        ks.pf_streak = self._pf_streak.ctypes.data
        ks.pf_expected = self._pf_expected.ctypes.data
        ks.pf_order = self._pf_order.ctypes.data
        ks.pf_count = self._pf_count.ctypes.data
        ks.pf_issued = self._pf_issued.ctypes.data
        ks.l1_mask, ks.l2_mask, ks.l3_mask = self._l1_mask, self._l2_mask, self._l3_mask
        ks.w1, ks.w2, ks.w3 = self._w1, self._w2, self._w3
        ks.blk1, ks.blk2 = self._blk1, self._blk2
        ks.lstate_cap = self._lstate_cap
        ks.l1_ns, ks.l2_ns, ks.l3_ns = self._l1_ns, self._l2_ns, self._l3_ns
        ks.pf_ns = self._pf_ns
        ks.service_ns = self.arbiter.service_ns
        ks.window_fills = _ArbiterView.WINDOW_FILLS
        ks.min_window_span = _ArbiterView.MIN_WINDOW_SPAN_NS
        ks.damping = _ArbiterView.DELAY_DAMPING
        ks.max_delay_services = _ArbiterView.MAX_DELAY_SERVICES
        ks.line_bytes = s.line_bytes
        ks.throttle_wb = 1 if s.throttle_writebacks else 0
        ks.pf_enabled = 1 if s.prefetch.enabled else 0
        ks.pf_degree = s.prefetch.degree
        ks.pf_detect_after = s.prefetch.detect_after
        ks.pf_nstreams = s.prefetch.n_streams
        return ks

    def _grow_line_state(self, max_line: int) -> None:
        old_cap = new_cap = self._lstate_cap
        while new_cap <= max_line:
            new_cap *= 2
        grown = np.zeros(new_cap, dtype=np.uint8)
        grown[:old_cap] = self._lstate
        # Prefetches may have staged lines beyond the old table; those
        # now inside it need their L3 way marked (they are not dirty).
        tags = self._tags3
        slots = np.flatnonzero((tags >= old_cap) & (tags < new_cap))
        grown[tags[slots]] = ((slots % self._w3 + 1) << 1).astype(np.uint8)
        self._lstate = grown
        self._lstate_cap = new_cap
        self._ks.lstate = self._lstate.ctypes.data
        self._ks.lstate_cap = new_cap

    def ensure_line_capacity(self, lines: np.ndarray) -> None:
        """Validate a batch of line addresses and pre-grow the line-state
        table to cover them.

        The macro-stepped scheduler calls this once per refilled block:
        the compiled loops index the line state of demand lines
        unguarded, so the capacity check that :meth:`run_chunk` performs
        per chunk must happen before a whole block is handed to
        ``sched_step``.
        """
        if lines.size == 0:
            return
        if int(lines.min()) < 0:
            raise ValueError(
                "array kernel: negative line addresses are not supported"
            )
        max_line = int(lines.max())
        if max_line >= self._lstate_cap:
            self._grow_line_state(max_line)

    # -- hot loop ------------------------------------------------------------

    def run_chunk(self, core: int, chunk: AccessChunk, now_ns: float) -> float:
        """Execute ``chunk`` on ``core`` starting at ``now_ns``; returns
        the simulated completion time (identical semantics and float
        results to :meth:`FastSocket.run_chunk`)."""
        lines = chunk.lines
        if isinstance(lines, np.ndarray):
            if lines.dtype != np.int64 or not lines.flags.c_contiguous:
                lines = np.ascontiguousarray(lines, dtype=np.int64)
        else:
            lines = np.asarray(lines, dtype=np.int64)
        n = int(lines.size)
        if n:
            max_line = int(lines.max())
            if max_line >= self._lstate_cap:
                if int(lines.min()) < 0:
                    raise ValueError(
                        "array kernel: negative line addresses are not supported"
                    )
                self._grow_line_state(max_line)
            elif int(lines.min()) < 0:
                raise ValueError(
                    "array kernel: negative line addresses are not supported"
                )

        ops_ns = chunk.ops_per_access * self._ns_per_op
        dram_ns = self._dram_serial_ns if chunk.serialize else self._dram_ns
        t0 = now_ns + chunk.extra_ns
        w = chunk.is_write

        t = self._lib.run_chunk(
            self._ksp, core, lines.ctypes.data, n,
            1 if w else 0, 1 if chunk.prefetchable else 0, chunk.stream_id,
            ops_ns, dram_ns, t0, self._outp,
        )
        out = self._out
        n_l1, n_l2, n_l3 = int(out[0]), int(out[1]), int(out[2])
        n_pf, n_miss = int(out[3]), int(out[4])
        n_pfill, n_wb = int(out[5]), int(out[6])

        c = self.counters[core]
        c.accesses += n
        c.l1_hits += n_l1
        c.l2_hits += n_l2
        c.l3_hits += n_l3
        c.prefetch_hits += n_pf
        c.l3_misses += n_miss
        c.prefetch_fills += n_pfill
        c.writebacks += n_wb
        c.compute_ops += n * chunk.ops_per_access
        c.compute_ns += n * ops_ns
        c.offsocket_ns += chunk.extra_ns
        c.stall_ns += (t - now_ns) - n * ops_ns - chunk.extra_ns
        c.elapsed_ns += t - now_ns
        return t

    # -- inspection / control -------------------------------------------------

    def l3_resident_count(self) -> int:
        """Number of lines currently resident in the shared L3."""
        return int((self._tags3 != EMPTY_TAG).sum())

    def l3_occupancy_by_owner(self) -> Dict[int, int]:
        """L3 lines held per core (requires ``track_owner=True``)."""
        if self._owner3 is None:
            raise ValueError("ArraySocket was created without track_owner")
        occupied = self._tags3 != EMPTY_TAG
        owners, counts = np.unique(self._owner3[occupied], return_counts=True)
        return {int(o): int(c) for o, c in zip(owners, counts)}

    def l3_contains(self, line_addr: int) -> bool:
        b = (line_addr & self._l3_mask) * self._w3
        return bool((self._tags3[b:b + self._w3] == line_addr).any())

    def reset_counters(self) -> None:
        """Zero all event counters, keeping cache/link state (used to
        separate warm-up from the measurement window)."""
        for c in self.counters:
            c.reset()
        self.arbiter.reset_counters()

    def flush_caches(self) -> None:
        """Empty every cache level and prefetcher (cold restart)."""
        self._tags1.fill(EMPTY_TAG)
        self._ages1.fill(0)
        self._tags2.fill(EMPTY_TAG)
        self._ages2.fill(0)
        self._tags3.fill(EMPTY_TAG)
        self._ages3.fill(0)
        if self._owner3 is not None:
            self._owner3.fill(-1)
        self._arrival3.fill(-1.0)
        self._lstate.fill(0)
        self._iregs.fill(0)
        self._pf_count.fill(0)
        self._pf_issued.fill(0)

    def socket_counters(self, elapsed_ns: float) -> SocketCounters:
        """Aggregate snapshot over a window of ``elapsed_ns``."""
        return SocketCounters(
            cores=[c.snapshot() for c in self.counters],
            link_fill_bytes=self.arbiter.fill_bytes,
            link_writeback_bytes=self.arbiter.writeback_bytes,
            link_busy_ns=self.arbiter.busy_ns,
            elapsed_ns=elapsed_ns,
        )


SocketKernel = Union[FastSocket, ArraySocket]


class _SchedBinding:
    """The compiled scheduler's SCH struct bound to one kernel and one
    macro-state. Built once per macro-state (the arrays it points at
    never move) and reused for every window; only the queue line arena —
    reallocated by ``grow_lines`` — and the Python-side scalar mirrors
    need refreshing around each crossing."""

    def __init__(self, fast: ArraySocket, st):
        self.fast = fast
        self.st = st
        q = st.q
        sch = _ckernel.SCHStruct()
        sch.core_ids = st.core_ids.ctypes.data
        sch.clock = st.clock.ctypes.data
        sch.accesses = st.accesses.ctypes.data
        sch.flags = st.flags.ctypes.data
        sch.finish = st.finish.ctypes.data
        sch.goal = st.goal.ctypes.data
        sch.head = q.head.ctypes.data
        sch.count = q.count.ctypes.data
        sch.qoff = q.off.ctypes.data
        sch.qlen = q.clen.ctypes.data
        sch.qwrite = q.cwrite.ctypes.data
        sch.qops = q.cops.ctypes.data
        sch.qsid = q.csid.ctypes.data
        sch.qser = q.cser.ctypes.data
        sch.qpf = q.cpf.ctypes.data
        sch.qextra = q.cextra.ctypes.data
        sch.cnt = st.cnt.ctypes.data
        sch.fcnt = st.fcnt.ctypes.data
        sch.n = q.n_slots
        sch.chunk_cap = q.chunk_cap
        sch.ns_per_op = fast._ns_per_op
        sch.dram_mlp_ns = fast._dram_ns
        sch.dram_serial_ns = fast._dram_serial_ns
        self.sch = sch
        self._schp = ctypes.byref(sch)
        self._bound_generation = -1  # force a qlines refresh on first call

    def step(self, max_steps: int) -> int:
        sch, q, st = self.sch, self.st.q, self.st
        if self._bound_generation != q.generation:
            # A refill reallocated the line arena: rebind it.
            sch.qlines = q.lines.ctypes.data
            sch.line_cap = q.line_cap
            self._bound_generation = q.generation
        sch.max_total = st.max_total
        sch.total = st.total
        sch.active_mains = st.active_mains
        status = int(
            self.fast._lib.sched_step(
                self.fast._ksp, self._schp, max_steps, self.fast._outp
            )
        )
        st.total = int(sch.total)
        st.active_mains = int(sch.active_mains)
        st.event = int(sch.event)
        return status


def bind_sched_step(fast: SocketKernel, st) -> Optional[Callable[[int], int]]:
    """Bind the compiled ``sched_step`` to ``fast`` and a scheduler
    macro-state ``st`` (see :class:`repro.engine.scheduler._MacroState`).

    Returns a ``step(max_steps) -> status`` callable, or ``None`` when
    ``fast`` has no compiled loop (list and node kernels), in which case
    the scheduler runs its pure-Python mirror.
    """
    if not isinstance(fast, ArraySocket):
        return None
    return _SchedBinding(fast, st).step


_warned_fallback = False


def _no_ckernel_cause() -> str:
    """Why :func:`repro.engine._ckernel.load` returned None."""
    if os.environ.get("REPRO_NO_CKERNEL"):
        return "REPRO_NO_CKERNEL is set"
    return "no C compiler was found or the build failed"


def resolve_kernel_name(socket: SocketConfig) -> str:
    """Kernel choice: ``REPRO_KERNEL`` env var, else ``socket.kernel``."""
    return env_choice(
        "REPRO_KERNEL",
        ("arrays", "lists"),
        getattr(socket, "kernel", "arrays"),
        label="REPRO_KERNEL/SocketConfig.kernel",
    )


def make_socket_kernel(socket: SocketConfig, track_owner: bool = False) -> SocketKernel:
    """Build the simulation kernel selected by ``REPRO_KERNEL`` /
    :attr:`SocketConfig.kernel`.

    ``arrays`` (the default) uses :class:`ArraySocket` with the compiled
    hot loop. When no C compiler is available the *implicit* default
    warns once and falls back to :class:`FastSocket`; an explicit
    ``REPRO_KERNEL=arrays`` raises :class:`~repro.errors.ConfigError`
    instead. Both kernels are cross-validated bit-for-bit, so this only
    ever affects throughput.
    """
    global _warned_fallback
    name = resolve_kernel_name(socket)
    if name == "lists":
        return FastSocket(socket, track_owner=track_owner)
    if _ckernel.load() is not None or os.environ.get("REPRO_KERNEL", "").strip():
        return ArraySocket(socket, track_owner=track_owner)
    if not _warned_fallback:
        _warned_fallback = True
        warnings.warn(
            f"{_no_ckernel_cause()}: falling back to the list kernel",
            RuntimeWarning,
            stacklevel=2,
        )
    return FastSocket(socket, track_owner=track_owner)
