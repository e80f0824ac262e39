"""Three-way kernel equivalence: object hierarchy ↔ list kernel ↔ array kernel.

The array-native engine (``repro.engine.arraypath.ArraySocket``, whose
hot loop is compiled C) must be *bit-identical* to the reference list kernel
(``FastSocket``) on every event counter, and its per-chunk finish times
must agree within 1e-9 relative tolerance (DESIGN.md; in practice the C
loop mirrors CPython's operand order and is compiled with
``-ffp-contract=off``, so the times come out exactly equal on every
platform tested). The list kernel in turn is validated against the
object hierarchy in ``test_fastpath_equivalence.py``; the short
hierarchy leg here closes the triangle directly for the array kernel.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheGeometry, PrefetchConfig, tiny_socket, xeon20mb
from repro.engine import AccessChunk, ArraySocket, FastSocket, make_socket_kernel
from repro.engine import _ckernel, arraypath
from repro.engine.arraypath import resolve_kernel_name
from repro.errors import ConfigError
from repro.mem import DRAM, L1, L2, L3, SocketHierarchy
from repro.workloads import table_ii_distributions

INT_COUNTERS = (
    "accesses", "l1_hits", "l2_hits", "l3_hits", "prefetch_hits",
    "l3_misses", "prefetch_fills", "writebacks", "compute_ops",
)
NS_COUNTERS = ("stall_ns", "compute_ns", "elapsed_ns")

REL_TOL = 1e-9

needs_c = pytest.mark.skipif(not _ckernel.available(), reason="no C toolchain")


def drive(kernel, chunks, cores=None):
    """Run ``chunks`` through ``kernel``; returns per-chunk finish times."""
    if cores is None:
        cores = [0] * len(chunks)
    t, times = 0.0, []
    for core, chunk in zip(cores, chunks):
        t = kernel.run_chunk(core, chunk, t)
        times.append(t)
    return times


def assert_equivalent(ref, other, ref_times, other_times, n_cores=1,
                      owners=False):
    """Counters bit-identical, times within REL_TOL, shared state equal."""
    assert other_times == pytest.approx(ref_times, rel=REL_TOL, abs=0.0)
    for core in range(n_cores):
        a, b = ref.counters[core], other.counters[core]
        for f in INT_COUNTERS:
            assert getattr(a, f) == getattr(b, f), f"core {core} {f}"
        for f in NS_COUNTERS:
            assert getattr(b, f) == pytest.approx(
                getattr(a, f), rel=REL_TOL, abs=0.0
            ), f"core {core} {f}"
    assert ref.arbiter.fill_bytes == other.arbiter.fill_bytes
    assert ref.arbiter.writeback_bytes == other.arbiter.writeback_bytes
    assert other.arbiter.busy_ns == pytest.approx(
        ref.arbiter.busy_ns, rel=REL_TOL, abs=0.0
    )
    assert ref.l3_resident_count() == other.l3_resident_count()
    if owners:
        assert ref.l3_occupancy_by_owner() == other.l3_occupancy_by_owner()


def pair(socket, **kw):
    return FastSocket(socket, **kw), ArraySocket(socket, **kw)


# ---------------------------------------------------------------------------
# List kernel ↔ array kernel
# ---------------------------------------------------------------------------


@needs_c
@pytest.mark.parametrize("dist_name", sorted(table_ii_distributions()))
def test_table_ii_distribution_traffic_matches(dist_name):
    """Every Table II access pattern produces bit-identical counters."""
    dist = table_ii_distributions()[dist_name]
    socket = tiny_socket()
    rng = np.random.default_rng(11)
    n_lines = socket.l3.n_sets * socket.l3.ways * 2  # 2x L3 capacity
    chunks = [
        AccessChunk(
            lines=dist.sample(rng, 256, n_lines),
            is_write=(i % 2 == 0),
            ops_per_access=6,
            prefetchable=False,
        )
        for i in range(40)
    ]
    fast, arr = pair(socket)
    assert_equivalent(fast, arr, drive(fast, chunks), drive(arr, chunks))


@needs_c
def test_dirty_writeback_equivalence():
    """Write traffic overflowing every level must evict dirty lines
    identically (writeback counter and arbiter writeback bytes)."""
    socket = tiny_socket()
    rng = np.random.default_rng(3)
    cap = socket.l3.n_sets * socket.l3.ways
    chunks = [
        AccessChunk(lines=rng.integers(0, 3 * cap, size=200),
                    is_write=True, prefetchable=False)
        for _ in range(30)
    ]
    fast, arr = pair(socket)
    assert_equivalent(fast, arr, drive(fast, chunks), drive(arr, chunks))
    assert fast.counters[0].writebacks > 0
    assert fast.arbiter.writeback_bytes > 0


@needs_c
def test_multicore_shared_l3_owner_eviction():
    """Four cores fighting over the shared L3 with owner tracking on:
    cross-core evictions must transfer ownership identically."""
    socket = tiny_socket(n_cores=4)
    rng = np.random.default_rng(5)
    cap = socket.l3.n_sets * socket.l3.ways
    chunks, cores = [], []
    for i in range(60):
        core = i % 4
        base = core * cap // 3  # overlapping per-core footprints
        chunks.append(AccessChunk(
            lines=base + rng.integers(0, cap, size=150),
            is_write=(core % 2 == 0), prefetchable=False,
        ))
        cores.append(core)
    fast, arr = pair(socket, track_owner=True)
    assert_equivalent(
        fast, arr, drive(fast, chunks, cores), drive(arr, chunks, cores),
        n_cores=4, owners=True,
    )
    assert len(fast.l3_occupancy_by_owner()) > 1


@needs_c
def test_serialized_pointer_chase_chunks_match():
    """serialize=True (dependence-chained misses) charges full DRAM
    latency per miss; the timing paths must agree."""
    socket = tiny_socket()
    rng = np.random.default_rng(8)
    chunks = [
        AccessChunk(lines=rng.integers(0, 4096, size=128),
                    serialize=True, ops_per_access=2, prefetchable=False)
        for _ in range(25)
    ]
    fast, arr = pair(socket)
    assert_equivalent(fast, arr, drive(fast, chunks), drive(arr, chunks))


@needs_c
def test_prefetched_stream_with_hit_streaks_matches():
    """Prefetcher staging/consumption plus the array kernel's hit-streak
    fast path (repeated lines) against the list kernel."""
    socket = xeon20mb()
    chunks = []
    pos = 1_000_000
    for i in range(50):
        if i % 3 == 2:
            # Long runs of the same line exercise the streak batching.
            base = np.arange(20, dtype=np.int64) * 97
            chunks.append(AccessChunk(lines=np.repeat(base, 10),
                                      is_write=True))
        else:
            chunks.append(AccessChunk(
                lines=np.arange(pos, pos + 7 * 128, 7, dtype=np.int64),
                is_write=True, ops_per_access=39, stream_id=1,
            ))
            pos += 7 * 128
    fast, arr = pair(socket)
    assert_equivalent(fast, arr, drive(fast, chunks), drive(arr, chunks))
    assert fast.counters[0].prefetch_hits > 0


@needs_c
def test_lru_state_carries_across_chunk_boundaries():
    """The same trace split at different chunk granularities must leave
    identical cache state and counters — chunking is a scheduling
    artifact, not a semantic one."""
    socket = tiny_socket()
    rng = np.random.default_rng(13)
    trace = rng.integers(0, 2000, size=6000)
    results = []
    for quantum in (1, 7, 256, 6000):
        fast, arr = pair(socket)
        chunks = [
            AccessChunk(lines=trace[i:i + quantum], is_write=True,
                        prefetchable=False)
            for i in range(0, len(trace), quantum)
        ]
        assert_equivalent(fast, arr, drive(fast, chunks), drive(arr, chunks))
        c = fast.counters[0]
        results.append(tuple(getattr(c, f) for f in INT_COUNTERS)
                       + (fast.l3_resident_count(),))
    assert all(r == results[0] for r in results)


@needs_c
def test_python_backend_matches_list_kernel(monkeypatch):
    """The pure-Python backend picked when no C kernel loads (the implicit
    default's fallback) is the list kernel, and it is exact against the
    compiled loop, not just close."""
    socket = tiny_socket()
    rng = np.random.default_rng(21)
    chunks = [
        AccessChunk(lines=rng.integers(0, 1500, size=100),
                    is_write=(i % 2 == 0), prefetchable=False)
        for i in range(10)
    ]
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    arr = make_socket_kernel(socket)
    assert isinstance(arr, ArraySocket)
    monkeypatch.setattr(_ckernel, "load", lambda: None)
    monkeypatch.setattr(arraypath, "_warned_fallback", False)
    with pytest.warns(RuntimeWarning, match="list kernel"):
        py = make_socket_kernel(socket)
    assert isinstance(py, FastSocket)
    assert_equivalent(py, arr, drive(py, chunks), drive(arr, chunks))


@needs_c
def test_c_backend_matches_python_backend():
    """All-write, prefetchable traffic: the compiled loop against the
    pure-Python list kernel."""
    socket = tiny_socket()
    rng = np.random.default_rng(22)
    chunks = [
        AccessChunk(lines=rng.integers(0, 1500, size=100), is_write=True)
        for _ in range(10)
    ]
    py, c = pair(socket)
    assert_equivalent(py, c, drive(py, chunks), drive(c, chunks))


# ---------------------------------------------------------------------------
# Line-state byte: the O(1) L3 way index must track _tags3 exactly
# ---------------------------------------------------------------------------

CAP0 = arraypath._LSTATE_CAP0


def assert_line_state_consistent(arr):
    """Every in-table L3 resident has its way in the line-state byte, and
    every way recorded there names a slot holding that line."""
    tags, w3, ls = arr._tags3, arr._w3, arr._lstate
    cap = arr._lstate_cap
    slots = np.flatnonzero((tags >= 0) & (tags < cap))
    assert np.array_equal(ls[tags[slots]] >> 1, slots % w3 + 1)
    marked = np.flatnonzero(ls >> 1)
    at = (marked & arr._l3_mask) * w3 + (ls[marked] >> 1).astype(np.int64) - 1
    assert np.array_equal(tags[at], marked)


def stream(lo, n, stride, write=False, sid=1):
    return AccessChunk(lines=lo + stride * np.arange(n, dtype=np.int64),
                       is_write=write, ops_per_access=3, stream_id=sid)


def drive_checked(fast, arr, chunks, cores=None):
    """:func:`drive` both kernels chunk by chunk, checking the array
    kernel's line state after every chunk; returns both time lists."""
    cores = cores or [0] * len(chunks)
    clocks = [[0.0] * fast.socket.n_cores, [0.0] * arr.socket.n_cores]
    times = [], []
    for core, chunk in zip(cores, chunks):
        for k, kernel in enumerate((fast, arr)):
            clocks[k][core] = kernel.run_chunk(core, chunk, clocks[k][core])
            times[k].append(clocks[k][core])
        assert_line_state_consistent(arr)
    return times


@needs_c
def test_prefetch_past_table_then_growth_matches():
    """An ascending stream stages prefetch candidates beyond the table;
    the chunk that grows the table must find them L3-resident, pending
    arrivals included, exactly as the list kernel does."""
    fast, arr = pair(tiny_socket())
    lead = stream(CAP0 - 64, 64, 1, write=True)   # last candidates > CAP0
    follow = stream(CAP0, 32, 1)                  # grows the table
    times = drive_checked(fast, arr, [lead, follow])
    assert arr._lstate_cap > CAP0
    assert_equivalent(fast, arr, *times)
    assert fast.counters[0].prefetch_hits > 0


@needs_c
def test_descending_stream_with_negative_candidates_matches():
    """A descending stream near line 0 stages negative candidates, which
    live outside the table and are probed by set scan."""
    socket = tiny_socket()
    chunks = [stream(60 * (7 - i) - 1, 60, -1, write=(i % 2 == 1))
              for i in range(7)]
    chunks += [stream(0, 50, 1), stream(0, 40, 2, write=True)]
    fast, arr = pair(socket)
    assert_equivalent(fast, arr, *drive_checked(fast, arr, chunks))
    assert ((arr._tags3 < 0) & (arr._tags3 != arraypath.EMPTY_TAG)).any()
    assert fast.counters[0].prefetch_fills > 0


@needs_c
def test_written_lines_prefetched_back_are_clean():
    """Eviction clears the dirty bit with the way: written lines that
    are evicted and then staged again by the prefetcher must not be
    written back a second time."""
    socket = tiny_socket()
    cap = socket.l3.n_sets * socket.l3.ways
    chunks = [stream(i * 100, 100, 1, write=True) for i in range(4 * cap // 100)]
    chunks += [stream(i * 100, 100, 1) for i in range(4 * cap // 100)]
    fast, arr = pair(socket)
    assert_equivalent(fast, arr, *drive_checked(fast, arr, chunks))
    assert fast.counters[0].writebacks > 0


@needs_c
def test_flush_caches_then_reuse_matches():
    """A cold restart clears the line state with the tags; the reused
    kernel keeps matching the list kernel."""
    socket = tiny_socket()
    rng = np.random.default_rng(17)
    cap = socket.l3.n_sets * socket.l3.ways
    chunks = [AccessChunk(lines=rng.integers(0, 3 * cap, size=120),
                          is_write=(i % 3 == 0)) for i in range(12)]
    fast, arr = pair(socket)
    before = drive_checked(fast, arr, chunks[:6])
    fast.flush_caches()
    arr.flush_caches()
    assert not arr._lstate.any()
    after = drive_checked(fast, arr, chunks[6:])
    assert_equivalent(fast, arr, before[0] + after[0], before[1] + after[1])


def _lines(spec):
    lo, n, stride, descending = spec
    lines = lo + stride * np.arange(n, dtype=np.int64)
    return lines[::-1] if descending else lines


line_spec = st.tuples(
    st.one_of(st.integers(0, 40), st.integers(CAP0 - 200, CAP0 + 40)),
    st.integers(1, 48),                                  # length
    st.sampled_from([1, 2, 3, 5, 7]),                    # stride
    st.booleans(),                                       # descending
)
chunk_seq = st.lists(
    st.tuples(st.integers(0, 1), line_spec, st.booleans(), st.booleans(),
              st.integers(1, 3)),                         # core, lines,
    min_size=1, max_size=25,                              # write, pf, sid
)


@needs_c
@given(chunk_seq)
@settings(max_examples=60, deadline=None)
def test_line_state_tracks_l3_tags_on_generated_chunks(seq):
    """After every generated chunk the line-state way bits and _tags3
    agree in both directions, and the run matches the list kernel."""
    fast, arr = pair(tiny_socket(n_cores=2))
    chunks = [AccessChunk(lines=_lines(spec), is_write=write,
                          prefetchable=pf, stream_id=sid)
              for _, spec, write, pf, sid in seq]
    times = drive_checked(fast, arr, chunks, [core for core, *_ in seq])
    assert_equivalent(fast, arr, *times, n_cores=2)


@needs_c
def test_l3_way_limit_of_the_line_state_byte():
    """127 ways fit the byte's seven way bits and match the list kernel;
    128 are rejected."""
    base = tiny_socket()
    wide = replace(base, l3=CacheGeometry(127 * 64, 64, 127, name="L3"))
    rng = np.random.default_rng(9)
    chunks = [AccessChunk(lines=rng.integers(0, 400, size=150),
                          is_write=(i % 2 == 0)) for i in range(10)]
    fast, arr = pair(wide)
    assert_equivalent(fast, arr, *drive_checked(fast, arr, chunks))
    too_wide = replace(base, l3=CacheGeometry(2 * 128 * 64, 64, 128, name="L3"))
    with pytest.raises(ConfigError, match="127 L3 ways"):
        ArraySocket(too_wide)


# ---------------------------------------------------------------------------
# Object hierarchy ↔ array kernel (closes the validation triangle)
# ---------------------------------------------------------------------------


@needs_c
def test_array_kernel_hit_levels_match_object_hierarchy():
    """With the prefetcher off both are plain LRU hierarchies; per-access
    hit levels inferred from counter deltas must match the reference
    object hierarchy exactly."""
    socket = replace(tiny_socket(), prefetch=PrefetchConfig(enabled=False))
    rng = np.random.default_rng(2)
    trace = rng.integers(0, 600, size=2000).tolist()

    ref = SocketHierarchy(socket)
    ref_levels = [ref.access(0, a).level for a in trace]

    arr = ArraySocket(socket)
    c = arr.counters[0]
    got = []
    for a in trace:
        before = (c.l1_hits, c.l2_hits, c.l3_hits, c.l3_misses)
        arr.run_chunk(0, AccessChunk(lines=[a]), 0.0)
        after = (c.l1_hits, c.l2_hits, c.l3_hits, c.l3_misses)
        delta = tuple(x - y for x, y in zip(after, before))
        got.append({(1, 0, 0, 0): L1, (0, 1, 0, 0): L2,
                    (0, 0, 1, 0): L3, (0, 0, 0, 1): DRAM}[delta])
    assert got == ref_levels


# ---------------------------------------------------------------------------
# Kernel selection: SocketConfig knob and REPRO_KERNEL override
# ---------------------------------------------------------------------------


class TestKernelSelection:
    def test_config_knob_selects_list_kernel(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        socket = replace(tiny_socket(), kernel="lists")
        assert isinstance(make_socket_kernel(socket), FastSocket)

    def test_default_is_arrays(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        socket = tiny_socket()
        assert socket.kernel == "arrays"
        assert resolve_kernel_name(socket) == "arrays"

    def test_env_overrides_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "lists")
        assert isinstance(make_socket_kernel(tiny_socket()), FastSocket)

    @needs_c
    def test_env_arrays_over_lists_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "arrays")
        socket = replace(tiny_socket(), kernel="lists")
        assert isinstance(make_socket_kernel(socket), ArraySocket)

    def test_invalid_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "turbo")
        with pytest.raises(ConfigError):
            resolve_kernel_name(tiny_socket())

    def test_invalid_config_value_rejected(self):
        with pytest.raises(ConfigError):
            replace(tiny_socket(), kernel="turbo")

    def test_explicit_c_backend_without_compiler_rejected(self, monkeypatch):
        """An explicit REPRO_KERNEL=arrays with no C kernel fails naming
        the cause; the implicit default warns and uses the list kernel."""
        monkeypatch.setattr(_ckernel, "load", lambda: None)
        monkeypatch.setattr(arraypath, "_warned_fallback", False)
        monkeypatch.delenv("REPRO_NO_CKERNEL", raising=False)
        monkeypatch.setenv("REPRO_KERNEL", "arrays")
        with pytest.raises(ConfigError, match="no C compiler"):
            make_socket_kernel(tiny_socket())
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        with pytest.raises(ConfigError, match="REPRO_NO_CKERNEL is set"):
            make_socket_kernel(tiny_socket())
        monkeypatch.delenv("REPRO_KERNEL")
        with pytest.warns(RuntimeWarning, match="list kernel"):
            assert isinstance(make_socket_kernel(tiny_socket()), FastSocket)
