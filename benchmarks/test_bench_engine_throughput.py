"""Simulator-throughput microbenchmarks.

Unlike the figure benches (one-shot measurement campaigns), these are
true microbenchmarks of the fused simulation kernel — the quantity that
bounds every experiment's wall time. They cover both kernels behind
``repro.engine.arraypath.make_socket_kernel`` (the array engine and the
reference list engine) on the three traffic shapes that dominate the
paper's campaigns:

- ``random``:        CSThr-shaped uniform-random writes, prefetch off;
- ``stream``:        BWThr-shaped constant-stride reads, prefetch on;
- ``stream_writes``: the same stride stream but writing, so every
                     eviction is a dirty writeback and the prefetcher,
                     arbiter fill *and* writeback paths are all hot.

``repro bench engine`` (``repro.bench``) runs the same shapes standalone
and records the machine-readable baseline in ``BENCH_engine.json``.

The multicore gate at the bottom covers the production engine path (the
array kernel with the compiled macro-stepped scheduler): on the
multicore bench shapes it must sustain at least 8x the reference path
(the list kernel under the pure-Python macro step) — the headline
guarantee recorded in ``BENCH_engine.json``'s
``speedup_macro_vs_reference``.
"""

import time

import numpy as np
import pytest

from repro.bench import MC_SHAPES, build_mc_scheduler
from repro.config import xeon20mb
from repro.engine import AccessChunk, ArraySocket, FastSocket

N_ACCESSES = 50_000


def _random_chunks(seed, n=N_ACCESSES, quantum=256):
    """CSThr-shaped traffic: uniform random over 4096 lines."""
    rng = np.random.default_rng(seed)
    lines = rng.integers(1024, 1024 + 4096, size=n, dtype=np.int64)
    return [
        AccessChunk(
            lines=lines[i : i + quantum],
            is_write=True,
            ops_per_access=6,
            prefetchable=False,
        )
        for i in range(0, n, quantum)
    ]


def _stream_chunks(n=N_ACCESSES, quantum=128, is_write=False):
    """BWThr-shaped traffic: constant-stride streaming."""
    chunks = []
    pos = 1_000_000
    for i in range(0, n, quantum):
        chunks.append(
            AccessChunk(
                lines=np.arange(pos, pos + 7 * quantum, 7, dtype=np.int64),
                is_write=is_write,
                ops_per_access=39,
                stream_id=1,
            )
        )
        pos += 7 * quantum
    return chunks


SHAPES = {
    "random": lambda: _random_chunks(seed=1),
    "stream": lambda: _stream_chunks(),
    "stream_writes": lambda: _stream_chunks(is_write=True),
}

KERNELS = {
    "lists": lambda socket: FastSocket(socket),
    "arrays": lambda socket: ArraySocket(socket),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_bench_kernel_throughput(benchmark, shape, kernel):
    socket = xeon20mb()
    chunks = SHAPES[shape]()

    def run():
        fast = KERNELS[kernel](socket)
        t = 0.0
        for c in chunks:
            t = fast.run_chunk(0, c, t)
        return t

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    rate = N_ACCESSES / benchmark.stats["median"]
    # Regression guard: either kernel must stay above 200k accesses/s
    # even on slow CI machines (typical: 0.3-1.1M acc/s for the list
    # kernel, 3.5-9M acc/s for the compiled array kernel: prefetched
    # streams at the low end, CSThr-shaped random writes at the top).
    assert rate > 200_000, f"{kernel} kernel throughput regressed: {rate:.0f} acc/s"


def test_bench_owner_tracking_overhead(benchmark):
    """Owner attribution costs ~20-30%; fail if it blows past 2.5x."""
    socket = xeon20mb()
    chunks = _random_chunks(seed=2, n=20_000)

    import time

    def run_with(track):
        fast = ArraySocket(socket, track_owner=track)
        t0 = time.perf_counter()
        t = 0.0
        for c in chunks:
            t = fast.run_chunk(0, c, t)
        return time.perf_counter() - t0

    plain = min(run_with(False) for _ in range(3))
    tracked = benchmark.pedantic(lambda: run_with(True), rounds=3, iterations=1)
    assert tracked < plain * 2.5


#: The committed guarantee: the compiled path buys at least 8x over the
#: reference on the multicore bench shapes (measured 18-27x; the margin
#: absorbs CI machine noise).
MIN_MACRO_SPEEDUP = 8.0

MC_BUDGET = 40_000
MC_ROUNDS = 3


def _mc_rate(shape, make_kernel):
    socket = xeon20mb()
    best = float("inf")
    for _ in range(MC_ROUNDS):
        sched = build_mc_scheduler(shape, socket, make_kernel)
        t0 = time.perf_counter()
        outcome = sched.run(main_access_budget=MC_BUDGET)
        best = min(best, time.perf_counter() - t0)
    return outcome.total_accesses / best


@pytest.mark.parametrize("shape", sorted(MC_SHAPES))
def test_bench_multicore_macro_speedup(benchmark, shape):
    """Compiled path >= 8x the reference path on every shape."""
    reference = _mc_rate(shape, FastSocket)
    macro = _mc_rate(shape, ArraySocket)

    def report():
        return macro

    benchmark.pedantic(report, rounds=1, iterations=1)
    speedup = macro / reference
    print(f"\n{shape}: reference {reference:,.0f} acc/s, compiled "
          f"{macro:,.0f} acc/s ({speedup:.2f}x)")
    assert speedup >= MIN_MACRO_SPEEDUP, (
        f"{shape}: compiled path is only {speedup:.2f}x the reference "
        f"(floor {MIN_MACRO_SPEEDUP}x)"
    )
