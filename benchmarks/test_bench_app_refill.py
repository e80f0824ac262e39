"""Application block-generation ratio gate: ``RankApp.fill_block``
against the per-chunk generator refill it replaced on the app sweeps.

The scheduler stages each thread's chunks a block at a time. Without
``fill_block`` it resumes ``chunks()`` once per chunk and copies each
``AccessChunk`` into the block; with it, a rank stages each block
with a few numpy calls. On a paper-scale MCB rank and Lulesh rank (the
Fig. 9 and Fig. 11 applications with communication), the two staged
streams must be bit-identical and ``fill_block`` at least 2x faster
(measured 4.2-5.0x on MCB and 6.9-8.0x on Lulesh on a 2-vCPU x86_64
VM; the margin absorbs CI machine noise).

Run from the repository root::

    PYTHONPATH=src python -m pytest -q benchmarks/test_bench_app_refill.py
"""

import time

import numpy as np
import pytest

from repro.apps import CommEnv, LuleshProxy, MCBProxy
from repro.cluster import CommModel, NoiseModel, ProcessMapping
from repro.config import xeon20mb_cluster
from repro.engine import ThreadContext
from repro.engine.blockq import BlockQueues, QueueWriter
from repro.engine.scheduler import BLOCK_CHUNKS
from repro.mem import AddressSpace

#: The committed floor on generator time / fill_block time.
MIN_SPEEDUP = 2.0

ROUNDS = 3

CLUSTER = xeon20mb_cluster(n_nodes=32)


def _env(n_ranks):
    return CommEnv(
        comm_model=CommModel.for_network(CLUSTER.network),
        noise=NoiseModel(),
        n_ranks=n_ranks,
    )


#: Paper-scale ranks: MCB at the Fig. 9 bandwidth peak, 4 ranks per
#: socket; Lulesh at the largest Fig. 11 edge, 2 ranks per socket. Eight
#: timesteps (the sweeps run two) keep each timing above ~10 ms.
RANKS = {
    "mcb": lambda: MCBProxy(
        n_particles=90_000, n_ranks=24, rank=1, n_iterations=8,
        mapping=ProcessMapping(CLUSTER, 24, 4), comm_env=_env(24),
    ),
    "lulesh": lambda: LuleshProxy(
        edge=36, n_ranks=64, rank=1, n_iterations=8,
        mapping=ProcessMapping(CLUSTER, 64, 2), comm_env=_env(64),
    ),
}


def _started(name):
    socket = CLUSTER.node.socket
    app = RANKS[name]()
    app.start(ThreadContext(
        socket=socket, addrspace=AddressSpace(line_bytes=socket.line_bytes),
        rng=np.random.default_rng(5), core_id=0,
    ))
    return app


def _generator_fill(app):
    """The scheduler's generator refill: one ``next()`` and one
    ``push_chunk`` per chunk."""
    gen = app.chunks()

    def fill(w):
        while w.free_chunks > 0:
            chunk = next(gen, None)
            if chunk is None:
                return
            w.push_chunk(chunk)

    return fill


def _stage_all(fill):
    """Stage a thread's whole stream block by block; return the staged
    lines and per-chunk metadata, concatenated."""
    q = BlockQueues(1, chunk_cap=BLOCK_CHUNKS)
    w = QueueWriter(q, 0)
    lines, meta = [], []
    while True:
        w.begin()
        fill(w)
        c = int(q.count[0])
        if c == 0:
            break
        lines.append(q.lines[0, : q.used_lines[0]].copy())
        meta.append(np.stack([
            q.clen[0, :c], q.cwrite[0, :c], q.cops[0, :c], q.csid[0, :c],
            q.cser[0, :c], q.cpf[0, :c], q.cextra[0, :c].view(np.int64),
        ]))
    return np.concatenate(lines), np.concatenate(meta, axis=1)


def _best_of(make_fill):
    best, out = float("inf"), None
    for _ in range(ROUNDS):
        fill = make_fill()
        t0 = time.perf_counter()
        out = _stage_all(fill)
        best = min(best, time.perf_counter() - t0)
    return best, out


@pytest.mark.parametrize("name", sorted(RANKS))
def test_bench_app_fill_block_speedup(benchmark, name):
    gen_s, want = _best_of(lambda: _generator_fill(_started(name)))
    blk_s, got = _best_of(lambda: _started(name).fill_block)
    benchmark.pedantic(lambda: blk_s, rounds=1, iterations=1)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    speedup = gen_s / blk_s
    print(f"\n{name}: generator {gen_s * 1e3:.1f} ms, fill_block "
          f"{blk_s * 1e3:.1f} ms ({speedup:.1f}x, {want[0].size} accesses)")
    assert speedup >= MIN_SPEEDUP, (
        f"{name}: fill_block is only {speedup:.1f}x the generator refill "
        f"(floor {MIN_SPEEDUP}x)"
    )
