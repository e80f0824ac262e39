"""RankApp phase framework."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.apps import (
    BufferSpec,
    CommEnv,
    LuleshProxy,
    MCBProxy,
    RandomPhase,
    RankApp,
    SpMVProxy,
    StreamPhase,
)
from repro.apps.base import LOCAL_STAGING_ID, REMOTE_STAGING_ID, stream_id_of
from repro.cluster import CommModel, Distance, NoiseModel, ProcessMapping
from repro.config import NetworkConfig, tiny_socket, xeon20mb_cluster
from repro.engine import ThreadContext
from repro.engine import scheduler as scheduler_mod
from repro.engine.blockq import BlockQueues, QueueWriter
from repro.errors import ConfigError, SimulationError
from repro.mem import AddressSpace
from repro.units import KiB
from repro.workloads import PointerChase
from repro.workloads.distributions import ExponentialDist


class TwoPhaseApp(RankApp):
    """1 KiB stream + 64 random accesses over a second buffer."""

    def __init__(self, comm=None, remote_bytes=0, local_bytes=0, **kw):
        super().__init__(comm_env=comm, **kw)
        self._remote = remote_bytes
        self._local = local_bytes

    def buffer_specs(self):
        return [
            BufferSpec("stream", 1 * KiB, elem_bytes=8),
            BufferSpec("table", 2 * KiB, elem_bytes=4),
        ]

    def iteration_phases(self):
        return [
            StreamPhase("stream", passes=2.0, ops_per_access=3),
            RandomPhase("table", n_accesses=64, ops_per_access=5, is_write=True),
        ]

    def comm_bytes_by_distance(self):
        out = {}
        if self._local:
            out[Distance.SOCKET] = self._local
        if self._remote:
            out[Distance.REMOTE] = self._remote
        return out


def ctx_for(socket=None, seed=0):
    socket = socket or tiny_socket()
    return ThreadContext(
        socket=socket,
        addrspace=AddressSpace(line_bytes=64),
        rng=np.random.default_rng(seed),
        core_id=0,
    )


def comm_env():
    return CommEnv(
        comm_model=CommModel.for_network(NetworkConfig()),
        noise=NoiseModel(sigma=0.0),
        n_ranks=8,
    )


class TestAllocationAndPhases:
    def test_buffers_allocated_by_label(self):
        app = TwoPhaseApp()
        app.start(ctx_for())
        assert set(app.buffers) == {"stream", "table"}
        assert app.buffers["stream"].size_bytes == 1 * KiB

    def test_working_set_sums_specs(self):
        assert TwoPhaseApp().working_set_paper_bytes() == 3 * KiB

    def test_iteration_chunk_volume(self):
        app = TwoPhaseApp(n_iterations=2)
        app.start(ctx_for())
        total = sum(len(c) for c in app.chunks())
        stream_lines = app.buffers["stream"].n_lines
        per_iter = 2 * stream_lines + 64
        assert total == 2 * per_iter

    def test_stream_phase_sequential_lines(self):
        app = TwoPhaseApp()
        app.start(ctx_for())
        first = next(iter(app.chunks()))
        diffs = {b - a for a, b in zip(first.lines, first.lines[1:])}
        assert diffs <= {1, 1 - app.buffers["stream"].n_lines}

    def test_random_phase_not_prefetchable_and_in_range(self):
        app = TwoPhaseApp()
        app.start(ctx_for())
        chunks = list(app.chunks())
        rand = [c for c in chunks if not c.prefetchable]
        assert rand, "random phase must emit non-prefetchable chunks"
        buf = app.buffers["table"]
        for c in rand:
            assert all(
                buf.base_line <= a < buf.base_line + buf.n_lines for a in c.lines
            )

    def test_unknown_buffer_reference_raises(self):
        class Broken(TwoPhaseApp):
            def iteration_phases(self):
                return [StreamPhase("nope")]

        app = Broken()
        app.start(ctx_for())
        with pytest.raises(ConfigError, match="unknown buffer"):
            list(app.chunks())

    def test_unknown_phase_type_raises(self):
        class Broken(TwoPhaseApp):
            def iteration_phases(self):
                return ["not-a-phase"]

        app = Broken()
        app.start(ctx_for())
        with pytest.raises(ConfigError, match="unknown phase"):
            list(app.chunks())

    def test_rejects_zero_iterations(self):
        with pytest.raises(ConfigError):
            TwoPhaseApp(n_iterations=0)


class TestCommunication:
    def test_no_comm_without_env(self):
        app = TwoPhaseApp(remote_bytes=4096)  # comm declared, env missing
        app.start(ctx_for())
        assert all(c.extra_ns == 0.0 for c in app.chunks())

    def test_remote_comm_charges_wire_time(self):
        app = TwoPhaseApp(comm=comm_env(), remote_bytes=64 * KiB, n_iterations=1)
        app.start(ctx_for())
        extras = [c.extra_ns for c in app.chunks()]
        assert sum(extras) > 0
        expected = comm_env().comm_model.p2p_ns(64 * KiB, Distance.REMOTE)
        assert sum(extras) == pytest.approx(expected, rel=0.01)

    def test_remote_staging_rotates_buffers(self):
        app = TwoPhaseApp(comm=comm_env(), remote_bytes=16 * KiB, n_iterations=2)
        app.start(ctx_for())
        assert len(app._remote_staging) > 1
        staged = [c for c in app.chunks() if c.stream_id == REMOTE_STAGING_ID]
        first_lines = {b.base_line for b in app._remote_staging[:2]}
        # Each iteration sweeps the next pool buffer from its first line.
        assert {int(c.lines[0]) for c in staged if c.extra_ns > 0} == first_lines

    def test_local_comm_uses_single_resident_buffer(self):
        app = TwoPhaseApp(comm=comm_env(), local_bytes=8 * KiB)
        app.start(ctx_for())
        assert app._local_staging is not None
        assert app._remote_staging == []

    def test_pure_wire_comm_still_charged(self):
        """Tiny messages below line granularity must still cost time."""

        class WireOnly(TwoPhaseApp):
            def comm_bytes_by_distance(self):
                return {Distance.REMOTE: 16}

        # 16 bytes scale to < 1 line; staging allocation still happens at
        # >= 1 line, so the time is attached to the staging chunk.
        app = WireOnly(comm=comm_env())
        app.start(ctx_for())
        assert sum(c.extra_ns for c in app.chunks()) > 0


# ---------------------------------------------------------------------------
# fill_block == chunks(), field by field
# ---------------------------------------------------------------------------


def generator_stream(thread, max_chunks=None):
    """The chunks of ``thread.chunks()`` as tuples of all their fields."""
    return [
        (c.lines.tolist(), bool(c.is_write), int(c.ops_per_access),
         int(c.stream_id), bool(c.serialize), float(c.extra_ns).hex(),
         bool(c.prefetchable))
        for c in itertools.islice(thread.chunks(), max_chunks)
    ]


def block_stream(thread, max_chunks=None):
    """The same tuples from repeated ``fill_block`` calls into one
    scheduler-sized block (``scheduler.BLOCK_CHUNKS`` chunks)."""
    q = BlockQueues(1, chunk_cap=scheduler_mod.BLOCK_CHUNKS)
    w = QueueWriter(q, 0)
    out = []
    while max_chunks is None or len(out) < max_chunks:
        w.begin()
        thread.fill_block(w)
        if q.count[0] == 0:
            break
        for c in range(int(q.count[0])):
            off, n = int(q.off[0, c]), int(q.clen[0, c])
            out.append((
                q.lines[0, off:off + n].tolist(), bool(q.cwrite[0, c]),
                int(q.cops[0, c]), int(q.csid[0, c]), bool(q.cser[0, c]),
                float(q.cextra[0, c]).hex(), bool(q.cpf[0, c]),
            ))
    return out


class MixedApp(TwoPhaseApp):
    """TwoPhaseApp plus a distribution phase and a stream phase whose
    last chunk is short."""

    def iteration_phases(self):
        return list(super().iteration_phases()) + [
            RandomPhase("table", n_accesses=300, ops_per_access=7,
                        distribution=ExponentialDist(8)),
            StreamPhase("stream", passes=0.5, ops_per_access=2, is_write=True),
        ]


def paper_env(n_ranks):
    cluster = xeon20mb_cluster(n_nodes=32)
    env = CommEnv(
        comm_model=CommModel.for_network(cluster.network),
        noise=NoiseModel(),  # sigma > 0: the jitter draws from the rank's RNG
        n_ranks=n_ranks,
    )
    return cluster, env


def mcb_rank():
    cluster, env = paper_env(24)
    return MCBProxy(
        n_particles=90_000, n_ranks=24, rank=1, n_iterations=2,
        mapping=ProcessMapping(cluster, 24, 4), comm_env=env,
    )


def lulesh_rank():
    cluster, env = paper_env(64)
    return LuleshProxy(
        edge=26, n_ranks=64, rank=3, n_iterations=2,
        mapping=ProcessMapping(cluster, 64, 2), comm_env=env,
    )


def spmv_rank():
    cluster, env = paper_env(16)
    return SpMVProxy(
        rows=40_000, n_ranks=16, n_iterations=2,
        mapping=ProcessMapping(cluster, 16, 2), comm_env=env,
    )


def two_phase_rank():
    _, env = paper_env(8)
    return MixedApp(comm=env, remote_bytes=20 * KiB, local_bytes=6 * KiB,
                    n_iterations=3)


STREAM_CASES = {
    "mcb": mcb_rank,
    "lulesh": lulesh_rank,
    "spmv": spmv_rank,
    "two-phase": two_phase_rank,
    "chase-finite": lambda: PointerChase(24 * KiB, n_accesses=5_000, quantum=96),
    "chase-exact": lambda: PointerChase(24 * KiB, n_accesses=2_400, quantum=96),
}


def started_pair(make, seed=11):
    socket = xeon20mb_cluster(n_nodes=32).node.socket
    pair = []
    for _ in range(2):
        thread = make()
        thread.start(ThreadContext(
            socket=socket, addrspace=AddressSpace(line_bytes=socket.line_bytes),
            rng=np.random.default_rng(seed), core_id=0,
        ))
        pair.append(thread)
    return pair


class TestFillBlock:
    @pytest.mark.parametrize("name", sorted(STREAM_CASES))
    def test_block_stream_equals_generator_stream(self, name, monkeypatch):
        """Small blocks make phases straddle block boundaries; the staged
        stream and the RNG state after it match the generator's."""
        monkeypatch.setattr(scheduler_mod, "BLOCK_CHUNKS", 8)
        gen, blk = started_pair(STREAM_CASES[name])
        expected = generator_stream(gen)
        assert block_stream(blk) == expected
        assert len(expected) > 2 * scheduler_mod.BLOCK_CHUNKS
        if isinstance(gen, RankApp):
            assert gen._ctx.rng.random() == blk._ctx.rng.random()

    def test_comm_chunks_present(self):
        """The two-phase case exercises both staging kinds and wire time."""
        stream = block_stream(started_pair(two_phase_rank)[0])
        sids = {c[3] for c in stream}
        assert {REMOTE_STAGING_ID, LOCAL_STAGING_ID} <= sids
        assert sum(float.fromhex(c[5]) > 0 for c in stream) == 3  # one per iteration

    def test_pure_wire_touch(self):
        """With no staging buffer the wire time rides on a one-line touch
        of the first buffer, on both paths."""
        gen, blk = started_pair(
            lambda: TwoPhaseApp(comm=paper_env(8)[1], remote_bytes=4 * KiB)
        )
        for app in (gen, blk):
            app._remote_staging = []
        expected = generator_stream(gen)
        assert block_stream(blk) == expected
        touches = [c for c in expected if float.fromhex(c[5]) > 0]
        assert len(touches) == 2 and all(len(c[0]) == 1 for c in touches)

    def test_infinite_chase(self, monkeypatch):
        monkeypatch.setattr(scheduler_mod, "BLOCK_CHUNKS", 8)
        gen, blk = started_pair(lambda: PointerChase(24 * KiB, quantum=100))
        expected = generator_stream(gen, max_chunks=50)
        assert block_stream(blk, max_chunks=50)[:50] == expected

    def test_block_memory_bounded(self):
        """One call stages at most about the writer's free lines."""
        app = started_pair(mcb_rank)[0]
        q = BlockQueues(1, chunk_cap=64, line_cap=4 * app.quantum)
        w = QueueWriter(q, 0)
        for _ in range(20):
            w.begin()
            app.fill_block(w)
            assert 0 < q.used_lines[0] <= 4 * app.quantum


class TestPreconditions:
    @pytest.mark.parametrize("make", [TwoPhaseApp, lambda: PointerChase(4 * KiB)])
    def test_chunks_and_fill_block_need_start(self, make):
        thread = make()
        with pytest.raises(SimulationError, match="start"):
            next(thread.chunks())
        w = QueueWriter(BlockQueues(1), 0)
        with pytest.raises(SimulationError, match="start"):
            thread.fill_block(w)


_DIGEST = """
import hashlib, numpy as np
from repro.apps import LuleshProxy, MCBProxy
from repro.config import xeon20mb
from repro.engine import ThreadContext
from repro.mem import AddressSpace
h = hashlib.sha256()
for app in (MCBProxy(n_particles=20_000), LuleshProxy(edge=22)):
    s = xeon20mb()
    app.start(ThreadContext(socket=s, addrspace=AddressSpace(), rng=np.random.default_rng(0), core_id=0))
    for c in app.chunks():
        h.update(c.lines.tobytes())
        h.update(repr((c.is_write, c.ops_per_access, c.stream_id)).encode())
print(h.hexdigest())
"""


class TestStreamIds:
    def test_stream_ids_distinct(self):
        labels = {
            spec.label
            for app in (MCBProxy(), LuleshProxy(), SpMVProxy())
            for spec in app.buffer_specs()
        }
        ids = {stream_id_of(label) for label in labels}
        assert len(ids) == len(labels)
        assert not ids & {0, REMOTE_STAGING_ID, LOCAL_STAGING_ID}

    def test_chunk_stream_independent_of_hash_seed(self):
        """String hashing is randomised per process; the chunk stream
        (stream ids included) must not depend on it."""
        digests = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            out = subprocess.run(
                [sys.executable, "-c", _DIGEST], env=env, check=True,
                capture_output=True, text=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1
