"""Phase-structured proxy applications.

MCB and Lulesh enter the paper only through their memory behaviour:
working-set sizes, access locality, compute-per-load and communication
volume. A :class:`RankApp` describes one MPI rank as a list of named
buffers and a per-iteration sequence of *phases*:

- :class:`StreamPhase` — sequential sweeps over a buffer (stencil
  passes, particle-array updates; prefetch-friendly),
- :class:`RandomPhase` — randomly indexed accesses (tally updates,
  gather/scatter; prefetch-hostile),
- a communication phase derived from
  :meth:`RankApp.comm_bytes_by_distance`: pack/unpack memory traffic is
  executed as real accesses against staging buffers (on-socket traffic
  re-uses one L3-resident buffer; off-socket traffic rotates through a
  pool so it streams from DRAM — the mechanism behind the paper's
  "one process per processor consumes more memory bandwidth because all
  the communications go through the memory bus"), while wire time is
  charged via ``AccessChunk.extra_ns``.

Subclasses define :meth:`buffer_specs`, :meth:`iteration_phases` and the
communication volume; everything else (allocation, chunking, staging,
jitter) lives here.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..cluster.job import CommEnv
from ..cluster.mapping import Distance
from ..engine.chunk import AccessChunk
from ..engine.thread import SimThread, ThreadContext
from ..errors import ConfigError, SimulationError
from ..mem.addrspace import Buffer
from ..workloads.distributions import IndexDistribution

#: Staging buffers rotated for off-socket traffic (defeats L3 reuse of
#: large messages across iterations, like real rendezvous buffers).
REMOTE_STAGING_POOL = 4

#: Prefetcher stream ids of the off- and on-socket staging sweeps.
REMOTE_STAGING_ID = 0x7E50
LOCAL_STAGING_ID = 0x10CA


def stream_id_of(label: str) -> int:
    """Prefetcher stream id of a buffer's sweeps. ``hash(str)`` is
    randomised per process (``PYTHONHASHSEED``), so two labels could
    share a stream-table entry in one process and not in another; a
    CRC is the same everywhere. The built-in apps' labels map to ids
    distinct from each other, from 0 and from the staging ids."""
    return zlib.crc32(label.encode()) & 0xFFFF


@dataclass(frozen=True)
class BufferSpec:
    """One named allocation, sized in paper units."""

    label: str
    paper_bytes: int
    elem_bytes: int = 4


@dataclass(frozen=True)
class StreamPhase:
    """Sequential sweep(s) over a buffer."""

    buffer: str
    passes: float = 1.0
    ops_per_access: int = 8
    is_write: bool = False


@dataclass(frozen=True)
class RandomPhase:
    """Randomly indexed accesses over a buffer."""

    buffer: str
    n_accesses: int
    ops_per_access: int = 8
    is_write: bool = False
    #: Index distribution; None = uniform.
    distribution: Optional[IndexDistribution] = None


Phase = object  # StreamPhase | RandomPhase (kept loose for 3.10)


@dataclass(frozen=True)
class _Run:
    """``total`` sequential accesses to lines ``base + pos % n``: a
    stream phase, a staging sweep or the pure-wire touch. The first
    chunk carries ``extra_ns``."""

    base: int
    n: int
    total: int
    is_write: bool
    ops: int
    stream_id: int
    extra_ns: float = 0.0
    prefetchable = True

    def lines(self, rng, pos: int, count: int, size: int) -> np.ndarray:
        """Lines of ``count`` chunks of ``size`` accesses from ``pos``."""
        return self.base + (pos + np.arange(count * size, dtype=np.int64)) % self.n


@dataclass(frozen=True)
class _Draws:
    """``total`` randomly indexed accesses over ``buf`` (a random phase)."""

    buf: Buffer
    total: int
    is_write: bool
    ops: int
    distribution: Optional[IndexDistribution]
    stream_id = 0
    extra_ns = 0.0
    prefetchable = False

    def lines(self, rng, pos: int, count: int, size: int) -> np.ndarray:
        """Lines of the next ``count`` chunks of ``size`` draws (one
        batched draw, RNG-identical to ``count`` per-chunk draws)."""
        n = self.buf.n_elems
        if self.distribution is None:
            idx = rng.integers(0, n, size=count * size)
        else:
            idx = self.distribution.sample_block(rng, count, size, n)
        return self.buf.lines_of_indices(idx)


class RankApp(SimThread):
    """One application rank, expressed as buffers + phases.

    Parameters
    ----------
    rank:
        Global MPI rank id (used for naming and seeds).
    n_iterations:
        Outer timesteps to execute; the thread's generator ends after
        the last one (finite workload).
    comm_env:
        ``None`` disables communication entirely (single-socket studies).
    """

    #: Chunk length for generated access runs.
    quantum = 256

    def __init__(
        self,
        rank: int = 0,
        n_iterations: int = 2,
        comm_env: Optional[CommEnv] = None,
        name: Optional[str] = None,
    ):
        if n_iterations <= 0:
            raise ConfigError("n_iterations must be positive")
        self.rank = rank
        self.n_iterations = n_iterations
        self.comm_env = comm_env
        self.name = name or f"{type(self).__name__}[rank{rank}]"
        self.buffers: Dict[str, Buffer] = {}
        self._ctx: Optional[ThreadContext] = None
        self._local_staging: Optional[Buffer] = None
        self._remote_staging: List[Buffer] = []

    # -- subclass surface ---------------------------------------------------------

    def buffer_specs(self) -> Sequence[BufferSpec]:
        """Named allocations, in paper units."""
        raise NotImplementedError

    def iteration_phases(self) -> Sequence[Phase]:
        """Compute phases of one timestep, in order."""
        raise NotImplementedError

    def comm_bytes_by_distance(self) -> Dict[Distance, int]:
        """Per-iteration message volume by partner distance. Empty (the
        default) means a communication-free application."""
        return {}

    # -- SimThread ----------------------------------------------------------------

    def start(self, ctx: ThreadContext) -> None:
        self._ctx = ctx
        for spec in self.buffer_specs():
            sim_bytes = max(
                ctx.scaled_bytes(spec.paper_bytes), ctx.socket.line_bytes
            )
            sim_bytes -= sim_bytes % spec.elem_bytes or 0
            self.buffers[spec.label] = ctx.addrspace.alloc(
                max(sim_bytes, spec.elem_bytes),
                elem_bytes=spec.elem_bytes,
                label=f"{self.name}.{spec.label}",
            )
        comm = self.comm_bytes_by_distance()
        if comm:
            line = ctx.socket.line_bytes
            local_bytes = comm.get(Distance.SOCKET, 0)
            remote_bytes = comm.get(Distance.NODE, 0) + comm.get(Distance.REMOTE, 0)
            if local_bytes:
                self._local_staging = ctx.addrspace.alloc(
                    _round_line(ctx.scaled_bytes(max(local_bytes, line)), line),
                    elem_bytes=8,
                    label=f"{self.name}.staging.local",
                )
            if remote_bytes:
                size = _round_line(ctx.scaled_bytes(max(remote_bytes, line)), line)
                self._remote_staging = [
                    ctx.addrspace.alloc(size, elem_bytes=8, label=f"{self.name}.staging.{i}")
                    for i in range(REMOTE_STAGING_POOL)
                ]
        # fill_block cursor (chunks() keeps its own generator-local
        # copy; the scheduler pins one path per run).
        self._fb_program = self._program()
        self._fb_seg = None
        self._fb_pos = 0

    def chunks(self) -> Iterator[AccessChunk]:
        """Reference expansion of :meth:`_program`: one chunk per
        generator resume (the scheduler's fallback when
        ``supports_fill_block`` is hidden, and the equivalence suites'
        reference for :meth:`fill_block`)."""
        rng = self._started("chunks()").rng
        q = self.quantum
        for seg in self._program():
            if isinstance(seg, _Run):
                for pos in range(0, seg.total, q):
                    take = min(q, seg.total - pos)
                    yield AccessChunk(
                        lines=[seg.base + (pos + i) % seg.n for i in range(take)],
                        is_write=seg.is_write,
                        ops_per_access=seg.ops,
                        stream_id=seg.stream_id,
                        extra_ns=seg.extra_ns if pos == 0 else 0.0,
                    )
                continue
            n = seg.buf.n_elems
            for done in range(0, seg.total, q):
                take = min(q, seg.total - done)
                if seg.distribution is None:
                    idx = rng.integers(0, n, size=take)
                else:
                    idx = seg.distribution.sample(rng, take, n)
                chunk = AccessChunk.from_indices(
                    seg.buf, idx, is_write=seg.is_write, ops_per_access=seg.ops
                )
                chunk.prefetchable = False
                yield chunk

    supports_fill_block = True

    def fill_block(self, writer) -> None:
        """Stage the next block of :meth:`_program`, resuming at the
        (segment, position) cursor the previous call left.

        Full chunks of a run or a draw go through one
        :meth:`~repro.engine.blockq.QueueWriter.push_uniform` (for a
        draw, one ``rng.integers`` or
        :meth:`IndexDistribution.sample_block` call, both
        RNG-stream-identical to per-chunk draws); a
        segment's short last chunk and a run's first chunk when it
        carries wire time go through ``push``. One call stages at most
        ``max(1, free_lines // quantum)`` chunks.
        """
        rng = self._started("fill_block()").rng
        q = self.quantum
        budget = max(1, writer.free_lines // q)
        while budget > 0 and writer.free_chunks > 0:
            seg = self._fb_seg
            if seg is None:
                seg = self._fb_seg = next(self._fb_program, None)
                self._fb_pos = 0
                if seg is None:
                    return
            pos = self._fb_pos
            take = min(q, seg.total - pos)
            if take <= 0:
                self._fb_seg = None
                continue
            meta = dict(
                is_write=seg.is_write,
                ops_per_access=seg.ops,
                stream_id=seg.stream_id,
                prefetchable=seg.prefetchable,
            )
            if take < q or (pos == 0 and seg.extra_ns):
                k = 1
                writer.push(
                    seg.lines(rng, pos, 1, take),
                    extra_ns=seg.extra_ns if pos == 0 else 0.0,
                    **meta,
                )
            else:
                k = min(budget, writer.free_chunks, (seg.total - pos) // q)
                writer.push_uniform(seg.lines(rng, pos, k, q), q, **meta)
            budget -= k
            self._fb_pos = pos + k * take
            if self._fb_pos >= seg.total:
                self._fb_seg = None

    # -- program -----------------------------------------------------------------

    def _program(self) -> Iterator[object]:
        """The rank's accesses as :class:`_Run` and :class:`_Draws`
        segments, in program order. Lazy: an iteration's comm jitter is
        drawn from the thread's RNG only when the consumer is done with
        that iteration's compute draws, which is where both expansions
        ask for the next segment."""
        for it in range(self.n_iterations):
            for phase in self.iteration_phases():
                if isinstance(phase, StreamPhase):
                    buf = self._buffer(phase.buffer)
                    yield _Run(
                        buf.base_line, buf.n_lines, int(buf.n_lines * phase.passes),
                        phase.is_write, phase.ops_per_access,
                        stream_id_of(phase.buffer),
                    )
                elif isinstance(phase, RandomPhase):
                    yield _Draws(
                        self._buffer(phase.buffer), phase.n_accesses,
                        phase.is_write, phase.ops_per_access, phase.distribution,
                    )
                else:
                    raise ConfigError(f"unknown phase type {type(phase).__name__}")
            yield from self._comm_runs(it)

    def _comm_runs(self, iteration: int) -> Iterator[_Run]:
        comm = self.comm_bytes_by_distance()
        if not comm or self.comm_env is None:
            return
        env = self.comm_env
        wire_ns = env.comm_model.exchange_ns(comm)
        jitter = float(env.noise.sample_factor(self._ctx.rng))
        extra = wire_ns * jitter
        # Pack/unpack traffic: off-socket bytes stream through a rotating
        # pool (DRAM traffic); on-socket bytes hit one resident buffer.
        # The wire time rides on the first staging chunk.
        staging = []
        if self._remote_staging:
            pool = self._remote_staging
            staging.append((pool[iteration % len(pool)], REMOTE_STAGING_ID))
        if self._local_staging is not None:
            staging.append((self._local_staging, LOCAL_STAGING_ID))
        for i, (buf, sid) in enumerate(staging):
            yield _Run(
                buf.base_line, buf.n_lines, buf.n_lines, True, 2, sid,
                extra if i == 0 else 0.0,
            )
        if not staging and extra > 0:
            # Pure-wire communication (no modelled memory traffic): charge
            # the time against a single touch of the first buffer.
            any_buf = next(iter(self.buffers.values()))
            yield _Run(any_buf.base_line, 1, 1, False, 1, 0, extra)

    # -- helpers ---------------------------------------------------------------

    def _started(self, caller: str) -> ThreadContext:
        # A real check, not an assert: ``python -O`` strips asserts.
        if self._ctx is None:
            raise SimulationError(f"{self.name}: start() must run before {caller}")
        return self._ctx

    def _buffer(self, label: str) -> Buffer:
        try:
            return self.buffers[label]
        except KeyError:
            raise ConfigError(
                f"{self.name}: phase references unknown buffer {label!r}"
            ) from None

    def working_set_paper_bytes(self) -> int:
        """Total declared working set, paper units."""
        return sum(s.paper_bytes for s in self.buffer_specs())


def _round_line(n: int, line: int) -> int:
    return max(line, n - n % line)
