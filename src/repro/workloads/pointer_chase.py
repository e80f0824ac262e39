"""Pointer-chase latency probe.

A dependent chain of loads over a random cyclic permutation: each load's
address comes from the previous load, so misses cannot overlap (chunks
carry ``serialize=True``) and the measured time-per-access is the true
round-trip latency of whatever level the working set lands in.

This is the measurement style of Yotov et al.'s X-Ray (paper refs
[23][24]) and the library uses it both as an example application and as a
self-check that the simulator's latency ladder (L1 < L2 < L3 < DRAM) is
observable from software, the way real microbenchmarks observe it.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from ..engine.chunk import AccessChunk
from ..engine.thread import SimThread, ThreadContext
from ..errors import SimulationError

PTR_BYTES = 8

#: Per-hop ALU cost (address unpack + loop) — small by design so the
#: probe's time is dominated by memory latency.
HOP_OPS = 2


class PointerChase(SimThread):
    """Chase a random cycle over ``buffer_bytes`` of pointers.

    One element per cache line (the classic padding trick) so every hop
    touches a distinct line and spatial locality cannot help.

    ``buffer_bytes`` is interpreted in *simulator* units by default
    (``scale_with_machine=False``) because latency probes target a given
    level of the simulated hierarchy directly.
    """

    def __init__(
        self,
        buffer_bytes: int,
        n_accesses: Optional[int] = None,
        scale_with_machine: bool = False,
        quantum: int = 256,
        name: str = "chase",
    ):
        if buffer_bytes <= 0:
            raise ValueError("buffer_bytes must be positive")
        self.buffer_bytes = buffer_bytes
        self.n_accesses = n_accesses
        self.scale_with_machine = scale_with_machine
        self.quantum = quantum
        self.name = name
        self.buffer = None
        #: The chain's visit order as line addresses, set by start().
        self._lines: Optional[np.ndarray] = None

    def start(self, ctx: ThreadContext) -> None:
        nbytes = (
            ctx.scaled_bytes(self.buffer_bytes)
            if self.scale_with_machine
            else self.buffer_bytes
        )
        line = ctx.socket.line_bytes
        nbytes = max(nbytes - nbytes % line, 2 * line)
        self.buffer = ctx.addrspace.alloc(nbytes, elem_bytes=line, label=self.name)
        # A single random cycle over all lines: Sattolo's algorithm via a
        # shuffled visit order (visiting a fixed random permutation in
        # sequence is an identical address stream to chasing the cycle).
        order = np.arange(self.buffer.n_lines, dtype=np.int64)
        ctx.rng.shuffle(order)
        self._lines = order + self.buffer.base_line
        # fill_block chain position (chunks() keeps its own
        # generator-local copy; the scheduler pins one path per run).
        self._fb_pos = 0
        self._fb_remaining = self.n_accesses

    def _chain(self, caller: str) -> np.ndarray:
        # A real check, not an assert: ``python -O`` strips asserts.
        if self._lines is None:
            raise SimulationError(f"{self.name}: start() must run before {caller}")
        return self._lines

    def chunks(self) -> Iterator[AccessChunk]:
        lines_all = self._chain("chunks()")  # int64 ndarray, handed to chunks as-is
        n = len(lines_all)
        q = self.quantum
        remaining = self.n_accesses
        pos = 0
        while remaining is None or remaining > 0:
            size = q if remaining is None else min(q, remaining)
            chunk_lines = lines_all.take(
                np.arange(pos, pos + size), mode="wrap"
            )
            pos = (pos + size) % n
            yield AccessChunk(
                lines=chunk_lines,
                is_write=False,
                ops_per_access=HOP_OPS,
                serialize=True,
                prefetchable=False,
            )
            if remaining is not None:
                remaining -= size

    supports_fill_block = True

    def fill_block(self, writer) -> None:
        """Stage ``k`` whole chunks with one wrapped ``take`` over
        ``k * quantum`` chain positions; a finite ``n_accesses`` ends
        with one partial chunk."""
        lines_all = self._chain("fill_block()")
        q = self.quantum
        k = min(writer.free_chunks, max(1, writer.free_lines // q))
        remaining = self._fb_remaining
        tail = 0
        if remaining is not None:
            k = min(k, remaining // q)
            if remaining - k * q < q and writer.free_chunks > k:
                tail = remaining - k * q
            self._fb_remaining = remaining - k * q - tail
        size = k * q
        pos = self._fb_pos
        staged = lines_all.take(np.arange(pos, pos + size + tail), mode="wrap")
        self._fb_pos = (pos + size + tail) % len(lines_all)
        meta = dict(
            is_write=False, ops_per_access=HOP_OPS, serialize=True,
            prefetchable=False,
        )
        if k:
            writer.push_uniform(staged[:size], q, **meta)
        if tail:
            writer.push(staged[size:], **meta)

    def describe(self) -> str:
        return f"{self.name}: dependent chain over {self.buffer_bytes} sim-bytes"
