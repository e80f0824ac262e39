"""The Fig. 4 probabilistic benchmark."""

import numpy as np
import pytest

from repro.engine import SocketSimulator, ThreadContext
from repro.errors import ModelError
from repro.mem import AddressSpace
from repro.models import EHRModel
from repro.units import KiB, MiB
from repro.workloads import ProbabilisticBenchmark, UniformDist, NormalDist


def ctx_for(socket, seed=0):
    return ThreadContext(
        socket=socket,
        addrspace=AddressSpace(line_bytes=socket.line_bytes),
        rng=np.random.default_rng(seed),
        core_id=0,
    )


class TestStructure:
    def test_buffer_scaled(self, xeon):
        b = ProbabilisticBenchmark(UniformDist(), 50 * MiB)
        b.start(ctx_for(xeon))
        assert b.buffer.size_bytes == 50 * MiB // xeon.scale

    def test_line_pmf_matches_buffer_shape(self, xeon):
        b = ProbabilisticBenchmark(NormalDist(6), 32 * MiB)
        b.start(ctx_for(xeon))
        assert len(b.line_pmf()) == b.buffer.n_lines

    def test_line_pmf_requires_start(self, xeon):
        b = ProbabilisticBenchmark(UniformDist(), 32 * MiB)
        with pytest.raises(ModelError, match=r"start\(\) must run before line_pmf"):
            b.line_pmf()
        with pytest.raises(ModelError, match="before elems_per_line"):
            b.elems_per_line

    def test_finite_access_budget(self, tiny):
        b = ProbabilisticBenchmark(UniformDist(), 32 * KiB, n_accesses=700)
        b.start(ctx_for(tiny))
        total = sum(len(c) for c in b.chunks())
        assert total == 700

    def test_reads_only(self, tiny):
        b = ProbabilisticBenchmark(UniformDist(), 32 * KiB, n_accesses=10)
        b.start(ctx_for(tiny))
        assert not next(iter(b.chunks())).is_write

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ProbabilisticBenchmark(UniformDist(), 0)
        with pytest.raises(ValueError):
            ProbabilisticBenchmark(UniformDist(), 1024, ops_per_access=-1)


class TestEndToEnd:
    def test_uniform_miss_rate_matches_eq4(self, xeon):
        """The paper's central validation, in miniature: Uni over 50 MB
        against the 20 MB L3 -> miss rate ~ 1 - 20/50 = 0.6."""
        probe = ProbabilisticBenchmark(UniformDist(), 50 * MiB)
        sim = SocketSimulator(xeon, seed=11)
        core = sim.add_thread(probe, main=True)
        sim.warmup(accesses=50_000)
        r = sim.measure(accesses=30_000)
        model = EHRModel(probe.line_pmf(), line_bytes=xeon.line_bytes)
        predicted = 1.0 - min(1.0, xeon.l3.n_lines * model.s2)
        assert r.l3_miss_rate(core) == pytest.approx(predicted, abs=0.05)

    def test_concentrated_distribution_misses_less(self, xeon):
        def run(dist):
            probe = ProbabilisticBenchmark(dist, 50 * MiB)
            sim = SocketSimulator(xeon, seed=12)
            core = sim.add_thread(probe, main=True)
            sim.warmup(accesses=40_000)
            return sim.measure(accesses=20_000).l3_miss_rate(core)

        assert run(NormalDist(8)) < run(UniformDist())
