"""Eq. 4 model-path ratio gate: the vectorised line pmf against the
scalar per-bound formulas it replaced.

``IndexDistribution.line_pmf`` evaluates the truncated CDF at every
line bound of the probe buffer in one array-valued call. The scalar
oracle of ``tests/workloads/cdf_oracle.py`` evaluates the same formulas
one bound at a time, as the code did before. On the four smoke
distributions and the 50 MB smoke probe shape, the vectorised pmf must
be bit-identical to the oracle's and at least 5x faster (measured
10-100x on a 2-vCPU x86_64 VM; the margin absorbs CI machine noise).

Run from the repository root::

    PYTHONPATH=src python -m pytest -q benchmarks/test_bench_line_pmf.py
"""

import time

import numpy as np
import pytest

from repro.workloads import table_ii_distributions
from tests.workloads.cdf_oracle import oracle_line_pmf

#: The four distributions of the smoke Fig. 5/6 grid.
SMOKE_DISTS = ["Norm_6", "Exp_6", "Tri_2", "Uni"]

#: The 50 MB smoke probe at the Xeon preset's scale: 4-byte ints, 16 per
#: 64-byte line, 51 200 lines.
N_ELEMS, ELEMS_PER_LINE = 819_200, 16

#: The committed floor on oracle time / vectorised time.
MIN_SPEEDUP = 5.0

ROUNDS = 3


def _best_of(fn):
    best, out = float("inf"), None
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


@pytest.mark.parametrize("name", SMOKE_DISTS)
def test_bench_line_pmf_speedup(benchmark, name):
    dist = table_ii_distributions()[name]
    scalar_s, want = _best_of(lambda: oracle_line_pmf(dist, N_ELEMS, ELEMS_PER_LINE))
    vector_s, got = _best_of(lambda: dist.line_pmf(N_ELEMS, ELEMS_PER_LINE))
    benchmark.pedantic(lambda: vector_s, rounds=1, iterations=1)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    speedup = scalar_s / vector_s
    print(f"\n{name}: scalar {scalar_s * 1e3:.1f} ms, vectorised "
          f"{vector_s * 1e3:.2f} ms ({speedup:.1f}x)")
    assert speedup >= MIN_SPEEDUP, (
        f"{name}: vectorised line_pmf is only {speedup:.1f}x the scalar "
        f"oracle (floor {MIN_SPEEDUP}x)"
    )
