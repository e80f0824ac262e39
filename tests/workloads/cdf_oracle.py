"""The scalar Table II CDFs, as they were before the CDFs became
array-valued: the bit-exactness oracle for the vectorised line pmf.

Each formula is evaluated one line bound at a time with Python floats,
so every ``erf``/``exp``/``log``/``**`` is one libm call. The
vectorised :meth:`~repro.workloads.distributions.IndexDistribution.line_pmf`
must reproduce :func:`oracle_line_pmf` bit for bit: every Eq. 4 result
under ``results/`` is computed from these pmfs. The ratio gate in
``benchmarks/test_bench_line_pmf.py`` times the same oracle.
"""

import math

import numpy as np

from repro.workloads import (
    ExponentialDist,
    NormalDist,
    TriangularDist,
    UniformDist,
    ZipfDist,
)


def oracle_cdf01(dist, u):
    if isinstance(dist, NormalDist):
        z = (u - 0.5) * dist.k
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    if isinstance(dist, ExponentialDist):
        if u <= 0:
            return 0.0
        return 1.0 - math.exp(-dist.k * u)
    if isinstance(dist, TriangularDist):
        b = dist.mode_frac
        if u <= 0:
            return 0.0
        if u >= 1:
            return 1.0
        if u < b:
            return u * u / b
        return 1.0 - (1.0 - u) ** 2 / (1.0 - b)
    if isinstance(dist, UniformDist):
        return min(max(u, 0.0), 1.0)
    if isinstance(dist, ZipfDist):
        a, q = dist.alpha, dist.q
        if u <= 0:
            return 0.0
        if abs(a - 1.0) < 1e-9:
            return math.log((u + q) / q)
        return ((u + q) ** (1 - a) - q ** (1 - a)) / (1 - a)
    raise TypeError(type(dist).__name__)


def oracle_truncated_cdf(dist, u):
    lo, hi = oracle_cdf01(dist, 0.0), oracle_cdf01(dist, 1.0)
    u = min(max(u, 0.0), 1.0)
    return (oracle_cdf01(dist, u) - lo) / (hi - lo)


def oracle_line_pmf(dist, n_elems, elems_per_line):
    n_lines = (n_elems + elems_per_line - 1) // elems_per_line
    bounds = np.minimum(
        np.arange(n_lines + 1, dtype=np.float64) * elems_per_line, n_elems
    )
    cdf_vals = np.array(
        [oracle_truncated_cdf(dist, float(b / n_elems)) for b in bounds]
    )
    pmf = np.diff(cdf_vals)
    return pmf / pmf.sum()
