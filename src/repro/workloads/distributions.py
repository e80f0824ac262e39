"""Index distributions of Table II.

Each distribution describes how the paper's probabilistic benchmark
(Fig. 4) draws buffer indices: ``X()`` has a probability distribution
``f`` over the ``n`` buffer elements. The ten named instances of
Table II — Norm_4/6/8, Exp_4/6/8, Tri_1/2/3 and Uni — are available via
:func:`table_ii_distributions`.

Two capabilities are required of each distribution:

- :meth:`IndexDistribution.sample` — draw element indices (for the
  simulated benchmark), and
- :meth:`IndexDistribution.cdf01` — the CDF over unit-buffer positions
  (for the analytic EHR model of Eqs. 2–4, evaluated per cache line).

Sampling is rejection-based truncation to ``[0, n)``, and the CDF is the
matching truncated CDF, so model and benchmark see exactly the same
``f`` — the property the paper's validation depends on.

The CDFs are array-valued. ``cdf01`` and ``truncated_cdf`` take a float
or a float64 array and return the same shape: a Python float for a
scalar, an array otherwise. :meth:`IndexDistribution.line_pmf` is one
call over all line bounds of a buffer. The arithmetic is numpy array
arithmetic, but every transcendental (``erf``, ``exp``, ``log``, float
``**``) stays a per-element call of the same libm function through
Python's ``math`` module and ``float.__pow__``. numpy's own ``np.exp``
and ``** 2`` are not bit-identical to libm (``np.exp`` uses its own
SIMD code on AVX-512 hosts; ``x ** 2`` becomes ``x * x``), and the line
pmf, hence every Eq. 4 result in ``results/``, must not move by an ulp.
A per-element libm call costs about 50 ns, so a 50 k-line pmf takes a
few milliseconds and nothing is memoised.
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Union

import numpy as np

from ..errors import ModelError

#: What the CDFs accept and return: a float, or a float64 array.
FloatOrArray = Union[float, np.ndarray]


def _array_valued(cdf):
    """Lift ``cdf(self, u)``, written over a 1-D float64 array, to the
    module's contract: a float in gives a Python float out, and an
    array of any shape gives an array of that shape."""

    @functools.wraps(cdf)
    def lifted(self, u: FloatOrArray) -> FloatOrArray:
        x = np.asarray(u, dtype=np.float64)
        out = cdf(self, x.reshape(-1)).reshape(x.shape)
        return float(out) if x.ndim == 0 else out

    return lifted


def _per_element(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """``fn`` applied to each element as a Python float: the same libm
    call, hence the same bits, as the scalar formula."""
    return np.fromiter(map(fn, x.tolist()), dtype=np.float64, count=x.size)


def _clamp01(u: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(u, 0.0), 1.0)


class IndexDistribution(ABC):
    """A distribution over the fractional position ``u in [0, 1)`` of an
    index in an ``n``-element buffer.

    All parameters in Table II scale with the buffer size ``n``, so the
    distribution is defined over the unit interval and stretched to the
    buffer at use time.
    """

    #: Table II pattern name, e.g. ``"Norm_4"``.
    name: str = "abstract"

    @abstractmethod
    def cdf01(self, u: FloatOrArray) -> FloatOrArray:
        """*Untruncated* CDF of the underlying distribution at ``u``
        (u in unit-buffer coordinates; may have mass outside [0,1)).
        Array-valued: see the module docstring."""

    @abstractmethod
    def _raw_sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Raw draws in unit coordinates, possibly outside [0, 1)."""

    # -- derived ---------------------------------------------------------------

    @_array_valued
    def truncated_cdf(self, u: np.ndarray) -> np.ndarray:
        """CDF renormalised to the [0,1) support actually addressable.
        Array-valued like :meth:`cdf01`."""
        lo, hi = self.cdf01(0.0), self.cdf01(1.0)
        z = hi - lo
        if z <= 0:
            raise ModelError(f"{self.name}: no mass on the buffer support")
        return (self.cdf01(_clamp01(u)) - lo) / z

    def sample(self, rng: np.random.Generator, size: int, n: int) -> np.ndarray:
        """Draw ``size`` integer indices in ``[0, n)``."""
        if n <= 0:
            raise ModelError("buffer must have at least one element")
        out = np.empty(size, dtype=np.int64)
        filled = 0
        # Rejection: Table II's parameters keep accept rates >= ~95%.
        while filled < size:
            want = size - filled
            draws = self._raw_sample(rng, int(want * 1.25) + 8)
            ok = draws[(draws >= 0.0) & (draws < 1.0)]
            take = min(len(ok), want)
            out[filled : filled + take] = (ok[:take] * n).astype(np.int64)
            filled += take
        # Guard against float rounding u*n == n. Accepted draws are
        # non-negative, so minimum() suffices (and skips np.clip's
        # dispatch overhead — this runs once per simulated chunk).
        np.minimum(out, n - 1, out=out)
        return out

    def sample_block(
        self, rng: np.random.Generator, count: int, size: int, n: int
    ) -> np.ndarray:
        """Draw ``count`` consecutive chunks of ``size`` indices each,
        returned concatenated (``count * size`` entries).

        Must consume the RNG exactly as ``count`` successive
        :meth:`sample` calls would — callers rely on that to stage many
        chunks per call without perturbing any simulated result.
        Distributions whose draw count per chunk is deterministic can
        override this with a single batched draw.
        """
        return np.concatenate(
            [self.sample(rng, size, n) for _ in range(count)]
        )

    def line_pmf(self, n_elems: int, elems_per_line: int) -> np.ndarray:
        """Probability that one access lands in each cache line of the
        buffer: the per-line mass function the EHR model (Eq. 4) sums.

        Line ``L`` covers elements ``[L*e, (L+1)*e)``; its mass is the
        truncated CDF difference across that span. One
        :meth:`truncated_cdf` call evaluates every line bound.
        """
        if n_elems <= 0 or elems_per_line <= 0:
            raise ModelError("line_pmf needs positive sizes")
        n_lines = (n_elems + elems_per_line - 1) // elems_per_line
        bounds = np.minimum(
            np.arange(n_lines + 1, dtype=np.float64) * elems_per_line, n_elems
        )
        pmf = np.diff(self.truncated_cdf(bounds / n_elems))
        # Numerical guard: renormalise tiny drift.
        total = pmf.sum()
        if not 0.99 < total < 1.01:
            raise ModelError(f"{self.name}: line pmf sums to {total}")
        return pmf / total

    def std(self) -> float:
        """Standard deviation in unit-buffer coordinates, estimated from
        the truncated distribution (Table II's 'Standard Deviation'
        column, divided by n). Computed numerically on a fine grid."""
        grid = np.linspace(0.0, 1.0, 4097)
        pmf = np.diff(self.truncated_cdf(grid))
        mids = (grid[:-1] + grid[1:]) / 2
        mean = float((pmf * mids).sum())
        var = float((pmf * (mids - mean) ** 2).sum())
        return math.sqrt(max(var, 0.0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


@dataclass(frozen=True)
class NormalDist(IndexDistribution):
    """Normal with mu = n/2, sigma = n/k (Table II Norm_k)."""

    k: float

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ModelError("Normal k must be positive")
        object.__setattr__(self, "name", f"Norm_{self.k:g}")

    @_array_valued
    def cdf01(self, u: np.ndarray) -> np.ndarray:
        z = (u - 0.5) * self.k
        return 0.5 * (1.0 + _per_element(math.erf, z / math.sqrt(2.0)))

    def _raw_sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.normal(0.5, 1.0 / self.k, size)


@dataclass(frozen=True)
class ExponentialDist(IndexDistribution):
    """Exponential with rate lambda = k/n (Table II Exp_k)."""

    k: float

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ModelError("Exponential k must be positive")
        object.__setattr__(self, "name", f"Exp_{self.k:g}")

    @_array_valued
    def cdf01(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        pos = u > 0
        out[pos] = 1.0 - _per_element(math.exp, -self.k * u[pos])
        return out

    def _raw_sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(1.0 / self.k, size)


@dataclass(frozen=True)
class TriangularDist(IndexDistribution):
    """Triangular over [0, n] with mode b = mode_frac * n (Table II Tri)."""

    mode_frac: float
    index: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.mode_frac <= 1.0:
            raise ModelError("Triangular mode must lie in [0, 1]")
        label = f"Tri_{self.index}" if self.index else f"Tri_b{self.mode_frac:g}"
        object.__setattr__(self, "name", label)

    @_array_valued
    def cdf01(self, u: np.ndarray) -> np.ndarray:
        b = self.mode_frac
        out = np.where(u >= 1, 1.0, 0.0)
        inside = (u > 0) & (u < 1)
        head, tail = inside & (u < b), inside & (u >= b)
        out[head] = u[head] * u[head] / b
        squares = _per_element(lambda v: v ** 2, 1.0 - u[tail])
        out[tail] = 1.0 - squares / (1.0 - b)
        return out

    def _raw_sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.triangular(0.0, self.mode_frac, 1.0, size)


@dataclass(frozen=True)
class UniformDist(IndexDistribution):
    """Uniform over the whole buffer (Table II Uni)."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", "Uni")

    @_array_valued
    def cdf01(self, u: np.ndarray) -> np.ndarray:
        return _clamp01(u)

    def _raw_sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.random(size)

    def sample(self, rng: np.random.Generator, size: int, n: int) -> np.ndarray:
        """Fast path: ``random()`` draws lie in [0, 1) by construction,
        so every draw is accepted and the rejection mask of the base
        implementation is provably all-true. Drawing the same
        over-provisioned batch keeps the RNG stream (and therefore every
        simulated result) identical to the generic path."""
        if n <= 0:
            raise ModelError("buffer must have at least one element")
        draws = self._raw_sample(rng, int(size * 1.25) + 8)
        out = (draws[:size] * n).astype(np.int64)
        np.minimum(out, n - 1, out=out)
        return out

    def sample_block(
        self, rng: np.random.Generator, count: int, size: int, n: int
    ) -> np.ndarray:
        """One batched draw for ``count`` chunks: every per-chunk draw
        is the same deterministic ``int(size*1.25)+8`` floats (no
        rejection loop), and ``Generator.random`` fills a large request
        from the same uninterrupted bit stream as successive small ones,
        so slicing rows out of one draw is bit-identical to ``count``
        :meth:`sample` calls."""
        if n <= 0:
            raise ModelError("buffer must have at least one element")
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        per = int(size * 1.25) + 8
        draws = self._raw_sample(rng, count * per).reshape(count, per)
        out = (draws[:, :size] * n).astype(np.int64).ravel()
        np.minimum(out, n - 1, out=out)
        return out


@dataclass(frozen=True)
class ZipfDist(IndexDistribution):
    """Zipf-like power law over buffer positions (not in Table II; the
    canonical skewed pattern for key-value and graph workloads, provided
    for studies beyond the paper's grid).

    ``f(u) ~ (u + q)^-alpha`` over unit positions, with a small offset
    ``q`` keeping the head finite. ``alpha=0`` degenerates to uniform.
    """

    alpha: float = 1.0
    q: float = 0.01

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.q <= 0:
            raise ModelError("Zipf needs alpha >= 0 and q > 0")
        object.__setattr__(self, "name", f"Zipf_{self.alpha:g}")
        # Truncation bounds for inverse-CDF sampling, fixed per instance.
        object.__setattr__(self, "_bounds", (self.cdf01(0.0), self.cdf01(1.0)))

    @_array_valued
    def cdf01(self, u: np.ndarray) -> np.ndarray:
        # Integral of (x+q)^-alpha from 0 to u (unnormalised; truncation
        # renormalises).
        a, q = self.alpha, self.q
        out = np.zeros_like(u)
        pos = u > 0
        v = u[pos] + q
        if abs(a - 1.0) < 1e-9:
            out[pos] = _per_element(math.log, v / q)
        else:
            powers = _per_element(lambda x: x ** (1 - a), v)
            out[pos] = (powers - q ** (1 - a)) / (1 - a)
        return out

    def _raw_sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # Inverse-CDF sampling of the truncated distribution.
        a, q = self.alpha, self.q
        lo, hi = self._bounds
        y = lo + rng.random(size) * (hi - lo)
        if abs(a - 1.0) < 1e-9:
            return q * np.exp(y) - q
        return (y * (1 - a) + q ** (1 - a)) ** (1.0 / (1 - a)) - q


def table_ii_distributions() -> Dict[str, IndexDistribution]:
    """The ten memory-access patterns of Table II, keyed by pattern name."""
    dists: List[IndexDistribution] = [
        NormalDist(4),
        NormalDist(6),
        NormalDist(8),
        ExponentialDist(4),
        ExponentialDist(6),
        ExponentialDist(8),
        TriangularDist(0.4, index=1),
        TriangularDist(0.6, index=2),
        TriangularDist(0.8, index=3),
        UniformDist(),
    ]
    return {d.name: d for d in dists}
