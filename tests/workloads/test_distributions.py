"""Table II distribution library."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelError
from repro.workloads import (
    ExponentialDist,
    NormalDist,
    TriangularDist,
    UniformDist,
    ZipfDist,
    table_ii_distributions,
)
from tests.workloads.cdf_oracle import (
    oracle_cdf01,
    oracle_line_pmf,
    oracle_truncated_cdf,
)

ALL = list(table_ii_distributions().values())


class TestTableII:
    def test_ten_patterns(self):
        names = set(table_ii_distributions())
        assert names == {
            "Norm_4", "Norm_6", "Norm_8",
            "Exp_4", "Exp_6", "Exp_8",
            "Tri_1", "Tri_2", "Tri_3", "Uni",
        }

    def test_normal_std_ordering(self):
        """Table II: sigma = n/4 > n/6 > n/8."""
        s4 = NormalDist(4).std()
        s6 = NormalDist(6).std()
        s8 = NormalDist(8).std()
        assert s4 > s6 > s8

    def test_uniform_std_matches_closed_form(self):
        # var of U(0,1) = 1/12.
        assert UniformDist().std() == pytest.approx((1 / 12) ** 0.5, rel=0.01)


@pytest.mark.parametrize("dist", ALL, ids=lambda d: d.name)
class TestEveryDistribution:
    def test_cdf_is_monotone_and_normalised(self, dist):
        grid = np.linspace(0, 1, 101)
        vals = [dist.truncated_cdf(u) for u in grid]
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_samples_in_range(self, dist):
        rng = np.random.default_rng(0)
        idx = dist.sample(rng, 5000, 1000)
        assert idx.min() >= 0 and idx.max() < 1000

    def test_line_pmf_sums_to_one(self, dist):
        pmf = dist.line_pmf(n_elems=4096, elems_per_line=16)
        assert pmf.sum() == pytest.approx(1.0)
        assert len(pmf) == 256
        assert (pmf >= 0).all()

    def test_line_pmf_partial_last_line(self, dist):
        pmf = dist.line_pmf(n_elems=100, elems_per_line=16)
        assert len(pmf) == 7  # ceil(100/16)
        assert pmf.sum() == pytest.approx(1.0)

    def test_samples_match_pmf(self, dist):
        """Empirical line frequencies must track the analytic line pmf —
        the consistency the paper's validation hinges on."""
        n_elems, epl = 1600, 16
        rng = np.random.default_rng(1)
        idx = dist.sample(rng, 60_000, n_elems)
        lines = idx // epl
        counts = np.bincount(lines, minlength=n_elems // epl)
        empirical = counts / counts.sum()
        pmf = dist.line_pmf(n_elems, epl)
        # total-variation distance small
        tv = 0.5 * np.abs(empirical - pmf).sum()
        assert tv < 0.03


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ModelError):
            NormalDist(0)
        with pytest.raises(ModelError):
            ExponentialDist(-2)
        with pytest.raises(ModelError):
            TriangularDist(1.5)

    def test_sample_rejects_empty_buffer(self):
        with pytest.raises(ModelError):
            UniformDist().sample(np.random.default_rng(0), 10, 0)

    def test_line_pmf_rejects_bad_sizes(self):
        with pytest.raises(ModelError):
            UniformDist().line_pmf(0, 16)


@given(
    k=st.sampled_from([4.0, 6.0, 8.0]),
    n=st.integers(min_value=64, max_value=4096),
)
@settings(max_examples=30, deadline=None)
def test_property_normal_sampling_stays_in_buffer(k, n):
    dist = NormalDist(k)
    rng = np.random.default_rng(0)
    idx = dist.sample(rng, 256, n)
    assert ((idx >= 0) & (idx < n)).all()


@given(mode=st.floats(min_value=0.1, max_value=0.9))
@settings(max_examples=30, deadline=None)
def test_property_triangular_cdf_at_mode(mode):
    dist = TriangularDist(mode)
    # CDF at the mode equals mode for a 0..1 triangular: F(b) = b/(c-a)*...
    assert dist.cdf01(mode) == pytest.approx(mode, abs=1e-9)


class TestZipf:
    """ZipfDist — the beyond-Table-II skewed pattern."""

    def test_head_concentration(self):
        from repro.workloads import ZipfDist

        pmf = ZipfDist(1.0).line_pmf(16_000, 16)
        # First 5% of lines hold far more than 5% of the mass.
        assert pmf[:50].sum() > 0.3
        # Monotone decreasing head.
        assert pmf[0] > pmf[10] > pmf[100]

    def test_alpha_zero_is_nearly_uniform(self):
        from repro.workloads import ZipfDist

        pmf = ZipfDist(0.0).line_pmf(1600, 16)
        assert pmf.max() / pmf.min() < 1.01

    def test_samples_match_pmf(self):
        import numpy as np
        from repro.workloads import ZipfDist

        dist = ZipfDist(0.8)
        rng = np.random.default_rng(2)
        idx = dist.sample(rng, 60_000, 1600)
        counts = np.bincount(idx // 16, minlength=100)
        empirical = counts / counts.sum()
        pmf = dist.line_pmf(1600, 16)
        tv = 0.5 * abs(empirical - pmf).sum()
        assert tv < 0.03

    def test_validation(self):
        from repro.errors import ModelError
        from repro.workloads import ZipfDist

        with pytest.raises(ModelError):
            ZipfDist(alpha=-1)
        with pytest.raises(ModelError):
            ZipfDist(q=0.0)


# -- bit-exactness oracle --------------------------------------------------
# The array-valued CDFs must reproduce the scalar formulas of
# ``cdf_oracle`` bit for bit, on real probe shapes and generated ones.

ORACLE_DISTS = ALL + [ZipfDist(1.0), ZipfDist(0.8)]

#: Element counts of the smoke probe buffers (30/50/74 MB at the Xeon
#: preset's scale, 4-byte ints, 16 per 64-byte line).
SMOKE_SHAPES = [(491_520, 16), (819_200, 16), (1_212_416, 16)]


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape
    diff = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert diff.size == 0, f"{diff.size} entries differ, first at {diff[:5]}"


@pytest.mark.parametrize("shape", SMOKE_SHAPES, ids=lambda s: str(s[0]))
@pytest.mark.parametrize("dist", ORACLE_DISTS, ids=lambda d: d.name)
def test_line_pmf_bitwise_equals_scalar_oracle(dist, shape):
    assert_bitwise_equal(dist.line_pmf(*shape), oracle_line_pmf(dist, *shape))


@given(
    n_elems=st.integers(min_value=1, max_value=20_000),
    elems_per_line=st.sampled_from([1, 3, 8, 16, 17, 32]),
)
@settings(max_examples=40, deadline=None)
def test_property_line_pmf_bitwise_equals_oracle(n_elems, elems_per_line):
    if n_elems % elems_per_line == 0 and elems_per_line > 1:
        n_elems += 1  # keep a partial last line in every draw
    for dist in ORACLE_DISTS:
        assert_bitwise_equal(
            dist.line_pmf(n_elems, elems_per_line),
            oracle_line_pmf(dist, n_elems, elems_per_line),
        )


@pytest.mark.parametrize("dist", ORACLE_DISTS, ids=lambda d: d.name)
def test_scalar_calls_return_oracle_floats(dist):
    for u in (-0.5, 0.0, 1e-7, 0.25, 0.4, 0.5, 0.6, 0.999, 1.0, 1.5):
        got, want = dist.cdf01(u), oracle_cdf01(dist, u)
        assert type(got) is float and got == want
        got, want = dist.truncated_cdf(u), oracle_truncated_cdf(dist, u)
        assert type(got) is float and got == want


@pytest.mark.parametrize("dist", ORACLE_DISTS, ids=lambda d: d.name)
def test_cdf_keeps_the_input_shape(dist):
    u = np.linspace(-0.2, 1.2, 12).reshape(3, 4)
    out = dist.cdf01(u)
    assert out.shape == (3, 4)
    want = [oracle_cdf01(dist, float(x)) for x in u.ravel()]
    assert_bitwise_equal(out.ravel(), np.array(want))
    assert dist.truncated_cdf(u).shape == (3, 4)


def test_zipf_sampling_stream_unchanged():
    """Inverse-CDF draws with the bounds fixed at construction equal the
    draws with the bounds recomputed per call."""
    for dist in (ZipfDist(1.0), ZipfDist(0.8)):
        a, q = dist.alpha, dist.q
        lo, hi = oracle_cdf01(dist, 0.0), oracle_cdf01(dist, 1.0)
        y = lo + np.random.default_rng(3).random(1000) * (hi - lo)
        if abs(a - 1.0) < 1e-9:
            want = q * np.exp(y) - q
        else:
            want = (y * (1 - a) + q ** (1 - a)) ** (1.0 / (1 - a)) - q
        got = dist._raw_sample(np.random.default_rng(3), 1000)
        assert_bitwise_equal(got, want)
