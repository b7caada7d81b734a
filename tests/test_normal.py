import numpy as np
import pytest

from subforest import normal

scipy_stats = pytest.importorskip("scipy.stats")


class TestNormPpf:
    def test_against_scipy(self):
        for p in [1e-9, 1e-6, 0.001, 0.01, 0.025, 0.1, 0.5, 0.9, 0.975, 0.99, 0.999, 1 - 1e-6]:
            assert abs(normal.norm_ppf(p) - scipy_stats.norm.ppf(p)) < 1e-13

    def test_cdf_roundtrip(self):
        for p in np.linspace(0.001, 0.999, 41):
            assert abs(normal.norm_cdf(normal.norm_ppf(p)) - p) < 1e-12

    def test_symmetry(self):
        assert normal.norm_ppf(0.975) == pytest.approx(-normal.norm_ppf(0.025), rel=1e-12)

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            normal.norm_ppf(0.0)
        with pytest.raises(ValueError):
            normal.norm_ppf(1.0)


class TestKs:
    def test_statistic_matches_scipy(self):
        gen = np.random.default_rng(0)
        for _ in range(5):
            x = gen.standard_normal(120)
            d, p = normal.ks_normal_pvalue(x)
            ref = scipy_stats.kstest(x, "norm")
            assert d == pytest.approx(ref.statistic, rel=1e-10)
            assert p == pytest.approx(ref.pvalue, abs=0.02)

    def test_survival_function_bounds(self):
        assert normal.kolmogorov_sf(0.0) == 1.0
        assert normal.kolmogorov_sf(0.2) > normal.kolmogorov_sf(1.0) > normal.kolmogorov_sf(2.0)
        assert normal.kolmogorov_sf(5.0) < 1e-8

    def test_shifted_sample_rejected(self):
        gen = np.random.default_rng(1)
        x = gen.standard_normal(400) + 1.0
        _, p = normal.ks_normal_pvalue(x)
        assert p < 0.001

    def test_calibration_under_null(self):
        passes = 0
        gen = np.random.default_rng(2)
        for _ in range(200):
            _, p = normal.ks_normal_pvalue(gen.standard_normal(150))
            passes += p >= 0.01
        assert passes / 200 >= 0.95
