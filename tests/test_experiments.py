import numpy as np
import pytest

from subforest import dataset, forest, tree
from subforest.dataset import SyntheticSpec, TrainingSet
from subforest.experiments import (
    BernoulliSource,
    ExperimentSpec,
    SyntheticSource,
    coverage_report,
    metrics_report,
    normality_report,
    parametric_bootstrap_source,
    run_bias_grid,
    simulate_predictions,
)


def _tiny_spec(mode="cart", seed=3, n_jobs=1, r=8, k=5, n=150, b=60):
    return ExperimentSpec(
        source=SyntheticSource(SyntheticSpec("cosine", 2)),
        n=n, k_test=k, r_replicates=r,
        forest=forest.ForestConfig(b=b, tree=tree.TreeConfig(mode=mode)),
        seed=seed, n_jobs=n_jobs,
    )


class TestSimulate:
    def test_shapes(self):
        sim = simulate_predictions(_tiny_spec())
        assert sim.predictions.shape == (5, 8)
        assert sim.vij_corrected.shape == (5, 8)
        assert sim.test_x.shape == (5, 2)
        assert sim.true_means.shape == (5,)
        assert np.array_equal(sim.degenerate, sim.vij_corrected < 0)

    def test_deterministic_across_n_jobs(self):
        a = simulate_predictions(_tiny_spec(n_jobs=1))
        b = simulate_predictions(_tiny_spec(n_jobs=2))
        assert np.array_equal(a.predictions, b.predictions)
        assert np.array_equal(a.vij_corrected, b.vij_corrected)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            _tiny_spec(r=1)
        with pytest.raises(ValueError):
            _tiny_spec(k=0)


class TestMetricsReport:
    def test_mse_identity_per_point(self):
        gen = np.random.default_rng(0)
        pred = gen.standard_normal((7, 30))
        vhat = gen.random((7, 30))
        rep = metrics_report(pred, vhat)
        assert np.array_equal(rep.mse, rep.bias2 + rep.variance)
        assert rep.abs_mse == pytest.approx(rep.abs_bias2 + rep.abs_variance, rel=1e-12)

    def test_degenerate_zero_case(self):
        # constant predictions and exact zero estimates: all metrics zero
        pred = np.full((4, 10), 2.0)
        vhat = np.zeros((4, 10))
        rep = metrics_report(pred, vhat)
        assert rep.abs_bias2 == 0.0 and rep.abs_variance == 0.0 and rep.abs_mse == 0.0

    def test_relative_normalizations(self):
        gen = np.random.default_rng(1)
        pred = gen.standard_normal((6, 40))
        vhat = gen.random((6, 40))
        rep = metrics_report(pred, vhat)
        assert rep.rel_mse == pytest.approx(rep.abs_mse / rep.scale_mean_of_squares, rel=1e-12)
        assert rep.scale_mean_of_squares == pytest.approx(np.mean(rep.sigma2**2), rel=1e-12)

    def test_truth_estimator_drives_relative_mse_down(self):
        # with Vhat equal to the true variance, rel MSE -> 0 as R grows
        gen = np.random.default_rng(2)
        k = 10
        sig = gen.uniform(0.5, 2.0, size=k)
        rels = []
        for r in (50, 400, 3200):
            pred = sig[:, None] * gen.standard_normal((k, r))
            vhat = np.broadcast_to(sig[:, None] ** 2, (k, r))
            rels.append(metrics_report(pred, vhat).rel_mse)
        assert rels[0] > rels[1] > rels[2]
        assert rels[2] < 0.01


class TestNormalityReport:
    def test_calibration_on_true_normals(self):
        gen = np.random.default_rng(3)
        rep = normality_report(gen.standard_normal((100, 120)), alpha=0.01)
        assert rep.pass_fraction >= 0.95
        assert not rep.degenerate.any()

    def test_constant_predictions_flagged(self):
        pred = np.vstack([np.full(60, 1.0), np.random.default_rng(4).standard_normal(60)])
        rep = normality_report(pred, alpha=0.01)
        assert rep.degenerate[0] and not rep.degenerate[1]
        assert np.isnan(rep.ks_stats[0])

    def test_non_normal_detected(self):
        gen = np.random.default_rng(5)
        pred = gen.exponential(1.0, size=(40, 400))
        rep = normality_report(pred, alpha=0.01)
        assert rep.pass_fraction < 0.5


class TestCoverageReport:
    def test_true_variance_calibration(self):
        gen = np.random.default_rng(6)
        k, r = 100, 50
        mu = gen.normal(0, 3, size=k)[:, None]
        sig = gen.uniform(0.5, 2.0, size=k)[:, None]
        pred = mu + sig * gen.standard_normal((k, r))
        trunc = np.broadcast_to(sig**2, (k, r))
        rep = coverage_report(pred, trunc, np.zeros((k, r), bool), levels=(0.95,))
        assert rep.n_pairs == 5000
        assert 0.93 <= rep.coverage_of_mean[0] <= 0.97

    def test_zero_width_counts_only_exact_hits(self):
        pred = np.array([[1.0, 1.0, 2.0]])
        trunc = np.zeros((1, 3))
        rep = coverage_report(pred, trunc, np.ones((1, 3), bool), levels=(0.95,))
        # target mean is 4/3: no exact hit, nothing covered
        assert rep.coverage_of_mean[0] == 0.0
        pred2 = np.array([[1.0, 1.0, 1.0]])
        rep2 = coverage_report(pred2, np.zeros((1, 3)), np.zeros((1, 3), bool), levels=(0.95,))
        assert rep2.coverage_of_mean[0] == 1.0  # exactly equal: covered

    def test_true_mean_coverage_reported(self):
        gen = np.random.default_rng(7)
        pred = gen.standard_normal((5, 40))
        trunc = np.ones((5, 40))
        rep = coverage_report(pred, trunc, np.zeros((5, 40), bool), (0.95,), true_means=np.zeros(5))
        assert rep.coverage_of_true is not None
        assert 0.0 <= rep.coverage_of_true[0] <= 1.0


class TestBiasGrid:
    def test_shape_single_replicate(self):
        grid = run_bias_grid(n=400, s=20, mode="cart", grid_resolution=2, r_replicates=1, b=10, seed=0)
        assert grid.cell_means.shape == (2, 2)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            run_bias_grid(n=100, s=10, mode="cart", grid_resolution=1, r_replicates=1, b=5)

    def test_honest_mode_near_label_mean(self):
        grid = run_bias_grid(n=2000, s=50, mode="honest", grid_resolution=3,
                             r_replicates=4, b=80, seed=2)
        assert np.all(np.abs(grid.cell_means - 0.01) < 0.03)


class TestBootstrapSource:
    def test_zero_residual_reproduces_fit(self):
        # constant labels fit exactly: regenerated labels equal fitted means
        gen = np.random.default_rng(8)
        ts = TrainingSet(gen.random((50, 2)), np.full(50, 2.0))
        with pytest.warns(UserWarning, match="residuals"):
            src = parametric_bootstrap_source(ts, forest.ForestConfig(b=10, seed=1))
        new = src.sample_training(np.random.default_rng(0), 30)
        assert np.all(new.y == 2.0)

    def test_regenerated_shape(self):
        gen = np.random.default_rng(9)
        ts = TrainingSet(gen.random((60, 3)), gen.standard_normal(60))
        src = parametric_bootstrap_source(ts, forest.ForestConfig(b=15, seed=2))
        new = src.sample_training(np.random.default_rng(1), 45)
        assert new.n == 45 and new.d == 3
        assert src.noise_sd > 0

    def test_features_resampled_from_base(self):
        gen = np.random.default_rng(10)
        ts = TrainingSet(gen.random((40, 2)), gen.standard_normal(40))
        src = parametric_bootstrap_source(ts, forest.ForestConfig(b=10, seed=3))
        pts = src.sample_test_points(np.random.default_rng(2), 20)
        base_rows = {tuple(r) for r in ts.x}
        assert all(tuple(r) in base_rows for r in pts)

    def test_end_to_end_metrics_smoke(self):
        spec = SyntheticSpec("cosine", 2)
        ts = dataset.gen_synthetic(spec, 120, seed=21)
        src = parametric_bootstrap_source(ts, forest.ForestConfig(b=40, seed=4))
        ex = ExperimentSpec(source=src, n=100, k_test=4, r_replicates=6,
                            forest=forest.ForestConfig(b=40, tree=tree.TreeConfig(mode="cart")),
                            seed=5)
        sim = simulate_predictions(ex)
        rep = metrics_report(sim.predictions, sim.vij_corrected)
        assert np.isfinite(rep.abs_mse)


class TestBernoulliSource:
    def test_labels_binary_with_rate(self):
        src = BernoulliSource(0.01)
        ts = src.sample_training(np.random.default_rng(0), 50000)
        assert set(np.unique(ts.y)) <= {0.0, 1.0}
        assert abs(ts.y.mean() - 0.01) < 0.005
        assert np.allclose(src.true_mean(ts.x[:5]), 0.01)
