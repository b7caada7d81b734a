import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subforest import dataset, forest, jackknife, oracle, rng


def _random_rows(b, n, s, seed=0):
    """(b, s) sorted subsample index rows, each a uniform s-subset of range(n)."""
    gen = np.random.default_rng(seed)
    return np.array([np.sort(gen.choice(n, s, replace=False)) for _ in range(b)])


class TestCWeights:
    def test_two_subsample_hand_expansion(self):
        # n=2, s=1, B=2, subsamples {0}, {1}: C_0 = (t0 - t1)/4
        t0, t1 = 3.0, 7.0
        rows = np.array([[0], [1]])
        c = jackknife.v_ij([t0, t1], rows, 2).c
        assert c[0] == pytest.approx((t0 - t1) / 4, rel=1e-15)
        assert c[1] == pytest.approx((t1 - t0) / 4, rel=1e-15)

    def test_equal_outputs_zero(self):
        rows = _random_rows(6, 10, 3)
        assert np.array_equal(jackknife.v_ij(np.full(6, 2.5), rows, 10).c, np.zeros(10))

    def test_constant_inclusion_gives_zero_weight(self):
        # if N_bi is the same for all b, C_i = 0 because sum_b (T_b - Tbar) = 0
        rows = np.tile(np.arange(4), (5, 1))  # s = 4 = n: every row full
        c = jackknife.v_ij(np.arange(5.0), rows, 4).c
        assert np.allclose(c, 0.0, atol=1e-12)

    def test_b_below_two_rejected(self):
        with pytest.raises(ValueError, match="B >= 2"):
            jackknife.v_ij(np.array([1.0]), np.array([[0]]), 2)

    @pytest.mark.parametrize("rows, n", [
        ([[1, 0], [0, 2], [1, 2]], 3),  # an unsorted row
        ([[1, 1], [0, 2], [1, 2]], 3),  # a duplicate index
        ([[0, 3], [0, 2], [1, 2]], 3),  # an index >= n
        ([[0, 1, 2, 3]] * 3, 3),  # rows wider than n
        ([[0, 1], [0, 2]], 3),  # two rows for three outputs
    ])
    def test_bad_subsample_rows_rejected(self, rows, n):
        with pytest.raises(ValueError, match="subsamples must be"):
            jackknife.v_ij(np.arange(3.0), np.array(rows), n)


class TestVij:
    def test_all_equal_outputs(self):
        rows = _random_rows(8, 6, 2)
        est = jackknife.v_ij(np.full(8, 1.5), rows, 6)
        assert est.plugin == 0.0 and est.v_hat == 0.0 and est.corrected == 0.0
        assert est.truncated == 0.0

    def test_correction_arithmetic(self):
        # n=10, s=3, B=7, outputs 1..7: v_hat = 4, correction = 2.1 * 4/7 = 1.2
        rows = _random_rows(7, 10, 3, seed=1)
        est = jackknife.v_ij(np.arange(1.0, 8.0), rows, 10)
        assert est.v_hat == pytest.approx(4.0, rel=1e-15)
        assert est.correction == pytest.approx(3 * 7 / 10 * 4.0 / 7, rel=1e-15)
        assert est.corrected == est.plugin - est.correction
        assert est.truncated == 9 / 10 * (10 / 7) ** 2 * max(est.corrected, 0.0) + est.v_hat / 6

    def test_monte_carlo_matches_enumeration(self):
        # n=6, s=2, subsample-mean learner: corrected at B=1e5 within 2% of exact
        ts = dataset.TrainingSet(
            np.arange(6, dtype=float).reshape(-1, 1) / 6, np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        )
        subsets, values = oracle.enumerate_subsamples(ts, oracle.SubsampleMean(), 2)
        exact = oracle.exact_vij(subsets, values, 6)
        gen = rng.stream(42, 99)
        ids = gen.integers(0, subsets.shape[0], size=10**5)
        est = jackknife.v_ij(values[ids], subsets[ids], 6)
        assert est.corrected == pytest.approx(exact, rel=0.02)

    def test_batch_matches_single(self, cosine_1k):
        fm = forest.train(cosine_1k, forest.ForestConfig(b=50, seed=3))
        xs = np.random.default_rng(0).random((5, 2))
        _, est = jackknife.predict_with_variance(fm, xs)
        assert est.c.shape == (fm.n, 5)
        assert all(getattr(est, name).shape == (5,) for name in _FIELDS)
        per = forest.predict_per_tree(fm, xs)
        views = jackknife.variance_estimates(fm, xs)
        assert len(views) == 5
        for k in range(5):
            view = est[k]
            single = jackknife.v_ij(per[:, k], fm.subsample_indices, fm.n)
            for name in _FIELDS:
                got = getattr(view, name)
                assert type(got) is float and got == getattr(est, name)[k] == getattr(views[k], name)
                assert got == pytest.approx(getattr(single, name), rel=1e-12)
            assert np.array_equal(view.c, est.c[:, k]) and np.array_equal(views[k].c, est.c[:, k])
            np.testing.assert_allclose(view.c, single.c, rtol=1e-12, atol=1e-12 * np.abs(single.c).max())

    def test_single_pass_matches_separate_calls(self, cosine_1k):
        fm = forest.train(cosine_1k, forest.ForestConfig(b=40, seed=5))
        xs = np.random.default_rng(2).random((7, 2))
        yhat, est = jackknife.predict_with_variance(fm, xs)
        assert np.array_equal(yhat, forest.predict_batch(fm, xs))
        want = jackknife.variance_estimates(fm, xs)
        for name in _FIELDS:
            assert np.array_equal(getattr(est, name), [getattr(w, name) for w in want])
        assert np.array_equal(est.c, np.column_stack([w.c for w in want]))

    def test_single_tree_forest_rejected(self, cosine_1k):
        fm = forest.train(cosine_1k, forest.ForestConfig(b=1, seed=2))
        with pytest.raises(ValueError, match="B >= 2"):
            jackknife.variance_estimates(fm, np.array([[0.5, 0.5]]))

    def test_per_tree_step_is_the_single_pass(self, cosine_1k):
        # the step the CLI times apart from the traversal, on the matrix it centers in place
        fm = forest.train(cosine_1k, forest.ForestConfig(b=40, seed=5))
        xs = np.random.default_rng(2).random((7, 2))
        per = forest.predict_per_tree(fm, xs)
        yhat, est = jackknife.variance_from_per_tree(fm, per)
        want_y, want = jackknife.predict_with_variance(fm, xs)
        assert np.array_equal(yhat, want_y) and np.array_equal(est.c, want.c)
        assert all(np.array_equal(getattr(est, name), getattr(want, name)) for name in _FIELDS)
        assert np.array_equal(per, forest.predict_per_tree(fm, xs) - yhat)
        with pytest.raises(ValueError, match=r"per-tree matrix must be \(B=40, K\), got \(39, 7\)"):
            jackknife.variance_from_per_tree(fm, per[:39])


def _dense(outputs, rows, n):
    """The unblocked formula on a (B, n) counts table: (plugin, correction, corrected, truncated, v_hat) per column, and C."""
    b, s = rows.shape
    counts = np.zeros((b, n), dtype=np.uint8)
    np.put_along_axis(counts, rows, 1, axis=1)
    centered = outputs - outputs.mean(axis=0, keepdims=True)
    c_all = (counts - s / n).T.astype(np.float64, copy=False) @ centered / b
    plugin = np.einsum("ik,ik->k", c_all, c_all)
    v_hat = np.einsum("bk,bk->k", centered, centered) / b
    correction = s * (n - s) / n * v_hat / b
    corrected = plugin - correction
    truncated = jackknife._finite_sample_scale(n, s) * np.maximum(corrected, 0.0) + v_hat / (b - 1)
    return np.array([plugin, correction, corrected, truncated, v_hat]), c_all


_FIELDS = ("plugin", "correction", "corrected", "truncated", "v_hat")


class TestBlockedKernel:
    @pytest.fixture
    def fitted(self, cosine_1k):
        fm = forest.train(cosine_1k, forest.ForestConfig(b=20, seed=8))
        xs = np.random.default_rng(4).random((6, 2))
        per = forest.predict_per_tree(fm, xs)
        return fm, xs, per, _dense(per, fm.subsample_indices, fm.n)

    @staticmethod
    def _fields(est):
        return np.array([getattr(est, f) for f in _FIELDS]), est.c

    @staticmethod
    def _stacked(views):
        """Per-query views as one (fields, C) pair, column k from view k."""
        return np.array([[getattr(e, f) for e in views] for f in _FIELDS]), np.column_stack([e.c for e in views])

    def test_blocks_match_dense_formula(self, fitted, monkeypatch):
        # blocks of 7, 7 and 6 trees
        monkeypatch.setattr(jackknife, "_IJ_BLOCK", 7)
        fm, xs, per, (want, want_c) = fitted
        yhat, est = jackknife.predict_with_variance(fm, xs)
        assert np.array_equal(yhat, per.mean(axis=0))
        singles = [jackknife.v_ij(per[:, k], fm.subsample_indices, fm.n) for k in range(xs.shape[0])]
        for fields, c in (self._fields(est), self._stacked(singles)):
            np.testing.assert_allclose(fields, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
            np.testing.assert_allclose(c, want_c, rtol=1e-12, atol=1e-12 * np.abs(want_c).max())

    def test_one_block_equals_dense_formula_exactly(self, fitted):
        fm, xs, per, (want, want_c) = fitted
        assert jackknife._IJ_BLOCK >= fm.b
        yhat, est = jackknife.predict_with_variance(fm, xs)
        assert np.array_equal(yhat, per.mean(axis=0))
        fields, c = self._fields(est)
        assert np.array_equal(fields, want) and np.array_equal(c, want_c)
        # one column takes BLAS's matrix-vector path, so it has its own dense reference
        want, want_c = _dense(per[:, 2:3], fm.subsample_indices, fm.n)
        single = jackknife.v_ij(per[:, 2], fm.subsample_indices, fm.n)
        assert np.array_equal(self._stacked([single])[0], want) and np.array_equal(single.c, want_c[:, 0])

    @pytest.mark.parametrize("block", [7, 2048])
    def test_v_ij_leaves_its_arguments_unchanged(self, monkeypatch, block):
        monkeypatch.setattr(jackknife, "_IJ_BLOCK", block)
        outputs = np.random.default_rng(1).standard_normal(20)
        rows = _random_rows(20, 9, 4, seed=2)
        kept = outputs.copy(), rows.copy()
        jackknife.v_ij(outputs, rows, 9)
        assert np.array_equal(outputs, kept[0]) and np.array_equal(rows, kept[1])

    def test_c_is_not_changed_by_a_later_call(self, fitted):
        fm, xs, _, _ = fitted
        _, first = jackknife.predict_with_variance(fm, xs)
        kept = first.c.copy()
        jackknife.predict_with_variance(fm, xs[::-1] * 0.5)
        jackknife.v_ij(np.arange(20.0), fm.subsample_indices, fm.n)
        assert np.array_equal(first.c, kept)


class TestSlabs:
    """The kernel's slabs of training rows against the dense formula."""

    @staticmethod
    def _case(n, s, b, k, seed=0):
        outputs = np.random.default_rng(seed).standard_normal((b, k))
        return outputs, _random_rows(b, n, s, seed).astype(np.int32)

    @pytest.mark.parametrize("n, s, b, k", [
        (3 * jackknife._IJ_SLAB + 37, 60, 50, 5),  # n not a multiple of the slab
        (jackknife._IJ_SLAB + 1, 30, 40, 3),  # one row past a slab
        (300, 300, 30, 3),  # s = n: every tree sees every row
        (jackknife._IJ_SLAB + 88, 60, jackknife._IJ_BLOCK + 1, 3),  # one tree past a block
    ])
    def test_matches_dense_formula(self, n, s, b, k):
        outputs, rows = self._case(n, s, b, k)
        want, want_c = _dense(outputs, rows, n)
        est = jackknife._estimates(outputs - outputs.mean(axis=0, keepdims=True), rows, n)
        fields, c = TestBlockedKernel._fields(est)
        np.testing.assert_allclose(fields, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        np.testing.assert_allclose(c, want_c, rtol=1e-12, atol=1e-12 * max(np.abs(want_c).max(), 1.0))

    @pytest.mark.parametrize("n", [2, 50, jackknife._IJ_SLAB])
    def test_one_slab_equals_dense_formula_exactly(self, n):
        outputs, rows = self._case(n, max(1, n // 4), 40, 4)
        want, want_c = _dense(outputs, rows, n)
        est = jackknife._estimates(outputs - outputs.mean(axis=0, keepdims=True), rows, n)
        fields, c = TestBlockedKernel._fields(est)
        assert np.array_equal(fields, want) and np.array_equal(c, want_c)

    def test_one_query_through_v_ij(self):
        n = 2 * jackknife._IJ_SLAB + 5
        outputs, rows = self._case(n, 40, 60, 1)
        want, want_c = _dense(outputs, rows, n)
        est = jackknife.v_ij(outputs[:, 0], rows, n)
        fields = np.array([[getattr(est, f)] for f in _FIELDS])
        np.testing.assert_allclose(fields, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        np.testing.assert_allclose(est.c, want_c[:, 0], rtol=1e-12, atol=1e-12 * np.abs(want_c).max())

    def test_scratch_is_under_a_quarter_of_a_float64_block(self):
        # the dense formula's (B, n) float64 block of N* - s/n is b * n * 8 bytes
        n, s, b, k = 20000, 1000, 300, 3
        outputs, rows = self._case(n, s, b, k)
        centered = outputs - outputs.mean(axis=0, keepdims=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            est = jackknife._estimates(centered, rows, n)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak - est.c.nbytes < b * n * 8 / 4


class TestFiniteSampleScale:
    @pytest.mark.parametrize("s", [1, 2, 3, 5, 7])
    def test_scaled_mean_learner_is_full_sample_mean_variance(self, s):
        # subsample mean: (n-1)/n * (n/(n-s))^2 * sum_i Cov(T, N_i)^2, enumerated
        # exactly, is sum_i (y_i - ybar)^2 / (n(n-1)), the variance of the full-sample mean
        y = np.array([2.0, 4.0, 1.0, 6.0, 3.0, 5.0, 8.0, 7.0])
        n = y.size
        ts = dataset.TrainingSet(np.linspace(0.05, 0.95, n).reshape(-1, 1), y)
        exact = oracle.exact_vij(*oracle.enumerate_subsamples(ts, oracle.SubsampleMean(), s), n)
        scaled = jackknife._finite_sample_scale(n, s) * exact
        assert scaled == pytest.approx(np.sum((y - y.mean()) ** 2) / (n * (n - 1)), rel=1e-12)

    def test_s_equals_n_keeps_only_monte_carlo_term(self):
        # every tree sees all rows: C = 0, so only v_hat/(B-1) remains
        est = jackknife.v_ij(np.arange(5.0), np.tile(np.arange(4), (5, 1)), 4)
        assert est.plugin == 0.0 and est.corrected == 0.0
        assert est.truncated == est.v_hat / 4


class TestInvariances:
    @given(st.floats(min_value=0.25, max_value=4.0), st.integers(min_value=0, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_scale_equivariance(self, a, seed):
        gen = np.random.default_rng(seed)
        outputs = gen.standard_normal(12)
        rows = _random_rows(12, 8, 3, seed)
        base = jackknife.v_ij(outputs, rows, 8)
        scaled = jackknife.v_ij(a * outputs, rows, 8)
        assert scaled.plugin == pytest.approx(a * a * base.plugin, rel=1e-9)
        assert scaled.correction == pytest.approx(a * a * base.correction, rel=1e-9)
        assert scaled.corrected == pytest.approx(a * a * base.corrected, rel=1e-9, abs=1e-12)

    @given(st.floats(min_value=-50.0, max_value=50.0), st.integers(min_value=0, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_translation_invariance(self, shift, seed):
        gen = np.random.default_rng(seed)
        outputs = gen.standard_normal(12)
        rows = _random_rows(12, 8, 3, seed)
        base = jackknife.v_ij(outputs, rows, 8)
        shifted = jackknife.v_ij(outputs + shift, rows, 8)
        assert shifted.plugin == pytest.approx(base.plugin, rel=1e-7, abs=1e-12)
        assert shifted.corrected == pytest.approx(base.corrected, rel=1e-7, abs=1e-12)

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_replicate_order_invariance(self, seed):
        gen = np.random.default_rng(seed)
        outputs = gen.standard_normal(10)
        rows = _random_rows(10, 7, 3, seed)
        perm = gen.permutation(10)
        base = jackknife.v_ij(outputs, rows, 7)
        shuffled = jackknife.v_ij(outputs[perm], rows[perm], 7)
        assert shuffled.plugin == pytest.approx(base.plugin, rel=1e-12)
        assert shuffled.corrected == pytest.approx(base.corrected, rel=1e-12, abs=1e-15)


class TestCorrectionUnbiasedness:
    def test_plugin_exceeds_exact_by_mean_correction(self):
        # over independent MC runs at small B, mean(corrected) approaches the
        # enumerated value while mean(plugin) exceeds it by ~ the correction
        ts = dataset.TrainingSet(
            np.arange(6, dtype=float).reshape(-1, 1) / 6, np.array([2.0, 4.0, 1.0, 6.0, 3.0, 5.0])
        )
        subsets, values = oracle.enumerate_subsamples(ts, oracle.SubsampleMean(), 2)
        exact = oracle.exact_vij(subsets, values, 6)
        b = 200
        corrected, plugin = [], []
        for seed in range(300):
            ids = rng.stream(seed, 7).integers(0, subsets.shape[0], size=b)
            est = jackknife.v_ij(values[ids], subsets[ids], 6)
            corrected.append(est.corrected)
            plugin.append(est.plugin)
        corrected = np.array(corrected)
        plugin = np.array(plugin)
        se = corrected.std(ddof=1) / np.sqrt(corrected.size)
        assert abs(corrected.mean() - exact) < 4 * se
        predicted_gap = 2 * (6 - 2) / 6 * values.var() / b
        gap_se = (plugin - exact).std(ddof=1) / np.sqrt(plugin.size)
        assert abs((plugin.mean() - exact) - predicted_gap) < 4 * gap_se


class TestInterval:
    def test_zero_variance_zero_width(self):
        est = jackknife.VarianceEstimate(0.0, 0.0, 0.0, 0.0, 0.0, np.zeros(3))
        ci = jackknife.interval(1.5, est, 0.95)
        assert ci.half_width == 0.0 and not ci.degenerate
        assert ci.lo == ci.hi == 1.5

    def test_unit_variance_standard_quantile(self):
        est = jackknife.VarianceEstimate(1.0, 0.0, 1.0, 1.0, 0.0, np.zeros(3))
        ci = jackknife.interval(0.0, est, 0.95)
        assert ci.half_width == pytest.approx(1.959964, abs=1e-6)

    def test_negative_corrected_flags_degenerate(self):
        est = jackknife.VarianceEstimate(0.1, 0.3, -0.2, 0.0, 0.5, np.zeros(3))
        ci = jackknife.interval(2.0, est, 0.95)
        assert ci.degenerate and ci.half_width == 0.0

    def test_invalid_level(self):
        est = jackknife.VarianceEstimate(0.0, 0.0, 0.0, 0.0, 0.0, np.zeros(1))
        with pytest.raises(ValueError, match="level"):
            jackknife.interval(0.0, est, 1.0)

    @staticmethod
    def _bits(values):
        return np.asarray(values, dtype=np.float64).view(np.uint64)

    @pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.999])
    def test_one_call_equals_per_row_calls_bit_for_bit(self, level):
        gen = np.random.default_rng(3)
        k, n, b, s = 40, 30, 12, 9
        yhat = gen.standard_normal(k)
        plugin, v_hat = gen.random(k), gen.random(k)
        plugin[0] = v_hat[0] = 0.0  # a zero-variance row
        correction = s * (n - s) / n * v_hat / b
        corrected = plugin - correction  # some rows negative: degenerate
        truncated = jackknife._finite_sample_scale(n, s) * np.maximum(corrected, 0.0) + v_hat / (b - 1)
        est = jackknife.VarianceEstimate(plugin, correction, corrected, truncated, v_hat, gen.random((n, k)))
        batch = jackknife.interval(yhat, est, level)
        rows = [jackknife.interval(y, est[i], level) for i, y in enumerate(yhat.tolist())]
        assert batch.level == level and batch.half_width[0] == 0.0 and 0 < batch.degenerate.sum() < k
        assert np.array_equal(batch.degenerate, [ci.degenerate for ci in rows])
        for name in ("center", "half_width", "lo", "hi"):
            assert np.array_equal(self._bits(getattr(batch, name)), self._bits([getattr(ci, name) for ci in rows]))
