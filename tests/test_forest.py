import os

import numpy as np
import pytest

from subforest import dataset, forest, rng, sampling, tree
from subforest.dataset import SyntheticSpec, TrainingSet
from subforest.forest import ForestConfig

from conftest import time_limit, trees_equal


class TestConfig:
    def test_rules_resolve(self):
        s, b = ForestConfig().resolve(200)
        assert (s, b) == (40, 1000)

    def test_explicit_values(self):
        s, b = ForestConfig(s=10, b=7).resolve(100)
        assert (s, b) == (10, 7)

    def test_s_exceeding_n_rejected(self):
        with pytest.raises(ValueError, match="s="):
            ForestConfig(s=100).resolve(50)


class TestTrain:
    def test_single_tree_forest_equals_tree(self, cosine_1k):
        fm = forest.train(cosine_1k, ForestConfig(b=1, seed=2))
        xq = [0.3, 0.6]
        assert forest.predict(fm, xq) == tree.predict(fm.trees[0], xq)

    def test_constant_labels_constant_prediction(self):
        gen = np.random.default_rng(0)
        ts = TrainingSet(gen.random((80, 2)), np.full(80, 3.25))
        for mode in ("honest", "cart"):
            fm = forest.train(ts, ForestConfig(b=20, seed=1, tree=tree.TreeConfig(mode=mode)))
            for xq in gen.random((5, 2)):
                assert forest.predict(fm, xq) == pytest.approx(3.25, rel=1e-12)

    def test_records_match_trees(self, cosine_1k):
        fm = forest.train(cosine_1k, ForestConfig(b=10, seed=3))
        assert fm.subsample_indices.shape == (10, fm.s)
        counts = fm.counts_matrix()
        assert counts.shape == (10, 1000)
        assert np.all(counts.sum(axis=1) == fm.s)
        for b, t in enumerate(fm.trees):
            assert np.array_equal(np.nonzero(counts[b])[0], t.subsample.indices)

    def test_prefix_property_in_b(self, cosine_1k):
        big = forest.train(cosine_1k, ForestConfig(b=12, seed=4))
        small = forest.train(cosine_1k, ForestConfig(b=5, seed=4))
        for a, b in zip(small.trees, big.trees[:5]):
            assert trees_equal(a, b)

    def test_parallel_training_is_deterministic(self, cosine_1k):
        serial = forest.train(cosine_1k, ForestConfig(b=16, seed=5), n_jobs=1)
        par2 = forest.train(cosine_1k, ForestConfig(b=16, seed=5), n_jobs=2)
        par8 = forest.train(cosine_1k, ForestConfig(b=16, seed=5), n_jobs=8)
        for f2 in (par2, par8):
            assert np.array_equal(serial.subsample_indices, f2.subsample_indices)
            for a, b in zip(serial.trees, f2.trees):
                assert trees_equal(a, b)


_PACKED = ("feature", "threshold", "child", "value", "pred_index", "from_random", "roots",
           "subsample_indices", "prediction_indices")


def _same_forest(a, b) -> bool:
    return all(
        (getattr(a, k) is None and getattr(b, k) is None) or np.array_equal(getattr(a, k), getattr(b, k))
        for k in _PACKED
    )


class TestBlockGrowth:
    @pytest.mark.parametrize("mode", ["honest", "cart"])
    def test_block_size_does_not_change_trees(self, cosine_1k, monkeypatch, mode):
        cfg = ForestConfig(b=23, seed=14, tree=tree.TreeConfig(mode=mode))
        # 23 trees fall into ranges of 6; a block of 256 holds a whole range
        grown = {}
        for block in (1, 7, 256):
            monkeypatch.setattr(forest, "_TREE_BLOCK", block)
            grown[block] = forest.train(cosine_1k, cfg)
        # and all 23 in one block
        resolved = grown[1].config
        one_block = forest._pack(forest._fit_range((cosine_1k, tree.sorted_axes(cosine_1k), resolved, resolved.s, 0, 23)),
                                 cosine_1k.n, resolved.s, cosine_1k.d, resolved)
        assert _same_forest(grown[1], grown[7])
        assert _same_forest(grown[1], grown[256])
        assert _same_forest(grown[1], one_block)

    def test_trees_equal_one_tree_fits_on_the_same_stream(self, cosine_1k):
        for mode in ("honest", "cart"):
            cfg = ForestConfig(b=6, seed=15, tree=tree.TreeConfig(mode=mode))
            fm = forest.train(cosine_1k, cfg)
            for b, t in enumerate(fm.trees):
                g = rng.stream(15, rng.TREE, b)
                draw = sampling.draw_subsample(cosine_1k.n, fm.s, g)
                if mode == "honest":
                    part = sampling.honesty_partition(draw, g)
                    alone = tree.fit_honest(cosine_1k, draw, part, cfg.tree, g)
                    assert np.array_equal(t.partition.prediction, part.prediction)
                    assert np.array_equal(t.partition.structure, part.structure)
                else:
                    alone = tree.fit_greedy_cart(cosine_1k, draw, cfg.tree, g)
                assert np.array_equal(t.subsample.indices, draw.indices)
                assert trees_equal(t, alone)
                assert np.array_equal(t.left, alone.left) and np.array_equal(t.right, alone.right)

    def test_draws_match_per_tree_sampling(self, cosine_1k):
        fm = forest.train(cosine_1k, ForestConfig(b=30, s=40, seed=16))
        for b in range(30):
            g = rng.stream(16, rng.TREE, b)
            draw = sampling.draw_subsample(cosine_1k.n, 40, g)
            part = sampling.honesty_partition(draw, g)
            assert np.array_equal(fm.subsample_indices[b], draw.indices)
            assert np.array_equal(fm.prediction_indices[b], part.prediction)

    def test_breadth_first_node_order(self, cosine_1k):
        fm = forest.train(cosine_1k, ForestConfig(b=8, seed=17))
        for t in fm.trees:
            inner = np.flatnonzero(t.feature >= 0)
            # children are numbered in the order of their parents, left then right
            kids = np.column_stack([t.left[inner], t.right[inner]]).ravel()
            assert np.array_equal(kids, np.arange(1, t.n_nodes))

    def test_honest_forest_passes_regularity_audit(self, cosine_1k):
        fm = forest.train(cosine_1k, ForestConfig(b=200, seed=0), n_jobs=2)
        assert fm.s == 125
        assert all(tree.validate_regularity(t, cosine_1k).passed for t in fm.trees)

    def test_prediction_labels_do_not_move_splits(self, cosine_1k):
        cfg = ForestConfig(b=23, seed=18)
        fm = forest.train(cosine_1k, cfg)
        # labels of points that are no tree's structure point are read by leaves only
        structure = np.concatenate([t.partition.structure for t in fm.trees])
        free = np.setdiff1d(np.arange(cosine_1k.n), structure)
        y2 = cosine_1k.y.copy()
        y2[free] = cosine_1k.y[np.random.default_rng(1).permutation(free)]
        assert not np.array_equal(y2, cosine_1k.y)
        ts2 = TrainingSet(cosine_1k.x, y2)
        fm2 = forest.train(ts2, cfg)
        for name in ("feature", "threshold", "from_random", "child", "pred_index"):
            assert np.array_equal(getattr(fm, name), getattr(fm2, name)), name
        leaves = fm2.feature < 0
        assert np.array_equal(fm2.value[leaves], y2[fm2.pred_index[leaves]])


class TestPredict:
    def test_mean_of_two_trees(self, cosine_1k):
        fm = forest.train(cosine_1k, ForestConfig(b=2, seed=6))
        xq = [0.4, 0.4]
        per = forest.predict_per_tree(fm, np.asarray(xq))
        assert per.shape == (2,)
        assert forest.predict(fm, xq) == pytest.approx(per.mean(), rel=1e-15)

    def test_per_tree_matrix_shape_and_mean(self, cosine_1k):
        fm = forest.train(cosine_1k, ForestConfig(b=9, seed=7))
        xs = np.random.default_rng(0).random((6, 2))
        per = forest.predict_per_tree(fm, xs)
        assert per.shape == (9, 6)
        batch = forest.predict_batch(fm, xs)
        assert np.allclose(per.mean(axis=0), batch, rtol=1e-12)
        for k in range(6):
            assert per[:, k].min() <= batch[k] <= per[:, k].max()

    def test_per_tree_matches_tree_predict(self, cosine_1k):
        fm = forest.train(cosine_1k, ForestConfig(b=5, seed=8))
        xs = np.random.default_rng(1).random((4, 2))
        per = forest.predict_per_tree(fm, xs)
        for b, t in enumerate(fm.trees):
            for k in range(4):
                assert per[b, k] == tree.predict(t, xs[k])

    def test_bounded_labels_bounded_predictions(self):
        gen = np.random.default_rng(2)
        ts = TrainingSet(gen.random((100, 2)), gen.uniform(-2.0, 2.0, 100))
        fm = forest.train(ts, ForestConfig(b=15, seed=9))
        preds = forest.predict_batch(fm, gen.random((30, 2)))
        assert np.all(preds >= -2.0) and np.all(preds <= 2.0)

    @pytest.mark.parametrize("block", [7, 64, forest._PAIR_BLOCK])
    @pytest.mark.parametrize("mode", ["honest", "cart"])
    def test_blocked_traversal_matches_tree_predict(self, cosine_1k, monkeypatch, block, mode):
        # B*K = 11*9 pairs: blocks end mid-tree and mid-point for the small sizes
        fm = forest.train(cosine_1k, ForestConfig(b=11, seed=13, tree=tree.TreeConfig(mode=mode)))
        monkeypatch.setattr(forest, "_PAIR_BLOCK", block)
        xs = np.random.default_rng(4).random((9, 2))
        per = forest.predict_per_tree(fm, xs)
        one = forest.predict_per_tree(fm, xs[:1])
        single = forest.predict_per_tree(fm, xs[0])
        assert per.shape == (11, 9) and one.shape == (11, 1) and single.shape == (11,)
        for b, t in enumerate(fm.trees):
            assert single[b] == one[b, 0] == tree.predict(t, xs[0])
            for k in range(9):
                assert per[b, k] == tree.predict(t, xs[k])

    def test_ties_go_left_and_nan_goes_right(self):
        # two stumps on x1 at 0.5 and 0.25: leaf values 1/2 and 3/4
        fm = forest.ForestModel(
            feature=[0, -1, -1, 0, -1, -1],
            threshold=[0.5, 0.0, 0.0, 0.25, 0.0, 0.0],
            child=[[1, 2], [1, 1], [2, 2], [4, 5], [4, 4], [5, 5]],
            value=[0.0, 1.0, 2.0, 0.0, 3.0, 4.0],
            pred_index=[-1] * 6,
            from_random=[False] * 6,
            roots=[0, 3],
            subsample_indices=[[0, 1], [1, 2]],
            prediction_indices=None,
            n=3, d=1, s=2, b=2,
            config=ForestConfig(s=2, b=2, tree=tree.TreeConfig(mode="cart")),
        )
        per = forest.predict_per_tree(fm, np.array([[0.5], [0.25], [np.nan], [0.3]]))
        assert np.array_equal(per, [[1.0, 1.0, 2.0, 1.0], [4.0, 3.0, 4.0, 4.0]])

    @staticmethod
    def _bitmask_calls(monkeypatch) -> list:
        """Record the query shape of every bitmask traversal."""
        calls, real = [], forest._bitmask
        monkeypatch.setattr(forest, "_bitmask", lambda fm, xs: calls.append(xs.shape) or real(fm, xs))
        return calls

    @staticmethod
    def _hard_queries(fm, k, seed) -> np.ndarray:
        """k queries with NaN and infinite coordinates, split thresholds and duplicates."""
        xs = np.random.default_rng(seed).random((k, fm.d))
        xs[0] = np.nan
        xs[1, 0], xs[2, 0], xs[3, -1] = np.inf, -np.inf, np.nan
        inner = np.flatnonzero(fm.feature >= 0)
        for row, node in zip(range(4, 24), inner[:: max(1, inner.size // 20)]):
            xs[row, fm.feature[node]] = fm.threshold[node]
        xs[24:30] = xs[4:10]
        return xs

    @staticmethod
    def _matches_tree_predict(fm, xs, per):
        for b, t in enumerate(fm.trees):
            for k in range(xs.shape[0]):
                assert per[b, k] == tree.predict(t, xs[k]), (b, k)

    @pytest.mark.parametrize("mode", ["honest", "cart"])
    def test_bitmask_matches_tree_predict(self, cosine_1k, monkeypatch, mode):
        fm = forest.train(cosine_1k, ForestConfig(b=12, seed=19, tree=tree.TreeConfig(mode=mode)))
        k = fm.feature.size // fm.b + 10
        calls = self._bitmask_calls(monkeypatch)
        xs = self._hard_queries(fm, k, 5)
        per = forest.predict_per_tree(fm, xs)
        assert calls == [(k, 2)]
        self._matches_tree_predict(fm, xs, per)
        assert np.array_equal(per, forest._walk(fm, xs))

    @pytest.mark.parametrize("chunk, words", [(7, 1 << 17), (1024, 300), (5, 40)])
    def test_bitmask_chunks_match_tree_predict(self, cosine_1k, monkeypatch, chunk, words):
        # queries span several chunks, trees several tables (40 words hold one tree)
        fm = forest.train(cosine_1k, ForestConfig(b=9, seed=20))
        monkeypatch.setattr(forest, "_QUERY_CHUNK", chunk)
        monkeypatch.setattr(forest, "_TABLE_WORDS", words)
        calls = self._bitmask_calls(monkeypatch)
        xs = self._hard_queries(fm, 150, 6)
        per = forest.predict_per_tree(fm, xs)
        assert calls == [(150, 2)]
        self._matches_tree_predict(fm, xs, per)

    def test_bitmask_single_leaf_tree(self, monkeypatch):
        # a one-leaf tree next to a stump on x2 at 0.5
        fm = forest.ForestModel(
            feature=[-1, 1, -1, -1],
            threshold=[0.0, 0.5, 0.0, 0.0],
            child=[[0, 0], [2, 3], [2, 2], [3, 3]],
            value=[7.0, 0.0, 1.0, 2.0],
            pred_index=[-1] * 4,
            from_random=[False] * 4,
            roots=[0, 1],
            subsample_indices=[[0, 1], [1, 2]],
            prediction_indices=None,
            n=3, d=2, s=2, b=2,
            config=ForestConfig(s=2, b=2, tree=tree.TreeConfig(mode="cart")),
        )
        calls = self._bitmask_calls(monkeypatch)
        per = forest.predict_per_tree(fm, np.array([[0.0, 0.5], [np.nan, 0.7], [1.0, np.nan]]))
        assert calls == [(3, 2)]
        assert np.array_equal(per, [[7.0, 7.0, 7.0], [1.0, 2.0, 2.0]])

    def test_walk_beyond_one_mask_word_or_few_queries(self, cosine_1k, monkeypatch):
        calls = self._bitmask_calls(monkeypatch)
        # s = n: CART trees of more than 64 leaves
        deep = forest.train(cosine_1k, ForestConfig(s=1000, b=3, seed=21, tree=tree.TreeConfig(mode="cart")))
        assert np.add.reduceat(deep.feature < 0, deep.roots).min() > 64
        xs = self._hard_queries(deep, deep.feature.size // deep.b + 5, 7)
        self._matches_tree_predict(deep, xs, forest.predict_per_tree(deep, xs))
        # fewer queries than nodes per tree
        fm = forest.train(cosine_1k, ForestConfig(b=6, seed=22))
        xs = self._hard_queries(fm, fm.feature.size // fm.b - 5, 8)
        self._matches_tree_predict(fm, xs, forest.predict_per_tree(fm, xs))
        # more features than the bitmask takes
        wide = dataset.gen_synthetic(SyntheticSpec("cosine", forest._MASK_MAX_D + 1), 300, seed=3)
        fw = forest.train(wide, ForestConfig(b=4, seed=23))
        xs = self._hard_queries(fw, 200, 9)
        self._matches_tree_predict(fw, xs, forest.predict_per_tree(fw, xs))
        assert calls == []

    def test_dimension_mismatch(self, cosine_1k):
        fm = forest.train(cosine_1k, ForestConfig(b=2, seed=10))
        with pytest.raises(ValueError, match="features"):
            forest.predict_batch(fm, np.ones((2, 3)))


class TestWorkers:
    @pytest.mark.parametrize(
        "requested, tasks, cores, want",
        [(1000, 8, 2, 2), (1000, 1, 64, 1), (3, 10, 8, 3), (0, 5, 4, 1), (-2, 5, 4, 1), (4, 0, 4, 1)],
    )
    def test_worker_count_clamp(self, requested, tasks, cores, want):
        assert forest.worker_count(requested, tasks, cores) == want

    def test_fan_out_pool_is_clamped(self, monkeypatch):
        # a stand-in pool records its size and maps serially: no process starts
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(forest, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(forest, "usable_cores", lambda: 2)
        assert forest.fan_out(abs, [-1, -2, -3], 1000) == [1, 2, 3]
        assert forest.fan_out(abs, [-4], 1000) == [4]
        assert forest.fan_out(abs, [-5, -6], 1) == [5, 6]
        assert sizes == [2]

    def test_dead_worker_names_lost_jobs(self, monkeypatch):
        # two usable cores: the jobs run in pool workers, never in this process
        monkeypatch.setattr(forest, "usable_cores", lambda: 2)
        with time_limit(120), pytest.raises(forest.WorkerError, match="no results for replicate 0, replicate 1$"):
            forest.fan_out(_exit_worker, [0, 1], 2, lambda job: f"replicate {job}")


def _exit_worker(job):
    os._exit(3)


class TestConsistencySanity:
    def test_noise_free_cosine_center(self):
        # measured across several seeds before freezing: |error| stays well
        # under 0.5 at n=2000, B=1000 on noise-free data
        spec = SyntheticSpec("cosine", 2, noise_sd=0.0)
        ts = dataset.gen_synthetic(spec, 2000, seed=17)
        fm = forest.train(ts, ForestConfig(b=1000, seed=17), n_jobs=2)
        pred = forest.predict(fm, [0.5, 0.5])
        assert abs(pred - (-3.0)) < 0.5
