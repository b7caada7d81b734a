import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subforest import dataset, forest, rng, tree
from subforest.dataset import SyntheticSpec, TrainingSet
from subforest.forest import ForestConfig

from conftest import (format4_arrays, reference_children, reference_leaf, reference_partition, reference_predict,
                      reference_subsample, same_forest, time_limit)
from regularity import replayed_prediction, validate_regularity


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
        assert forest.predict_batch(fm, [xq])[0] == reference_predict(fm, 0, xq)

    def test_constant_labels_constant_prediction(self):
        gen = np.random.default_rng(0)
        ts = TrainingSet(gen.random((80, 2)), np.full(80, 3.25))
        for mode in ("honest", "cart"):
            fm = forest.train(ts, ForestConfig(b=20, seed=1, tree=tree.TreeConfig(mode=mode)))
            for xq in gen.random((5, 2)):
                assert forest.predict_batch(fm, [xq])[0] == pytest.approx(3.25, rel=1e-12)

    def test_records_match_trees(self, cosine_1k):
        fm = forest.train(cosine_1k, ForestConfig(b=10, seed=3))
        assert fm.subsample_indices.shape == (10, fm.s)

    def test_index_beyond_int32_is_refused_not_wrapped(self, cosine_1k):
        # int64 rows holding an index + 2**32 would wrap back to the index in int32
        fm = forest.train(cosine_1k, ForestConfig(b=4, seed=3))
        rows = fm.subsample_indices.astype(np.int64)
        rows[0, 0] += 2**32
        with pytest.raises(ValueError, match="subsample_indices holds values outside the range of <i4"):
            replace(fm, subsample_indices=rows)

    def test_split_kind_out_of_range_refused_in_memory(self, cosine_1k):
        fm = forest.train(cosine_1k, ForestConfig(b=4, seed=3))
        kinds = fm.split_kind.copy()
        kinds[0] = len(tree.SPLIT_KINDS)
        with pytest.raises(ValueError, match=r"split kinds must lie in \[0, 4\)"):
            replace(fm, split_kind=kinds)

    def test_config_must_match_the_index_rows(self, cosine_1k):
        # a mismatched config would be saved to a file that loading refuses
        fm = forest.train(cosine_1k, ForestConfig(b=4, seed=3))
        for cfg in (replace(fm.config, s=None, b=None), replace(fm.config, s=fm.s + 1), replace(fm.config, b=5)):
            with pytest.raises(ValueError, match="does not match the forest's s=.*, b=4"):
                replace(fm, config=cfg)

    def test_fit_subsamples_sizes_its_config_from_the_rows(self, cosine_1k):
        # CART trees draw nothing when given their subsamples, so they regrow as trained
        cfg = ForestConfig(b=6, seed=15, tree=tree.TreeConfig(mode="cart"))
        fm = forest.train(cosine_1k, cfg)
        paths = [(15, rng.TREE, b) for b in range(6)]
        again = forest.fit_subsamples(cosine_1k, replace(cfg, b=None), fm.subsample_indices, paths)
        assert again.config == fm.config == replace(cfg, s=fm.s)
        assert same_forest(again, fm)
        honest = forest.fit_subsamples(cosine_1k, ForestConfig(), fm.subsample_indices[:2], paths[:2])
        assert (honest.s, honest.b, honest.config.s, honest.config.b) == (fm.s, 2, fm.s, 2)

    @pytest.mark.parametrize("mode", ["honest", "cart"])
    @pytest.mark.parametrize("n_paths", [2, 4])
    def test_fit_subsamples_needs_one_path_per_row(self, cosine_1k, mode, n_paths):
        sub = forest.train(cosine_1k, ForestConfig(b=3, seed=15)).subsample_indices
        paths = [(15, rng.TREE, b) for b in range(n_paths)]
        with pytest.raises(ValueError, match=f"{n_paths} paths for 3 rows"):
            forest.fit_subsamples(cosine_1k, ForestConfig(tree=tree.TreeConfig(mode=mode)), sub, paths)

    def test_prefix_property_in_b(self, cosine_1k):
        big = forest.train(cosine_1k, ForestConfig(b=12, seed=4))
        small = forest.train(cosine_1k, ForestConfig(b=5, seed=4))
        end = big.roots[5]
        small_pred, big_pred = replayed_prediction(small), replayed_prediction(big)
        old_small, old_big = format4_arrays(small, cosine_1k, small_pred), format4_arrays(big, cosine_1k, big_pred)
        for name in ("feature", "threshold", "value", "pred_index", "split_kind"):
            assert np.array_equal(old_small[name], old_big[name][:end]), name
        assert np.array_equal(small.roots, big.roots[:5])
        assert np.array_equal(small.subsample_indices, big.subsample_indices[:5])
        assert np.array_equal(small_pred, big_pred[:5])

    def test_parallel_training_is_deterministic(self, cosine_1k):
        serial = forest.train(cosine_1k, ForestConfig(b=16, seed=5), n_jobs=1)
        par2 = forest.train(cosine_1k, ForestConfig(b=16, seed=5), n_jobs=2)
        par8 = forest.train(cosine_1k, ForestConfig(b=16, seed=5), n_jobs=8)
        for f2 in (par2, par8):
            assert same_forest(serial, f2)


class TestBlockGrowth:
    @pytest.mark.parametrize("mode", ["honest", "cart"])
    def test_block_size_does_not_change_trees(self, cosine_1k, monkeypatch, mode):
        cfg = ForestConfig(b=23, seed=14, tree=tree.TreeConfig(mode=mode))
        # the drawn labels, and the same with every positive label made -0.0,
        # so that some CART leaves sum only -0.0 labels and must keep the sign
        for ts in (cosine_1k, TrainingSet(cosine_1k.x, np.minimum(cosine_1k.y, -0.0))):
            # 23 trees fall into ranges of 6; a block of 256 holds a whole range
            grown = {}
            for block in (1, 7, 256):
                monkeypatch.setattr(forest, "_TREE_BLOCK", block)
                grown[block] = forest.train(ts, cfg)
            # and all 23 in one block
            resolved = grown[1].config
            one_block = forest._pack(forest._fit_range((ts, tree.sorted_axes(ts), resolved, 0, 23)),
                                     ts.n, resolved.s, ts.d, resolved)
            assert same_forest(grown[1], grown[7])
            assert same_forest(grown[1], grown[256])
            assert same_forest(grown[1], one_block)

    def test_trees_equal_one_tree_fits_on_the_same_stream(self, cosine_1k):
        axes = tree.sorted_axes(cosine_1k)
        for mode in ("honest", "cart"):
            cfg = ForestConfig(b=6, seed=15, tree=tree.TreeConfig(mode=mode))
            fm = forest.train(cosine_1k, cfg)
            replayed = replayed_prediction(fm) if mode == "honest" else None
            ends = np.append(fm.roots[1:], fm.feature.size)
            for b in range(6):
                g = rng.stream(15, rng.TREE, b)
                sub = reference_subsample(g, cosine_1k.n, fm.s)
                if mode == "honest":
                    structure, prediction = reference_partition(g, sub)
                    uniforms = tree.split_uniforms(g, prediction.size)
                    alone = tree.grow_block(cosine_1k, axes, cfg.tree, structure[None],
                                            prediction[None], uniforms[None])
                    assert np.array_equal(replayed[b], prediction)
                else:
                    alone = tree.grow_block(cosine_1k, axes, cfg.tree, sub[None])
                assert np.array_equal(fm.subsample_indices[b], sub)
                # one value per node: each split's threshold and each leaf's value
                for name in ("feature", "value", "split_kind"):
                    assert np.array_equal(getattr(fm, name)[fm.roots[b]:ends[b]], getattr(alone, name)), (mode, b, name)

    def test_draws_match_per_tree_sampling(self, cosine_1k):
        fm = forest.train(cosine_1k, ForestConfig(b=30, s=40, seed=16))
        replayed = replayed_prediction(fm)
        for b in range(30):
            g = rng.stream(16, rng.TREE, b)
            sub = reference_subsample(g, cosine_1k.n, 40)
            _, prediction = reference_partition(g, sub)
            assert np.array_equal(fm.subsample_indices[b], sub)
            assert np.array_equal(replayed[b], prediction)

    def test_breadth_first_node_order(self, cosine_1k):
        for mode in ("honest", "cart"):
            fm = forest.train(cosine_1k, ForestConfig(b=8, seed=17, tree=tree.TreeConfig(mode=mode)))
            left = tree.left_children(fm.feature, fm.roots)
            for b in range(8):
                # the derived children are the reference walker's, and the
                # tree's splits number its other nodes in order, left then right
                ref = reference_children(fm, b)
                assert {i: left[i] for i in ref} == ref
                kids = np.array([[ref[i], ref[i] + 1] for i in sorted(ref)]).ravel()
                end = fm.roots[b + 1] if b < 7 else fm.feature.size
                assert np.array_equal(kids, np.arange(fm.roots[b] + 1, end))
            leaves = np.flatnonzero(fm.feature < 0)
            assert np.array_equal(left[leaves], leaves)

    def test_child_ids_derived_and_checked_in_blocks(self, cosine_1k, monkeypatch):
        fm = forest.train(cosine_1k, ForestConfig(b=8, seed=17))
        whole = tree.left_children(fm.feature, fm.roots)
        monkeypatch.setattr(tree, "_ID_BLOCK", 7)
        assert np.array_equal(tree.left_children(fm.feature, fm.roots), whole)
        # the last tree's root made a leaf and its last node a split: that
        # split, blocks past the first, has no split before it to be a child of
        feature = fm.feature.copy()
        feature[fm.roots[-1]], feature[-1] = -1, 0
        with pytest.raises(ValueError, match="children must lie after it"):
            tree.left_children(feature, fm.roots)

    def test_honest_forest_passes_regularity_audit(self, cosine_1k):
        fm = forest.train(cosine_1k, ForestConfig(b=200, seed=0), n_jobs=2)
        assert fm.s == 125
        assert validate_regularity(fm, cosine_1k, replayed_prediction(fm)).passed

    def test_fresh_streams_pass_regularity_audit(self, cosine_1k):
        # multi-point leaves occur about once per 10^4 trees: 20000 trees on
        # forest seeds 1-10 must all pass, those leaves included
        unsplittable = 0
        for seed in range(1, 11):
            fm = forest.train(cosine_1k, ForestConfig(b=2000, seed=seed), n_jobs=2)
            rep = validate_regularity(fm, cosine_1k, replayed_prediction(fm))
            failed = np.unique(np.r_[rep.split_tree[~rep.splits_ok], np.flatnonzero(~rep.leaves_ok)])
            assert rep.passed, (seed, failed)
            unsplittable += rep.unsplittable_leaves
        print(f"unsplittable multi-point leaves in 20000 trees: {unsplittable}")

    def test_prediction_labels_do_not_move_splits(self, cosine_1k):
        cfg = ForestConfig(b=23, seed=18)
        fm = forest.train(cosine_1k, cfg)
        pred = replayed_prediction(fm)
        # labels of points that are no tree's structure point are read by leaves only
        structure = np.concatenate([np.setdiff1d(sub, p) for sub, p in zip(fm.subsample_indices, pred)])
        free = np.setdiff1d(np.arange(cosine_1k.n), structure)
        y2 = cosine_1k.y.copy()
        y2[free] = cosine_1k.y[np.random.default_rng(1).permutation(free)]
        assert not np.array_equal(y2, cosine_1k.y)
        ts2 = TrainingSet(cosine_1k.x, y2)
        fm2 = forest.train(ts2, cfg)
        old, old2 = format4_arrays(fm, cosine_1k, pred), format4_arrays(fm2, ts2, replayed_prediction(fm2))
        for name in ("feature", "threshold", "split_kind", "pred_index"):
            assert np.array_equal(old[name], old2[name]), name
        leaves = fm2.feature < 0
        assert np.array_equal(old2["value"][leaves], y2[old2["pred_index"][leaves]])


class TestExtremeLabels:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("labels", ["tiny-and-huge", "zeros", "negative-zeros"])
    @pytest.mark.parametrize("mode", ["honest", "cart"])
    def test_forest_is_its_trees_grown_alone_at_any_worker_count(self, cosine_1k, mode, labels):
        n = 300
        y = {
            "tiny-and-huge": np.random.default_rng(8).choice([1e-300, -1e-300, 1e300, -1e300], n),
            "zeros": np.zeros(n),
            "negative-zeros": np.full(n, -0.0),
        }[labels]
        ts = TrainingSet(cosine_1k.x[:n], y)
        cfg = ForestConfig(b=8, seed=21, tree=tree.TreeConfig(mode=mode))
        fm = forest.train(ts, cfg, n_jobs=1)
        assert same_forest(fm, forest.train(ts, cfg, n_jobs=2))
        axes = tree.sorted_axes(ts)
        ends = np.append(fm.roots[1:], fm.feature.size)
        for b in range(cfg.b):
            g = rng.stream(21, rng.TREE, b)
            sub = reference_subsample(g, n, fm.s)
            if mode == "honest":
                structure, prediction = reference_partition(g, sub)
                rows = (structure[None], prediction[None], tree.split_uniforms(g, prediction.size)[None])
            else:
                rows = (sub[None],)
            alone = tree.grow_block(ts, axes, cfg.tree, *rows)
            for name in ("feature", "value", "split_kind"):
                got = getattr(fm, name)[fm.roots[b]:ends[b]]
                assert got.tobytes() == getattr(alone, name).tobytes(), (b, name)


def _digest(fm, ts) -> str:
    """sha256 of the forest's arrays rebuilt in model format 4, the format the digests were pinned in,
    an honest forest's prediction rows replayed from its trees' streams."""
    prediction = replayed_prediction(fm) if fm.config.tree.mode == "honest" else None
    digest = hashlib.sha256()
    for arr in format4_arrays(fm, ts, prediction).values():
        if arr is not None:
            digest.update(arr.tobytes())
    return digest.hexdigest()


class TestGoldenTrees:
    """Trees pinned by the sha256 of their packed arrays, rebuilt in model format 4.

    The training data use only uniform draws and arithmetic, so the digests
    do not depend on a platform's transcendental functions.
    """

    DIGESTS = {
        "honest": "1dfc7e4114b5239e3fdeafd430038c0495cbb06a97ebae14b303774196a36d22",
        "cart": "3f1d5621222e82232bc1437f131b47c4f29e1e4a4acf88a1b1fad42335781568",
    }
    # d=5 and 300 trees: five axes share each level's scan, and one range of
    # the 300 trees grows as two blocks
    DIGESTS_D5 = {
        "honest": "9a347690f5daa26023d915199a3ac93127c5c7b54e892c0b168b70aed6727aca",
        "cart": "7e6c8e966199f73470321e150b72615d22c96affc4bf28a90f38dd40852a0be7",
    }

    @pytest.mark.parametrize("mode", ["honest", "cart"])
    def test_packed_arrays_digest(self, mode):
        u = np.random.default_rng(2024).random((400, 4))
        x = u[:, :3]
        ts = TrainingSet(x, x[:, 0] - 2.0 * x[:, 1] * x[:, 2] + 0.25 * u[:, 3])
        fm = forest.train(ts, ForestConfig(b=12, seed=31, tree=tree.TreeConfig(mode=mode)))
        assert _digest(fm, ts) == self.DIGESTS[mode]

    @pytest.mark.parametrize("mode", ["honest", "cart"])
    def test_d5_packed_arrays_digest_over_two_blocks(self, mode):
        u = np.random.default_rng(2024).random((400, 6))
        x = u[:, :5]
        ts = TrainingSet(x, x[:, 0] - 2.0 * x[:, 1] * x[:, 2] + x[:, 3] * x[:, 4] + 0.25 * u[:, 5])
        fm = forest.train(ts, ForestConfig(b=300, seed=31, tree=tree.TreeConfig(mode=mode)))
        assert _digest(fm, ts) == self.DIGESTS_D5[mode]
        cfg = fm.config
        assert cfg.b // forest._TREE_BLOCK == 1
        one_range = forest._pack(forest._fit_range((ts, tree.sorted_axes(ts), cfg, 0, cfg.b)),
                                 ts.n, cfg.s, ts.d, cfg)
        assert same_forest(fm, one_range)


class TestPredict:
    def test_mean_of_two_trees(self, cosine_1k):
        fm = forest.train(cosine_1k, ForestConfig(b=2, seed=6))
        xq = [0.4, 0.4]
        per = forest.predict_per_tree(fm, np.asarray(xq))
        assert per.shape == (2,)
        assert forest.predict_batch(fm, [xq])[0] == pytest.approx(per.mean(), rel=1e-15)

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
        for b in range(5):
            for k in range(4):
                assert per[b, k] == reference_predict(fm, b, xs[k])

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
        for b in range(11):
            assert single[b] == one[b, 0] == reference_predict(fm, b, xs[0])
            for k in range(9):
                assert per[b, k] == reference_predict(fm, b, xs[k])

    def test_ties_go_left_and_nan_goes_right(self):
        # two stumps on x1 at 0.5 and 0.25: leaf values 1/2 and 3/4
        fm = forest.ForestModel(
            feature=[0, -1, -1, 0, -1, -1],
            value=[0.5, 1.0, 2.0, 0.25, 3.0, 4.0],
            split_kind=[0] * 6,
            roots=[0, 3],
            subsample_indices=[[0, 1], [1, 2]],
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
            xs[row, fm.feature[node]] = fm.value[node]
        xs[24:30] = xs[4:10]
        return xs

    @staticmethod
    def _matches_tree_predict(fm, xs, per):
        for b in range(fm.b):
            for k in range(xs.shape[0]):
                assert per[b, k] == reference_predict(fm, b, xs[k]), (b, k)

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
            value=[7.0, 0.5, 1.0, 2.0],
            split_kind=[0] * 4,
            roots=[0, 1],
            subsample_indices=[[0, 1], [1, 2]],
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


@st.composite
def _split_sequences(draw):
    """Per-tree breadth-first split flags: grown as valid trees, then perhaps one
    flag flipped (a wrong node count) or two swapped (the count kept)."""
    trees = []
    for _ in range(draw(st.integers(1, 4))):
        flags, open_slots = [], 1
        while open_slots and len(flags) < 31:
            flags.append(draw(st.booleans()))
            open_slots += 1 if flags[-1] else -1
        i, j = (draw(st.integers(0, len(flags) - 1)) for _ in range(2))
        edit = draw(st.sampled_from(["none", "flip", "swap"]))
        if edit == "flip":
            flags[i] = not flags[i]
        elif edit == "swap":
            flags[i], flags[j] = flags[j], flags[i]
        trees.append(flags)
    return trees


def _reference_valid(flags) -> bool:
    """Counting children in node order, each node but the root is the child of one earlier split."""
    kids = [(p, 2 * j + 1) for j, p in enumerate(i for i, f in enumerate(flags) if f)]
    return 2 * len(kids) + 1 == len(flags) and all(left > p for p, left in kids)


class TestDerivedStructure:
    @settings(max_examples=300, deadline=None)
    @given(trees=_split_sequences(), data=st.data())
    def test_random_shapes_are_refused_or_walk_like_the_reference(self, trees, data):
        flags = np.concatenate([np.array(t, dtype=bool) for t in trees])
        axes = np.array(data.draw(st.lists(st.integers(0, 1), min_size=flags.size, max_size=flags.size)))
        grid = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
        thresholds = data.draw(st.lists(grid, min_size=flags.size, max_size=flags.size))
        sizes = [len(t) for t in trees]
        b = len(trees)
        try:
            fm = forest.ForestModel(
                feature=np.where(flags, axes, -1),
                value=np.where(flags, thresholds, np.arange(flags.size, dtype=float)),
                split_kind=np.zeros(flags.size),
                roots=np.cumsum([0] + sizes[:-1]),
                subsample_indices=[[0, 1]] * b,
                n=2, d=2, s=2, b=b,
                config=ForestConfig(s=2, b=b, tree=tree.TreeConfig(mode="cart")),
            )
        except ValueError:
            assert not all(_reference_valid(t) for t in trees)
            return
        assert all(_reference_valid(t) for t in trees)
        queries = st.lists(st.sampled_from([0.0, 0.25, 0.3, 0.5, 0.75, 1.0, np.nan]), min_size=2, max_size=2)
        xs = np.array(data.draw(st.lists(queries, min_size=1, max_size=6)))
        want = [[reference_leaf(fm, t, x) for x in xs] for t in range(b)]
        with time_limit(60):
            assert np.array_equal(forest._walk(fm, xs), want)
            assert np.array_equal(forest._bitmask(fm, xs), want)


class TestWorkers:
    @pytest.mark.parametrize(
        "requested, tasks, cores, want",
        [(1000, 8, 2, 2), (1000, 1, 64, 1), (3, 10, 8, 3), (4, 0, 4, 1)],
    )
    def test_worker_count_clamp(self, requested, tasks, cores, want):
        assert forest.worker_count(requested, tasks, cores) == want

    @pytest.mark.parametrize("requested, tasks, cores", [(0, 5, 4), (-2, 5, 4)])
    def test_worker_count_below_one_refused(self, requested, tasks, cores):
        with pytest.raises(ValueError, match=f"worker count must be >= 1, got {requested}"):
            forest.worker_count(requested, tasks, cores)

    def test_train_refuses_zero_workers(self, cosine_1k):
        with pytest.raises(ValueError, match="worker count must be >= 1, got 0"):
            forest.train(cosine_1k, ForestConfig(b=2), n_jobs=0)

    def test_fan_out_pool_is_clamped(self, monkeypatch):
        import concurrent.futures

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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
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
        pred = forest.predict_batch(fm, [[0.5, 0.5]])[0]
        assert abs(pred - (-3.0)) < 0.5
