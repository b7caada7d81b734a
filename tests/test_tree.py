import numpy as np
import pytest

from subforest import dataset, forest, rng, tree
from subforest.dataset import SyntheticSpec, TrainingSet
from subforest.forest import ForestConfig
from subforest.tree import TreeConfig

from conftest import (format4_arrays, grow_one, is_pnn, leaf_training_index, one_tree_forest, reference_children,
                      reference_leaf, reference_subsample, same_forest)
from regularity import replayed_prediction, validate_regularity


def _stream(i=0):
    return rng.stream(2024, rng.SPLIT, i)


def _fit_honest(ts, structure, prediction, cfg=None, gen=None):
    """One honest tree on a given partition, its uniform table drawn from ``gen``."""
    uniforms = tree.split_uniforms(gen, len(prediction))
    return grow_one(ts, cfg or TreeConfig(), structure, prediction, uniforms)


def _fit_cosine_honest(ts, seed=0):
    """Tree 0 of a forest with this seed: its subsample, partition and uniforms come from stream (seed, TREE, 0)."""
    return forest.train(ts, ForestConfig(b=1, seed=seed))


def _fit_cart(ts, rows, cfg=None):
    return grow_one(ts, cfg or TreeConfig(mode="cart"), rows)


def _predict(fm, xq) -> float:
    """The forest's prediction at one point."""
    return float(forest.predict_batch(fm, np.atleast_2d(np.asarray(xq, dtype=np.float64)))[0])


class TestConfig:
    def test_gamma_bounds(self):
        with pytest.raises(ValueError):
            TreeConfig(gamma=0.5)
        with pytest.raises(ValueError):
            TreeConfig(gamma=0.0)

    def test_delta_bounds(self):
        with pytest.raises(ValueError):
            TreeConfig(delta=0.0)
        with pytest.raises(ValueError):
            TreeConfig(delta=1.5)


class TestFitHonest:
    def test_two_points_single_leaf(self):
        ts = TrainingSet(np.array([[0.2], [0.8]]), np.array([1.0, 9.0]))
        model = _fit_honest(ts, [0], [1], gen=_stream())
        assert model.feature.size == 1
        assert _predict(model, [0.5]) == 9.0
        assert leaf_training_index(model, ts, [[1]])[0] == 1

    def test_d1_threshold_between_prediction_points(self):
        # structure at 0.2, 0.8; prediction at 0.1, 0.9: the only candidate
        # midpoint 0.5 keeps one prediction point per side
        ts = TrainingSet(np.array([[0.2], [0.8], [0.1], [0.9]]), np.array([0.0, 1.0, 5.0, 7.0]))
        model = _fit_honest(ts, [0, 1], [2, 3], gen=_stream(1))
        threshold = format4_arrays(model, ts, [[2, 3]])["threshold"]
        assert model.feature[0] == 0
        assert threshold[0] == pytest.approx(0.5)
        assert 0.1 < threshold[0] < 0.9
        assert _predict(model, [0.0]) == 5.0
        assert _predict(model, [1.0]) == 7.0

    def test_honesty_label_permutation_preserves_structure(self, cosine_1k):
        ts = cosine_1k
        model = _fit_cosine_honest(ts, seed=5)
        # permute labels on the prediction set only; refit with the same streams
        rows = replayed_prediction(model)
        prediction = rows[0]
        y2 = ts.y.copy()
        y2[prediction] = ts.y[np.random.default_rng(0).permutation(prediction)]
        ts2 = TrainingSet(ts.x, y2)
        model2 = _fit_cosine_honest(ts2, seed=5)
        old, old2 = format4_arrays(model, ts, rows), format4_arrays(model2, ts2, rows)
        assert np.array_equal(model.feature, model2.feature)
        assert np.array_equal(old["threshold"], old2["threshold"])
        assert np.array_equal(model.split_kind, model2.split_kind)
        # leaf values follow the permuted labels
        leaves = model2.feature < 0
        assert np.array_equal(old2["value"][leaves], ts2.y[old2["pred_index"][leaves]])

    def test_fully_grown_leaf_count(self, cosine_1k):
        model = _fit_cosine_honest(cosine_1k, seed=6)
        assert np.count_nonzero(model.feature < 0) == replayed_prediction(model).shape[1]

    def test_leaf_values_are_prediction_labels(self, cosine_1k):
        model = _fit_cosine_honest(cosine_1k, seed=7)
        rows = replayed_prediction(model)
        old = format4_arrays(model, cosine_1k, rows)
        leaves = model.feature < 0
        assert np.all(np.isin(old["pred_index"][leaves], rows[0]))
        assert np.array_equal(old["value"][leaves], cosine_1k.y[old["pred_index"][leaves]])

    def test_empty_prediction_set_rejected(self):
        # an honest tree of two subsample points carries one prediction point,
        # never none: the audit refuses an empty prediction row
        ts = TrainingSet(np.array([[0.1], [0.9]]), np.array([1.0, 2.0]))
        model = one_tree_forest(ts, TreeConfig(), [0, 1], feature=[-1], value=[1.0])
        with pytest.raises(ValueError, match="prediction indices"):
            validate_regularity(model, ts, np.empty((1, 0), dtype=np.int64))

    def test_duplicate_points_collapse_to_lowest_index(self):
        x = np.full((4, 2), 0.5)
        ts = TrainingSet(x, np.array([1.0, 2.0, 3.0, 4.0]))
        model = _fit_honest(ts, [0, 1], [2, 3], gen=_stream(2))
        assert model.feature.size == 1
        assert leaf_training_index(model, ts, [[2, 3]])[0] == 2


def _routed_counts(fm, ts):
    """Per node, the subsample points of its tree that reach it."""
    s = fm.subsample_indices.shape[1]
    pt = fm.subsample_indices.ravel()
    node = np.repeat(fm.roots, s).astype(np.intp)
    inner = np.flatnonzero(fm.feature[node] >= 0)
    while inner.size:
        at = node[inner]
        node[inner] = fm.left[at] + (ts.x[pt[inner], fm.feature[at]] > fm.value[at])
        inner = inner[fm.feature[node[inner]] >= 0]
    return np.bincount(node, minlength=fm.feature.size)


class TestGrowBlock:
    def test_mixed_block_matches_trees_grown_alone(self):
        # rows 0-5 share one feature vector; tree 0 is all duplicates (one
        # leaf), tree 1's structure points are duplicates (no structure
        # midpoint: prediction-coordinate fallback), trees 2-5 are ordinary
        gen = np.random.default_rng(5)
        x = gen.random((60, 2))
        x[:6] = 0.5
        ts = TrainingSet(x, gen.random(60))
        structure = [[0, 1, 2], [3, 4, 5]]
        prediction = [[3, 4, 5], [10, 11, 12]]
        for _ in range(4):
            rows = gen.choice(np.arange(6, 60), 6, replace=False)
            structure.append(np.sort(rows[:3]))
            prediction.append(np.sort(rows[3:]))
        structure, prediction = np.array(structure), np.array(prediction)
        uniforms = gen.random((6, 5, 5))
        axes = tree.sorted_axes(ts)
        cfg = TreeConfig()
        block = tree.grow_block(ts, axes, cfg, structure, prediction, uniforms)
        for t in range(6):
            alone = tree.grow_block(ts, axes, cfg, structure[t:t + 1], prediction[t:t + 1], uniforms[t:t + 1])
            lo = block.roots[t]
            hi = block.roots[t + 1] if t < 5 else block.feature.size
            for name in ("feature", "value", "split_kind"):
                assert np.array_equal(getattr(block, name)[lo:hi], getattr(alone, name)), (t, name)
        tree0 = grow_one(ts, cfg, structure[0], prediction[0], uniforms[0])
        assert block.feature[0] == -1 and leaf_training_index(tree0, ts, prediction[:1])[0] == 3
        root1 = block.roots[1]
        assert block.feature[root1] >= 0 and tree.SPLIT_KINDS[block.split_kind[root1]] == "fallback"
        px = np.sort(x[prediction[1], block.feature[root1]])
        tree1 = grow_one(ts, cfg, structure[1], prediction[1], uniforms[1])
        assert format4_arrays(tree1, ts, prediction[1:2])["threshold"][0] in 0.5 * (px[:-1] + px[1:])

    def test_redrawn_axis_is_recorded(self):
        # the uniform branch draws axis 0, where every structure point sits at
        # 0.5, so the axis is redrawn to axis 1
        x = np.array([[0.5, 0.1], [0.5, 0.2], [0.5, 0.8], [0.5, 0.9],
                      [0.3, 0.15], [0.4, 0.25], [0.6, 0.85], [0.7, 0.95]])
        ts = TrainingSet(x, np.arange(8.0))
        uniforms = np.full((7, 5), 0.5)
        uniforms[0, :2] = 0.0  # uniform branch, axis 0
        block = tree.grow_block(ts, tree.sorted_axes(ts), TreeConfig(), np.array([[0, 1, 2, 3]]),
                                np.array([[4, 5, 6, 7]]), uniforms[None])
        assert block.feature[0] == 1 and block.value[0] == 0.5  # a split's value is its threshold
        assert tree.SPLIT_KINDS[block.split_kind[0]] == "redrawn"

    def test_prediction_points_count_left_at_or_below_the_threshold(self):
        # a < b are adjacent doubles whose midpoint rounds onto b, so the
        # structure candidate a|b takes threshold a: it routes the points at a
        # left and those at b right. Prediction point 0 ties structure point 1
        # at 0.0, and prediction point 7 ties structure point 2 at a: 7 sorts
        # after 2 (ties by training index), past the candidate's own
        # structure key, yet counts left since a <= a.
        a = 1.0 + 2.0 ** -52
        b = np.nextafter(a, 2.0)
        assert 0.5 * (a + b) == b
        x = np.array([0.0, 0.0, a, b, 2.0, -2.0, -1.0, a, 3.0])[:, None]
        ts = TrainingSet(x, np.array([100.0, 5.0, 0.0, 10.0, 10.0, 105.0, 106.0, 107.0, 108.0]))
        cfg = TreeConfig(gamma=0.35, delta=0.01)  # greedy at every node (u = 0.5)
        fm = grow_one(ts, cfg, [1, 2, 3, 4], [0, 5, 6, 7, 8], np.full((9, 5), 0.5))
        # root: a|b would score best, but counting point 7 left leaves 3 of 9
        # points right, below gamma, so 0|a wins. Its right child then splits
        # at a|b, which is admissible only with point 7 on the left; the
        # structure point at b goes right with point 8.
        old = format4_arrays(fm, ts, [[0, 5, 6, 7, 8]])
        assert fm.feature.tolist() == [0, 0, 0, 0, -1, -1, -1, -1, -1]
        assert old["threshold"][:4].tolist() == [0.5 * a, -0.5, a, -1.5]
        assert [tree.SPLIT_KINDS[k] for k in fm.split_kind[:4]] == ["greedy", "fallback", "greedy", "fallback"]
        assert old["pred_index"][4:].tolist() == [0, 7, 8, 5, 6]
        assert np.array_equal(old["value"][4:], ts.y[[0, 7, 8, 5, 6]])
        assert validate_regularity(fm, ts, [[0, 5, 6, 7, 8]]).passed

    @pytest.mark.parametrize("mode", ["honest", "cart"])
    def test_midpoints_of_adjacent_doubles_separate_them(self, mode):
        # quarter-grid coordinates nudged up by 0-2 ulps: neighbours are
        # adjacent doubles, and the midpoint of some pairs rounds onto the
        # upper one, so a threshold must fall back to the lower coordinate
        gen = np.random.default_rng(12345)
        for seed in range(6):
            n, d = int(gen.integers(20, 201)), int(gen.integers(1, 4))
            x = gen.integers(0, 8, (n, d)) / 4.0
            for _ in range(2):
                bump = gen.random((n, d)) < 0.5
                x[bump] = np.nextafter(x[bump], np.inf)
            ts = TrainingSet(x, gen.normal(size=n))
            with np.errstate(divide="raise", invalid="raise"):
                fm = forest.train(ts, ForestConfig(b=20, seed=seed, tree=TreeConfig(mode=mode)))
            leaves = fm.feature < 0
            if mode == "honest":
                assert validate_regularity(fm, ts, replayed_prediction(fm)).passed, seed
            else:
                assert np.all(_routed_counts(fm, ts)[leaves] >= 1), seed
                assert np.all(np.isfinite(format4_arrays(fm, ts, None)["value"][leaves])), seed

    def test_cart_block_matches_trees_grown_alone(self, cosine_1k):
        rows = np.array([reference_subsample(rng.stream(9, rng.TREE, b), 1000, 60) for b in range(5)])
        cfg = TreeConfig(mode="cart")
        axes = tree.sorted_axes(cosine_1k)
        block = tree.grow_block(cosine_1k, axes, cfg, rows)
        ends = np.append(block.roots[1:], block.feature.size)
        for t in range(5):
            alone = tree.grow_block(cosine_1k, axes, cfg, rows[t:t + 1])
            lo, hi = block.roots[t], ends[t]
            # one value per node: each leaf's value and each split's threshold
            assert np.array_equal(block.value[lo:hi], alone.value)
            assert np.array_equal(block.feature[lo:hi], alone.feature)


class TestExactSplitSums:
    def test_tied_axes_split_on_the_lowest(self):
        # the last point is the largest on both axes and its label dwarfs the
        # rest, so cutting it off is the best partition on either axis: the
        # two axes tie exactly, and the lowest one must win
        gen = np.random.default_rng(77)
        x = gen.random((9, 2)) * 0.9
        x[8] = 1.0
        cfg = TreeConfig(mode="cart", max_leaf_size=1)
        for _ in range(200):
            y = np.append(gen.uniform(0.3, 0.4, 8), 50.0)
            fm = _fit_cart(TrainingSet(x, y), np.arange(9), cfg)
            assert fm.feature[0] == 0
            assert fm.value[0] == 0.5 * (x[:8, 0].max() + 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mode", ["honest", "cart"])
    def test_split_structure_ignores_the_label_scale(self, cosine_1k, mode):
        # scaling by a power of two moves every tree's grid with it: the same
        # integer label sums, so the same splits, where squares of the scaled
        # floats would overflow
        cfg = ForestConfig(b=30, seed=3, tree=TreeConfig(mode=mode))
        plain = forest.train(cosine_1k, cfg)
        scaled = forest.train(TrainingSet(cosine_1k.x, cosine_1k.y * 2.0 ** 600), cfg)
        split = plain.feature >= 0
        assert np.array_equal(plain.feature, scaled.feature)
        assert np.array_equal(plain.split_kind, scaled.split_kind)
        assert np.array_equal(plain.value[split], scaled.value[split])


class TestFitGreedyCart:
    def test_constant_labels_single_leaf(self):
        ts = TrainingSet(np.random.default_rng(0).random((20, 2)), np.full(20, 4.5))
        model = _fit_cart(ts, np.arange(20))
        assert np.all(format4_arrays(model, ts, None)["value"][model.feature < 0] == 4.5)

    def test_single_point(self):
        ts = TrainingSet(np.array([[0.3]]), np.array([2.5]))
        grown = tree.grow_block(ts, tree.sorted_axes(ts), TreeConfig(mode="cart"), np.array([[0]]))
        assert grown.feature.size == 1 and grown.value[0] == 2.5

    def test_hand_case_two_label_groups(self):
        ts = TrainingSet(np.array([[0.1], [0.2], [0.8], [0.9]]), np.array([0.0, 0.0, 10.0, 10.0]))
        model = _fit_cart(ts, np.arange(4), TreeConfig(mode="cart", max_leaf_size=2))
        assert model.feature[0] == 0
        assert format4_arrays(model, ts, None)["threshold"][0] == pytest.approx(0.5)
        assert _predict(model, [0.15]) == 0.0
        assert _predict(model, [0.85]) == 10.0

    def test_leaf_means(self, cosine_1k):
        g = rng.stream(1, rng.TREE, 1)
        idx = reference_subsample(g, 1000, 60)
        model = _fit_cart(cosine_1k, idx)
        # verify each leaf's value is the mean of the training labels routed to it
        leaf_ids = np.array([reference_leaf(model, 0, cosine_1k.x[i]) for i in idx])
        value = format4_arrays(model, cosine_1k, None)["value"]
        for leaf in np.unique(leaf_ids):
            members = idx[leaf_ids == leaf]
            assert value[leaf] == pytest.approx(cosine_1k.y[members].mean(), rel=1e-12)


class TestPredict:
    def test_single_leaf_everywhere(self):
        ts = TrainingSet(np.array([[0.3], [0.3]]), np.array([2.5, 2.5]))
        model = _fit_cart(ts, np.arange(2))
        assert model.feature.size == 1
        for v in (0.0, 0.3, 1.0):
            assert _predict(model, [v]) == 2.5

    def test_tie_at_threshold_routes_left(self):
        ts = TrainingSet(np.array([[0.1], [0.2], [0.8], [0.9]]), np.array([0.0, 0.0, 10.0, 10.0]))
        model = _fit_cart(ts, np.arange(4), TreeConfig(mode="cart", max_leaf_size=2))
        thr = format4_arrays(model, ts, None)["threshold"][0]
        assert _predict(model, [thr]) == 0.0  # exactly at the threshold: left

    def test_dimension_mismatch(self, cosine_1k):
        model = _fit_cosine_honest(cosine_1k)
        with pytest.raises(ValueError, match="features"):
            forest.predict_per_tree(model, [0.1, 0.2, 0.3])

    def test_noise_free_recovery_at_prediction_point(self):
        spec = SyntheticSpec("cosine", 2, noise_sd=0.0)
        ts = dataset.gen_synthetic(spec, 400, seed=3)
        model = forest.train(ts, ForestConfig(b=1, seed=3))
        assert model.s == 66
        for p in replayed_prediction(model)[0, :10]:
            assert _predict(model, ts.x[p]) == ts.y[p]

    def test_monotone_routing_constant_on_leaf_cell(self, cosine_1k):
        model = _fit_cosine_honest(cosine_1k, seed=9)
        old = format4_arrays(model, cosine_1k, replayed_prediction(model))
        left = reference_children(model, 0)
        gen = np.random.default_rng(0)
        for _ in range(20):
            xq = gen.random(2)
            leaf = reference_leaf(model, 0, xq)
            assert _predict(model, xq) == old["value"][leaf]
            # walk the cell bounds by descending with the recorded routing
            lo, hi = np.zeros(2), np.ones(2)
            nid = 0
            while model.feature[nid] >= 0:
                a, t = model.feature[nid], old["threshold"][nid]
                if xq[a] <= t:
                    hi[a] = min(hi[a], t)
                    nid = left[nid]
                else:
                    lo[a] = max(lo[a], t)
                    nid = left[nid] + 1
            assert nid == leaf
            for _ in range(5):
                inside = lo + (hi - lo) * gen.random(2) * 0.999999
                assert reference_leaf(model, 0, inside) == leaf


class TestSelectedIndex:
    # i*(x), the training index behind a leaf prediction, read at the reference walk's leaf
    def test_piecewise_constant_and_matches_leaf(self, cosine_1k):
        model = _fit_cosine_honest(cosine_1k, seed=10)
        rows = replayed_prediction(model)
        pred_index = leaf_training_index(model, cosine_1k, rows)
        gen = np.random.default_rng(1)
        for _ in range(10):
            xq = gen.random(2)
            i_star = pred_index[reference_leaf(model, 0, xq)]
            assert i_star in rows[0]
            assert _predict(model, xq) == cosine_1k.y[i_star]

    def test_at_prediction_point(self):
        ts = TrainingSet(np.array([[0.2], [0.8], [0.1], [0.9]]), np.array([0.0, 1.0, 5.0, 7.0]))
        model = _fit_honest(ts, [0, 1], [2, 3], gen=_stream(1))
        pred_index = leaf_training_index(model, ts, [[2, 3]])
        assert pred_index[reference_leaf(model, 0, [0.1])] == 2
        assert pred_index[reference_leaf(model, 0, [0.9])] == 3


class TestIsPnn:
    def _ts(self, coords):
        arr = np.asarray(coords, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        return TrainingSet(arr, np.zeros(arr.shape[0]))

    def test_interval_containment_1d(self):
        ts = self._ts([0.4, 0.6, 0.9])
        assert is_pnn([0.5], 2, [0, 1, 2], ts) is False  # 0.6 inside [0.5, 0.9]
        assert is_pnn([0.5], 1, [0, 1, 2], ts) is True

    def test_single_candidate_always_true(self):
        ts = self._ts([0.9])
        assert is_pnn([0.1], 0, [0], ts) is True

    def test_2d_escape(self):
        ts = self._ts([[0.5, 0.5], [0.2, 0.8]])
        assert is_pnn([0.0, 0.0], 0, [0, 1], ts) is True  # (0.2, 0.8) exits the box

    def test_boundary_counts_inside(self):
        ts = self._ts([[0.5, 0.5], [0.5, 0.2]])
        # (0.5, 0.2) sits on the boundary of the box spanned by (0,0) and (0.5, 0.5)
        assert is_pnn([0.0, 0.0], 0, [0, 1], ts) is False

    def test_prediction_is_pnn_of_leaf(self, cosine_1k):
        model = _fit_cosine_honest(cosine_1k, seed=11)
        pred_index = leaf_training_index(model, cosine_1k, replayed_prediction(model))
        gen = np.random.default_rng(2)
        for _ in range(10):
            xq = gen.random(2)
            i_star = int(pred_index[reference_leaf(model, 0, xq)])
            assert is_pnn(xq, i_star, [i_star], cosine_1k)


class TestValidateRegularity:
    def test_fit_output_passes(self, cosine_1k):
        model = _fit_cosine_honest(cosine_1k, seed=12)
        rep = validate_regularity(model, cosine_1k, replayed_prediction(model))
        assert rep.passed
        assert np.all(rep.split_min_fraction >= rep.gamma)
        assert np.all(rep.leaf_pred_counts == 1)
        assert np.all(rep.split_tree == 0)
        assert rep.split_axes.size == np.count_nonzero(model.feature >= 0)

    def test_handbuilt_zero_prediction_leaf_fails(self, cosine_1k):
        model = _fit_cosine_honest(cosine_1k, seed=13)
        rows = replayed_prediction(model)
        # a leaf's value swapped for a structure point's label: leaf check must fail
        bad = model.value.copy()
        leaves = np.nonzero(model.feature < 0)[0]
        bad[leaves[0]] = cosine_1k.y[np.setdiff1d(model.subsample_indices[0], rows[0])[0]]
        assert bad[leaves[0]] != model.value[leaves[0]]
        broken = one_tree_forest(
            cosine_1k, model.config.tree, model.subsample_indices[0],
            feature=model.feature, value=bad, split_kind=model.split_kind,
        )
        rep = validate_regularity(broken, cosine_1k, rows)
        assert not rep.passed
        assert not rep.leaves_ok.all()

    def test_handbuilt_skewed_split_reports_fraction(self):
        # a root split sending 1 of 100 points left with gamma=0.1 fails at 0.01
        gen = np.random.default_rng(3)
        x = np.sort(gen.random(100)).reshape(-1, 1)
        ts = TrainingSet(x, gen.random(100))
        thr = float((x[0, 0] + x[1, 0]) / 2)
        model = one_tree_forest(
            ts, TreeConfig(), np.arange(100),
            feature=[0, -1, -1], threshold=[thr, 0.0, 0.0],
            value=[0.0, ts.y[50], ts.y[51]],
        )
        rep = validate_regularity(model, ts, [np.arange(50, 100)])
        assert not rep.passed
        assert rep.split_min_fraction[0] == pytest.approx(0.01)

    @pytest.mark.parametrize("m, ok", [(10, True), (11, False)])
    def test_gamma_boundary_is_a_count_ratio(self, m, ok):
        # a 9/1 split of 10 points meets gamma = 0.1 exactly; 10/1 of 11 falls short
        x = np.linspace(0.0, 1.0, m).reshape(-1, 1)
        ts = TrainingSet(x, np.arange(m, dtype=float))
        model = one_tree_forest(
            ts, TreeConfig(gamma=0.1), np.arange(m),
            feature=[0, -1, -1], threshold=[0.5 * (x[-2, 0] + x[-1, 0]), 0.0, 0.0],
            value=np.zeros(3),
        )
        rep = validate_regularity(model, ts, [np.r_[0, np.arange(m // 2 + 1, m)]])
        assert rep.split_min_fraction[0] == 1 / m
        assert bool(rep.splits_ok[0]) is ok

    def test_grower_admits_a_split_at_exactly_gamma(self):
        # 20 points at 0..19, prediction {0..8, 19}, structure {9..18}; only
        # structure point 18 has label 1, so the best split isolates it at
        # 17.5, leaving 2 of 20 points on the right: exactly gamma = 0.1
        x = np.arange(20, dtype=float).reshape(-1, 1)
        ts = TrainingSet(x, (x[:, 0] == 18).astype(float))
        prediction = np.r_[0:9, 19]
        model = _fit_honest(ts, np.arange(9, 19), prediction, TreeConfig(gamma=0.1), _stream(3))
        assert model.feature[0] == 0
        assert format4_arrays(model, ts, [prediction])["threshold"][0] == 17.5
        rep = validate_regularity(model, ts, [prediction])
        assert rep.split_min_fraction[0] == 0.1
        assert rep.splits_ok[0]

    @staticmethod
    def _one_separating_midpoint():
        # 1-d, 20 points: structure and 9 prediction points at 0.5, one
        # prediction point at 0.9; the only separating midpoint, 0.7, leaves
        # 1 of 20 points on its right
        x = np.full((20, 1), 0.5)
        x[19] = 0.9
        return TrainingSet(x, np.arange(20.0)), np.arange(10), np.arange(10, 20)

    def test_unsplittable_leaf_is_accepted(self):
        ts, structure, prediction = self._one_separating_midpoint()
        model = _fit_honest(ts, structure, prediction, TreeConfig(gamma=0.1), _stream(4))
        assert model.feature.size == 1 and leaf_training_index(model, ts, [prediction])[0] == 10
        rep = validate_regularity(model, ts, [prediction])
        assert rep.passed and rep.unsplittable_leaves == 1
        assert rep.leaf_pred_counts.tolist() == [10]
        # at gamma = 0.05 the midpoint is admissible, so the same leaf fails
        loose = one_tree_forest(ts, TreeConfig(gamma=0.05), np.arange(20), feature=model.feature, value=model.value)
        rep = validate_regularity(loose, ts, [prediction])
        assert not rep.passed and rep.unsplittable_leaves == 0
        # and the grower splits there
        assert _fit_honest(ts, structure, prediction, TreeConfig(gamma=0.05), _stream(4)).feature[0] == 0

    def test_unsplittable_leaf_keeps_its_lowest_prediction_index(self):
        ts, _, prediction = self._one_separating_midpoint()
        model = one_tree_forest(ts, TreeConfig(gamma=0.1), np.arange(20), feature=[-1], threshold=[0.0],
                                value=[ts.y[11]])
        assert not validate_regularity(model, ts, [prediction]).passed

    def test_cart_rejected(self):
        ts = TrainingSet(np.array([[0.3], [0.6]]), np.array([2.5, 1.0]))
        model = _fit_cart(ts, np.arange(2))
        with pytest.raises(ValueError, match="honest"):
            validate_regularity(model, ts, None)


class TestSplitAxisFrequency:
    def test_uniform_branch_lower_bound(self, cosine_1k):
        # over many splits with delta=0.5, d=2: each axis frequency >= 0.8 * delta/d
        fm = forest.train(cosine_1k, ForestConfig(b=60, seed=77))
        axes = fm.feature[fm.feature >= 0]
        assert axes.size >= 10**3
        for a in (0, 1):
            assert np.mean(axes == a) >= 0.8 * (0.5 / 2)


class TestDeterminism:
    def test_same_stream_same_tree(self, cosine_1k):
        a = _fit_cosine_honest(cosine_1k, seed=21)
        b = _fit_cosine_honest(cosine_1k, seed=21)
        assert same_forest(a, b)
