import numpy as np
import pytest

from subforest import dataset, rng, sampling, tree
from subforest.dataset import SyntheticSpec, TrainingSet
from subforest.sampling import HonestyPartition, SubsampleDraw
from subforest.tree import TreeConfig

from conftest import trees_equal


def _stream(i=0):
    return rng.stream(2024, rng.SPLIT, i)


def _fit_cosine_honest(ts, seed=0, cfg=None):
    g = rng.stream(seed, rng.TREE, 0)
    draw = sampling.draw_subsample(ts.n, sampling.default_subsample_size(ts.n), g)
    part = sampling.honesty_partition(draw, g)
    model = tree.fit_honest(ts, draw, part, cfg or TreeConfig(), g)
    return model, draw, part


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
        draw = SubsampleDraw(np.array([0, 1]), 2)
        part = HonestyPartition(structure=np.array([0]), prediction=np.array([1]))
        model = tree.fit_honest(ts, draw, part, TreeConfig(), _stream())
        assert model.n_nodes == 1
        assert tree.predict(model, [0.5]) == 9.0
        assert model.pred_index[0] == 1

    def test_d1_threshold_between_prediction_points(self):
        # structure at 0.2, 0.8; prediction at 0.1, 0.9: the only candidate
        # midpoint 0.5 keeps one prediction point per side
        ts = TrainingSet(np.array([[0.2], [0.8], [0.1], [0.9]]), np.array([0.0, 1.0, 5.0, 7.0]))
        draw = SubsampleDraw(np.arange(4), 4)
        part = HonestyPartition(structure=np.array([0, 1]), prediction=np.array([2, 3]))
        model = tree.fit_honest(ts, draw, part, TreeConfig(), _stream(1))
        assert model.feature[0] == 0
        assert model.threshold[0] == pytest.approx(0.5)
        assert 0.1 < model.threshold[0] < 0.9
        assert tree.predict(model, [0.0]) == 5.0
        assert tree.predict(model, [1.0]) == 7.0

    def test_honesty_label_permutation_preserves_structure(self, cosine_1k):
        ts = cosine_1k
        model, draw, part = _fit_cosine_honest(ts, seed=5)
        # permute labels on the prediction set only; refit with the same streams
        y2 = ts.y.copy()
        perm = np.random.default_rng(0).permutation(part.prediction)
        y2[part.prediction] = ts.y[perm]
        ts2 = TrainingSet(ts.x, y2)
        g = rng.stream(5, rng.TREE, 0)
        sampling.draw_subsample(ts.n, draw.s, g)
        sampling.honesty_partition(draw, g)
        model2 = tree.fit_honest(ts2, draw, part, TreeConfig(), g)
        assert np.array_equal(model.feature, model2.feature)
        assert np.array_equal(model.threshold, model2.threshold)
        assert np.array_equal(model.from_random, model2.from_random)
        # leaf values follow the permuted labels
        assert np.array_equal(model2.value[model2.feature < 0],
                              ts2.y[model2.pred_index[model2.feature < 0]])

    def test_fully_grown_leaf_count(self, cosine_1k):
        model, _, part = _fit_cosine_honest(cosine_1k, seed=6)
        assert model.n_leaves == part.prediction.size

    def test_leaf_values_are_prediction_labels(self, cosine_1k):
        model, _, part = _fit_cosine_honest(cosine_1k, seed=7)
        leaves = model.feature < 0
        assert np.all(np.isin(model.pred_index[leaves], part.prediction))
        assert np.array_equal(model.value[leaves], cosine_1k.y[model.pred_index[leaves]])

    def test_empty_prediction_set_rejected(self):
        with pytest.raises(ValueError):
            HonestyPartition(structure=np.array([0, 1]), prediction=np.array([], dtype=np.int64))

    def test_duplicate_points_collapse_to_lowest_index(self):
        x = np.full((4, 2), 0.5)
        ts = TrainingSet(x, np.array([1.0, 2.0, 3.0, 4.0]))
        draw = SubsampleDraw(np.arange(4), 4)
        part = HonestyPartition(structure=np.array([0, 1]), prediction=np.array([2, 3]))
        model = tree.fit_honest(ts, draw, part, TreeConfig(), _stream(2))
        assert model.n_nodes == 1
        assert model.pred_index[0] == 2


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
            assert np.array_equal(block.child[lo:hi] - lo, alone.child)
            for name in ("feature", "threshold", "value", "pred_index", "from_random"):
                assert np.array_equal(getattr(block, name)[lo:hi], getattr(alone, name)), (t, name)
        assert block.feature[0] == -1 and block.pred_index[0] == 3
        root1 = block.roots[1]
        assert block.feature[root1] >= 0 and block.from_random[root1]
        px = np.sort(x[prediction[1], block.feature[root1]])
        assert block.threshold[root1] in 0.5 * (px[:-1] + px[1:])

    def test_cart_block_matches_trees_grown_alone(self, cosine_1k):
        rows = np.array([sampling.draw_subsample(1000, 60, rng.stream(9, rng.TREE, b)).indices for b in range(5)])
        cfg = TreeConfig(mode="cart")
        axes = tree.sorted_axes(cosine_1k)
        block = tree.grow_block(cosine_1k, axes, cfg, rows)
        ends = np.append(block.roots[1:], block.feature.size)
        for t in range(5):
            alone = tree.grow_block(cosine_1k, axes, cfg, rows[t:t + 1])
            lo, hi = block.roots[t], ends[t]
            assert np.array_equal(block.value[lo:hi], alone.value)
            assert np.array_equal(block.threshold[lo:hi], alone.threshold)
            assert np.array_equal(block.child[lo:hi] - lo, alone.child)


class TestFitGreedyCart:
    def test_constant_labels_single_leaf(self):
        ts = TrainingSet(np.random.default_rng(0).random((20, 2)), np.full(20, 4.5))
        model = tree.fit_greedy_cart(ts, SubsampleDraw(np.arange(20), 20), TreeConfig(mode="cart"))
        assert np.all(model.value[model.feature < 0] == 4.5)

    def test_single_point(self):
        ts = TrainingSet(np.array([[0.3]]), np.array([2.5]))
        model = tree.fit_greedy_cart(ts, SubsampleDraw(np.array([0]), 1), TreeConfig(mode="cart"))
        assert model.n_nodes == 1 and model.value[0] == 2.5

    def test_hand_case_two_label_groups(self):
        ts = TrainingSet(np.array([[0.1], [0.2], [0.8], [0.9]]), np.array([0.0, 0.0, 10.0, 10.0]))
        model = tree.fit_greedy_cart(
            ts, SubsampleDraw(np.arange(4), 4), TreeConfig(mode="cart", max_leaf_size=2)
        )
        assert model.feature[0] == 0
        assert model.threshold[0] == pytest.approx(0.5)
        assert tree.predict(model, [0.15]) == 0.0
        assert tree.predict(model, [0.85]) == 10.0

    def test_leaf_means(self, cosine_1k):
        g = rng.stream(1, rng.TREE, 1)
        draw = sampling.draw_subsample(1000, 60, g)
        model = tree.fit_greedy_cart(cosine_1k, draw, TreeConfig(mode="cart"), g)
        # verify one leaf's value is the mean of the training labels routed to it
        idx = draw.indices
        leaf_ids = np.array([tree._leaf_of(model, cosine_1k.x[i]) for i in idx])
        for leaf in np.unique(leaf_ids):
            members = idx[leaf_ids == leaf]
            assert model.value[leaf] == pytest.approx(cosine_1k.y[members].mean(), rel=1e-12)


class TestPredict:
    def test_single_leaf_everywhere(self):
        ts = TrainingSet(np.array([[0.3]]), np.array([2.5]))
        model = tree.fit_greedy_cart(ts, SubsampleDraw(np.array([0]), 1), TreeConfig(mode="cart"))
        for v in (0.0, 0.3, 1.0):
            assert tree.predict(model, [v]) == 2.5

    def test_tie_at_threshold_routes_left(self):
        ts = TrainingSet(np.array([[0.1], [0.2], [0.8], [0.9]]), np.array([0.0, 0.0, 10.0, 10.0]))
        model = tree.fit_greedy_cart(
            ts, SubsampleDraw(np.arange(4), 4), TreeConfig(mode="cart", max_leaf_size=2)
        )
        thr = model.threshold[0]
        assert tree.predict(model, [thr]) == 0.0  # exactly at the threshold: left

    def test_dimension_mismatch(self, cosine_1k):
        model, _, _ = _fit_cosine_honest(cosine_1k)
        with pytest.raises(ValueError, match="features"):
            tree.predict(model, [0.1, 0.2, 0.3])

    def test_noise_free_recovery_at_prediction_point(self):
        spec = SyntheticSpec("cosine", 2, noise_sd=0.0)
        ts = dataset.gen_synthetic(spec, 400, seed=3)
        g = rng.stream(3, rng.TREE, 0)
        draw = sampling.draw_subsample(400, 66, g)
        part = sampling.honesty_partition(draw, g)
        model = tree.fit_honest(ts, draw, part, TreeConfig(), g)
        for p in part.prediction[:10]:
            assert tree.predict(model, ts.x[p]) == ts.y[p]

    def test_monotone_routing_constant_on_leaf_cell(self, cosine_1k):
        model, _, _ = _fit_cosine_honest(cosine_1k, seed=9)
        gen = np.random.default_rng(0)
        for _ in range(20):
            xq = gen.random(2)
            leaf = tree._leaf_of(model, xq)
            # walk the cell bounds by descending with the recorded routing
            lo, hi = np.zeros(2), np.ones(2)
            nid = 0
            while model.feature[nid] >= 0:
                a, t = model.feature[nid], model.threshold[nid]
                if xq[a] <= t:
                    hi[a] = min(hi[a], t)
                    nid = model.left[nid]
                else:
                    lo[a] = max(lo[a], t)
                    nid = model.right[nid]
            assert nid == leaf
            for _ in range(5):
                inside = lo + (hi - lo) * gen.random(2) * 0.999999
                assert tree._leaf_of(model, inside) == leaf


class TestSelectedIndex:
    def test_piecewise_constant_and_matches_leaf(self, cosine_1k):
        model, _, part = _fit_cosine_honest(cosine_1k, seed=10)
        gen = np.random.default_rng(1)
        for _ in range(10):
            xq = gen.random(2)
            i_star = tree.selected_index(model, xq)
            assert i_star in part.prediction
            assert tree.predict(model, xq) == cosine_1k.y[i_star]
            # a nearby point in the same leaf shares i*
            leaf = tree._leaf_of(model, xq)
            assert tree.selected_index(model, xq) == model.pred_index[leaf]

    def test_at_prediction_point(self):
        ts = TrainingSet(np.array([[0.2], [0.8], [0.1], [0.9]]), np.array([0.0, 1.0, 5.0, 7.0]))
        draw = SubsampleDraw(np.arange(4), 4)
        part = HonestyPartition(structure=np.array([0, 1]), prediction=np.array([2, 3]))
        model = tree.fit_honest(ts, draw, part, TreeConfig(), _stream(1))
        assert tree.selected_index(model, [0.1]) == 2
        assert tree.selected_index(model, [0.9]) == 3

    def test_cart_rejected(self):
        ts = TrainingSet(np.array([[0.3]]), np.array([2.5]))
        model = tree.fit_greedy_cart(ts, SubsampleDraw(np.array([0]), 1), TreeConfig(mode="cart"))
        with pytest.raises(ValueError, match="honest"):
            tree.selected_index(model, [0.3])


class TestIsPnn:
    def _ts(self, coords):
        arr = np.asarray(coords, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        return TrainingSet(arr, np.zeros(arr.shape[0]))

    def test_interval_containment_1d(self):
        ts = self._ts([0.4, 0.6, 0.9])
        assert tree.is_pnn([0.5], 2, [0, 1, 2], ts) is False  # 0.6 inside [0.5, 0.9]
        assert tree.is_pnn([0.5], 1, [0, 1, 2], ts) is True

    def test_single_candidate_always_true(self):
        ts = self._ts([0.9])
        assert tree.is_pnn([0.1], 0, [0], ts) is True

    def test_2d_escape(self):
        ts = self._ts([[0.5, 0.5], [0.2, 0.8]])
        assert tree.is_pnn([0.0, 0.0], 0, [0, 1], ts) is True  # (0.2, 0.8) exits the box

    def test_boundary_counts_inside(self):
        ts = self._ts([[0.5, 0.5], [0.5, 0.2]])
        # (0.5, 0.2) sits on the boundary of the box spanned by (0,0) and (0.5, 0.5)
        assert tree.is_pnn([0.0, 0.0], 0, [0, 1], ts) is False

    def test_prediction_is_pnn_of_leaf(self, cosine_1k):
        model, _, _ = _fit_cosine_honest(cosine_1k, seed=11)
        gen = np.random.default_rng(2)
        for _ in range(10):
            xq = gen.random(2)
            i_star = tree.selected_index(model, xq)
            assert tree.is_pnn(xq, i_star, [i_star], cosine_1k)


class TestValidateRegularity:
    def test_fit_output_passes(self, cosine_1k):
        model, _, _ = _fit_cosine_honest(cosine_1k, seed=12)
        rep = tree.validate_regularity(model, cosine_1k)
        assert rep.passed
        assert np.all(rep.split_min_fraction >= rep.gamma)
        assert np.all(rep.leaf_pred_counts == 1)

    def test_handbuilt_zero_prediction_leaf_fails(self, cosine_1k):
        model, _, part = _fit_cosine_honest(cosine_1k, seed=13)
        # swap a leaf's recorded index for a structure point: leaf check must fail
        bad = model.pred_index.copy()
        leaves = np.nonzero(model.feature < 0)[0]
        bad[leaves[0]] = model.partition.structure[0]
        broken = tree.TreeModel(
            feature=model.feature, threshold=model.threshold, left=model.left,
            right=model.right, value=model.value, pred_index=bad,
            from_random=model.from_random, n_features=model.n_features,
            config=model.config, subsample=model.subsample, partition=model.partition,
        )
        rep = tree.validate_regularity(broken, cosine_1k)
        assert not rep.passed
        assert not rep.leaves_ok.all()

    def test_handbuilt_skewed_split_reports_fraction(self):
        # a root split sending 1 of 100 points left with gamma=0.1 fails at 0.01
        gen = np.random.default_rng(3)
        x = np.sort(gen.random(100)).reshape(-1, 1)
        ts = TrainingSet(x, gen.random(100))
        draw = SubsampleDraw(np.arange(100), 100)
        part = HonestyPartition(structure=np.arange(0, 50), prediction=np.arange(50, 100))
        thr = float((x[0, 0] + x[1, 0]) / 2)
        model = tree.TreeModel(
            feature=np.array([0, -1, -1], dtype=np.int32),
            threshold=np.array([thr, 0.0, 0.0]),
            left=np.array([1, -1, -1], dtype=np.int32),
            right=np.array([2, -1, -1], dtype=np.int32),
            value=np.array([0.0, ts.y[50], ts.y[51]]),
            pred_index=np.array([-1, 50, 51], dtype=np.int32),
            from_random=np.zeros(3, dtype=bool),
            n_features=1,
            config=TreeConfig(),
            subsample=draw,
            partition=part,
        )
        rep = tree.validate_regularity(model, ts)
        assert not rep.passed
        assert rep.split_min_fraction[0] == pytest.approx(0.01)

    @pytest.mark.parametrize("m, ok", [(10, True), (11, False)])
    def test_gamma_boundary_is_a_count_ratio(self, m, ok):
        # a 9/1 split of 10 points meets gamma = 0.1 exactly; 10/1 of 11 falls short
        x = np.linspace(0.0, 1.0, m).reshape(-1, 1)
        ts = TrainingSet(x, np.arange(m, dtype=float))
        draw = SubsampleDraw(np.arange(m), m)
        part = HonestyPartition(structure=np.arange(1, m // 2 + 1), prediction=np.r_[0, np.arange(m // 2 + 1, m)])
        model = tree.TreeModel(
            feature=np.array([0, -1, -1], dtype=np.int32),
            threshold=np.array([0.5 * (x[-2, 0] + x[-1, 0]), 0.0, 0.0]),
            left=np.array([1, -1, -1], dtype=np.int32),
            right=np.array([2, -1, -1], dtype=np.int32),
            value=np.zeros(3),
            pred_index=np.array([-1, 0, m - 1], dtype=np.int32),
            from_random=np.zeros(3, dtype=bool),
            n_features=1,
            config=TreeConfig(gamma=0.1),
            subsample=draw,
            partition=part,
        )
        rep = tree.validate_regularity(model, ts)
        assert rep.split_min_fraction[0] == 1 / m
        assert bool(rep.splits_ok[0]) is ok

    def test_grower_admits_a_split_at_exactly_gamma(self):
        # 20 points at 0..19, prediction {0..8, 19}, structure {9..18}; only
        # structure point 18 has label 1, so the best split isolates it at
        # 17.5, leaving 2 of 20 points on the right: exactly gamma = 0.1
        x = np.arange(20, dtype=float).reshape(-1, 1)
        ts = TrainingSet(x, (x[:, 0] == 18).astype(float))
        draw = SubsampleDraw(np.arange(20), 20)
        part = HonestyPartition(structure=np.arange(9, 19), prediction=np.r_[0:9, 19])
        model = tree.fit_honest(ts, draw, part, TreeConfig(gamma=0.1), _stream(3))
        assert model.feature[0] == 0
        assert model.threshold[0] == 17.5
        rep = tree.validate_regularity(model, ts)
        assert rep.split_min_fraction[0] == 0.1
        assert rep.splits_ok[0]

    def test_cart_rejected(self):
        ts = TrainingSet(np.array([[0.3]]), np.array([2.5]))
        model = tree.fit_greedy_cart(ts, SubsampleDraw(np.array([0]), 1), TreeConfig(mode="cart"))
        with pytest.raises(ValueError, match="honest"):
            tree.validate_regularity(model, ts)


class TestSplitAxisFrequency:
    def test_uniform_branch_lower_bound(self, cosine_1k):
        # over many splits with delta=0.5, d=2: each axis frequency >= 0.8 * delta/d
        axes = []
        for b in range(60):
            g = rng.stream(77, rng.TREE, b)
            draw = sampling.draw_subsample(1000, 125, g)
            part = sampling.honesty_partition(draw, g)
            model = tree.fit_honest(cosine_1k, draw, part, TreeConfig(), g)
            axes.append(model.feature[model.feature >= 0])
        axes = np.concatenate(axes)
        assert axes.size >= 10**3
        for a in (0, 1):
            assert np.mean(axes == a) >= 0.8 * (0.5 / 2)


class TestDeterminism:
    def test_same_stream_same_tree(self, cosine_1k):
        a, _, _ = _fit_cosine_honest(cosine_1k, seed=21)
        b, _, _ = _fit_cosine_honest(cosine_1k, seed=21)
        assert trees_equal(a, b)
