import inspect
import math
import warnings
from itertools import combinations, combinations_with_replacement, product

import numpy as np
import pytest

from subforest import oracle, tree
from subforest.dataset import TrainingSet
from subforest.oracle import (
    FiniteSupportDistribution,
    HonestTreeLearner,
    LabelSum,
    SubsampleMax,
    SubsampleMean,
)


def _one(learner, xs, ys):
    """The learner's output on one subsample, as a batch of one."""
    return learner(xs[None], ys[None])[0]


def _uniform_dist(labels):
    labels = np.asarray(labels, dtype=float)
    return FiniteSupportDistribution(
        labels.reshape(-1, 1), labels, np.full(labels.size, 1.0 / labels.size)
    )


class TestDistribution:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            FiniteSupportDistribution(np.zeros((2, 1)), np.zeros(2), np.array([0.5, 0.6]))

    def test_positive_probabilities(self):
        with pytest.raises(ValueError, match="positive"):
            FiniteSupportDistribution(np.zeros((2, 1)), np.zeros(2), np.array([1.0, 0.0]))


def _exact_vij(ts, learner, s):
    return oracle.exact_vij(*oracle.enumerate_subsamples(ts, learner, s), ts.n)


class TestExactVij:
    def test_constant_learner_zero(self):
        ts = TrainingSet(np.random.default_rng(0).random((5, 1)), np.random.default_rng(0).random(5))
        const = lambda xs, ys: np.ones(len(ys))
        assert _exact_vij(ts, const, 2) == 0.0

    def test_two_subsample_hand_algebra(self):
        # n=2, s=1: Cov(T, N_i) = +/-(t0-t1)/4, summed squares = (t0-t1)^2/8
        ts = TrainingSet(np.array([[0.1], [0.9]]), np.array([0.0, 2.0]))
        assert _exact_vij(ts, SubsampleMean(), 1) == pytest.approx((0.0 - 2.0) ** 2 / 8, rel=1e-12)

    def test_dual_implementation_agreement(self):
        # independent double loop over the 15 subsets of size 2
        ts = TrainingSet(np.arange(6, dtype=float).reshape(-1, 1), np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
        got = _exact_vij(ts, SubsampleMean(), 2)
        subs = list(combinations(range(6), 2))
        vals = [np.mean(ts.y[list(sub)]) for sub in subs]
        t_bar = float(np.mean(vals))
        expected = 0.0
        for i in range(6):
            cov = float(np.mean([v * (i in sub) for v, sub in zip(vals, subs)])) - t_bar * (2 / 6)
            expected += cov * cov
        assert got == pytest.approx(expected, rel=1e-12)

    def test_permutation_equivariance(self):
        gen = np.random.default_rng(1)
        x = gen.random((7, 2))
        y = gen.standard_normal(7)
        perm = gen.permutation(7)
        a = _exact_vij(TrainingSet(x, y), SubsampleMean(), 3)
        b = _exact_vij(TrainingSet(x[perm], y[perm]), SubsampleMean(), 3)
        assert a == pytest.approx(b, rel=1e-12)

    def test_cap_error_names_cap(self):
        ts = TrainingSet(np.random.default_rng(2).random((40, 1)), np.zeros(40))
        with pytest.raises(ValueError, match="cap of 1000000"):
            oracle.enumerate_subsamples(ts, SubsampleMean(), 15)


class TestHajek:
    def test_linear_learner_ratio_one(self):
        st = oracle.hajek_projection_stats(_uniform_dist([0.0, 1.0, 2.0]), LabelSum(), 3)
        assert st.ratio == pytest.approx(1.0, rel=1e-10)
        assert not st.degenerate

    def test_mean_learner_ratio_one(self):
        st = oracle.hajek_projection_stats(_uniform_dist([1.0, 5.0]), SubsampleMean(), 4)
        assert st.ratio == pytest.approx(1.0, rel=1e-10)

    def test_constant_learner_degenerate(self):
        st = oracle.hajek_projection_stats(_uniform_dist([2.0, 2.0 + 0.0]), lambda xs, ys: np.full(len(ys), 3.0), 2)
        assert st.degenerate and math.isnan(st.ratio)
        assert st.base_variance == 0.0

    def test_max_learner_against_direct_enumeration(self):
        # independent 27-tuple enumeration for SubsampleMax, 3 atoms, s=3
        labels = np.array([0.0, 1.0, 2.0])
        st = oracle.hajek_projection_stats(_uniform_dist(labels), SubsampleMax(), 3)
        tuples = list(product(range(3), repeat=3))
        vals = {t: max(labels[list(t)]) for t in tuples}
        e_t = np.mean([vals[t] for t in tuples])
        base = np.mean([(vals[t] - e_t) ** 2 for t in tuples])
        cond = [np.mean([vals[t] for t in tuples if t[0] == z]) for z in range(3)]
        hajek = 3 * np.mean([(c - e_t) ** 2 for c in cond])
        assert st.base_variance == pytest.approx(base, rel=1e-12)
        assert st.hajek_variance == pytest.approx(hajek, rel=1e-12)
        assert st.ratio == pytest.approx(hajek / base, rel=1e-12)

    def test_projection_never_exceeds_base(self):
        for labels in ([0.0, 1.0], [0.0, 0.5, 4.0], [1.0, 2.0, 3.0]):
            for s in (2, 3):
                for learner in (SubsampleMean(), SubsampleMax()):
                    st = oracle.hajek_projection_stats(_uniform_dist(labels), learner, s)
                    assert st.hajek_variance <= st.base_variance * (1 + 1e-12)

    def test_cap_error(self):
        with pytest.raises(ValueError, match="cap"):
            oracle.hajek_projection_stats(_uniform_dist(list(range(10))), SubsampleMean(), 7)

    @pytest.mark.parametrize("s", [1, 3])
    def test_one_call_on_the_sorted_multisets(self, s):
        calls = []

        def counting(xs_rows, ys_rows):
            calls.append([tuple(row) for row in ys_rows])
            return ys_rows.max(axis=1)

        oracle.hajek_projection_stats(_uniform_dist([0.0, 1.0, 2.0]), counting, s)
        assert calls == [list(combinations_with_replacement([0.0, 1.0, 2.0], s))]

    @pytest.mark.parametrize("fn", [
        oracle.enumerate_subsamples, oracle.exact_vij, oracle.hajek_projection_stats,
        oracle.anova_bound_check, oracle.incrementality_point, oracle._check_cap,
    ], ids=lambda fn: fn.__name__)
    def test_enumerations_take_no_cap_argument(self, fn):
        # a cap argument used to be accepted and then ignored; ENUM_CAP is the one cap
        assert "cap" not in inspect.signature(fn).parameters


class TestAnovaBound:
    def test_s_equals_n_projection_inequality(self):
        rep = oracle.anova_bound_check(_uniform_dist([0.0, 1.0]), SubsampleMax(), 4, 4)
        assert rep.anova_lhs <= rep.anova_rhs

    def test_linear_learner_lhs_zero(self):
        rep = oracle.anova_bound_check(_uniform_dist([0.0, 3.0]), LabelSum(), 4, 2)
        assert rep.anova_lhs == pytest.approx(0.0, abs=1e-20)

    def test_max_learner_16_tuples(self):
        rep = oracle.anova_bound_check(_uniform_dist([0.0, 1.0]), SubsampleMax(), 4, 2)
        assert rep.anova_lhs <= rep.anova_rhs
        assert rep.anova_rhs == pytest.approx((2 / 4) ** 2 * rep.base_variance, rel=1e-12)

    def test_rf_value_against_direct_enumeration(self):
        # independent recomputation of E[RF] for max learner, n=3, s=2, 2 atoms
        dist = _uniform_dist([0.0, 1.0])
        rep = oracle.anova_bound_check(dist, SubsampleMax(), 3, 2)
        tuples = list(product([0.0, 1.0], repeat=3))
        rf_vals = [np.mean([max(t[i], t[j]) for i, j in combinations(range(3), 2)]) for t in tuples]
        assert rep.expected_forest_value == pytest.approx(np.mean(rf_vals), rel=1e-12)

    def test_each_atom_multiset_evaluated_once(self):
        # 3 atoms, n=4, s=2: one call on the 6 sorted multisets, each once;
        # the Hajek step reads the same table
        calls = []

        def counting(xs_rows, ys_rows):
            calls.append([tuple(row) for row in ys_rows])
            return ys_rows.max(axis=1)

        oracle.anova_bound_check(_uniform_dist([0.0, 1.0, 2.0]), counting, 4, 2)
        assert calls == [list(combinations_with_replacement([0.0, 1.0, 2.0], 2))]

    def test_one_atom_subsets_capped(self, monkeypatch):
        # q^n = 1 tuple, but C(10, 5) = 252 index subsets
        monkeypatch.setattr(oracle, "ENUM_CAP", 100)
        with pytest.raises(ValueError, match=r"C\(10,5\) = 252 exceeds the enumeration cap of 100"):
            oracle.anova_bound_check(_uniform_dist([1.0]), SubsampleMean(), 10, 5)

    @staticmethod
    def _memoised_per_tuple_loop(dist, learner, n, s):
        # reference: every (tuple, subset) pair summed in combinations order
        # over memoised one-subsample calls, then the projection
        q = dist.size
        ids = np.array(list(product(range(q), repeat=n)))
        probs = dist.probs[ids].prod(axis=1)
        memo, rf = {}, []
        for tup in ids:
            acc = 0.0
            for sub in combinations(range(n), s):
                key = tuple(sorted(tup[list(sub)]))
                if key not in memo:
                    memo[key] = float(_one(learner, dist.xs[list(key)], dist.ys[list(key)]))
                acc += memo[key]
            rf.append(acc / math.comb(n, s))
        rf = np.array(rf)
        e_rf = float(probs @ rf)
        cond = np.array([float(probs[ids[:, 0] == z] @ rf[ids[:, 0] == z]) / dist.probs[z] for z in range(q)])
        lhs = float(probs @ (rf - (e_rf + (cond[ids] - e_rf).sum(axis=1))) ** 2)
        return e_rf, lhs

    @pytest.mark.parametrize("learner", [SubsampleMean(), SubsampleMax(), LabelSum()])
    def test_equals_memoised_per_tuple_loop(self, learner):
        dist = _uniform_dist([0.0, 0.5, 4.0])
        rep = oracle.anova_bound_check(dist, learner, 5, 3)
        assert (rep.expected_forest_value, rep.anova_lhs) == self._memoised_per_tuple_loop(dist, learner, 5, 3)

    @pytest.mark.parametrize("learner", [SubsampleMean(), SubsampleMax(), LabelSum()])
    def test_nine_term_projection_rows_equal_memoised_loop(self, learner):
        # from 8 terms on numpy sums a projection row pairwise; with these
        # atoms the 9-term rows give other bits when summed in order
        dist = FiniteSupportDistribution(np.array([[1.0], [0.001]]), np.array([1.0, 0.001]), np.array([0.3, 0.7]))
        rep = oracle.anova_bound_check(dist, learner, 9, 2)
        assert (rep.expected_forest_value, rep.anova_lhs) == self._memoised_per_tuple_loop(dist, learner, 9, 2)

    @pytest.mark.parametrize("chunk", [7, 25, 1000])
    def test_identical_across_chunk_boundaries(self, monkeypatch, chunk):
        # 243 tuples x 10 subsets: 1, 2 and 100 tuples per chunk, the last one short
        dist = _uniform_dist([0.0, 0.5, 4.0])
        whole = [oracle.anova_bound_check(dist, learner, 5, 3) for learner in (SubsampleMean(), SubsampleMax())]
        monkeypatch.setattr(oracle, "_PAIR_CHUNK", chunk)
        assert [oracle.anova_bound_check(dist, learner, 5, 3) for learner in (SubsampleMean(), SubsampleMax())] == whole


class TestHonestTreeLearner:
    def test_deterministic_per_subsample(self):
        gen = np.random.default_rng(3)
        xs, ys = gen.random((6, 2)), gen.standard_normal(6)
        learner = HonestTreeLearner(tree.TreeConfig(), x=[0.5, 0.5])
        assert _one(learner, xs, ys) == _one(learner, xs, ys)

    def test_exchangeable(self):
        gen = np.random.default_rng(4)
        xs, ys = gen.random((6, 2)), gen.standard_normal(6)
        perm = gen.permutation(6)
        learner = HonestTreeLearner(tree.TreeConfig(), x=[0.5, 0.5])
        assert _one(learner, xs, ys) == _one(learner, xs[perm], ys[perm])

    def test_single_row_returns_label(self):
        learner = HonestTreeLearner(tree.TreeConfig(), x=[0.2])
        assert _one(learner, np.array([[0.7]]), np.array([4.2])) == 4.2

    def test_output_is_a_subsample_label(self):
        gen = np.random.default_rng(5)
        xs, ys = gen.random((8, 2)), gen.standard_normal(8)
        learner = HonestTreeLearner(tree.TreeConfig(), x=[0.3, 0.9])
        assert _one(learner, xs, ys) in ys

    def test_outputs_pinned(self):
        # the values the one-tree fit path gave on the inputs above, bit for bit
        learner = HonestTreeLearner(tree.TreeConfig(), x=[0.5, 0.5])
        gen = np.random.default_rng(3)
        assert _one(learner, gen.random((6, 2)), gen.standard_normal(6)) == -0.39080097723465473
        gen = np.random.default_rng(4)
        assert _one(learner, gen.random((6, 2)), gen.standard_normal(6)) == -1.9156455579583005
        gen = np.random.default_rng(5)
        xs, ys = gen.random((8, 2)), gen.standard_normal(8)
        assert _one(HonestTreeLearner(tree.TreeConfig(), x=[0.3, 0.9]), xs, ys) == -0.06308597192528916

    @pytest.mark.parametrize("m", [2, 5, 16])
    def test_batch_equals_one_row_calls(self, monkeypatch, m):
        # 11 rows in blocks of 4 trees, with duplicate rows and tied features
        monkeypatch.setattr(oracle, "_LEARNER_BLOCK", 4)
        gen = np.random.default_rng(6)
        xs = np.round(gen.random((11, m, 2)), 1)
        ys = gen.standard_normal((11, m))
        xs[3], ys[3] = xs[2], ys[2]
        learner = HonestTreeLearner(tree.TreeConfig(), x=[0.4, 0.6])
        assert np.array_equal(learner(xs, ys), [_one(learner, x, y) for x, y in zip(xs, ys)])


class TestIncrementality:
    def test_exact_path_ratio_in_unit_interval(self):
        dist = _uniform_dist([0.0, 1.0, 2.0])
        pts = [oracle.incrementality_point(HonestTreeLearner(tree.TreeConfig(), [0.5]), dist, s) for s in (2, 3)]
        for p in pts:
            assert p.method == "exact"
            assert 0.0 <= p.ratio <= 1.0 + 1e-12
        # the ratios the one-tree fit path gave, bit for bit
        assert [p.ratio for p in pts] == [0.7368421052631579, 0.8399999999999999]

    def test_constant_labels_degenerate(self):
        dist = FiniteSupportDistribution(
            np.array([[0.1], [0.9]]), np.array([3.0, 3.0]), np.array([0.5, 0.5])
        )
        p = oracle.incrementality_point(HonestTreeLearner(tree.TreeConfig(), [0.5]), dist, 2)
        assert math.isnan(p.ratio)

    def test_reference_curve_values(self):
        # d=1: C_f = 0!/2^2 = 1/4
        assert oracle.uniform_density_reference(8, 1) == pytest.approx(0.25 / math.log(8.0))
        # d=2: C_f = 1!/2^3 = 1/8
        assert oracle.uniform_density_reference(10, 2) == pytest.approx(0.125 / math.log(10.0) ** 2)

    @pytest.mark.parametrize("s", [8, 16, 32])
    def test_reference_is_below_the_ratios_ceiling(self, s):
        # the projection ratio is at most 1 for any learner, so a lower bound on it must be too
        assert oracle.uniform_density_reference(s, 1) < 1.0

    def test_mc_budget_floor_enforced(self):
        class TinySource:
            d = 1

            def sample_training(self, gen, m):
                x = gen.random((m, 1))
                return TrainingSet(x, x[:, 0])

        with pytest.raises(ValueError, match="1000"):
            oracle.incrementality_point(
                HonestTreeLearner(tree.TreeConfig(), [0.5]), TinySource(), 50, outer=10, inner=10
            )

    def test_mc_path_linear_learner_near_one(self):
        # mean learner is linear: true ratio is exactly 1; the nested Monte
        # Carlo estimate at the floor budget must land within 3 block SEs
        class GaussianSource:
            d = 1

            def sample_training(self, gen, m):
                x = gen.random((m, 1))
                return TrainingSet(x, gen.standard_normal(m))

        p = oracle.incrementality_point(SubsampleMean(), GaussianSource(), 8, seed=3)
        assert p.method == "mc"
        assert abs(p.ratio - 1.0) <= max(3 * p.ratio_se, 0.05)
        assert p.ratio <= 1.0 + 3 * p.ratio_se + 1e-9
        assert p.reference == pytest.approx(0.25 / np.log(8.0))

    def test_finite_source_beyond_the_cap_draws_monte_carlo(self):
        # 10^7 tuples exceed ENUM_CAP, so the atoms are drawn through sample_training
        p = oracle.incrementality_point(SubsampleMean(), _uniform_dist(list(range(10))), 7, seed=4)
        assert p.method == "mc"
        assert abs(p.ratio - 1.0) <= max(3 * p.ratio_se, 0.05)

    def test_mc_se_is_calibrated_against_the_exact_ratio(self):
        # The max of s fair coins: a first draw of 1 fixes T, so Var(T | Z_1)
        # depends on Z_1 and the noise of Var(T) dominates the error. Hiding
        # the atoms behind a bare source forces the Monte Carlo path; the exact
        # path gives the true ratio 5/31. With 10 blocks the SE follows a t_9
        # law, so about 1.5% of calibrated estimates land beyond 3 SE.
        dist = _uniform_dist([0.0, 1.0])

        class Atoms:
            d = dist.d
            sample_training = dist.sample_training

        exact = oracle.hajek_projection_stats(dist, SubsampleMax(), 5).ratio
        assert exact == pytest.approx(5 / 31, rel=1e-12)
        pts = [oracle.incrementality_point(SubsampleMax(), Atoms(), 5, seed=seed) for seed in range(20)]
        assert all(p.method == "mc" for p in pts)
        beyond = [seed for seed, p in enumerate(pts) if abs(p.ratio - exact) > 3 * p.ratio_se]
        assert len(beyond) <= 2, beyond

    def test_a_block_with_constant_outputs_leaves_the_se_undefined(self):
        # T is 0 on the first block's 100 outer draws: that block's Var(T) is
        # 0, so its ratio, and with it the spread, is nan and nothing warns
        calls = []

        def learner(xs_rows, ys_rows):
            calls.append(None)
            return ys_rows.mean(axis=1) * (len(calls) > 100)

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p = oracle.incrementality_point(learner, _uniform_dist(list(range(10))), 7)
        assert len(calls) == 1000 and p.method == "mc"
        assert math.isfinite(p.ratio) and math.isnan(p.ratio_se)

    @pytest.mark.parametrize("atoms", [2, 10**6 + 1], ids=["exact", "mc"])
    @pytest.mark.parametrize("s", [0, 1])
    def test_s_below_two_is_refused(self, s, atoms):
        with pytest.raises(ValueError, match=f"needs s >= 2, got s={s}"):
            oracle.incrementality_point(SubsampleMean(), _uniform_dist(list(range(atoms))), s)
