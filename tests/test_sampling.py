import math
from itertools import combinations

import numpy as np
import pytest

from subforest import rng, sampling
from subforest.forest import ForestConfig

from conftest import reference_partition, reference_subsample


def _stream(i=0):
    return rng.stream(123, rng.SUBSAMPLE, i)


def _targets(g, k, m, reps=None):
    """Swap targets j_i uniform on [i, m) for a partial Fisher-Yates of k out of m
    items: one row, or ``reps`` rows from one call, which draws the values of
    ``reps`` one-row calls in turn."""
    low = np.arange(k) if reps is None else np.broadcast_to(np.arange(k), (reps, k))
    return g.integers(low, m)


def _draws(n, s, g, reps):
    """``reps`` sorted subsample rows from one block call."""
    return sampling.draw_block(n, s, _targets(g, s, n, reps))


class TestDrawSubsample:
    def test_full_draw_is_everything(self):
        assert np.array_equal(_draws(5, 5, _stream(), 1), [np.arange(5)])

    def test_bounds_errors(self):
        # a forest refuses subsample sizes a draw and its honesty partition cannot take
        for s in (5, 0, 1):
            with pytest.raises(ValueError, match="2 <= s <= n"):
                ForestConfig(s=s).resolve(4)

    def test_determinism(self):
        a = _draws(50, 12, _stream(3), 1)
        b = _draws(50, 12, _stream(3), 1)
        assert np.array_equal(a, b)

    def test_single_element_uniform(self):
        # n=4, s=1 over many draws: each index frequency within 0.01 of 0.25
        reps = 10**5
        counts = np.bincount(_draws(4, 1, _stream(1), reps)[:, 0], minlength=4)
        assert np.all(np.abs(counts / reps - 0.25) < 0.01)

    def test_all_subsets_equally_likely(self):
        # n=6, s=3: all 20 subsets appear with frequency 0.05 +/- 0.005
        reps = 10**5
        subsets, counts = np.unique(_draws(6, 3, _stream(2), reps), axis=0, return_counts=True)
        assert [tuple(c) for c in subsets] == list(combinations(range(6), 3))
        for c, count in zip(subsets, counts):
            assert abs(count / reps - 0.05) < 0.005, (c, count / reps)

    def test_inclusion_moments(self):
        # E[N_i] = s/n and Cov(N_i, N_j) = -s(n-s)/(n^2 (n-1)), within 3 SE
        n, s, reps = 6, 3, 10**5
        counts = np.zeros((reps, n))
        counts[np.arange(reps)[:, None], _draws(n, s, _stream(4), reps)] = 1  # N_i = 1 iff i is drawn
        mean_se = math.sqrt((s / n) * (1 - s / n) / reps)
        assert abs(counts[:, 0].mean() - s / n) < 3 * mean_se
        prod = (counts[:, 0] - s / n) * (counts[:, 1] - s / n)
        expected = -s * (n - s) / (n**2 * (n - 1))
        se = prod.std(ddof=1) / math.sqrt(reps)
        assert abs(prod.mean() - expected) < 3 * se

    def test_draw_holds_s_distinct_indices(self):
        for row in _draws(30, 11, _stream(5), 50):
            assert np.unique(row).size == row.size == 11


class TestHonestyPartition:
    def _partition(self, n, s, i):
        sub = _draws(n, s, _stream(i), 1)
        return sub, sampling.partition_block(sub, _targets(_stream(i + 1), sampling.prediction_size(s), s)[None])

    def test_two_points(self):
        _, (structure, prediction) = self._partition(10, 2, 6)
        assert structure.shape == prediction.shape == (1, 1)

    def test_ceiling_rule(self):
        assert [sampling.prediction_size(s) for s in (2, 3, 4, 5, 124, 125)] == [1, 2, 2, 3, 62, 63]
        _, (structure, prediction) = self._partition(20, 5, 8)
        assert prediction.shape == (1, 3) and structure.shape == (1, 2)

    def test_partition_covers_draw(self):
        sub, (structure, prediction) = self._partition(40, 17, 10)
        assert np.array_equal(np.sort(np.concatenate([structure, prediction], axis=1)), sub)

    def test_membership_frequency(self):
        # each element lands in the prediction set with frequency ceil(s/2)/s +/- 0.01
        n, s, reps = 12, 5, 10**5
        g = _stream(12)
        sub = _draws(n, s, g, 1)
        k = sampling.prediction_size(s)
        _, prediction = sampling.partition_block(np.broadcast_to(sub, (reps, s)), _targets(g, k, s, reps))
        members, hits = np.unique(prediction, return_counts=True)
        assert np.array_equal(members, sub[0])
        for i, h in zip(members, hits):
            assert abs(h / reps - math.ceil(s / 2) / s) < 0.01, (i, h / reps)


class TestDrawBlock:
    def test_rows_equal_per_tree_draws(self, monkeypatch):
        # a pool budget of 100 entries forces chunks of 2 rows at n = 50
        monkeypatch.setattr(sampling, "_POOL_ENTRIES", 100)
        gens = [rng.stream(3, rng.TREE, b) for b in range(7)]
        sub = sampling.draw_block(50, 13, np.stack([_targets(g, 13, 50) for g in gens]))
        struct, pred = sampling.partition_block(sub, np.stack([_targets(g, 7, 13) for g in gens]))
        assert sub.shape == (7, 13) and struct.shape == (7, 6) and pred.shape == (7, 7)
        for b in range(7):
            g = rng.stream(3, rng.TREE, b)
            ref_sub = reference_subsample(g, 50, 13)
            ref_struct, ref_pred = reference_partition(g, ref_sub)
            assert np.array_equal(sub[b], ref_sub)
            assert np.array_equal(pred[b], ref_pred)
            assert np.array_equal(struct[b], ref_struct)
            # the generator is left where the per-tree draws leave it
            assert gens[b].random() == g.random()

    def test_pinned_draw(self):
        # stream (3, TREE, 5) at n=50, s=12, as the per-tree loop drew it
        g = rng.stream(3, rng.TREE, 5)
        sub = sampling.draw_block(50, 12, _targets(g, 12, 50)[None])
        _, pred = sampling.partition_block(sub, _targets(g, 6, 12)[None])
        assert sub[0].tolist() == [2, 3, 6, 7, 9, 24, 28, 34, 36, 45, 48, 49]
        assert pred[0].tolist() == [2, 3, 24, 28, 34, 48]


class TestRowMembers:
    def test_blocks_match_per_row_membership(self, monkeypatch):
        # blocks of 3 rows: 10 rows take four tables
        monkeypatch.setattr(sampling, "_MEMBER_ROWS", 3)
        gen = np.random.default_rng(4)
        rows = np.sort(np.stack([gen.choice(30, 8, replace=False) for _ in range(10)]), axis=1)
        of = gen.integers(0, 30, (10, 5))
        want = np.array([np.isin(o, r) for r, o in zip(rows, of)])
        assert want.any() and not want.all()
        assert np.array_equal(sampling.row_members(rows, of, 30), want)


class TestDefaultSubsampleSize:
    @pytest.mark.parametrize("n,expect", [(200, 40), (1000, 125), (4, 2), (50, 15), (3200, 284)])
    def test_rule_values(self, n, expect):
        assert sampling.default_subsample_size(n) == expect

    def test_floor_clamp(self):
        assert sampling.default_subsample_size(2, 0.1) == 2

    def test_requires_two(self):
        with pytest.raises(ValueError):
            sampling.default_subsample_size(1)
