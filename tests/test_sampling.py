import math
from itertools import combinations

import numpy as np
import pytest

from subforest import rng, sampling


def _stream(i=0):
    return rng.stream(123, rng.SUBSAMPLE, i)


class TestDrawSubsample:
    def test_full_draw_is_everything(self):
        d = sampling.draw_subsample(5, 5, _stream())
        assert np.array_equal(d.indices, np.arange(5))

    def test_bounds_errors(self):
        with pytest.raises(ValueError):
            sampling.draw_subsample(4, 5, _stream())
        with pytest.raises(ValueError):
            sampling.draw_subsample(4, 0, _stream())

    def test_determinism(self):
        a = sampling.draw_subsample(50, 12, _stream(3))
        b = sampling.draw_subsample(50, 12, _stream(3))
        assert np.array_equal(a.indices, b.indices)

    def test_single_element_uniform(self):
        # n=4, s=1 over many draws: each index frequency within 0.01 of 0.25
        g = _stream(1)
        reps = 10**5
        counts = np.zeros(4)
        for _ in range(reps):
            counts[sampling.draw_subsample(4, 1, g).indices[0]] += 1
        assert np.all(np.abs(counts / reps - 0.25) < 0.01)

    def test_all_subsets_equally_likely(self):
        # n=6, s=3: all 20 subsets appear with frequency 0.05 +/- 0.005
        g = _stream(2)
        reps = 10**5
        freq = {c: 0 for c in combinations(range(6), 3)}
        for _ in range(reps):
            freq[tuple(sampling.draw_subsample(6, 3, g).indices)] += 1
        assert len(freq) == 20
        for c, count in freq.items():
            assert abs(count / reps - 0.05) < 0.005, (c, count / reps)

    def test_inclusion_moments(self):
        # E[N_i] = s/n and Cov(N_i, N_j) = -s(n-s)/(n^2 (n-1)), within 3 SE
        n, s, reps = 6, 3, 10**5
        g = _stream(4)
        counts = np.zeros((reps, n))
        for r in range(reps):
            counts[r, sampling.draw_subsample(n, s, g).indices] = 1  # N_i = 1 iff i is drawn
        mean_se = math.sqrt((s / n) * (1 - s / n) / reps)
        assert abs(counts[:, 0].mean() - s / n) < 3 * mean_se
        prod = (counts[:, 0] - s / n) * (counts[:, 1] - s / n)
        expected = -s * (n - s) / (n**2 * (n - 1))
        se = prod.std(ddof=1) / math.sqrt(reps)
        assert abs(prod.mean() - expected) < 3 * se

    def test_empty_draw_rejected(self):
        with pytest.raises(ValueError):
            sampling.SubsampleDraw(np.array([], dtype=np.int64), 3)

    def test_draw_holds_s_distinct_indices(self):
        g = _stream(5)
        for _ in range(50):
            d = sampling.draw_subsample(30, 11, g)
            assert np.unique(d.indices).size == d.s == 11


class TestHonestyPartition:
    def test_two_points(self):
        d = sampling.draw_subsample(10, 2, _stream(6))
        p = sampling.honesty_partition(d, _stream(7))
        assert p.structure.size == 1 and p.prediction.size == 1

    def test_ceiling_rule(self):
        d = sampling.draw_subsample(20, 5, _stream(8))
        p = sampling.honesty_partition(d, _stream(9))
        assert p.prediction.size == 3 and p.structure.size == 2

    def test_partition_covers_draw(self):
        d = sampling.draw_subsample(40, 17, _stream(10))
        p = sampling.honesty_partition(d, _stream(11))
        assert np.array_equal(np.sort(np.concatenate([p.structure, p.prediction])), d.indices)

    def test_membership_frequency(self):
        # each element lands in the prediction set with frequency ceil(s/2)/s +/- 0.01
        n, s, reps = 12, 5, 10**5
        g = _stream(12)
        d = sampling.draw_subsample(n, s, g)
        hits = {int(i): 0 for i in d.indices}
        for _ in range(reps):
            p = sampling.honesty_partition(d, g)
            for i in p.prediction:
                hits[int(i)] += 1
        target = math.ceil(s / 2) / s
        for i, h in hits.items():
            assert abs(h / reps - target) < 0.01, (i, h / reps)

    def test_too_small(self):
        d = sampling.SubsampleDraw(np.array([3]), 10)
        with pytest.raises(ValueError, match="partition"):
            sampling.honesty_partition(d, _stream(13))


class TestDrawBlock:
    def test_rows_equal_per_tree_draws(self, monkeypatch):
        # a pool budget of 100 entries forces chunks of 2 rows at n = 50
        monkeypatch.setattr(sampling, "_POOL_ENTRIES", 100)
        gens = [rng.stream(3, rng.TREE, b) for b in range(7)]
        sub = sampling.draw_block(50, 13, np.stack([sampling.swap_targets(g, 13, 50) for g in gens]))
        struct, pred = sampling.partition_block(sub, np.stack([sampling.swap_targets(g, 7, 13) for g in gens]))
        assert sub.shape == (7, 13) and struct.shape == (7, 6) and pred.shape == (7, 7)
        for b in range(7):
            g = rng.stream(3, rng.TREE, b)
            draw = sampling.draw_subsample(50, 13, g)
            part = sampling.honesty_partition(draw, g)
            assert np.array_equal(sub[b], draw.indices)
            assert np.array_equal(pred[b], part.prediction)
            assert np.array_equal(struct[b], part.structure)
            # the generator is left where the per-tree calls leave it
            assert gens[b].random() == g.random()

    def test_pinned_draw(self):
        # stream (3, TREE, 5) at n=50, s=12, as the per-tree loop drew it
        g = rng.stream(3, rng.TREE, 5)
        sub = sampling.draw_block(50, 12, sampling.swap_targets(g, 12, 50)[None])
        _, pred = sampling.partition_block(sub, sampling.swap_targets(g, 6, 12)[None])
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
