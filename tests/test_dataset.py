import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subforest import dataset
from subforest.dataset import SyntheticSpec, TrainingSet


class TestSyntheticFormulas:
    def test_cosine_center(self):
        spec = SyntheticSpec("cosine", 2, noise_sd=0.0)
        ts = dataset.gen_synthetic(spec, 1, seed=0)
        assert dataset.true_mean_batch(spec, [[0.5, 0.5]])[0] == pytest.approx(-3.0)

    def test_cosine_origin(self):
        assert dataset.true_mean_batch(SyntheticSpec("cosine", 2), [[0.0, 0.0]])[0] == pytest.approx(3.0)

    def test_xor_single_term(self):
        assert dataset.true_mean_batch(SyntheticSpec("xor", 4), [[0.7, 0.5, 0.7, 0.7]])[0] == pytest.approx(5.0)

    def test_xor_both_terms(self):
        assert dataset.true_mean_batch(SyntheticSpec("xor", 4), [[0.7, 0.5, 0.7, 0.5]])[0] == pytest.approx(10.0)

    def test_and_all_above(self):
        assert dataset.true_mean_batch(SyntheticSpec("and", 4), [[0.4, 0.9, 0.31, 0.99]])[0] == pytest.approx(10.0)

    def test_and_conjunct_fails(self):
        assert dataset.true_mean_batch(SyntheticSpec("and", 4), [[0.2, 0.9, 0.9, 0.9]])[0] == 0.0

    def test_strict_inequality_at_cutoffs(self):
        assert dataset.true_mean_batch(SyntheticSpec("and", 4), [[0.3, 0.9, 0.9, 0.9]])[0] == 0.0
        assert dataset.true_mean_batch(SyntheticSpec("xor", 4), [[0.6, 0.7, 0.5, 0.5]])[0] == pytest.approx(5.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="features"):
            dataset.true_mean_batch(SyntheticSpec("cosine", 2), [[0.1, 0.2, 0.3]])


class TestSpecValidation:
    def test_arity_enforced(self):
        with pytest.raises(ValueError, match="d >= 4"):
            SyntheticSpec("xor", 3)
        with pytest.raises(ValueError, match="d >= 2"):
            SyntheticSpec("cosine", 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            SyntheticSpec("sine", 2)
        with pytest.raises(ValueError, match="unknown"):
            SyntheticSpec("sine")

    def test_unset_d_is_the_arity(self):
        assert [SyntheticSpec(kind).d for kind in ("cosine", "xor", "and")] == [2, 4, 4]
        assert SyntheticSpec("xor") == SyntheticSpec("xor", 4)

    def test_extra_noise_dimensions_allowed(self):
        spec = SyntheticSpec("xor", 20)
        ts = dataset.gen_synthetic(spec, 10, seed=1)
        assert ts.d == 20


class TestGenSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec("cosine", 2)
        a = dataset.gen_synthetic(spec, 50, seed=3)
        b = dataset.gen_synthetic(spec, 50, seed=3)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        spec = SyntheticSpec("cosine", 2)
        a = dataset.gen_synthetic(spec, 50, seed=3)
        b = dataset.gen_synthetic(spec, 50, seed=4)
        assert not np.array_equal(a.x, b.x)

    @given(st.integers(min_value=0, max_value=2**63 - 1), st.sampled_from(["cosine", "xor", "and"]))
    @settings(max_examples=20, deadline=None)
    def test_features_in_unit_cube(self, seed, kind):
        spec = SyntheticSpec(kind, dataset.ARITY[kind])
        ts = dataset.gen_synthetic(spec, 40, seed=seed)
        assert np.all(ts.x >= 0.0) and np.all(ts.x < 1.0)

    def test_zero_noise_matches_true_mean(self):
        spec = SyntheticSpec("xor", 5, noise_sd=0.0)
        ts = dataset.gen_synthetic(spec, 200, seed=11)
        assert np.array_equal(ts.y, dataset.true_mean_batch(spec, ts.x))

    def test_noise_is_mean_zero(self):
        n = 10**5
        spec = SyntheticSpec("cosine", 2)
        ts = dataset.gen_synthetic(spec, n, seed=5)
        resid = ts.y - dataset.true_mean_batch(spec, ts.x)
        assert abs(resid.mean()) < 4.0 / math.sqrt(n)


class TestTrainingSet:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            TrainingSet(np.array([[0.1], [np.nan]]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="non-finite"):
            TrainingSet(np.array([[0.1], [0.2]]), np.array([1.0, np.inf]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            TrainingSet(np.empty((0, 2)), np.empty(0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            TrainingSet(np.ones((3, 2)), np.ones(4))


class TestCsv:
    def test_load_basic(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        ts = dataset.load_csv(p, target_column="y")
        assert ts.n == 3 and ts.d == 2
        assert np.array_equal(ts.y, [3.0, 6.0, 9.0])
        assert ts.feature_names == ("a", "b")

    def test_target_defaults_to_last_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,y\n1,2,3\n")
        ts = dataset.load_csv(p)
        assert ts.y[0] == 3.0

    def test_blank_cell_names_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\n1,2\n3,\n")
        with pytest.raises(ValueError, match="row 3"):
            dataset.load_csv(p, target_column="y")

    def test_non_finite_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\n1,2\n3,4\nNaN,5\n")
        with pytest.raises(ValueError, match="row 4, column 'a': non-finite value 'NaN'"):
            dataset.load_csv(p)

    def test_row_number_is_the_files_line(self, tmp_path):
        # provenance lines, the header and blank lines all count
        p = tmp_path / "t.csv"
        p.write_text("# tool=x\n# seed=1\na,y\n1,2\n\n3,oops\n")
        with pytest.raises(ValueError, match="row 6, column 'y': not numeric: 'oops'"):
            dataset.load_csv(p)

    @pytest.mark.parametrize("header", ["a,a,y", "a, b,y,b "])
    def test_repeated_column_name_refused(self, tmp_path, header):
        # names are stripped before they are compared
        p = tmp_path / "t.csv"
        p.write_text(header + "\n" + ",".join(["1"] * len(header.split(","))) + "\n")
        name = header.split(",")[1].strip()
        with pytest.raises(ValueError, match=f"header names column '{name}' twice"):
            dataset.read_csv(p)

    def test_header_only_is_empty_dataset(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,y\n")
        with pytest.raises(ValueError, match="empty dataset"):
            dataset.load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            dataset.load_csv(tmp_path / "nope.csv")

    def test_missing_target(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="target"):
            dataset.load_csv(p, target_column="z")

    def test_roundtrip_bit_exact(self, tmp_path):
        spec = SyntheticSpec("cosine", 2)
        ts = dataset.gen_synthetic(spec, 25, seed=13)
        p = tmp_path / "r.csv"
        dataset.save_csv(ts, p)
        ts2 = dataset.load_csv(p, target_column="y")
        assert np.array_equal(ts.x, ts2.x)
        assert np.array_equal(ts.y, ts2.y)

    def test_skips_provenance_comments(self, tmp_path):
        p = tmp_path / "t.csv"
        # a blank line between the provenance lines and the header is skipped too
        for text in ("# tool=x\n# seed=1\na,y\n1,2\n", "# tool=x\n\na,y\n1,2\n"):
            p.write_text(text)
            ts = dataset.load_csv(p)
            assert ts.n == 1
