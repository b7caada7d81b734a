import hashlib
import json
import os

import numpy as np
import pytest

from subforest import dataset, forest, tree
from subforest.cli import main
from subforest.forest import ForestConfig
from subforest.model_io import load_model, save_model

from conftest import time_limit, trees_equal


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _gen(tmp_path, name="data.csv", n=40, seed=1, kind="cosine"):
    out = tmp_path / name
    assert main(["gen", "--kind", kind, "--n", str(n), "--seed", str(seed), "--out", str(out)]) == 0
    return out


class TestGen:
    def test_writes_parseable_csv(self, tmp_path):
        out = _gen(tmp_path)
        ts = dataset.load_csv(out, target_column="y")
        assert ts.n == 40 and ts.d == 2

    def test_rerun_identical_bytes(self, tmp_path):
        a = _gen(tmp_path, "a.csv")
        b = _gen(tmp_path, "b.csv")
        assert _sha(a) == _sha(b)

    def test_invalid_kind_usage_error(self, tmp_path):
        assert main(["gen", "--kind", "nope", "--out", str(tmp_path / "x.csv")]) == 1

    def test_arity_validation_exit_one(self, tmp_path):
        assert main(["gen", "--kind", "xor", "--d", "3", "--out", str(tmp_path / "x.csv")]) == 1

    def test_embeds_tool_and_config(self, tmp_path):
        out = _gen(tmp_path)
        head = out.read_text().splitlines()[:8]
        assert any("tool=subforest" in line for line in head)
        assert any("seed=1" in line for line in head)


class TestTrain:
    def test_summary_reports_resolved_s(self, tmp_path, capsys):
        data = _gen(tmp_path, n=50)
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--threads", "1", "--b", "8",
                     "--out", str(model)]) == 0
        out = capsys.readouterr().out
        assert "s=15" in out  # floor(50**0.7)
        assert "n=50" in out

    def test_retrain_identical_hash(self, tmp_path):
        data = _gen(tmp_path)
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        args = ["train", "--data", str(data), "--threads", "1", "--b", "6", "--seed", "9"]
        assert main(args + ["--out", str(m1)]) == 0
        assert main(args + ["--out", str(m2)]) == 0
        assert _sha(m1) == _sha(m2)

    def test_threads_do_not_change_bytes(self, tmp_path):
        data = _gen(tmp_path)
        hashes = []
        for t in (1, 2, 8):
            m = tmp_path / f"m_t{t}.json"
            assert main(["train", "--data", str(data), "--threads", str(t), "--b", "12",
                         "--seed", "3", "--out", str(m)]) == 0
            hashes.append(_sha(m))
        assert hashes[0] == hashes[1] == hashes[2]

    def test_s_exceeding_n_fails(self, tmp_path):
        data = _gen(tmp_path, n=50)
        assert main(["train", "--data", str(data), "--s", "100", "--b", "4",
                     "--out", str(tmp_path / "m.json")]) == 1

    def test_config_file_with_flag_override(self, tmp_path):
        data = _gen(tmp_path)
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"data": str(data), "b": 4, "seed": 2}))
        model = tmp_path / "m.json"
        assert main(["train", "--config", str(cfg), "--b", "6", "--threads", "1",
                     "--out", str(model)]) == 0
        fm, _ = load_model(model)
        assert fm.b == 6  # flag wins over config file

    def test_dead_worker_exits_one_naming_tree_ranges(self, tmp_path, monkeypatch, capsys):
        data = _gen(tmp_path)
        # two usable cores: the dying fit runs in pool workers, never in this process
        monkeypatch.setattr(forest, "usable_cores", lambda: 2)
        monkeypatch.setattr(forest, "_fit_range", _exit_worker)
        with time_limit(120):
            assert main(["train", "--data", str(data), "--threads", "2", "--b", "16",
                         "--out", str(tmp_path / "m.bin")]) == 1
        err = capsys.readouterr().err
        assert "error: a worker process died; no results for trees 0-1, trees 2-3" in err
        assert "Traceback" not in err

    def test_unknown_config_key_rejected(self, tmp_path):
        data = _gen(tmp_path)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"data": str(data), "bogus": 1}))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 1


class TestPredict:
    def _model(self, tmp_path, b=20):
        data = _gen(tmp_path)
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(data), "--threads", "1", "--b", str(b),
                     "--seed", "4", "--out", str(model)]) == 0
        return data, model

    def test_record_per_query_row(self, tmp_path):
        data, model = self._model(tmp_path)
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--data", str(data),
                     "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert len(rows) - 1 == 40  # header + one record per query row

    def test_prediction_roundtrip_bit_exact(self, tmp_path):
        from subforest.forest import predict_batch

        data, model = self._model(tmp_path)
        fm, _ = load_model(model)
        ts = dataset.load_csv(data, target_column="y")
        direct = predict_batch(fm, ts.x)
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--data", str(data),
                     "--out", str(out)]) == 0
        got = [float(l.split(",")[0]) for l in out.read_text().splitlines()[1:]
               if l and not l.startswith("#") and not l.startswith("y_hat")]
        assert np.array_equal(np.array(got), direct)

    def test_single_tree_model_rejected(self, tmp_path):
        data, model = self._model(tmp_path, b=1)
        assert main(["predict", "--model", str(model), "--data", str(data),
                     "--out", str(tmp_path / "p.csv")]) == 1

    def test_version_mismatch_refused(self, tmp_path):
        data, model = self._model(tmp_path)
        header, body = model.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["format_version"] = 99
        model.write_bytes(json.dumps(doc).encode() + b"\n" + body)
        assert main(["predict", "--model", str(model), "--data", str(data),
                     "--out", str(tmp_path / "p.csv")]) == 1

    def test_missing_feature_column(self, tmp_path):
        data, model = self._model(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n0.5,0.5\n")
        assert main(["predict", "--model", str(model), "--data", str(bad),
                     "--out", str(tmp_path / "p.csv")]) == 1


_ARRAYS = ("feature", "threshold", "child", "value", "pred_index", "from_random", "roots",
           "subsample_indices", "prediction_indices")


class TestModelFile:
    @pytest.fixture(params=["honest", "cart"])
    def saved(self, request, tmp_path, cosine_1k):
        fm = forest.train(cosine_1k, ForestConfig(b=30, seed=12, tree=tree.TreeConfig(mode=request.param)))
        path = tmp_path / "m.bin"
        save_model(path, fm, cosine_1k)
        return fm, path

    @staticmethod
    def _rewrite(path, name, edit):
        """Apply ``edit`` to one array of a saved model file in place."""
        header, body = path.read_bytes().split(b"\n", 1)
        entry = next(e for e in json.loads(header)["arrays"] if e["name"] == name)
        count = int(np.prod(entry["shape"]))
        arr = np.frombuffer(body, entry["dtype"], count, entry["offset"]).reshape(entry["shape"]).copy()
        edit(arr)
        body = body[:entry["offset"]] + arr.tobytes() + body[entry["offset"] + arr.nbytes:]
        path.write_bytes(header + b"\n" + body)

    def _refused(self, path, tmp_path, capsys, match):
        with pytest.raises(ValueError, match=match):
            load_model(path)
        data = tmp_path / "q.csv"
        data.write_text("x1,x2\n0.5,0.5\n")
        assert main(["predict", "--model", str(path), "--data", str(data),
                     "--out", str(tmp_path / "p.csv")]) == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_round_trip_bit_exact(self, saved):
        fm, path = saved
        loaded, meta = load_model(path)
        assert meta["mode"] == fm.config.tree.mode
        assert (loaded.n, loaded.d, loaded.s, loaded.b, loaded.config) == (fm.n, fm.d, fm.s, fm.b, fm.config)
        for name in _ARRAYS:
            a, b = getattr(fm, name), getattr(loaded, name)
            assert (a is None and b is None) or (np.array_equal(a, b) and a.dtype == b.dtype), name
        xs = np.random.default_rng(3).random((40, 2))
        assert np.array_equal(forest.predict_per_tree(loaded, xs), forest.predict_per_tree(fm, xs))
        for a, b in zip(fm.trees, loaded.trees):
            assert trees_equal(a, b)
            assert np.array_equal(a.subsample.indices, b.subsample.indices)
            if a.partition is not None:
                assert np.array_equal(a.partition.structure, b.partition.structure)
                assert np.array_equal(a.partition.prediction, b.partition.prediction)

    def test_truncated_file_refused(self, saved, tmp_path, capsys):
        _, path = saved
        path.write_bytes(path.read_bytes()[:-9])
        self._refused(path, tmp_path, capsys, "truncated")

    def test_child_not_after_parent_refused(self, saved, tmp_path, capsys):
        # the root pointing back at itself would otherwise walk forever
        _, path = saved

        def edit(child):
            child[0, 0] = 0

        self._rewrite(path, "child", edit)
        self._refused(path, tmp_path, capsys, "after their parent")

    def test_feature_out_of_range_refused(self, saved, tmp_path, capsys):
        _, path = saved

        def edit(feature):
            feature[0] = 2

        self._rewrite(path, "feature", edit)
        self._refused(path, tmp_path, capsys, "split features")

    def test_non_finite_threshold_refused(self, saved, tmp_path, capsys):
        # the walk would send every query right at a NaN threshold, the bitmask left
        _, path = saved

        def edit(threshold):
            threshold[0] = np.nan

        self._rewrite(path, "threshold", edit)
        self._refused(path, tmp_path, capsys, "split thresholds must be finite")

    def test_shared_child_refused(self, saved, tmp_path, capsys):
        _, path = saved

        def edit(child):
            child[0, 1] = child[0, 0]

        self._rewrite(path, "child", edit)
        self._refused(path, tmp_path, capsys, "child of exactly one split")

    def test_version_1_json_model_refused(self, tmp_path, capsys):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({"format_version": 1, "n": 40, "d": 2, "trees": []},
                                   sort_keys=True, separators=(",", ":")) + "\n")
        self._refused(path, tmp_path, capsys, "format version 1 does not match")

    def test_version_2_model_refused(self, saved, tmp_path, capsys):
        # same layout, older grower: the header's version alone refuses it
        _, path = saved
        header, body = path.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["format_version"] = 2
        path.write_bytes(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n" + body)
        self._refused(path, tmp_path, capsys, "format version 2 does not match supported version 3")

    def test_non_model_file_refused(self, tmp_path, capsys):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\xff\x00junk")
        self._refused(path, tmp_path, capsys, "not a subforest model")


class TestSimulate:
    def test_metrics_table_layout(self, tmp_path):
        out = tmp_path / "met.csv"
        assert main(["simulate", "metrics", "--kind", "cosine", "--n", "80", "--k", "3",
                     "--r", "5", "--b", "30", "--threads", "1", "--seed", "2",
                     "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header == ["Distr", "d", "n", "rel_bias2", "rel_var", "rel_mse",
                          "abs_bias2", "abs_var", "abs_mse"]
        row = lines[1].split(",")
        assert row[0] == "cosine" and row[1] == "2" and row[2] == "80"

    def test_normality_json_shape(self, tmp_path):
        out = tmp_path / "norm.json"
        assert main(["simulate", "normality", "--kind", "cosine", "--n", "60", "--k", "3",
                     "--r", "50", "--b", "25", "--threads", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["ks_stats"]) == 3
        assert len(doc["p_values"]) == 3
        assert "pass_fraction" in doc and doc["tool"].startswith("subforest")

    def test_normality_requires_50_replicates(self, tmp_path):
        assert main(["simulate", "normality", "--n", "60", "--k", "2", "--r", "10",
                     "--b", "20", "--threads", "1", "--out", str(tmp_path / "n.json")]) == 1

    def test_coverage_json(self, tmp_path):
        out = tmp_path / "cov.json"
        assert main(["simulate", "coverage", "--kind", "cosine", "--n", "60", "--k", "2",
                     "--r", "50", "--b", "25", "--levels", "0.9,0.95", "--threads", "1",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["levels"] == [0.9, 0.95]
        assert len(doc["coverage_of_mean"]) == 2
        assert doc["coverage_of_true"] is not None

    def test_bias_grid_dense_matrix(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["simulate", "bias-grid", "--n", "300", "--s", "15", "--resolution", "3",
                     "--r", "2", "--b", "10", "--threads", "1", "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 3 and all(len(r) == 3 for r in rows)

    def test_bootstrap_runs_on_csv(self, tmp_path):
        data = _gen(tmp_path, n=60)
        out = tmp_path / "boot.csv"
        assert main(["simulate", "bootstrap", "--data", str(data), "--n", "50", "--k", "3",
                     "--r", "4", "--b", "20", "--threads", "1", "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("Distr")


class TestOracleCheck:
    def test_default_battery_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        assert main(["oracle-check", "--mc-b", "20000", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["anova_lhs"] <= doc["anova_rhs"]
        assert doc["mc_relative_error"] < 0.1

    def test_linear_learner_lhs_zero(self, tmp_path):
        out = tmp_path / "oracle.json"
        assert main(["oracle-check", "--learner", "sum", "--n", "4", "--s", "2",
                     "--mc-b", "5000", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["anova_lhs"]) < 1e-18
        assert doc["incrementality_ratio"] == pytest.approx(1.0, rel=1e-9)

    def test_cap_exceeded_names_cap(self, tmp_path, capsys):
        code = main(["oracle-check", "--n", "40", "--s", "15", "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert "cap" in capsys.readouterr().err


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert "subforest" in capsys.readouterr().out


class TestThreadsEnv:
    def test_env_var_sets_default_thread_count(self, tmp_path, monkeypatch):
        from subforest import cli

        monkeypatch.setenv(cli.THREADS_ENV, "3")
        assert cli._default_threads() == 3
        monkeypatch.delenv(cli.THREADS_ENV)
        assert cli._default_threads() >= 1

    def test_env_var_drives_training(self, tmp_path, monkeypatch):
        from subforest import cli

        data = _gen(tmp_path)
        monkeypatch.setenv(cli.THREADS_ENV, "2")
        m1 = tmp_path / "env.json"
        assert main(["train", "--data", str(data), "--b", "6", "--seed", "1",
                     "--out", str(m1)]) == 0
        monkeypatch.setenv(cli.THREADS_ENV, "1")
        m2 = tmp_path / "env1.json"
        assert main(["train", "--data", str(data), "--b", "6", "--seed", "1",
                     "--out", str(m2)]) == 0
        assert _sha(m1) == _sha(m2)


def _exit_worker(args):
    os._exit(3)
