import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import subforest
from subforest import dataset, forest, jackknife, tree
from subforest.cli import main
from subforest.forest import ForestConfig
from subforest.model_io import load_model, save_model

from conftest import time_limit


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

    def test_bytes_pinned(self, tmp_path):
        out = tmp_path / "xor.csv"
        assert main(["gen", "--kind", "xor", "--d", "5", "--n", "1000", "--seed", "4", "--out", str(out)]) == 0
        assert _sha(out) == "79c2499743b39564c61108df7e928c386aeb268dd07ea3fd9117af603d026902"

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

    @pytest.mark.parametrize("command", [["train"], ["simulate", "metrics"], ["simulate", "bootstrap"]])
    @pytest.mark.parametrize("value", ["inf", "nan", "0"])
    def test_bad_s_exponent_refused_before_training(self, tmp_path, monkeypatch, capsys, command, value):
        from subforest import cli, experiments

        data = _gen(tmp_path)

        def trained(*_, **__):
            raise AssertionError("trained before s_exponent was checked")

        for module in (cli, experiments, forest):
            monkeypatch.setattr(module, "train", trained)
        out = tmp_path / "out"
        extra = [] if command == ["simulate", "metrics"] else ["--data", str(data)]
        assert main([*command, *extra, "--s-exponent", value, "--threads", "1", "--out", str(out)]) == 1
        assert f"error: s_exponent must be finite and > 0, got {float(value)}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_column_name_refused(self, tmp_path, capsys):
        data = tmp_path / "dup.csv"
        data.write_text("a,a,y\n" + "".join(f"{i / 40},{1 - i / 40},{i % 3}\n" for i in range(40)))
        model = tmp_path / "m.bin"
        assert main(["train", "--data", str(data), "--threads", "1", "--b", "4", "--out", str(model)]) == 1
        assert "header names column 'a' twice" in capsys.readouterr().err
        assert not model.exists()

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

    def test_single_tree_model_rejected(self, tmp_path, capsys):
        data, model = self._model(tmp_path, b=1)
        assert main(["predict", "--model", str(model), "--data", str(data),
                     "--out", str(tmp_path / "p.csv")]) == 1
        assert "error: variance estimation needs B >= 2 tree outputs, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize("level, bad", [("1.5", "1.5"), ("0", "0.0"), ("nan", "nan")])
    def test_level_checked_before_the_model_loads(self, tmp_path, monkeypatch, capsys, level, bad):
        from subforest import cli

        def loaded(*_):
            raise AssertionError("the model loaded before the level was checked")

        data, model = self._model(tmp_path)
        monkeypatch.setattr(cli, "load_model", loaded)
        out = tmp_path / "p.csv"
        assert main(["predict", "--model", str(model), "--data", str(data), "--level", level,
                     "--out", str(out)]) == 1
        assert f"error: level must be in (0, 1), got {bad}" in capsys.readouterr().err
        assert not out.exists()

    def test_version_mismatch_refused(self, tmp_path):
        data, model = self._model(tmp_path)
        header, body = model.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["format_version"] = 99
        model.write_bytes(json.dumps(doc).encode() + b"\n" + body)
        assert main(["predict", "--model", str(model), "--data", str(data),
                     "--out", str(tmp_path / "p.csv")]) == 1

    def test_nan_and_inf_query_cells_are_predicted(self, tmp_path):
        # NaN compares false against every threshold and goes right, as in the library
        _, model = self._model(tmp_path)
        query = tmp_path / "q.csv"
        query.write_text("x1,x2\nnan,0.5\n0.25,inf\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--data", str(query), "--out", str(out)]) == 0
        got = [float(l.split(",")[0]) for l in out.read_text().splitlines()
               if l and not l.startswith("#") and not l.startswith("y_hat")]
        fm, _ = load_model(model)
        want = forest.predict_batch(fm, [[np.nan, 0.5], [0.25, np.inf]])
        assert np.all(np.isfinite(want)) and np.array_equal(np.array(got), want)

    def test_repeated_query_column_refused(self, tmp_path, capsys):
        _, model = self._model(tmp_path)
        query = tmp_path / "q.csv"
        query.write_text("x1,x2,x1\n0.1,0.9,0.5\n0.9,0.1,0.5\n")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--data", str(query), "--out", str(out)]) == 1
        assert "header names column 'x1' twice" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_feature_column(self, tmp_path):
        data, model = self._model(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n0.5,0.5\n")
        assert main(["predict", "--model", str(model), "--data", str(bad),
                     "--out", str(tmp_path / "p.csv")]) == 1


class TestStages:
    """train, predict and simulate table1 write one stage line to stderr; stdout keeps its lines."""

    @staticmethod
    def _stages(err, command):
        lines = [line for line in err.splitlines() if line.startswith(f"{command} stages: ")]
        assert len(lines) == 1, err
        return lines[0].removeprefix(f"{command} stages: ").split("; ")

    @pytest.mark.parametrize("threads", [1, 2])
    def test_train_counts_match_the_model(self, tmp_path, capsys, threads):
        data, model = _gen(tmp_path, n=60), tmp_path / "m.bin"
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--threads", str(threads), "--b", "12", "--seed", "2",
                     "--out", str(model)]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("trained honest forest") and out.count("\n") == 1
        stages = self._stages(err, "train")
        assert [stage.split()[0] for stage in stages] == ["data", "train", "save"]
        assert all(re.match(r"\w+ \d+\.\d{3} s peak \d+ MiB \+\d+ minflt", stage) for stage in stages), stages
        fm, _ = load_model(model)
        leaves = np.add.reduceat(fm.feature < 0, fm.roots).max()
        assert stages[1].endswith(f" ({fm.b} trees, {fm.feature.size} nodes, max {leaves} leaves)")

    @pytest.mark.parametrize("k, traversal", [(3, "walk"), (40, "bitmask")])
    def test_predict_names_the_traversal(self, tmp_path, capsys, monkeypatch, k, traversal):
        data, model = _gen(tmp_path), tmp_path / "m.bin"
        query, out = _gen(tmp_path, "q.csv", n=k, seed=5), tmp_path / "p.csv"
        assert main(["train", "--data", str(data), "--threads", "1", "--b", "20", "--out", str(model)]) == 0
        capsys.readouterr()
        calls, max_leaves = [], forest.max_leaves
        monkeypatch.setattr(forest, "max_leaves", lambda fm: calls.append(fm.b) or max_leaves(fm))
        assert main(["predict", "--model", str(model), "--data", str(query), "--out", str(out)]) == 0
        # the traversal is picked once; only a predict sized for the bitmask counts the leaves
        assert calls == ([20] if traversal == "bitmask" else [])
        stdout, err = capsys.readouterr()
        assert stdout == f"wrote {k} prediction records to {out}\n"
        stages = self._stages(err, "predict")
        assert [stage.split()[0] for stage in stages] == ["load", "data", "traverse", "ij", "write"]
        fm, _ = load_model(model)
        assert (k * fm.b >= fm.feature.size) == (traversal == "bitmask")  # the bitmask's threshold
        assert stages[2].endswith(f" ({traversal} {fm.b}x{k})")

    def test_table1_stage_per_design(self, tmp_path, capsys, monkeypatch):
        from subforest import experiments

        designs = (("cosine", 2, 20), ("xor", 4, 30), ("and", 5, 25))
        monkeypatch.setattr(experiments, "TABLE1_ROWS", designs)
        assert main(["simulate", "table1", "--b", "10", "--r", "2", "--k", "2", "--threads", "1",
                     "--out", str(tmp_path / "t1.csv")]) == 0
        out, err = capsys.readouterr()
        assert out.count("\n") == len(designs) + 1
        stages = self._stages(err, "simulate table1")
        assert [stage.split()[0] for stage in stages] == ["row1", "row2", "row3"]
        for stage, (kind, d, n) in zip(stages, designs):
            assert re.match(r"\w+ \d+\.\d{3} s peak \d+ MiB \+\d+ minflt", stage), stage
            assert stage.endswith(f" ({kind} d={d} n={n})")

    def test_times_only_without_resource(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, "resource", None)  # import resource then raises ImportError
        data, model = _gen(tmp_path), tmp_path / "m.bin"
        assert main(["train", "--data", str(data), "--threads", "1", "--b", "6", "--out", str(model)]) == 0
        stages = self._stages(capsys.readouterr().err, "train")
        assert re.fullmatch(r"data \d+\.\d{3} s", stages[0]) and re.fullmatch(r"save \d+\.\d{3} s", stages[2])

    def test_csv_is_the_single_pass_library_answer(self, tmp_path):
        # predict times the traversal and the IJ step apart; its rows are predict_with_variance's
        data, model, out = _gen(tmp_path), tmp_path / "m.bin", tmp_path / "p.csv"
        assert main(["train", "--data", str(data), "--threads", "1", "--b", "30", "--out", str(model)]) == 0
        assert main(["predict", "--model", str(model), "--data", str(data), "--level", "0.9", "--out", str(out)]) == 0
        fm, _ = load_model(model)
        yhat, est = jackknife.predict_with_variance(fm, dataset.load_csv(data, target_column="y").x)
        ci = jackknife.interval(yhat, est, 0.9)
        table = np.column_stack([yhat, est.plugin, est.corrected, est.truncated, ci.lo, ci.hi]).tolist()
        want = tmp_path / "want.csv"
        dataset.write_csv(want, [], [
            ["y_hat", "vij_plugin", "vij_corrected", "vij_truncated", "interval_lo", "interval_hi", "degenerate"],
            *([*row, int(flag)] for row, flag in zip(table, ci.degenerate.tolist())),
        ])
        body = b"".join(line for line in out.read_bytes().splitlines(keepends=True) if not line.startswith(b"#"))
        assert body == want.read_bytes()


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
        for name in forest.PACKED_DTYPES:
            a, b = getattr(fm, name), getattr(loaded, name)
            assert (a is None and b is None) or (np.array_equal(a, b) and a.dtype == b.dtype), name
        for name in ("roots", "subsample_indices", "prediction_indices"):
            assert getattr(loaded, name) is None or getattr(loaded, name).dtype == np.int32, name
        xs = np.random.default_rng(3).random((40, 2))
        assert np.array_equal(forest.predict_per_tree(loaded, xs), forest.predict_per_tree(fm, xs))

    def test_truncated_file_refused(self, saved, tmp_path, capsys):
        _, path = saved
        path.write_bytes(path.read_bytes()[:-9])
        self._refused(path, tmp_path, capsys, "truncated")

    def test_trailing_bytes_refused(self, saved, tmp_path, capsys):
        _, path = saved
        path.write_bytes(path.read_bytes() + bytes(8))
        self._refused(path, tmp_path, capsys, "trailing bytes")

    def test_child_not_after_parent_refused(self, saved, tmp_path, capsys):
        # tree 0's root made a leaf and its last leaf a split: the node count
        # holds, but a split with no split before it has itself as its
        # derived left child (the [-1, 0, -1] shape), which would walk forever
        fm, path = saved

        def edit(feature):
            feature[0] = -1
            feature[fm.roots[1] - 1] = 0

        self._rewrite(path, "feature", edit)
        self._refused(path, tmp_path, capsys, "children must lie after it")

    def test_feature_out_of_range_refused(self, saved, tmp_path, capsys):
        _, path = saved

        def edit(feature):
            feature[0] = 2

        self._rewrite(path, "feature", edit)
        self._refused(path, tmp_path, capsys, "split features")

    def test_non_finite_threshold_refused(self, saved, tmp_path, capsys):
        # the walk would send every query right at a NaN threshold, the bitmask
        # left; the root's value is its threshold
        fm, path = saved
        assert fm.feature[0] >= 0

        def edit(value):
            value[0] = np.nan

        self._rewrite(path, "value", edit)
        self._refused(path, tmp_path, capsys, "split thresholds must be finite")

    def test_wrong_node_count_refused(self, saved, tmp_path, capsys):
        # one more split in tree 0 would derive children past its last node
        fm, path = saved

        def edit(feature):
            feature[fm.roots[1] - 1] = 0

        self._rewrite(path, "feature", edit)
        self._refused(path, tmp_path, capsys, r"2 \* splits \+ 1 nodes")

    @pytest.mark.parametrize("saved", ["honest"], indirect=True)
    def test_prediction_outside_subsample_refused(self, saved, tmp_path, capsys):
        # tree 0's last prediction index moved to a point outside its
        # subsample; the row stays sorted and distinct
        fm, path = saved
        sub, pred = fm.subsample_indices[0], fm.prediction_indices[0]
        outside = np.setdiff1d(np.arange(pred[-2] + 1, fm.n), sub)[0]

        def edit(prediction_indices):
            prediction_indices[0, -1] = outside

        self._rewrite(path, "prediction_indices", edit)
        self._refused(path, tmp_path, capsys, "prediction indices must lie inside their tree's subsample")

    def test_version_1_json_model_refused(self, tmp_path, capsys):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({"format_version": 1, "n": 40, "d": 2, "trees": []},
                                   sort_keys=True, separators=(",", ":")) + "\n")
        self._refused(path, tmp_path, capsys, "format version 1 does not match")

    @staticmethod
    def _set_version(path, version):
        header, body = path.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["format_version"] = version
        path.write_bytes(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n" + body)

    @pytest.mark.parametrize("edit", [
        lambda c: c.update(depth=3),
        lambda c: c["tree"].update(depth=3),
        lambda c: c.pop("seed"),
    ], ids=["unknown-forest-key", "unknown-tree-key", "missing-key"])
    def test_config_record_keys_must_match(self, saved, tmp_path, capsys, edit):
        _, path = saved
        header, body = path.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        edit(doc["config"])
        path.write_bytes(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n" + body)
        self._refused(path, tmp_path, capsys, "malformed model header")

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h["config"].update(s=None), "config s=None, b=30 does not match the forest's s=.*, b=30"),
        (lambda h: h["config"].update(b=31), "config s=.*, b=31 does not match the forest's s=.*, b=30"),
        (lambda h: h.update(mode="other"), "config does not match the header's mode"),
    ], ids=["s", "b", "mode"])
    def test_config_must_match_the_header(self, saved, tmp_path, capsys, edit, message):
        _, path = saved
        header, body = path.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        edit(doc)
        path.write_bytes(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n" + body)
        self._refused(path, tmp_path, capsys, message)

    def test_version_2_model_refused(self, saved, tmp_path, capsys):
        # older grower: the header's version alone refuses it
        _, path = saved
        self._set_version(path, 2)
        self._refused(path, tmp_path, capsys, "format version 2 does not match supported version 5")

    def test_version_3_model_refused(self, saved, tmp_path, capsys):
        # version 3 stored a child table and a 0/1 provenance flag
        _, path = saved
        self._set_version(path, 3)
        self._refused(path, tmp_path, capsys, "format version 3 does not match supported version 5")

    def test_version_4_model_refused(self, saved, tmp_path, capsys):
        # version 4 stored separate threshold and value arrays and each leaf's training index
        _, path = saved
        self._set_version(path, 4)
        self._refused(path, tmp_path, capsys, "format version 4 does not match supported version 5")

    def test_split_kind_out_of_range_refused(self, saved, tmp_path, capsys):
        _, path = saved

        def edit(split_kind):
            split_kind[0] = len(tree.SPLIT_KINDS)

        self._rewrite(path, "split_kind", edit)
        self._refused(path, tmp_path, capsys, "split kinds")

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

    @pytest.mark.parametrize("alpha, bad", [("2", "2.0"), ("0", "0.0"), ("nan", "nan")])
    def test_normality_alpha_checked_before_training(self, tmp_path, monkeypatch, capsys, alpha, bad):
        from subforest import experiments

        def trained(*_):
            raise AssertionError("a replicate trained before alpha was checked")

        monkeypatch.setattr(experiments, "simulate_predictions", trained)
        assert main(["simulate", "normality", "--n", "60", "--k", "2", "--r", "50", "--b", "10",
                     "--alpha", alpha, "--threads", "1", "--out", str(tmp_path / "n.json")]) == 1
        assert f"error: alpha must be in (0, 1), got {bad}" in capsys.readouterr().err
        assert not (tmp_path / "n.json").exists()

    def test_coverage_requires_50_replicates(self, tmp_path, capsys):
        assert main(["simulate", "coverage", "--n", "60", "--k", "2", "--r", "10",
                     "--b", "20", "--threads", "1", "--out", str(tmp_path / "c.json")]) == 1
        assert "coverage checks need at least 50 replicates" in capsys.readouterr().err

    @pytest.mark.parametrize("levels, bad", [("1.5", "1.5"), ("0.9,0", "0.0"), ("0.95,nan", "nan")])
    def test_coverage_levels_checked_before_training(self, tmp_path, monkeypatch, capsys, levels, bad):
        from subforest import experiments

        def trained(*_):
            raise AssertionError("a replicate trained before the levels were checked")

        monkeypatch.setattr(experiments, "simulate_predictions", trained)
        assert main(["simulate", "coverage", "--n", "60", "--k", "2", "--r", "50", "--b", "20",
                     "--levels", levels, "--threads", "1", "--out", str(tmp_path / "c.json")]) == 1
        assert f"error: coverage level must be in (0, 1), got {bad}" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("levels", ["", "0.9,abc"])
    def test_coverage_levels_must_be_numbers(self, tmp_path, capsys, levels):
        assert main(["simulate", "coverage", "--n", "60", "--k", "2", "--r", "50", "--b", "20",
                     "--levels", levels, "--threads", "1", "--out", str(tmp_path / "c.json")]) == 1
        assert f"error: levels must be comma-separated numbers, got {levels!r}\n" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

    def test_table1_rows_equal_run_metrics(self, tmp_path):
        from subforest.dataset import SyntheticSpec
        from subforest.experiments import TABLE1_ROWS, ExperimentSpec, SyntheticSource, run_metrics
        from subforest.tree import TreeConfig

        out = tmp_path / "t1.csv"
        assert main(["simulate", "table1", "--b", "10", "--r", "2", "--k", "3", "--seed", "5",
                     "--threads", "1", "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == ["Distr", "d", "n", "rel_bias2", "rel_var", "rel_mse",
                           "abs_bias2", "abs_var", "abs_mse"]
        assert [(r[0], int(r[1]), int(r[2])) for r in rows[1:]] == list(TABLE1_ROWS)
        for row, (kind, d, n) in zip(rows[1:], TABLE1_ROWS):
            rep = run_metrics(ExperimentSpec(
                source=SyntheticSource(SyntheticSpec(kind, d)), n=n, k_test=3, r_replicates=2,
                forest=ForestConfig(b=10, tree=TreeConfig(mode="cart")), seed=5,
            ))
            want = [rep.rel_bias2, rep.rel_variance, rep.rel_mse, rep.abs_bias2, rep.abs_variance, rep.abs_mse]
            assert [float(v) for v in row[3:]] == want, (kind, d, n)

    def test_table1_preamble_stamps_machine_and_rows(self, tmp_path, monkeypatch):
        # an unset b is B = 5n for each row
        from subforest import experiments

        monkeypatch.setattr(experiments, "TABLE1_ROWS", (("cosine", 2, 20), ("xor", 4, 30)))
        out = tmp_path / "t1.csv"
        assert main(["simulate", "table1", "--r", "2", "--k", "2", "--threads", "1", "--out", str(out)]) == 0
        preamble = dict(l[2:].split("=", 1) for l in out.read_text().splitlines() if l.startswith("#"))
        assert preamble["command"] == "simulate-table1"
        assert (preamble["seed"], preamble["mode"], preamble["threads"]) == ("1234", "cart", "1")
        assert (preamble["s_exponent"], preamble["gamma"], preamble["delta"]) == ("0.7", "0.1", "0.5")
        assert (preamble["max_leaf_size"], preamble["noise_sd"]) == ("5", "1.0")
        assert (preamble["numpy"], preamble["cores"]) == (np.__version__, str(forest.usable_cores()))
        assert preamble["python"] == ".".join(map(str, sys.version_info[:3]))
        assert preamble["row1"] == "cosine d=2 n=20 s=8 b=100"
        assert preamble["row2"] == "xor d=4 n=30 s=10 b=150"
        assert "out" not in preamble and "b" not in preamble and "row3" not in preamble

    def test_table1_csv_does_not_read_the_clock(self, tmp_path, monkeypatch):
        # the CSV is a function of the config and the machine: a clock jumping 100 s per call changes no byte
        import itertools
        import time

        from subforest import experiments

        monkeypatch.setattr(experiments, "TABLE1_ROWS", (("cosine", 2, 20), ("xor", 4, 30)))
        argv = ["simulate", "table1", "--b", "10", "--r", "2", "--k", "2", "--threads", "1", "--out"]
        assert main([*argv, str(tmp_path / "a.csv")]) == 0
        monkeypatch.setattr(time, "perf_counter", itertools.count(0.0, 100.0).__next__)
        assert main([*argv, str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_table1_bad_out_fails_before_the_second_row(self, tmp_path, monkeypatch, capsys):
        from subforest import experiments

        ran = []
        run_metrics = experiments.run_metrics
        monkeypatch.setattr(experiments, "TABLE1_ROWS", (("cosine", 2, 20), ("xor", 4, 30)))
        monkeypatch.setattr(experiments, "run_metrics", lambda spec: ran.append(spec.n) or run_metrics(spec))
        out = tmp_path / "missing" / "t1.csv"
        assert main(["simulate", "table1", "--r", "2", "--k", "2", "--threads", "1", "--out", str(out)]) == 1
        assert ran == [20]
        assert "error: " in capsys.readouterr().err

    def test_table1_keeps_finished_rows_when_a_later_row_fails(self, tmp_path, monkeypatch):
        from subforest import experiments

        run_metrics = experiments.run_metrics

        def fail_second(spec):
            if spec.n == 30:
                raise ValueError("stop")
            return run_metrics(spec)

        monkeypatch.setattr(experiments, "TABLE1_ROWS", (("cosine", 2, 20), ("xor", 4, 30)))
        monkeypatch.setattr(experiments, "run_metrics", fail_second)
        out = tmp_path / "t1.csv"
        assert main(["simulate", "table1", "--r", "2", "--k", "2", "--threads", "1", "--out", str(out)]) == 1
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        assert [r[:3] for r in rows[1:]] == [["cosine", "2", "20"]]

    def test_unknown_kind_names_the_kinds(self, tmp_path, capsys):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"kind": "bogus"}))
        assert main(["simulate", "metrics", "--config", str(cfg), "--out", str(tmp_path / "m.csv")]) == 1
        assert "error: unknown synthetic kind 'bogus'; expected one of ['and', 'cosine', 'xor']" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["metrics", "normality", "coverage", "table1", "bootstrap"])
    def test_single_tree_replicates_refused_before_training(self, tmp_path, monkeypatch, capsys, command):
        from subforest import cli, experiments

        data = _gen(tmp_path, n=60)

        def trained(*_, **__):
            raise AssertionError("trained before b was checked")

        for module in (cli, experiments, forest):
            monkeypatch.setattr(module, "train", trained)
        out = tmp_path / "out"
        extra = ["--data", str(data)] if command == "bootstrap" else []
        assert main(["simulate", command, *extra, "--r", "50", "--b", "1", "--threads", "1", "--out", str(out)]) == 1
        assert "error: variance estimates need forest.b >= 2 trees, got 1\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("r", ["0", "-1"])
    def test_bias_grid_needs_a_replicate(self, tmp_path, capsys, r):
        out = tmp_path / "grid.csv"
        assert main(["simulate", "bias-grid", "--n", "300", "--s", "15", "--r", r, "--b", "10",
                     "--threads", "1", "--out", str(out)]) == 1
        assert f"error: r_replicates must be >= 1, got {r}\n" in capsys.readouterr().err
        assert not out.exists()

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

    def test_max_learner_pinned(self, tmp_path):
        # the values the per-subsample, memoised ANOVA loop gave, bit for bit
        out = tmp_path / "oracle.json"
        assert main(["oracle-check", "--learner", "max", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["learner"] == "max"
        assert {k: v for k, v in doc.items() if isinstance(v, float)} == {
            "anova_lhs": 0.028446502057613163,
            "anova_rhs": 0.21905006858710563,
            "base_variance": 1.9714506172839508,
            "exact_vij": 0.35259259259259274,
            "hajek_variance": 1.544753086419753,
            "incrementality_ratio": 0.7835616438356163,
            "mc_relative_error": 0.007651786591048355,
            "mc_vij_corrected": 0.34989462932048976,
            "mc_vij_plugin": 0.34991532386862845,
        }

    def test_subsets_enumerated_once(self, tmp_path, monkeypatch):
        from subforest import oracle

        calls = []
        enumerate_subsamples = oracle.enumerate_subsamples
        monkeypatch.setattr(oracle, "enumerate_subsamples", lambda *a: calls.append(a) or enumerate_subsamples(*a))
        assert main(["oracle-check", "--mc-b", "100", "--out", str(tmp_path / "o.json")]) == 0
        assert len(calls) == 1

    def test_probs_key_refused(self, tmp_path, capsys):
        cfg = tmp_path / "oracle.json"
        cfg.write_text(json.dumps({"probs": [0.9, 0.1]}))
        assert main(["oracle-check", "--config", str(cfg), "--out", str(tmp_path / "o.json")]) == 1
        assert "unknown config keys: ['probs']" in capsys.readouterr().err

    def test_unknown_learner_names_the_learners(self, tmp_path, capsys):
        cfg = tmp_path / "oracle.json"
        cfg.write_text(json.dumps({"learner": "median"}))
        assert main(["oracle-check", "--config", str(cfg), "--out", str(tmp_path / "o.json")]) == 1
        assert "error: learner must be one of ['max', 'mean', 'sum'], got 'median'" in capsys.readouterr().err

    def test_mc_b_checked_before_the_enumeration(self, tmp_path, capsys, monkeypatch):
        from subforest import oracle

        calls = []
        monkeypatch.setattr(oracle, "enumerate_subsamples", lambda *a: calls.append(a))
        for mc_b in (0, 1):
            assert main(["oracle-check", "--mc-b", str(mc_b), "--out", str(tmp_path / "o.json")]) == 1
            assert f"error: mc_b must be >= 2, got {mc_b}\n" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "o.json").exists()

    def test_cap_exceeded_names_cap(self, tmp_path, capsys):
        code = main(["oracle-check", "--n", "40", "--s", "15", "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert "cap" in capsys.readouterr().err


# run in a fresh interpreter: prints the modules of WATCHED loaded after
# importing the CLI, then after each command line given as an argument
_IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
WATCHED = ("concurrent.futures", "multiprocessing", "hashlib", "statistics", "resource", "subforest.experiments",
           "subforest.oracle")
loaded = lambda: [m for m in WATCHED if m in sys.modules]
from subforest.cli import main
steps = [("import", loaded())]
for argv in sys.argv[2:]:
    argv = json.loads(argv)
    assert main(argv) == 0, argv
    steps.append((argv[0], loaded()))
print(json.dumps(steps))
"""


class TestImports:
    """The CLI loads the simulation harness, the oracle, the process pool,
    the normal quantile's ``statistics`` and the stage line's ``resource``
    only when a command needs them."""

    def _probe(self, *argvs):
        src = str(pathlib.Path(subforest.__file__).resolve().parent.parent)
        cmd = [sys.executable, "-c", _IMPORT_PROBE, src, *(json.dumps(a) for a in argvs)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return dict(json.loads(done.stdout.splitlines()[-1]))

    def test_import_loads_no_pool_hash_simulation_or_oracle(self):
        assert self._probe() == {"import": []}

    def test_train_one_thread_and_predict_load_no_pool(self, tmp_path):
        data, model, out = _gen(tmp_path), tmp_path / "m.bin", tmp_path / "p.csv"
        steps = self._probe(
            ["train", "--data", str(data), "--threads", "1", "--b", "8", "--out", str(model)],
            ["predict", "--model", str(model), "--data", str(data), "--out", str(out)],
        )
        for command in ("train", "predict"):
            assert not {"concurrent.futures", "multiprocessing"} & set(steps[command]), command


class TestParser:
    def test_help_lists_every_command(self, capsys):
        assert main(["--help"]) == 0
        assert "{gen,train,predict,simulate,oracle-check}" in capsys.readouterr().out
        assert main(["simulate", "--help"]) == 0
        assert "{metrics,normality,coverage,bias-grid,bootstrap,table1}" in capsys.readouterr().out

    def test_help_description_is_plain_text(self, capsys):
        # users read the description, not the module docstring's markup and private names
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "Exit codes: 0 success, 1 usage or configuration error, 2 oracle" in " ".join(out.split())
        assert "``" not in out and "_Stages" not in out

    def test_unknown_command_exits_one(self, capsys):
        assert main(["simulate", "tabel1", "--out", "x.csv"]) == 1
        assert "invalid choice: 'tabel1'" in capsys.readouterr().err


class TestReadmeRecipes:
    """Every ``subforest`` line of README's sh blocks parses with the CLI parser."""

    def _recipes(self):
        import re
        import shlex

        readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
        lines = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]
        return [argv[1:] for argv in lines if argv and argv[0] == "subforest"]

    def test_recipes_parse(self):
        from subforest.cli import build_parser

        recipes = self._recipes()
        assert ["simulate", "table1"] in [argv[:2] for argv in recipes]
        assert sum(argv[:2] == ["simulate", "bias-grid"] for argv in recipes) >= 2
        for argv in recipes:
            args = build_parser().parse_args(argv)
            assert callable(args.func), argv


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert "subforest" in capsys.readouterr().out


class TestThreadsEnv:
    def test_env_var_sets_default_thread_count(self, tmp_path, monkeypatch):
        from subforest import cli

        monkeypatch.setenv(cli.THREADS_ENV, "3")
        assert cli._threads(None) == 3
        monkeypatch.delenv(cli.THREADS_ENV)
        assert cli._threads(None) >= 1

    def test_default_is_the_usable_cores(self, monkeypatch):
        from subforest import cli

        monkeypatch.delenv(cli.THREADS_ENV, raising=False)
        monkeypatch.setattr(cli, "usable_cores", lambda: 3)
        assert cli._threads(None) == 3

    def test_bad_env_value_names_the_variable(self, tmp_path, monkeypatch, capsys):
        from subforest import cli

        data = _gen(tmp_path)
        monkeypatch.setenv(cli.THREADS_ENV, "abc")
        assert main(["train", "--data", str(data), "--b", "6", "--out", str(tmp_path / "m.bin")]) == 1
        assert "error: SUBFOREST_THREADS must be an integer, got 'abc'" in capsys.readouterr().err

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


class TestBadWorkerCounts:
    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_train_refuses_threads_below_one(self, tmp_path, capsys, threads):
        data = _gen(tmp_path)
        model = tmp_path / "m.bin"
        assert main(["train", "--data", str(data), "--b", "6", "--threads", threads, "--out", str(model)]) == 1
        assert f"error: threads must be >= 1, got {threads}\n" in capsys.readouterr().err
        assert not model.exists()

    def test_config_file_threads_refused(self, tmp_path, capsys):
        data = _gen(tmp_path)
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"data": str(data), "b": 6, "threads": 0}))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.bin")]) == 1
        assert "error: threads must be >= 1, got 0\n" in capsys.readouterr().err

    def test_env_zero_names_the_variable(self, tmp_path, monkeypatch, capsys):
        from subforest import cli

        data = _gen(tmp_path)
        monkeypatch.setenv(cli.THREADS_ENV, "0")
        assert main(["train", "--data", str(data), "--b", "6", "--out", str(tmp_path / "m.bin")]) == 1
        assert "error: threads must be >= 1, got 0 (from SUBFOREST_THREADS)\n" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize("command", ["metrics", "normality", "coverage", "bias-grid", "bootstrap"])
    def test_simulate_refuses_threads_below_one(self, tmp_path, monkeypatch, capsys, command, source):
        from subforest import cli

        argv = ["simulate", command, "--n", "50", "--b", "5", "--out", str(tmp_path / "out")]
        if command == "bootstrap":
            argv += ["--data", str(_gen(tmp_path))]
        if source == "flag":
            argv += ["--threads", "0"]
            want = "error: threads must be >= 1, got 0\n"
        else:
            monkeypatch.setenv(cli.THREADS_ENV, "0")
            want = "error: threads must be >= 1, got 0 (from SUBFOREST_THREADS)\n"
        with time_limit(60):
            assert main(argv) == 1
        assert want in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestConfigValueTypes:
    @pytest.mark.parametrize("doc, message", [
        ({"b": "8"}, "config key 'b' must be an integer, got '8'"),
        ({"seed": 1.5}, "config key 'seed' must be an integer, got 1.5"),
        ({"b": True}, "config key 'b' must be an integer, got True"),
        ({"seed": None}, "config key 'seed' must be an integer, got None"),
        ({"gamma": "0.1"}, "config key 'gamma' must be a number, got '0.1'"),
        ({"out": 1}, "config key 'out' must be a string, got 1"),
        ({"target": 2}, "config key 'target' must be a string, got 2"),
    ])
    def test_mistyped_value_exits_one(self, tmp_path, capfd, doc, message):
        data = _gen(tmp_path)
        capfd.readouterr()
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"data": str(data), **doc}))
        assert main(["train", "--config", str(cfg), "--threads", "1"]) == 1
        out, err = capfd.readouterr()
        assert f"error: {message}\n" in err
        assert "Traceback" not in err
        assert out == ""  # nothing reaches file descriptor 1

    @pytest.mark.parametrize("doc", [5, ["out"]], ids=["number", "array"])
    def test_config_file_must_hold_an_object(self, tmp_path, capfd, doc):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "g.csv")]) == 1
        err = capfd.readouterr().err
        assert f"error: config file must hold a JSON object, got {doc!r}\n" in err
        assert "Traceback" not in err
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("labels", [5, ["a", 2, 3, 4, 5, 6], [True, 2, 3, 4, 5, 6]],
                             ids=["number", "string-item", "bool-item"])
    def test_labels_must_be_a_list_of_numbers(self, tmp_path, capfd, labels):
        cfg = tmp_path / "oracle.json"
        cfg.write_text(json.dumps({"labels": labels}))
        assert main(["oracle-check", "--config", str(cfg), "--out", str(tmp_path / "o.json")]) == 1
        err = capfd.readouterr().err
        assert f"error: config key 'labels' must be a list of numbers, got {labels!r}\n" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o.json").exists()

    def test_labels_of_ints_and_floats_accepted(self, tmp_path):
        cfg = tmp_path / "oracle.json"
        cfg.write_text(json.dumps({"labels": [1, 2.5, 3, 4, 5, 6], "mc_b": 1000}))
        out = tmp_path / "o.json"
        assert main(["oracle-check", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["labels"] == [1, 2.5, 3, 4, 5, 6]

    def test_levels_may_be_a_number(self, tmp_path):
        cfg = tmp_path / "coverage.json"
        cfg.write_text(json.dumps({"levels": 0.9, "n": 30, "k": 2, "r": 50, "b": 10, "threads": 1}))
        out = tmp_path / "cov.json"
        assert main(["simulate", "coverage", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["levels"] == [0.9]

    def test_numbers_and_nulls_for_unset_flags_accepted(self, tmp_path):
        # a JSON integer is a number for a float flag, and null leaves s to its rule
        data = _gen(tmp_path)
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"data": str(data), "b": 4, "s": None, "s_exponent": 1, "gamma": 0.2}))
        model = tmp_path / "m.bin"
        assert main(["train", "--config", str(cfg), "--threads", "1", "--out", str(model)]) == 0
        fm, _ = load_model(model)
        assert (fm.b, fm.s, fm.config.tree.gamma) == (4, 40, 0.2)


    def test_key_type_is_its_default_type(self, tmp_path):
        # a float default gives a float flag and a float config check, with no
        # second statement of the key's type
        from subforest import cli

        parser = cli._Parser(prog="t")
        cli._command(parser.add_subparsers(dest="command"), "demo", {"zeta": 0.5, "out": None}, (), None)
        assert cli._merge_config(parser.parse_args(["demo", "--zeta", "0.3"]))["zeta"] == 0.3
        cfg = tmp_path / "demo.json"
        cfg.write_text(json.dumps({"zeta": 0.3}))
        assert cli._merge_config(parser.parse_args(["demo", "--config", str(cfg)]))["zeta"] == 0.3
        cfg.write_text(json.dumps({"zeta": "0.3"}))
        with pytest.raises(ValueError, match="config key 'zeta' must be a number, got '0.3'"):
            cli._merge_config(parser.parse_args(["demo", "--config", str(cfg)]))


def _exit_worker(args):
    os._exit(3)


class TestRequiredKeys:
    @pytest.mark.parametrize("command, given, missing", [
        ("gen", [], ["--out"]),
        ("train", [], ["--data", "--out"]),
        ("predict", [], ["--model", "--data", "--out"]),
        ("simulate metrics", [], ["--out"]),
        ("simulate normality", [], ["--out"]),
        ("simulate coverage", [], ["--out"]),
        ("simulate bias-grid", [], ["--out"]),
        ("simulate table1", [], ["--out"]),
        ("simulate bootstrap", ["--out", "boot.csv"], ["--data"]),
    ], ids=["gen", "train", "predict", "metrics", "normality", "coverage", "bias-grid", "table1", "bootstrap"])
    def test_missing_required_key_names_every_flag(self, tmp_path, monkeypatch, capsys, command, given, missing):
        from subforest import cli, experiments

        def trained(*_, **__):
            raise AssertionError("trained before the required keys were checked")

        for module, name in [(cli, "train"), (experiments, "train"), (experiments, "simulate_predictions")]:
            monkeypatch.setattr(module, name, trained)
        monkeypatch.chdir(tmp_path)
        assert main(command.split() + given) == 1
        assert f"error: {command}: required but not set: {', '.join(missing)}\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestForestDefaults:
    """The command tables' forest and tree keys are ForestConfig's and TreeConfig's defaults."""

    def test_tables_resolve_to_the_library_defaults(self):
        from subforest import cli

        assert cli._forest_config(cli._TRAIN_DEFAULTS) == ForestConfig()
        sim = ForestConfig(b=1000, tree=tree.TreeConfig(mode="cart"))
        assert cli._forest_config(cli._SIM_COMMON) == sim
        assert cli._forest_config(cli._SIM_BOOTSTRAP) == sim
        assert cli._forest_config(cli._SIM_NORMALITY) == ForestConfig(b=1000)
        assert cli._forest_config(cli._SIM_COVERAGE) == ForestConfig(b=1000)
        assert cli._GEN_DEFAULTS["noise_sd"] == cli._SIM_COMMON["noise_sd"] == dataset.SyntheticSpec("cosine", 2).noise_sd


class TestInProcessReuse:
    def test_repeated_runs_write_identical_bytes_and_leave_the_tables(self, tmp_path, monkeypatch):
        import copy

        from subforest import cli

        def tables():
            return {name: v for name, v in vars(cli).items() if name.isupper() and isinstance(v, dict)}

        before = copy.deepcopy(tables())
        assert {"_SIM_COMMON", "_SIM_BOOTSTRAP", "_TRAIN_DEFAULTS"} <= set(before)
        monkeypatch.setenv(cli.THREADS_ENV, "1")
        data = _gen(tmp_path, n=60)
        # d, s, b, n and threads are left unset, so each run resolves them
        runs = [
            ["simulate", "metrics", "--n", "60", "--k", "2", "--r", "3", "--b", "10"],
            ["simulate", "bootstrap", "--data", str(data), "--k", "2", "--r", "3"],
            ["train", "--data", str(data), "--b", "6"],
        ]
        for argv in runs:
            out = tmp_path / "out"
            assert main(argv + ["--out", str(out)]) == 0
            first = out.read_bytes()
            out.unlink()
            assert main(argv + ["--out", str(out)]) == 0
            assert out.read_bytes() == first, argv
        assert tables() == before
