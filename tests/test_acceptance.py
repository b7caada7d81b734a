"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Heavy simulations share module-scoped fixtures. Criterion runtimes assume a
small multi-core box; replicate-level parallelism uses up to 4 workers.
"""

import hashlib
import os
from itertools import product

import numpy as np
import pytest

from subforest import dataset, experiments, forest, jackknife, oracle, rng, sampling, tree
from subforest.cli import main as cli_main
from subforest.dataset import SyntheticSpec, TrainingSet
from subforest.experiments import ExperimentSpec, SyntheticSource
from subforest.forest import ForestConfig
from subforest.oracle import FiniteSupportDistribution, LabelSum, SubsampleMax, SubsampleMean
from subforest.tree import TreeConfig

from regularity import replayed_prediction, validate_regularity

_JOBS = max(1, min(4, os.cpu_count() or 1))


def _report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)


def _uniform_dist(labels):
    labels = np.asarray(labels, dtype=float)
    return FiniteSupportDistribution(
        labels.reshape(-1, 1), labels, np.full(labels.size, 1.0 / labels.size)
    )


# shared oracle battery for criteria 2 and 3
_SUPPORTS = ([0.0, 1.0], [0.0, 1.0, 2.0], [0.0, 0.5, 3.0])
_LEARNERS = {"mean": SubsampleMean(), "max": SubsampleMax()}


def test_criterion_1_oracle_equivalence(capsys):
    # n=8, s=3, subsample-mean learner on fixed labels: exact enumeration of
    # all 56 subsamples vs bias-corrected Monte Carlo at B = 1e5
    y = np.array([2.0, 4.0, 1.0, 6.0, 3.0, 5.0, 8.0, 7.0])
    ts = TrainingSet(np.linspace(0.05, 0.95, 8).reshape(-1, 1), y)
    learner = SubsampleMean()
    subsets, values = oracle.enumerate_subsamples(ts, learner, 3)
    exact = oracle.exact_vij(subsets, values, 8)
    assert len(values) == 56

    b = 10**5
    plugins = np.empty(200)
    for seed in range(200):
        ids = rng.stream(seed, rng.SUBSAMPLE).integers(0, 56, size=b)
        est = jackknife.v_ij(values[ids], subsets[ids], 8)
        plugins[seed] = est.plugin
        if seed == 0:
            rel_err = abs(est.corrected - exact) / exact
    gap = plugins - exact
    predicted = 3 * (8 - 3) / 8 * values.var() / b
    se = gap.std(ddof=1) / np.sqrt(200)
    z = abs(gap.mean() - predicted) / se
    ok = rel_err <= 0.02 and z <= 3.0
    _report(capsys, 1, "oracle equivalence", ok,
            f"exact={exact:.6f} mc rel err={rel_err:.4%} (<=2%), plugin excess z={z:.2f} (<=3)")
    assert rel_err <= 0.02
    assert z <= 3.0


def test_criterion_2_anova_exact_bound(capsys):
    checked = 0
    worst = 0.0
    for labels, (lname, learner), n, s in product(
        _SUPPORTS, _LEARNERS.items(), (4, 5, 6), (2, 3)
    ):
        rep = oracle.anova_bound_check(_uniform_dist(labels), learner, n, s)
        assert rep.anova_lhs <= rep.anova_rhs * (1.0 + 1e-10)
        if rep.anova_rhs > 0:
            worst = max(worst, rep.anova_lhs / rep.anova_rhs)
        checked += 1
    assert checked == 36
    _report(capsys, 2, "Lemma-3 exact bound", True,
            f"{checked} instances, worst lhs/rhs={worst:.4f}")


def test_criterion_3_hajek_properties(capsys):
    checked = 0
    for labels, learner, s in product(_SUPPORTS, list(_LEARNERS.values()) + [LabelSum()], (2, 3)):
        st = oracle.hajek_projection_stats(_uniform_dist(labels), learner, s)
        assert st.hajek_variance <= st.base_variance * (1.0 + 1e-10)
        checked += 1
    ratios = [
        oracle.hajek_projection_stats(_uniform_dist(labels), LabelSum(), s).ratio
        for labels in _SUPPORTS
        for s in (2, 3)
    ]
    for r in ratios:
        assert r == pytest.approx(1.0, rel=1e-10)
    _report(capsys, 3, "Hajek projection", True,
            f"{checked} instances with Var(proj)<=Var(T); linear ratios==1 to 1e-10")


def test_criterion_4_table1_desk_scale(capsys):
    src = SyntheticSource(SyntheticSpec("cosine", 2))
    rels = {}
    for n in (200, 1000):
        spec = ExperimentSpec(
            source=src, n=n, k_test=25, r_replicates=50,
            forest=ForestConfig(b=1000, tree=TreeConfig(mode="cart")),
            seed=1234, n_jobs=_JOBS,
        )
        assert spec.forest.resolve(n)[0] == sampling.default_subsample_size(n)
        rels[n] = experiments.run_metrics(spec).rel_mse
    in_window = 0.05 <= rels[200] <= 0.50
    decays = rels[1000] <= rels[200]
    _report(capsys, 4, "Table-1 desk scale", in_window and decays,
            f"rel MSE n=200: {rels[200]:.4f} (paper 0.21, window [0.05,0.50]); "
            f"n=1000: {rels[1000]:.4f} (decays: {decays})")
    assert in_window
    assert decays


@pytest.fixture(scope="module")
def normality_sim():
    # shared by criteria 5 and 6: cosine d=2, n=1000, honest, s=125, B=1000, R=200
    src = SyntheticSource(SyntheticSpec("cosine", 2))
    spec = ExperimentSpec(
        source=src, n=1000, k_test=50, r_replicates=200,
        forest=ForestConfig(b=1000, tree=TreeConfig(mode="honest")),
        seed=1234, n_jobs=_JOBS,
    )
    assert spec.forest.resolve(1000)[0] == 125
    return experiments.simulate_predictions(spec)


def test_criterion_5_asymptotic_normality(normality_sim, capsys):
    rep = experiments.normality_report(normality_sim.predictions, alpha=0.01)
    ok = rep.pass_fraction >= 0.90
    _report(capsys, 5, "asymptotic normality", ok,
            f"KS pass fraction {rep.pass_fraction:.3f} (>=0.90) over 50 points, "
            f"degenerate={int(rep.degenerate.sum())}")
    assert rep.pass_fraction >= 0.90


def test_criterion_6_interval_calibration(normality_sim, capsys):
    # Intervals use jackknife's ``truncated``, an estimate of Var(y_hat) for the
    # B-tree forest. The bias-corrected IJ sum_i Cov^2 alone (``corrected``)
    # undershoots that variance: on this simulation its mean is 0.739 of the
    # replicate variance of y_hat, near the finite-sample factor (1 - s/n)^2,
    # and it leaves out the Var*(T)/B noise of averaging B trees (7.8% here).
    # Built from max(corrected, 0) alone, coverage read 0.8193 and the 443
    # pairs with negative ``corrected`` got zero-width intervals. ``truncated``
    # scales the IJ part by (n-1)/n * (n/(n-s))^2 and adds v_hat/(B-1).
    rep = experiments.coverage_report(
        normality_sim.predictions,
        normality_sim.vij_truncated,
        normality_sim.degenerate,
        levels=(0.95,),
        true_means=normality_sim.true_means,
    )
    cov = rep.coverage_of_mean[0]
    ok = 0.85 <= cov <= 0.99
    _report(capsys, 6, "interval calibration", ok,
            f"coverage of E[y_hat] {cov:.4f} (window [0.85,0.99]); "
            f"coverage of mu(x) {rep.coverage_of_true[0]:.4f} (reported only); "
            f"degenerate pairs {rep.degenerate_pairs}/{rep.n_pairs}")
    assert 0.85 <= cov <= 0.99


def test_criterion_7_consistency_trend(capsys):
    src = SyntheticSource(SyntheticSpec("cosine", 2))
    test_x = src.sample_test_points(np.random.default_rng(77), 25)
    mses = []
    for n in (200, 800, 3200):
        errs = []
        for r in range(4):
            ts = src.sample_training(rng.stream(99, rng.DATASET, n + r), n)
            fm = forest.train(ts, ForestConfig(b=1000, seed=n * 10 + r), n_jobs=_JOBS)
            yhat = forest.predict_batch(fm, test_x)
            errs.append((yhat - dataset.true_mean_batch(src.spec, test_x)) ** 2)
        mses.append(float(np.mean(errs)))
    ok = mses[0] > mses[1] > mses[2]
    _report(capsys, 7, "consistency trend", ok,
            "mean sq err at n=200/800/3200: " + "/".join(f"{v:.4f}" for v in mses))
    assert mses[0] > mses[1] > mses[2]


def test_criterion_8_regularity_audit(capsys):
    ts = dataset.gen_synthetic(SyntheticSpec("cosine", 2), 1000, seed=7)
    cfg = TreeConfig()
    # tree b's subsample, partition and split draws come from stream (4242, TREE, b)
    fm = forest.train(ts, ForestConfig(b=500, seed=4242, tree=cfg))
    assert fm.s == sampling.default_subsample_size(1000)
    rep = validate_regularity(fm, ts, replayed_prediction(fm))
    all_pass = rep.passed
    axes = rep.split_axes
    rand_flags = rep.split_kinds != 0
    n_splits = axes.size
    assert n_splits >= 10**4
    floor = 0.8 * (cfg.delta / 2)
    # both readings of the frequency floor: uniform-branch splits per axis
    # over all splits, and overall per-axis split frequency
    freq_rand = [float(np.mean((axes == a) & rand_flags)) for a in (0, 1)]
    freq_all = [float(np.mean(axes == a)) for a in (0, 1)]
    freq_ok = all(f >= floor for f in freq_rand) and all(f >= floor for f in freq_all)
    # reported only: the uniform-branch reading without prediction-coordinate fallbacks
    branch = np.isin(rep.split_kinds, [tree.SPLIT_KINDS.index("uniform"), tree.SPLIT_KINDS.index("redrawn")])
    freq_branch = [float(np.mean((axes == a) & branch)) for a in (0, 1)]
    _report(capsys, 8, "regularity audit", all_pass and freq_ok,
            f"500 trees, {n_splits} splits, all gamma/leaf checks pass={all_pass}; "
            f"uniform-branch axis freq {freq_rand[0]:.3f}/{freq_rand[1]:.3f}, "
            f"overall {freq_all[0]:.3f}/{freq_all[1]:.3f} (floor {floor}); "
            f"without fallbacks {freq_branch[0]:.3f}/{freq_branch[1]:.3f}, "
            f"unsplittable multi-point leaves {rep.unsplittable_leaves}")
    assert all_pass
    assert freq_ok


def test_criterion_9_dishonesty_bias_grid(capsys):
    grids = {}
    for mode in ("cart", "honest"):
        grids[mode] = experiments.run_bias_grid(
            n=10_000, s=100, mode=mode, grid_resolution=5, r_replicates=20,
            b=150, seed=31, n_jobs=_JOBS,
        )
    cart = grids["cart"].cell_means
    corner, center = cart[0, 0], cart[2, 2]
    cart_ok = corner > center
    honest_dev = float(np.abs(grids["honest"].cell_means - 0.01).max())
    honest_ok = honest_dev <= 0.01
    _report(capsys, 9, "dishonesty bias grid", cart_ok and honest_ok,
            f"cart corner {corner:.5f} > center {center:.5f}: {cart_ok}; "
            f"honest max|cell-0.01|={honest_dev:.5f} (<=0.01)")
    assert cart_ok
    assert honest_ok


def test_criterion_10_thread_determinism(tmp_path, capsys):
    data = tmp_path / "d.csv"
    assert cli_main(["gen", "--kind", "cosine", "--n", "120", "--seed", "6",
                     "--out", str(data)]) == 0
    hashes = []
    for t in (1, 2, 8):
        model = tmp_path / f"m{t}.json"
        assert cli_main(["train", "--data", str(data), "--mode", "honest", "--b", "64",
                         "--seed", "11", "--threads", str(t), "--out", str(model)]) == 0
        hashes.append(hashlib.sha256(model.read_bytes()).hexdigest())
    ok = hashes[0] == hashes[1] == hashes[2]
    _report(capsys, 10, "thread determinism", ok,
            f"model sha256 identical across 1/2/8 workers: {ok} ({hashes[0][:12]}...)")
    assert ok
