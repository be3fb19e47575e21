"""Acceptance suite: every shipped correctness criterion at its stated tolerance.

Each test prints one `[criterion N] PASS` line (run with `pytest -s` to see
them).  Criteria 6 and 7a require the real Movies and TV review file; they
skip with instructions when it is absent and run the full protocol when the
file is supplied (env var BICONVMF_MOVIES_TV or data/Movies_and_TV_5.json).
Criterion 7b exercises the same ordering machinery on a synthetic corpus
that ships with the package, so it always runs.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from biconvmf import corpus, evaluate, factorize, synthetic, textcnn
from biconvmf.cli import EXIT_OK, main
from biconvmf.factorize import (
    Hyperparams,
    SparseRatings,
    total_loss,
    update_item_factors,
    update_user_factors,
)
from conftest import make_bundle
import gradcheck


def _dataset_path():
    candidates = [Path(p) for p in filter(None, [os.environ.get("BICONVMF_MOVIES_TV")])]
    candidates += [Path("data/Movies_and_TV_5.json"), Path("data/Movies_and_TV.json")]
    for path in candidates:
        if path.exists():
            return path
    return None


DATASET = _dataset_path()
NEEDS_DATASET = pytest.mark.skipif(
    DATASET is None,
    reason="Movies and TV review file not present; set BICONVMF_MOVIES_TV or "
           "place it at data/Movies_and_TV_5.json to run this criterion",
)


# -----------------------------------------------------------------------
# 1. Gradient oracle: analytic vs central finite differences, < 1e-4,
#    over at least 20 random small configurations, in under a minute.
# -----------------------------------------------------------------------

def test_criterion_1_gradient_oracle():
    t0 = time.time()
    worst = 0.0
    for seed in range(22):
        case = gradcheck.random_case(seed)
        worst = max(worst, gradcheck.max_relative_error(*case))
    elapsed = time.time() - t0
    assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"
    assert elapsed < 60.0
    print(f"\n[criterion 1] PASS - 22 configs, worst rel err {worst:.2e}, {elapsed:.1f}s")


# -----------------------------------------------------------------------
# 2. Closed-form optimality: after each row update, the joint-loss gradient
#    w.r.t. the updated rows is <= 1e-8 in infinity norm.
# -----------------------------------------------------------------------

def _grad_inf_norm_users(ratings, u, v, targets, lam):
    worst = 0.0
    for i in range(ratings.n_users):
        mine = ratings.users == i
        idx, vals = ratings.items[mine], ratings.ratings[mine]
        g = lam * (u[:, i] - (targets[:, i] if targets is not None else 0.0))
        for j, r in zip(idx, vals):
            g = g + (u[:, i] @ v[:, j] - r) * v[:, j]
        worst = max(worst, float(np.abs(g).max()))
    return worst


def _grad_inf_norm_items(ratings, u, v, targets, lam):
    worst = 0.0
    for j in range(ratings.n_items):
        mine = ratings.items == j
        idx, vals = ratings.users[mine], ratings.ratings[mine]
        g = lam * (v[:, j] - (targets[:, j] if targets is not None else 0.0))
        for i, r in zip(idx, vals):
            g = g + (u[:, i] @ v[:, j] - r) * u[:, i]
        worst = max(worst, float(np.abs(g).max()))
    return worst


def test_criterion_2_closed_form_optimality():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n_users = int(rng.integers(2, 11))
        n_items = int(rng.integers(2, 11))
        k = int(rng.integers(1, 6))
        n = int(rng.integers(1, n_users * n_items + 1))
        ratings = SparseRatings(rng.integers(0, n_users, n), rng.integers(0, n_items, n),
                                rng.uniform(1, 5, n), n_users, n_items)
        v = rng.normal(0, 1, (k, n_items))
        tu = rng.normal(0, 1, (k, n_users))
        tv = rng.normal(0, 1, (k, n_items))
        lam_u = float(rng.uniform(0.2, 50))
        lam_v = float(rng.uniform(0.2, 50))
        u = update_user_factors(ratings, v, tu, lam_u)
        worst = max(worst, _grad_inf_norm_users(ratings, u, v, tu, lam_u))
        v2 = update_item_factors(ratings, u, tv, lam_v)
        worst = max(worst, _grad_inf_norm_items(ratings, u, v2, tv, lam_v))
    assert worst <= 1e-8, f"stationarity violated: grad inf-norm {worst:.3e}"
    print(f"\n[criterion 2] PASS - 10 random instances, worst grad inf-norm {worst:.2e}")


# -----------------------------------------------------------------------
# 3. PMF reduction: BiConvMF with its text priors forced to zero produces
#    factors bitwise equal to the PMF trainer under the same seed.
# -----------------------------------------------------------------------

def test_criterion_3_pmf_reduction(tiny_bundle):
    shared = dict(n_factors=8, lambda_user=1.0, lambda_item=100.0,
                  outer_iters=6, seed=123)
    pmf = factorize.train(tiny_bundle, Hyperparams(model_kind="PMF", **shared))
    reduced = factorize.train(tiny_bundle, Hyperparams(model_kind="BiConvMF", **shared),
                              force_zero_cnn=True)
    assert np.array_equal(pmf.user_factors, reduced.user_factors)
    assert np.array_equal(pmf.item_factors, reduced.item_factors)
    assert pmf.log.losses == reduced.log.losses
    print("\n[criterion 3] PASS - factors bitwise equal across trainers")


# -----------------------------------------------------------------------
# 4. Monotonicity: with the text priors held fixed, neither half-step ever
#    increases the joint loss over >= 50 outer iterations on a subset of
#    >= 1000 training ratings (slack 1e-12 for rounding).
# -----------------------------------------------------------------------

def test_criterion_4_half_step_monotonicity():
    bundle = make_bundle(n_users=650, n_items=70, corpus_seed=31, split_seed=3)
    ratings = SparseRatings(bundle.train_user_idx, bundle.train_item_idx,
                            bundle.train_ratings, bundle.n_users, bundle.n_items)
    assert len(ratings) >= 1000, f"need >=1000 training ratings, got {len(ratings)}"
    k = 8
    rng = np.random.default_rng(77)
    tu = rng.normal(0, 0.5, (k, bundle.n_users))
    tv = rng.normal(0, 0.5, (k, bundle.n_items))
    lam_u = lam_v = 100.0
    u, v = factorize.init_factors(bundle.n_users, bundle.n_items, k, seed=9)

    def loss(uu, vv):
        return total_loss(ratings, uu, vv, tu, tv, lam_u, lam_v)

    current = loss(u, v)
    worst_rise = -np.inf
    for _ in range(50):
        u = update_user_factors(ratings, v, tu, lam_u)
        after_u = loss(u, v)
        worst_rise = max(worst_rise, after_u - current)
        assert after_u <= current + 1e-12, f"U half-step increased loss by {after_u - current:.3e}"
        v = update_item_factors(ratings, u, tv, lam_v)
        after_v = loss(u, v)
        worst_rise = max(worst_rise, after_v - after_u)
        assert after_v <= after_u + 1e-12, f"V half-step increased loss by {after_v - after_u:.3e}"
        current = after_v
    print(f"\n[criterion 4] PASS - 50 iterations on {len(ratings)} ratings, "
          f"max half-step rise {worst_rise:.2e}")


# -----------------------------------------------------------------------
# 5. Brute-force equivalence: on a 2x2 problem with one latent factor and
#    fixed text priors, the alternating fixed point matches an independent
#    numeric minimization of the joint loss to 1e-4.
# -----------------------------------------------------------------------

def test_criterion_5_brute_force_equivalence():
    ratings = SparseRatings([0, 0, 1, 1], [0, 1, 0, 1],
                            [4.0, 2.0, 5.0, 3.0], 2, 2)
    tu = np.array([[0.5, -0.3]])
    tv = np.array([[1.0, 0.8]])
    lam_u = lam_v = 1.0

    u = np.full((1, 2), 0.6)
    v = np.full((1, 2), 0.6)
    for _ in range(2000):
        u = update_user_factors(ratings, v, tu, lam_u)
        v = update_item_factors(ratings, u, tv, lam_v)
    alternating = np.concatenate([u.ravel(), v.ravel()])

    def objective(x):
        return total_loss(ratings, x[:2].reshape(1, 2), x[2:].reshape(1, 2),
                          tu, tv, lam_u, lam_v)

    best = None
    for s in range(6):  # multi-start to avoid settling for a local basin
        x0 = np.random.default_rng(s).uniform(-2, 2, 4)
        res = minimize(objective, x0, method="Nelder-Mead",
                       options=dict(xatol=1e-10, fatol=1e-12, maxiter=20000, maxfev=40000))
        if best is None or res.fun < best.fun:
            best = res
    gap = float(np.abs(best.x - alternating).max())
    assert gap <= 1e-4, f"fixed point differs from numeric minimum by {gap:.3e}"
    assert objective(alternating) <= best.fun + 1e-8
    print(f"\n[criterion 5] PASS - parameter gap {gap:.2e} vs numeric minimizer")


# -----------------------------------------------------------------------
# 6. Dataset statistics: the first 20,000 Movies and TV records hold exactly
#    13,533 users, 311 items, 20,000 ratings; the computed density (0.48%)
#    is what we report.
# -----------------------------------------------------------------------

@NEEDS_DATASET
def test_criterion_6_dataset_stats():
    records, stats = corpus.take_first_n(corpus.parse_reviews(DATASET), 20_000)
    assert stats.n_ratings == 20_000
    assert stats.n_users == 13_533
    assert stats.n_items == 311
    expected_density = 20_000 / (13_533 * 311)
    assert stats.density == pytest.approx(expected_density, rel=1e-12)
    assert f"{stats.density_percent:.2f}" == "0.48"
    print(f"\n[criterion 6] PASS - 13,533 users / 311 items / 20,000 ratings, "
          f"computed density {stats.density_percent:.2f}%")


# -----------------------------------------------------------------------
# 7a. Ordering on the real data: with the shipped lambda defaults, 50
#     factors, windows 3/4/5 x 100 filters, five runs on one 80/20 split,
#     mean test RMSE orders BiConvMF < ConvMF < PMF, with reductions of at
#     least 25% vs PMF and 5% vs ConvMF.  Reference neighborhoods
#     (PMF ~1.81 +-0.25, ConvMF ~1.17 +-0.20, BiConvMF ~0.98 +-0.15) are
#     advisory and printed, not asserted.
# -----------------------------------------------------------------------

@NEEDS_DATASET
def test_criterion_7a_real_data_ordering():
    records, _ = corpus.take_first_n(corpus.parse_reviews(DATASET), 20_000)
    train_idx, test_idx = evaluate.split(len(records), evaluate.SplitSpec(0.2, seed=42))
    bundle = corpus.build_bundle(records, train_idx, test_idx,
                                 max_vocab=8000, max_len=128,
                                 test_fraction=0.2, split_seed=42)
    cnn_cfg = textcnn.CnnConfig(max_len=128, embedding_dim=32, output_dim=50,
                                window_sizes=(3, 4, 5), n_filters=100, dropout_rate=0.2)
    opt = textcnn.OptimizerConfig(epochs=2, batch_size=128)
    hypers = [Hyperparams.for_model(kind, n_factors=50, outer_iters=10)
              for kind in ("PMF", "ConvMF", "BiConvMF")]
    report = evaluate.run_experiment(bundle, hypers, cnn_config=cnn_cfg, optimizer=opt,
                                     n_runs=5, base_seed=42, verbose=True)
    means = {kind: report.mean_rmse(kind) for kind in ("PMF", "ConvMF", "BiConvMF")}
    bands = {"PMF": (1.81, 0.25), "ConvMF": (1.17, 0.20), "BiConvMF": (0.98, 0.15)}
    for kind, (center, tol) in bands.items():
        inside = abs(means[kind] - center) <= tol
        print(f"{kind}: mean RMSE {means[kind]:.5f} "
              f"(advisory band {center}+-{tol}: {'inside' if inside else 'OUTSIDE'})")
    assert means["BiConvMF"] < means["ConvMF"] < means["PMF"], f"ordering violated: {means}"
    red_pmf = 1.0 - means["BiConvMF"] / means["PMF"]
    red_conv = 1.0 - means["BiConvMF"] / means["ConvMF"]
    assert red_pmf >= 0.25, f"reduction vs PMF only {red_pmf:.1%}"
    assert red_conv >= 0.05, f"reduction vs ConvMF only {red_conv:.1%}"
    print(f"\n[criterion 7a] PASS - ordering holds; reductions {red_pmf:.1%} vs PMF, "
          f"{red_conv:.1%} vs ConvMF")


# -----------------------------------------------------------------------
# 7b. Ordering machinery on the bundled synthetic corpus (always runs):
#     text genuinely carries rating signal there, so the same protocol must
#     produce BiConvMF < ConvMF < PMF.
# -----------------------------------------------------------------------

def test_criterion_7b_synthetic_ordering():
    raw = synthetic.synthetic_review_corpus(n_users=1400, n_items=140, seed=20)
    records = list(corpus.parse_reviews(json.dumps(r) for r in raw))
    train_idx, test_idx = evaluate.split(len(records), evaluate.SplitSpec(0.2, seed=100))
    bundle = corpus.build_bundle(records, train_idx, test_idx,
                                 max_vocab=800, max_len=48,
                                 test_fraction=0.2, split_seed=100)
    cnn_cfg = textcnn.CnnConfig(max_len=48, embedding_dim=24, output_dim=12,
                                window_sizes=(2, 3), n_filters=20, dropout_rate=0.2)
    opt = textcnn.OptimizerConfig(epochs=3, batch_size=64)
    hypers = [Hyperparams.for_model(kind, n_factors=12, outer_iters=10)
              for kind in ("PMF", "ConvMF", "BiConvMF")]
    report = evaluate.run_experiment(bundle, hypers, cnn_config=cnn_cfg, optimizer=opt,
                                     n_runs=3, base_seed=7)
    means = {kind: report.mean_rmse(kind) for kind in ("PMF", "ConvMF", "BiConvMF")}
    assert all(np.isfinite(v) for v in means.values())
    assert means["BiConvMF"] < means["ConvMF"] < means["PMF"], f"ordering violated: {means}"
    red_pmf = 1.0 - means["BiConvMF"] / means["PMF"]
    red_conv = 1.0 - means["BiConvMF"] / means["ConvMF"]
    print(f"\n[criterion 7b] PASS - synthetic ordering "
          f"PMF {means['PMF']:.4f} > ConvMF {means['ConvMF']:.4f} > "
          f"BiConvMF {means['BiConvMF']:.4f} "
          f"(reductions {red_pmf:.1%} vs PMF, {red_conv:.1%} vs ConvMF)")


# -----------------------------------------------------------------------
# 8. Determinism: rerunning every command with the same config and seed
#    yields byte-identical bundles, checkpoints, loss logs, and plot data.
#    The comparison CSV carries a wall-clock column by design; it must be
#    identical once that one nondeterministic field is set aside.
# -----------------------------------------------------------------------

def test_criterion_8_end_to_end_determinism(tmp_path):
    data = tmp_path / "reviews.json"
    synthetic.write_jsonl(synthetic.synthetic_review_corpus(120, 30, seed=2), data)

    def config_for(out):
        path = tmp_path / f"{out.name}.ini"
        path.write_text(f"""
[data]
path = {data}
first_n = 400
[experiment]
base_seed = 5
test_fraction = 0.2
n_runs = 1
models = PMF, BiConvMF
[corpus]
max_vocab = 300
max_len = 24
[cnn]
embedding_dim = 8
window_sizes = 2,3
n_filters = 4
epochs_per_outer = 1
batch_size = 32
[factorization]
n_factors = 4
outer_iters = 3
[output]
dir = {out}
""", encoding="utf-8")
        return path

    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        cfg = config_for(out)
        assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
        assert main(["train", "--config", str(cfg), "--model", "PMF"]) == EXIT_OK
        assert main(["train", "--config", str(cfg), "--model", "BiConvMF"]) == EXIT_OK
        assert main(["compare", "--config", str(cfg)]) == EXIT_OK
        outs.append(out)
    a, b = outs

    identical = [
        "corpus/bundle.bcmf",
        "models/PMF.ckpt", "models/BiConvMF.ckpt",
        "models/PMF_loss.csv", "models/BiConvMF_loss.csv",
        "reports/comparison_plot.txt",
    ]
    for rel in identical:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), f"{rel} differs between reruns"

    strip_seconds = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
    csv_a = (a / "reports/comparison.csv").read_text()
    csv_b = (b / "reports/comparison.csv").read_text()
    assert strip_seconds(csv_a) == strip_seconds(csv_b)
    print("\n[criterion 8] PASS - reruns byte-identical "
          "(comparison CSV identical up to its wall-clock column)")
