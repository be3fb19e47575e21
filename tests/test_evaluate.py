import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biconvmf import evaluate, factorize, textcnn
from biconvmf.evaluate import SplitSpec, rmse, run_experiment, split
from biconvmf.linalg import SolveError


# ---------------------------------------------------------------- split

def test_split_sizes_follow_fraction():
    train, test = split(10, SplitSpec(0.2, seed=1))
    assert len(train) == 8 and len(test) == 2


def test_split_same_seed_identical():
    a = split(100, SplitSpec(0.3, seed=9))
    b = split(100, SplitSpec(0.3, seed=9))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_split_partition_on_twenty_thousand():
    train, test = split(20_000, SplitSpec(0.2, seed=4))
    assert len(train) + len(test) == 20_000
    merged = np.concatenate([train, test])
    assert len(np.unique(merged)) == 20_000
    assert abs(len(test) - 4000) <= 1


def test_split_rejects_empty_train():
    with pytest.raises(ValueError, match="training"):
        split(1, SplitSpec(0.9, seed=0))
    with pytest.raises(ValueError):
        split(0, SplitSpec(0.2, seed=0))


def test_split_rejects_empty_test():
    with pytest.raises(ValueError, match=r"no test data \(n=2, test_fraction=0.2\)"):
        split(2, SplitSpec(0.2))


def test_split_spec_validates_fraction():
    with pytest.raises(ValueError):
        SplitSpec(0.0)
    with pytest.raises(ValueError):
        SplitSpec(1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 500), st.floats(0.05, 0.95), st.integers(0, 1000))
def test_split_sizes_within_one_of_exact(n, fraction, seed):
    try:
        train, test = split(n, SplitSpec(fraction, seed))
    except ValueError:
        return  # split left train empty; allowed to refuse
    assert abs(len(test) - n * fraction) <= 1.0
    assert len(train) + len(test) == n


# ---------------------------------------------------------------- rmse

def test_rmse_zero_on_perfect_predictions():
    assert rmse([(4.0, 4.0), (2.0, 2.0)]) == 0.0


def test_rmse_symmetric_errors():
    assert rmse([(5.0, 3.0), (1.0, 3.0)]) == pytest.approx(2.0)


def test_rmse_hand_value():
    # sqrt((1 + 4 + 0) / 3) = sqrt(5/3)
    assert rmse([(1.0, 2.0), (3.0, 5.0), (4.0, 4.0)]) == pytest.approx(np.sqrt(5.0 / 3.0))


def test_rmse_rejects_empty():
    with pytest.raises(ValueError):
        rmse([])


def test_rmse_rejects_nonfinite():
    with pytest.raises(ValueError):
        rmse([(1.0, np.nan)])


pair_lists = st.lists(
    st.tuples(st.floats(-50, 50, allow_nan=False), st.floats(-50, 50, allow_nan=False)),
    min_size=1, max_size=30,
)


@given(pair_lists, st.randoms(use_true_random=False))
def test_rmse_is_permutation_invariant(pairs, rand):
    shuffled = list(pairs)
    rand.shuffle(shuffled)
    assert rmse(shuffled) == pytest.approx(rmse(pairs), rel=1e-12, abs=1e-12)


@given(pair_lists)
def test_rmse_dominates_absolute_mean_error(pairs):
    arr = np.asarray(pairs)
    mean_err = float((arr[:, 0] - arr[:, 1]).mean())
    assert rmse(pairs) >= abs(mean_err) - 1e-9


# ---------------------------------------------------------------- experiment

def test_single_run_report_mean_equals_run(tiny_bundle):
    hypers = [factorize.Hyperparams.for_model("PMF", n_factors=4, outer_iters=3)]
    report = run_experiment(tiny_bundle, hypers, n_runs=1, base_seed=5)
    assert len(report.results) == 1
    r = report.results[0]
    assert not r.failed
    assert report.mean_rmse("PMF") == pytest.approx(r.rmse)
    assert r.seed == 6  # base_seed + run index


def test_report_mean_is_arithmetic_average(tiny_bundle):
    hypers = [factorize.Hyperparams.for_model("PMF", n_factors=4, outer_iters=3)]
    report = run_experiment(tiny_bundle, hypers, n_runs=3, base_seed=5)
    vals = [r.rmse for r in report.results]
    assert report.mean_rmse("PMF") == pytest.approx(float(np.mean(vals)))


def test_pmf_runs_barely_vary_across_seeds(tiny_bundle):
    # closed-form updates: only the initialization differs between runs
    hypers = [factorize.Hyperparams.for_model("PMF", n_factors=4, outer_iters=15)]
    report = run_experiment(tiny_bundle, hypers, n_runs=3, base_seed=21)
    vals = [r.rmse for r in report.results]
    assert max(vals) - min(vals) < 0.01


def fail_kind(monkeypatch, kind, error):
    """Make factorize.train raise error for one model kind and run the others."""
    real_train = factorize.train

    def train(bundle, hyper, **kwargs):
        if hyper.model_kind == kind:
            raise error
        return real_train(bundle, hyper, **kwargs)

    monkeypatch.setattr(factorize, "train", train)


def test_failed_runs_are_marked_and_do_not_stop_others(tiny_bundle, monkeypatch):
    hypers = [
        factorize.Hyperparams.for_model("PMF", n_factors=4, outer_iters=2),
        factorize.Hyperparams.for_model("ConvMF", n_factors=4, outer_iters=2),
    ]
    fail_kind(monkeypatch, "ConvMF", SolveError("matrix is not positive definite"))
    report = run_experiment(tiny_bundle, hypers, n_runs=2, base_seed=1)
    pmf = report.runs_for("PMF")
    conv = report.runs_for("ConvMF")
    assert all(not r.failed for r in pmf)
    assert all(r.failed and np.isnan(r.rmse) for r in conv)
    assert not report.all_failed()
    assert "matrix is not positive definite" in conv[0].error
    # failed cells appear as nan in the artifacts instead of vanishing
    assert "nan" in report.to_csv()
    assert "nan" in report.to_plot_data()


def test_diverged_training_marks_cell_failed(tiny_bundle, monkeypatch):
    hypers = [factorize.Hyperparams.for_model("PMF", n_factors=4, outer_iters=2)]
    fail_kind(monkeypatch, "PMF", textcnn.TrainingDivergedError("non-finite joint loss"))
    report = run_experiment(tiny_bundle, hypers, n_runs=2, base_seed=1)
    assert report.all_failed()
    assert all(np.isnan(r.rmse) and "non-finite" in r.error for r in report.results)


@pytest.mark.parametrize("error", [TypeError("bug in the trainer"),
                                   ValueError("BiConvMF+ requires a pretrained embedding table")])
def test_other_errors_propagate_from_run_experiment(tiny_bundle, monkeypatch, error):
    hypers = [factorize.Hyperparams.for_model("PMF", n_factors=4, outer_iters=2)]
    fail_kind(monkeypatch, "PMF", error)
    with pytest.raises(type(error)) as raised:
        run_experiment(tiny_bundle, hypers, n_runs=2, base_seed=1)
    assert raised.value is error


def test_csv_and_plot_layout(tiny_bundle):
    hypers = [factorize.Hyperparams.for_model("PMF", n_factors=4, outer_iters=2)]
    report = run_experiment(tiny_bundle, hypers, n_runs=2, base_seed=3)
    csv_lines = report.to_csv().strip().split("\n")
    assert csv_lines[0] == "model,run,rmse,seconds"
    assert len(csv_lines) == 4  # 2 runs + mean
    assert csv_lines[3].startswith("PMF,mean,")
    plot_lines = report.to_plot_data().strip().split("\n")
    assert plot_lines[0] == "run PMF"
    assert len(plot_lines) == 3


def test_reports_reproducible_up_to_timing(tiny_bundle):
    hypers = [factorize.Hyperparams.for_model("PMF", n_factors=4, outer_iters=2)]
    r1 = run_experiment(tiny_bundle, hypers, n_runs=2, base_seed=3)
    r2 = run_experiment(tiny_bundle, hypers, n_runs=2, base_seed=3)
    strip = lambda csv: [",".join(line.split(",")[:3]) for line in csv.splitlines()]
    assert strip(r1.to_csv()) == strip(r2.to_csv())
    assert r1.to_plot_data() == r2.to_plot_data()  # wall clock excluded here
