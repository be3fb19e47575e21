"""Train/test splitting, RMSE, and the averaged multi-run comparison.

All models in a comparison share one split (the one stored in the corpus
bundle); run r of n only varies the initialization seed as base_seed + r.
Cold-start test pairs are scored through the prediction fallback chain,
never dropped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import factorize
from .linalg import SolveError
from .textcnn import TrainingDivergedError


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")


def split(n_ratings: int, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Assign triplet indices to train/test by a seeded uniform shuffle.

    Test size is round(n * test_fraction), so both sides are within one of
    the exact fractions.  Returns sorted index arrays (train, test); an
    empty side is an error.
    """
    if n_ratings < 1:
        raise ValueError("cannot split an empty rating set")
    n_test = int(round(n_ratings * spec.test_fraction))
    if n_test >= n_ratings:
        raise ValueError(f"split leaves no training data (n={n_ratings}, test_fraction={spec.test_fraction})")
    if n_test == 0:
        raise ValueError(f"split leaves no test data (n={n_ratings}, test_fraction={spec.test_fraction})")
    perm = np.random.default_rng(spec.seed).permutation(n_ratings)
    test = np.sort(perm[:n_test])
    train = np.sort(perm[n_test:])
    return train, test


def rmse(pairs) -> float:
    """Root mean squared error over (actual, predicted) pairs."""
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("rmse of an empty pair sequence is undefined")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (actual, predicted) pairs, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("rmse requires finite actual and predicted values")
    diff = arr[:, 0] - arr[:, 1]
    return float(np.sqrt((diff ** 2).mean()))


def evaluate_model(model, bundle, clip: bool = False) -> tuple[float, int]:
    """Test-split RMSE of a trained model, via the fallback chain."""
    if len(bundle.test_ratings) == 0:
        raise ValueError("bundle has no test ratings")
    preds = model.predict_indexed(bundle.test_user_idx, bundle.test_item_idx, clip=clip)
    return rmse(np.column_stack([bundle.test_ratings, preds])), len(bundle.test_ratings)


@dataclass
class RunResult:
    model_kind: str
    run: int
    seed: int
    rmse: float          # nan when the run failed
    seconds: float
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class ExperimentReport:
    model_kinds: list[str]
    results: list[RunResult] = field(default_factory=list)

    def runs_for(self, model_kind: str) -> list[RunResult]:
        return [r for r in self.results if r.model_kind == model_kind]

    def by_run(self) -> list[tuple[RunResult, ...]]:
        """Each run's results, one per model in model_kinds order."""
        return list(zip(*(self.runs_for(k) for k in self.model_kinds)))

    def mean_rmse(self, model_kind: str) -> float:
        vals = [r.rmse for r in self.runs_for(model_kind) if not r.failed]
        return float(np.mean(vals)) if vals else float("nan")

    def all_failed(self) -> bool:
        return all(r.failed for r in self.results) if self.results else False

    def to_csv(self) -> str:
        lines = ["model,run,rmse,seconds"]
        for kind in self.model_kinds:
            runs = self.runs_for(kind)
            for r in runs:
                lines.append(f"{kind},{r.run},{r.rmse:.6f},{r.seconds:.3f}")
            secs = [r.seconds for r in runs]
            lines.append(f"{kind},mean,{self.mean_rmse(kind):.6f},{np.mean(secs):.3f}")
        return "\n".join(lines) + "\n"

    def to_plot_data(self) -> str:
        """Plain-text columns: run index then one RMSE column per model."""
        lines = ["run " + " ".join(self.model_kinds)]
        lines += [f"{row[0].run} " + " ".join(f"{r.rmse:.6f}" for r in row)
                  for row in self.by_run()]
        return "\n".join(lines) + "\n"

    def format_table(self) -> str:
        """Console table: one row per run plus the per-model averages."""
        width = max(10, max((len(k) for k in self.model_kinds), default=10) + 2)
        rows = ["run".ljust(6) + "".join(k.rjust(width) for k in self.model_kinds)]
        rows += [str(row[0].run).ljust(6)
                 + "".join(("failed" if r.failed else f"{r.rmse:.5f}").rjust(width) for r in row)
                 for row in self.by_run()]
        rows.append("mean".ljust(6) + "".join(f"{self.mean_rmse(k):.5f}".rjust(width) for k in self.model_kinds))
        return "\n".join(rows)


def run_experiment(bundle, model_hypers: list[factorize.Hyperparams],
                   n_runs: int = 5, base_seed: int = 0,
                   clip: bool = False, verbose: bool = False,
                   **train_options) -> ExperimentReport:
    """Averaged comparison: every model, n_runs seeds, one shared split.

    The split is the one already stored in the bundle; run r trains with
    seed base_seed + r.  train_options (cnn_config, optimizer,
    pretrained_embedding, pretrained_trainable) go to factorize.train
    unchanged, for every run.  A run that fails in training (a diverged CNN
    or an unsolvable half-step) is recorded (rmse nan plus the error text)
    and the remaining cells still execute; any other exception propagates.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    report = ExperimentReport(model_kinds=[h.model_kind for h in model_hypers])
    for hyper in model_hypers:
        for run in range(1, n_runs + 1):
            seed = base_seed + run
            t0 = time.perf_counter()
            try:
                model = factorize.train(bundle, replace(hyper, seed=seed), **train_options)
                score, _ = evaluate_model(model, bundle, clip=clip)
                result = RunResult(hyper.model_kind, run, seed, score,
                                   time.perf_counter() - t0)
            except (TrainingDivergedError, SolveError) as exc:  # the report marks the cell failed
                result = RunResult(hyper.model_kind, run, seed, float("nan"),
                                   time.perf_counter() - t0, error=str(exc))
            if verbose:
                status = f"rmse {result.rmse:.5f}" if not result.failed else f"FAILED ({result.error})"
                print(f"{hyper.model_kind} run {run}: {status} ({result.seconds:.1f}s)", flush=True)
            report.results.append(result)
    return report
