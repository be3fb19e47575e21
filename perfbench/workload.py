"""One round of one benchmark workload, run in a fresh process.

    python3 perfbench/workload.py --workload NAME --input FILE --work DIR
        [--trace 0|1] [--trace-out FILE] [--setup-only] [--tiny]

run.py starts this with one BLAS/OpenMP thread and src/ on PYTHONPATH, and
reads the JSON object printed as the last line of standard output.  Times
are absolute time.perf_counter() stamps (CLOCK_MONOTONIC, shared by every
process on the host), so run.py can measure from the moment it started the
process.  Correctness checks run after the timed window has closed.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from biconvmf import cli, corpus, evaluate, factorize, textcnn

ROOT = Path(__file__).resolve().parent.parent
TEST_FRACTION = 0.2
REL_SLACK = 1e-12          # half-step monotonicity slack, as in the test suite
RMSE_TOL = 1e-12
NORMAL_EQ_TOL = 1e-8

# Generator arguments per input: (n_users, n_items, records kept).  "movies"
# is the Movies-and-TV shape: 20k records of a 13,533 x 311 corpus.
INPUTS = {"movies": (13533, 311, 20000), "desk": (800, 80, None)}
TINY_INPUTS = {"movies": (300, 40, 500), "desk": (240, 24, None)}

# Movies-shape CNN of configs/movies_tv.ini.
MOVIES_CNN = dict(embedding_dim=32, window_sizes=(3, 4, 5), n_filters=100,
                  dropout_rate=0.2)
MOVIES_OPT = dict(learning_rate=1e-3, epochs=2, batch_size=128)

# Settings of the two workloads that call the library directly.  Every
# training runs exactly outer_iters iterations (early stopping is off), so a
# round always does the same work.
MOVIES = {
    "movies-pmf": dict(input="movies", first_n=20000, model="PMF", n_factors=50,
                       outer_iters=2, seeds=(1,), cnn=None),
    "movies-biconvmf": dict(input="movies", first_n=3000, model="BiConvMF", n_factors=50,
                            outer_iters=1, seeds=(1,), cnn=MOVIES_CNN),
}
MOVIES_SPLIT_SEED = 42
MOVIES_MAX_VOCAB = 8000
MOVIES_MAX_LEN = 128
TINY_MOVIES = dict(first_n=500, n_factors=8, outer_iters=2,
                   cnn=dict(embedding_dim=8, window_sizes=(3, 4, 5), n_filters=6,
                            dropout_rate=0.2))

DESK_CONFIG = ROOT / "configs" / "synthetic.ini"
DESK_MODEL = "BiConvMF"
TINY_DESK = {"factorization": {"outer_iters": "2"}, "experiment": {"n_runs": "1"}}

WORKLOADS = (*MOVIES, "desk-compare")


def input_key(workload: str) -> str:
    return MOVIES[workload]["input"] if workload in MOVIES else "desk"


class SetupDone(BaseException):
    """Raised at the first training call of a set-up-only round.

    A BaseException, so that the CLI's error handlers let it through.
    """


def vm_hwm_mb() -> float:
    """Peak resident set of this process, from /proc (reset at exec)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Probe:
    """The few hooks an untraced round needs: training time and scores.

    It wraps factorize.train (set-up ends at its first call; train_s sums
    its calls) and evaluate.evaluate_model (keeps each model with the score
    the program gave it, for the checks after the timed window).
    """

    def __init__(self, setup_only: bool):
        self.setup_only = setup_only
        self.t_first_train = None
        self.rss_after_setup_mb = None
        self.train_s = 0.0
        self.scored = []    # (model, bundle, score, n_pairs)
        train, score = factorize.train, evaluate.evaluate_model

        def timed_train(*args, **kwargs):
            start = time.perf_counter()
            if self.t_first_train is None:
                self.t_first_train = start
                self.rss_after_setup_mb = vm_hwm_mb()
                if self.setup_only:
                    raise SetupDone
            try:
                return train(*args, **kwargs)
            finally:
                self.train_s += time.perf_counter() - start

        def kept_score(model, bundle, clip=False):
            if clip:
                raise ValueError("the benchmark's RMSE check assumes unclipped predictions")
            result = score(model, bundle)
            self.scored.append((model, bundle) + tuple(result))
            return result

        factorize.train = timed_train
        evaluate.evaluate_model = kept_score


# ---------------------------------------------------------------- workloads

def movies_settings(workload: str, tiny: bool) -> dict:
    spec = dict(MOVIES[workload])
    if tiny:
        spec.update(TINY_MOVIES, cnn=TINY_MOVIES["cnn"] if spec["cnn"] else None)
    return spec


def run_movies(workload: str, input_path: Path, work: Path, tiny: bool, ops: dict) -> dict:
    """Ingest, bundle round trip, then train and score once per seed, via the library."""
    spec = movies_settings(workload, tiny)
    ops["attempted"] += 1 + len(spec["seeds"])
    bundle_path = work / "bundle.bcmf"
    try:
        records, _ = corpus.take_first_n(corpus.parse_reviews(input_path), spec["first_n"])
        train_idx, test_idx = evaluate.split(
            len(records), evaluate.SplitSpec(TEST_FRACTION, MOVIES_SPLIT_SEED))
        bundle = corpus.build_bundle(
            records, train_idx, test_idx, max_vocab=MOVIES_MAX_VOCAB,
            max_len=MOVIES_MAX_LEN, test_fraction=TEST_FRACTION,
            split_seed=MOVIES_SPLIT_SEED)
        corpus.save_bundle(bundle, bundle_path)
        bundle = corpus.load_bundle(bundle_path)
    except Exception as exc:    # counted; no training can follow
        ops["errors"] += [f"ingest: {exc!r}"] + ["train: no bundle"] * len(spec["seeds"])
        return {"spec": spec, "scores": 0}
    cnn_config = optimizer = None
    if spec["cnn"] is not None:
        cnn_config = textcnn.CnnConfig(max_len=MOVIES_MAX_LEN, output_dim=spec["n_factors"],
                                       **spec["cnn"])
        optimizer = textcnn.OptimizerConfig(**MOVIES_OPT)
    scores = {}
    for seed in spec["seeds"]:
        hyper = factorize.Hyperparams.for_model(
            spec["model"], n_factors=spec["n_factors"], outer_iters=spec["outer_iters"],
            early_stop_rel_tol=0.0, seed=seed)
        try:
            model = factorize.train(bundle, hyper, cnn_config=cnn_config, optimizer=optimizer)
            scores[seed] = evaluate.evaluate_model(model, bundle)[0]
        except Exception as exc:
            ops["errors"].append(f"train seed {seed}: {exc!r}")
    (work / "scores.json").write_text(json.dumps(scores), encoding="utf-8")
    return {"spec": spec, "scores": len(scores)}


def desk_config(input_path: Path, work: Path, tiny: bool) -> Path:
    """configs/synthetic.ini, pointed at the generated input and the work dir.

    Early stopping is switched off so that every model runs the configured
    number of outer iterations.
    """
    parser = configparser.ConfigParser()
    parser.read(DESK_CONFIG)
    parser["data"]["path"] = str(input_path)
    parser["output"]["dir"] = str(work / "out")
    parser["factorization"]["early_stop_rel_tol"] = "0"
    if tiny:
        for section, values in TINY_DESK.items():
            parser[section].update(values)
    path = work / "desk.ini"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return path


def run_desk(input_path: Path, work: Path, tiny: bool, ops: dict) -> dict:
    """ingest, train and evaluate one model, and compare, each through cli.main."""
    cfg_path = desk_config(input_path, work, tiny)
    cfg = cli.load_config(cfg_path)
    steps = [["ingest"], ["train", "--model", DESK_MODEL],
             ["evaluate", "--model", DESK_MODEL], ["compare"]]
    n_cells = len(cfg.models) * cfg.n_runs
    ops["attempted"] += len(steps) + n_cells
    exits = {}
    for step in steps:
        try:
            exits[step[0]] = cli.main([step[0], "--config", str(cfg_path), *step[1:]])
        except Exception as exc:
            exits[step[0]] = repr(exc)
        if exits[step[0]] != 0:
            ops["errors"].append(f"{step[0]}: exit {exits[step[0]]}")
    # compare exits 0 unless every cell fails; its report marks a failed cell nan
    ok_cells = [row for row in read_comparison(cfg.out_dir / "reports" / "comparison.csv")
                if not math.isnan(row[2])]
    ops["errors"] += ["compare: failed cell"] * (n_cells - len(ok_cells))
    return {"cfg": cfg, "scores": (exits["evaluate"] == 0) + len(ok_cells),
            "evaluated": exits["evaluate"] == 0}


def read_comparison(path: Path) -> list[tuple[str, int, float]]:
    """(model, run, rmse) rows of comparison.csv; [] when it was not written."""
    if not path.exists():
        return []
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        model, run, rmse, _ = line.split(",")
        if run != "mean":
            rows.append((model, int(run), float(rmse)))
    return rows


# ------------------------------------------------------------------- checks

def recount_input(input_path: Path, first_n: int | None) -> dict:
    """Counts of the generated file, read with json alone."""
    users, items, n = set(), set(), 0
    with open(input_path, encoding="utf-8") as fh:
        for line in fh:
            if first_n is not None and n == first_n:
                break
            rec = json.loads(line)
            users.add(rec["reviewerID"])
            items.add(rec["asin"])
            n += 1
    n_test = round(TEST_FRACTION * n)
    return {"n_ratings": n, "n_users": len(users), "n_items": len(items),
            "n_test": n_test, "n_train": n - n_test}


def reference_rmse(model, bundle) -> tuple[float, bool]:
    """Test RMSE by the documented prediction rule, from the training triplets.

    A cold item falls back to the global training mean, a cold user on a warm
    item to the item's training mean; otherwise the prediction is u_i . v_j.
    Returns (rmse, every prediction finite).
    """
    tr_u = np.asarray(bundle.train_user_idx, dtype=np.int64)
    tr_i = np.asarray(bundle.train_item_idx, dtype=np.int64)
    tr_r = np.asarray(bundle.train_ratings, dtype=np.float64)
    user_n = np.bincount(tr_u, minlength=bundle.n_users)
    item_n = np.bincount(tr_i, minlength=bundle.n_items)
    item_sum = np.bincount(tr_i, weights=tr_r, minlength=bundle.n_items)
    global_mean = tr_r.sum() / len(tr_r)
    preds = np.empty(len(bundle.test_ratings))
    for p, (i, j) in enumerate(zip(bundle.test_user_idx, bundle.test_item_idx)):
        if item_n[j] == 0:
            preds[p] = global_mean
        elif user_n[i] == 0:
            preds[p] = item_sum[j] / item_n[j]
        else:
            preds[p] = np.dot(model.user_factors[:, i], model.item_factors[:, j])
    err = np.asarray(bundle.test_ratings, dtype=np.float64) - preds
    return float(np.sqrt(np.mean(err * err))), bool(np.isfinite(preds).all())


def halfstep_ok(log, outer_iters: int) -> bool:
    """Every iteration ran, and the loss never rose across a half-step."""
    if not (len(log.losses) == len(log.losses_after_user)
            == len(log.losses_after_item) == outer_iters):
        return False
    before = [log.loss_initial] + list(log.losses[:-1])
    return all(lu <= b + REL_SLACK * abs(b) and li <= lu + REL_SLACK * abs(lu)
               for b, lu, li in zip(before, log.losses_after_user, log.losses_after_item))


def item_normal_equations_ok(model, bundle) -> bool:
    """PMF's final item factors solve (U_j U_j^T + lambda_v I) v_j = U_j r_j."""
    u, v = model.user_factors, model.item_factors
    k = u.shape[0]
    lam = model.hyper.lambda_item
    tr_u = np.asarray(bundle.train_user_idx, dtype=np.int64)
    tr_i = np.asarray(bundle.train_item_idx, dtype=np.int64)
    tr_r = np.asarray(bundle.train_ratings, dtype=np.float64)
    for j in range(bundle.n_items):
        rows = tr_i == j
        cols = u[:, tr_u[rows]]
        ref = np.linalg.solve(cols @ cols.T + lam * np.eye(k), cols @ tr_r[rows])
        if not np.linalg.norm(v[:, j] - ref) <= NORMAL_EQ_TOL * max(np.linalg.norm(ref), 1.0):
            return False
    return True


def scored_checks(probe: Probe, n_expected: int, outer_iters: int) -> dict[str, bool]:
    """Checks on every (model, score) pair the program produced."""
    checks = {"all_models_scored": len(probe.scored) == n_expected,
              "predictions_finite": True, "rmse_recomputed": True,
              "half_steps_and_iterations": True}
    for model, bundle, score, _ in probe.scored:
        ref, finite = reference_rmse(model, bundle)
        checks["predictions_finite"] &= finite
        checks["rmse_recomputed"] &= abs(ref - score) <= RMSE_TOL
        checks["half_steps_and_iterations"] &= halfstep_ok(model.log, outer_iters)
    return checks


def check_movies(done: dict, input_path: Path, work: Path, probe: Probe):
    """Returns (checks, headline rmse, extra facts)."""
    spec = done["spec"]
    checks = scored_checks(probe, done["scores"], spec["outer_iters"])
    bundle = corpus.load_bundle(work / "bundle.bcmf")
    got = {"n_ratings": bundle.stats.n_ratings, "n_users": bundle.stats.n_users,
           "n_items": bundle.stats.n_items, "n_test": len(bundle.test_ratings),
           "n_train": len(bundle.train_ratings)}
    checks["ingest_counts"] = got == recount_input(input_path, spec["first_n"])
    if spec["model"] == "PMF":
        checks["item_normal_equations"] = all(
            item_normal_equations_ok(model, bundle) for model, bundle, *_ in probe.scored)
    scores = [s[2] for s in probe.scored]
    return checks, float(np.mean(scores)) if scores else None, {}


def check_desk(done: dict, input_path: Path, work: Path, probe: Probe):
    """Returns (checks, headline rmse, extra facts)."""
    cfg = done["cfg"]
    checks = scored_checks(probe, done["scores"], cfg.outer_iters)
    with open(cfg.out_dir / "corpus" / "stats.json", encoding="utf-8") as fh:
        stats = json.load(fh)
    want = recount_input(input_path, cfg.first_n)
    checks["ingest_counts"] = all(stats[key] == value for key, value in want.items())
    # `evaluate` scores the checkpoint first; compare's cells follow
    cells = probe.scored[1:] if done["evaluated"] else probe.scored
    checks["checkpoint_rmse"] = False
    if done["evaluated"]:
        model = factorize.load_model(cfg.out_dir / "models" / f"{DESK_MODEL}.ckpt")
        bundle = corpus.load_bundle(cfg.out_dir / "corpus" / cli.BUNDLE_NAME)
        checks["checkpoint_rmse"] = (abs(reference_rmse(model, bundle)[0] - probe.scored[0][2])
                                     <= RMSE_TOL)
    means = {kind: float(np.mean([c[2] for c in cells if c[0].model_kind == kind] or [np.nan]))
             for kind in cfg.models}
    # Text priors beat PMF on every corpus seed tried; BiConvMF's lead over
    # ConvMF does not (see CHANGES.md), so that order is reported, not checked.
    checks["text_models_beat_pmf"] = bool(means["BiConvMF"] < means["PMF"]
                                          and means["ConvMF"] < means["PMF"])
    facts = {"mean_rmse": means,
             "bi_below_conv_below_pmf": bool(means["BiConvMF"] < means["ConvMF"] < means["PMF"])}
    return checks, means[DESK_MODEL], facts


# ---------------------------------------------------------------------- env

def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS library loaded in this process."""
    libs = set()
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path) and ".so" in path:
                libs.add(path)
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_version,
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


# --------------------------------------------------------------------- main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--input", required=True, type=Path)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    probe = Probe(args.setup_only)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ops = {"attempted": 0, "errors": []}
    done = None
    try:
        if args.workload == "desk-compare":
            done = run_desk(args.input, args.work, args.tiny, ops)
        else:
            done = run_movies(args.workload, args.input, args.work, args.tiny, ops)
    except SetupDone:
        pass
    t_end = time.perf_counter()
    out = {"t_first_train": probe.t_first_train, "t_end": t_end,
           "train_s": probe.train_s, "peak_rss_mb": vm_hwm_mb(),
           "rss_after_setup_mb": probe.rss_after_setup_mb,
           "attempted": ops["attempted"], "failed": len(ops["errors"]),
           "errors": ops["errors"]}
    if tracer is not None:
        # before the checks, whose own library calls are not part of the round
        out["layers"] = tracer.layer_metrics()
        out["layers"]["process.rss_after_setup_mb"] = probe.rss_after_setup_mb
        if args.trace_out is not None:
            tracer.write(args.trace_out)
    if done is not None:
        check = check_desk if args.workload == "desk-compare" else check_movies
        out["checks"], out["rmse"], out["facts"] = check(done, args.input, args.work, probe)
    out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
