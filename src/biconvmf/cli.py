"""Command-line pipeline: ingest -> train -> evaluate / compare.

Experiments are driven by an INI config file; flags override file values.
Outputs land under <out>/{corpus,models,reports} and nothing is silently
overwritten without --force.  Exit codes: 0 success, 2 config error,
3 data error, 4 training failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import corpus, evaluate, factorize, linalg, serialize, textcnn

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAIN = 4

BUNDLE_NAME = "bundle.bcmf"


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


@dataclass
class RunConfig:
    data_path: Path = Path("reviews.json")
    first_n: int = 20000
    base_seed: int = 42
    test_fraction: float = 0.2
    n_runs: int = 5
    models: list[str] = field(default_factory=lambda: ["PMF", "ConvMF", "BiConvMF"])
    max_vocab: int = corpus.DEFAULT_MAX_VOCAB
    min_doc_freq: int = corpus.DEFAULT_MIN_DOC_FREQ
    max_len: int = corpus.DEFAULT_MAX_LEN
    embedding_dim: int = corpus.DEFAULT_EMBEDDING_DIM
    window_sizes: tuple[int, ...] = (3, 4, 5)
    n_filters: int = 100
    dropout_rate: float = 0.2
    learning_rate: float = 1e-3
    epochs_per_outer: int = 5
    batch_size: int = 128
    pretrained_path: Path | None = None
    pretrained_trainable: bool = False
    n_factors: int = 50
    outer_iters: int = 30
    early_stop_rel_tol: float = 1e-4
    early_stop_patience: int = 3
    lambdas: dict = field(default_factory=dict)  # model kind -> {LAMBDA_KEYS entry: value}
    weight_decay: float = 1e-4
    out_dir: Path = Path("runs")

    def hyper_for(self, model_kind: str, seed: int | None = None) -> factorize.Hyperparams:
        kind = factorize.canonical_model_kind(model_kind)
        return factorize.Hyperparams.for_model(
            kind, n_factors=self.n_factors, **self.lambdas.get(kind, {}),
            weight_decay_user=self.weight_decay, weight_decay_item=self.weight_decay,
            outer_iters=self.outer_iters,
            early_stop_rel_tol=self.early_stop_rel_tol,
            early_stop_patience=self.early_stop_patience,
            seed=self.base_seed if seed is None else seed,
        )

    def cnn_config(self) -> textcnn.CnnConfig:
        return textcnn.CnnConfig(
            max_len=self.max_len, embedding_dim=self.embedding_dim,
            output_dim=self.n_factors, window_sizes=self.window_sizes,
            n_filters=self.n_filters, dropout_rate=self.dropout_rate,
        )

    def optimizer(self) -> textcnn.OptimizerConfig:
        return textcnn.OptimizerConfig(
            learning_rate=self.learning_rate,
            epochs=self.epochs_per_outer, batch_size=self.batch_size,
        )


def _as_list(raw: str) -> list[str]:
    return [x.strip() for x in raw.split(",") if x.strip()]


def _as_bool(raw: str) -> bool:
    """configparser's boolean words, in any case; anything else is an error."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError("expected one of 1/yes/true/on or 0/no/false/off") from None


# (section, key) -> (RunConfig field, parser)
CONFIG_KEYS = {
    ("data", "path"): ("data_path", Path),
    ("data", "first_n"): ("first_n", int),
    ("experiment", "base_seed"): ("base_seed", int),
    ("experiment", "test_fraction"): ("test_fraction", float),
    ("experiment", "n_runs"): ("n_runs", int),
    ("experiment", "models"): ("models", lambda raw: [factorize.canonical_model_kind(m) for m in _as_list(raw)]),
    ("corpus", "max_vocab"): ("max_vocab", int),
    ("corpus", "min_doc_freq"): ("min_doc_freq", int),
    ("corpus", "max_len"): ("max_len", int),
    ("cnn", "embedding_dim"): ("embedding_dim", int),
    ("cnn", "window_sizes"): ("window_sizes", lambda raw: tuple(int(x) for x in _as_list(raw))),
    ("cnn", "n_filters"): ("n_filters", int),
    ("cnn", "dropout_rate"): ("dropout_rate", float),
    ("cnn", "learning_rate"): ("learning_rate", float),
    ("cnn", "epochs_per_outer"): ("epochs_per_outer", int),
    ("cnn", "batch_size"): ("batch_size", int),
    ("cnn", "pretrained_path"): ("pretrained_path", Path),
    ("cnn", "pretrained_trainable"): ("pretrained_trainable", _as_bool),
    ("factorization", "n_factors"): ("n_factors", int),
    ("factorization", "outer_iters"): ("outer_iters", int),
    ("factorization", "early_stop_rel_tol"): ("early_stop_rel_tol", float),
    ("factorization", "early_stop_patience"): ("early_stop_patience", int),
    ("factorization", "weight_decay"): ("weight_decay", float),
    ("output", "dir"): ("out_dir", Path),
}
LAMBDA_KEYS = ("lambda_user", "lambda_item")   # the keys of a [model.<kind>] section


def load_config(path) -> RunConfig:
    """Read an INI config; an unknown section or key is a ConfigError."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
        sections = [(s, parser.items(s)) for s in parser.sections()]
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}] in {path}")

    cfg = RunConfig()
    for section, items in sections:
        kind = section.removeprefix("model.")
        is_model = kind != section and kind in factorize.MODEL_KINDS
        if not is_model and section not in {s for s, _ in CONFIG_KEYS}:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for key, raw in items:
            if is_model and key in LAMBDA_KEYS:
                target, parse = None, float
            elif (section, key) in CONFIG_KEYS:
                target, parse = CONFIG_KEYS[section, key]
            else:
                raise ConfigError(f"unknown key '{key}' in [{section}] of {path}")
            if raw == "":   # configparser strips values; empty keeps the default
                continue
            try:
                value = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r} ({exc})") from None
            if not is_model:
                setattr(cfg, target, value)
            elif value <= 0:
                raise ConfigError(f"[{section}] lambdas must be > 0")
            else:
                cfg.lambdas.setdefault(kind, {})[key] = value

    if not 0.0 < cfg.test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {cfg.test_fraction}")
    if cfg.first_n < 0:
        raise ConfigError(f"first_n must be >= 0, got {cfg.first_n}")
    return cfg


def _paths(cfg: RunConfig):
    out = cfg.out_dir
    return {
        "corpus": out / "corpus",
        "models": out / "models",
        "reports": out / "reports",
        "bundle": out / "corpus" / BUNDLE_NAME,
    }


def _require_no_overwrite(path: Path, force: bool):
    if path.exists() and not force:
        raise ConfigError(f"{path} already exists; pass --force to overwrite")


def _load_bundle_or_fail(paths) -> corpus.CorpusBundle:
    if not paths["bundle"].exists():
        raise DataError(f"corpus bundle not found at {paths['bundle']}; run `biconvmf ingest` first")
    return corpus.load_bundle(paths["bundle"])


def _pretrained_table(cfg: RunConfig, bundle):
    if cfg.pretrained_path is None:
        return None
    if not cfg.pretrained_path.exists():
        raise DataError(f"pretrained embedding file not found: {cfg.pretrained_path}")
    return corpus.load_pretrained_embeddings(
        cfg.pretrained_path, bundle.vocab, cfg.embedding_dim, seed=cfg.base_seed)


def cmd_ingest(cfg: RunConfig, force: bool) -> int:
    paths = _paths(cfg)
    _require_no_overwrite(paths["bundle"], force)
    if not cfg.data_path.exists():
        raise DataError(f"review file not found: {cfg.data_path}")
    records, stats = corpus.take_first_n(corpus.parse_reviews(cfg.data_path), cfg.first_n)
    if not records:
        raise DataError(f"no records ingested from {cfg.data_path}")
    train_idx, test_idx = evaluate.split(
        len(records), evaluate.SplitSpec(cfg.test_fraction, cfg.base_seed))
    bundle = corpus.build_bundle(
        records, train_idx, test_idx,
        max_vocab=cfg.max_vocab, min_doc_freq=cfg.min_doc_freq, max_len=cfg.max_len,
        test_fraction=cfg.test_fraction, split_seed=cfg.base_seed,
    )
    paths["corpus"].mkdir(parents=True, exist_ok=True)
    corpus.save_bundle(bundle, paths["bundle"])
    stats_obj = {
        **asdict(stats), "n_train": len(train_idx), "n_test": len(test_idx),
        "vocab_size": bundle.vocab.size, "base_seed": cfg.base_seed,
    }
    serialize.write_text(paths["corpus"] / "stats.json", json.dumps(stats_obj, indent=2, sort_keys=True))
    print(f"users    {stats.n_users}")
    print(f"items    {stats.n_items}")
    print(f"ratings  {stats.n_ratings}")
    print(f"density  {stats.density_percent:.2f}%")
    print(f"train/test  {len(train_idx)}/{len(test_idx)}")
    print(f"vocabulary  {bundle.vocab.size} tokens")
    print(f"bundle written to {paths['bundle']}")
    return EXIT_OK


def _checkpoint_path(paths, model_kind: str) -> Path:
    return paths["models"] / f"{model_kind}.ckpt"


def cmd_train(cfg: RunConfig, model_kind: str, force: bool) -> int:
    paths = _paths(cfg)
    kind = factorize.canonical_model_kind(model_kind)
    if kind == "BiConvMF+" and cfg.pretrained_path is None:
        raise ConfigError("BiConvMF+ requires [cnn] pretrained_path in the config")
    ckpt = _checkpoint_path(paths, kind)
    _require_no_overwrite(ckpt, force)
    bundle = _load_bundle_or_fail(paths)
    pretrained = _pretrained_table(cfg, bundle) if kind == "BiConvMF+" else None
    t0 = time.perf_counter()
    model = factorize.train(
        bundle, cfg.hyper_for(kind), cnn_config=cfg.cnn_config(),
        optimizer=cfg.optimizer(), pretrained_embedding=pretrained,
        pretrained_trainable=cfg.pretrained_trainable, verbose=True,
    )
    seconds = time.perf_counter() - t0
    paths["models"].mkdir(parents=True, exist_ok=True)
    factorize.save_model(model, ckpt)
    lines = ["iteration,loss_after_user_update,loss_after_item_update,loss\n"]
    lines += [f"{it},{lu:.10e},{li:.10e},{le:.10e}\n"
              for it, (lu, li, le) in enumerate(zip(model.log.losses_after_user,
                                                    model.log.losses_after_item,
                                                    model.log.losses), start=1)]
    serialize.write_text(paths["models"] / f"{kind}_loss.csv", "".join(lines))
    print(f"{kind}: {model.log.n_iterations()} outer iterations, "
          f"final loss {model.log.losses[-1]:.6e}, {seconds:.1f}s")
    print(f"checkpoint written to {ckpt}")
    return EXIT_OK


def cmd_evaluate(cfg: RunConfig, model_kind: str, clip: bool, force: bool) -> int:
    paths = _paths(cfg)
    kind = factorize.canonical_model_kind(model_kind)
    ckpt = _checkpoint_path(paths, kind)
    report = paths["reports"] / f"{kind}_eval.csv"
    _require_no_overwrite(report, force)
    if not ckpt.exists():
        raise DataError(f"checkpoint not found at {ckpt}; run `biconvmf train --model {kind}` first")
    bundle = _load_bundle_or_fail(paths)
    model = factorize.load_model(ckpt)
    if model.user_ids != bundle.user_ids or model.item_ids != bundle.item_ids:
        raise DataError(f"{ckpt} was trained on another corpus (its user or item ids differ "
                        f"from {paths['bundle']}); retrain it")
    if not (np.array_equal(model.user_train_counts,
                           np.bincount(bundle.train_user_idx, minlength=bundle.n_users))
            and np.array_equal(model.item_train_counts,
                               np.bincount(bundle.train_item_idx, minlength=bundle.n_items))):
        raise DataError(f"{ckpt} was trained on another split (its per-user or per-item "
                        f"training counts differ from {paths['bundle']}); retrain it")
    score, n_test = evaluate.evaluate_model(model, bundle, clip=clip)
    paths["reports"].mkdir(parents=True, exist_ok=True)
    serialize.write_text(report, f"model,n_test,clip,rmse\n{kind},{n_test},{int(clip)},{score:.6f}\n")
    print(f"{kind}: test RMSE {score:.5f} over {n_test} ratings"
          + (" (clipped to [1, 5])" if clip else ""))
    return EXIT_OK


def cmd_compare(cfg: RunConfig, clip: bool, force: bool) -> int:
    paths = _paths(cfg)
    csv_path = paths["reports"] / "comparison.csv"
    plot_path = paths["reports"] / "comparison_plot.txt"
    _require_no_overwrite(csv_path, force)
    _require_no_overwrite(plot_path, force)
    if "BiConvMF+" in cfg.models and cfg.pretrained_path is None:
        raise ConfigError("BiConvMF+ requires [cnn] pretrained_path in the config")
    bundle = _load_bundle_or_fail(paths)
    pretrained = _pretrained_table(cfg, bundle) if "BiConvMF+" in cfg.models else None
    hypers = [cfg.hyper_for(kind) for kind in cfg.models]
    report = evaluate.run_experiment(
        bundle, hypers, cnn_config=cfg.cnn_config(), optimizer=cfg.optimizer(),
        n_runs=cfg.n_runs, base_seed=cfg.base_seed,
        pretrained_embedding=pretrained,
        pretrained_trainable=cfg.pretrained_trainable,
        clip=clip, verbose=True,
    )
    paths["reports"].mkdir(parents=True, exist_ok=True)
    serialize.write_text(csv_path, report.to_csv())
    serialize.write_text(plot_path, report.to_plot_data())
    print()
    print(report.format_table())
    print(f"\nreport written to {csv_path}")
    print(f"plot data written to {plot_path}")
    for r in report.results:
        if r.failed:
            print(f"warning: {r.model_kind} run {r.run} failed: {r.error}", file=sys.stderr)
    return EXIT_TRAIN if report.all_failed() else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biconvmf",
        description="Review-aware matrix factorization: ingest data, train models, compare RMSE.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", help="output directory (overrides [output] dir)")
        p.add_argument("--seed", type=int, help="base seed (overrides [experiment] base_seed)")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")

    p = sub.add_parser("ingest", help="parse reviews, split, and write the corpus bundle")
    common(p)
    p = sub.add_parser("train", help="train one model and write a checkpoint")
    common(p)
    p.add_argument("--model", required=True, help="PMF | ConvMF | BiConvMF | BiConvMF+")
    p = sub.add_parser("evaluate", help="score a trained checkpoint on the test split")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--clip", action="store_true", help="clip predictions to [1, 5]")
    p = sub.add_parser("compare", help="run the multi-model, multi-run comparison")
    common(p)
    p.add_argument("--clip", action="store_true", help="clip predictions to [1, 5]")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out:
            cfg.out_dir = Path(args.out)
        if args.seed is not None:
            cfg.base_seed = args.seed
        if args.command == "ingest":
            return cmd_ingest(cfg, args.force)
        if args.command == "train":
            return cmd_train(cfg, args.model, args.force)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.model, args.clip, args.force)
        if args.command == "compare":
            return cmd_compare(cfg, args.clip, args.force)
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, corpus.ReviewParseError, corpus.EmbeddingFormatError,
            serialize.ContainerError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (textcnn.TrainingDivergedError, linalg.SolveError) as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return EXIT_TRAIN
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
