"""Command-line pipeline: ingest -> train -> evaluate / compare.

Experiments are driven by an INI config file; flags override file values.
Every INI key, a [model.<kind>] lambda included, is one entry of
load_config's (section, key) table, and values are read verbatim.  Outputs
land under <out>/{corpus,models,reports} and nothing is silently
overwritten without --force.  Exit codes: 0 success, 2 config error,
3 data error, 4 training failure.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields
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


def _as_list(raw: str) -> list[str]:
    return [x.strip() for x in raw.split(",") if x.strip()]


def _as_models(raw: str) -> list[str]:
    """Distinct model kinds in their canonical spelling, in the given order."""
    kinds = []
    for name in _as_list(raw):
        kind = factorize.canonical_model_kind(name)
        if kind in kinds:
            raise ValueError(f"model kind {kind!r} is listed twice")
        kinds.append(kind)
    if not kinds:
        raise ValueError("no model kind given")
    return kinds


def _as_bool(raw: str) -> bool:
    """configparser's boolean words, in any case; anything else is an error."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError("expected one of 1/yes/true/on or 0/no/false/off") from None


def _as_finite(raw: str) -> float:
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _setting(section: str, default, *, key: str | None = None, parse=None):
    """A RunConfig field set by `key` (the field's name if None) of [section] and
    read by `parse`, by default the parser of the default's type."""
    meta = {"section": section, "key": key,
            "parse": parse or {bool: _as_bool, float: _as_finite}.get(type(default), type(default))}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """One run's settings, each declared once with its INI section and default."""

    data_path: Path = _setting("data", Path("reviews.json"), key="path")
    first_n: int = _setting("data", 20000)
    base_seed: int = _setting("experiment", 42)
    test_fraction: float = _setting("experiment", 0.2)
    n_runs: int = _setting("experiment", 5)
    models: list[str] = _setting("experiment", ["PMF", "ConvMF", "BiConvMF"], parse=_as_models)
    max_vocab: int = _setting("corpus", corpus.DEFAULT_MAX_VOCAB)
    min_doc_freq: int = _setting("corpus", corpus.DEFAULT_MIN_DOC_FREQ)
    max_len: int = _setting("corpus", corpus.DEFAULT_MAX_LEN)
    embedding_dim: int = _setting("cnn", textcnn.CnnConfig.embedding_dim)
    window_sizes: tuple[int, ...] = _setting("cnn", textcnn.CnnConfig.window_sizes,
                                             parse=lambda raw: tuple(map(int, _as_list(raw))))
    n_filters: int = _setting("cnn", textcnn.CnnConfig.n_filters)
    dropout_rate: float = _setting("cnn", textcnn.CnnConfig.dropout_rate)
    learning_rate: float = _setting("cnn", textcnn.OptimizerConfig.learning_rate)
    epochs_per_outer: int = _setting("cnn", textcnn.OptimizerConfig.epochs)
    batch_size: int = _setting("cnn", textcnn.OptimizerConfig.batch_size)
    pretrained_path: Path | None = _setting("cnn", None, parse=Path)
    pretrained_trainable: bool = _setting("cnn", False)
    n_factors: int = _setting("factorization", factorize.Hyperparams.n_factors)
    outer_iters: int = _setting("factorization", factorize.Hyperparams.outer_iters)
    early_stop_rel_tol: float = _setting("factorization", factorize.Hyperparams.early_stop_rel_tol)
    early_stop_patience: int = _setting("factorization", factorize.Hyperparams.early_stop_patience)
    lambdas: dict = field(default_factory=lambda: {k: {} for k in factorize.MODEL_KINDS})  # kind -> {key: value}
    weight_decay: float = _setting("factorization", factorize.Hyperparams.weight_decay)
    out_dir: Path = _setting("output", Path("runs"), key="dir")

    def _shared(self, cls, **explicit):
        """cls built from the RunConfig fields it shares by name, and explicit."""
        shared = {f.name for f in fields(cls)} & {f.name for f in fields(RunConfig)}
        return cls(**{name: getattr(self, name) for name in shared}, **explicit)

    def hyper_for(self, kind: str) -> factorize.Hyperparams:
        """Hyperparameters of one canonical model kind."""
        return self._shared(factorize.Hyperparams, model_kind=kind, seed=self.base_seed,
                            **self.lambdas[kind])

    def cnn_config(self) -> textcnn.CnnConfig:
        return self._shared(textcnn.CnnConfig, output_dim=self.n_factors)

    def optimizer(self) -> textcnn.OptimizerConfig:
        return self._shared(textcnn.OptimizerConfig, epochs=self.epochs_per_outer)


LAMBDA_KEYS = ("lambda_user", "lambda_item")   # the keys of a [model.<kind>] section


def _as_lambda(raw: str) -> float:
    value = _as_finite(raw)
    if value <= 0:
        raise ValueError(f"must be > 0, got {value}")
    return value


def load_config(path) -> RunConfig:
    """Read an INI config; an unknown section or key is a ConfigError."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)   # values are read verbatim
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        sections = [(s, parser.items(s)) for s in parser.sections()]
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}] in {path}")

    cfg = RunConfig()
    settings = {(f.metadata["section"], f.metadata["key"] or f.name):
                (f.metadata["parse"], functools.partial(setattr, cfg, f.name))
                for f in fields(RunConfig) if f.metadata}
    settings.update({(f"model.{kind}", key): (_as_lambda, functools.partial(cfg.lambdas[kind].__setitem__, key))
                     for kind in factorize.MODEL_KINDS for key in LAMBDA_KEYS})
    for section, items in sections:
        if section not in {s for s, _ in settings}:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for key, raw in items:
            if (section, key) not in settings:
                raise ConfigError(f"unknown key '{key}' in [{section}] of {path}")
            if raw == "":   # configparser strips values; empty keeps the default
                continue
            parse, store = settings[section, key]
            try:
                store(parse(raw))
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r} ({exc})") from None

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


def _check_outputs(files: list[Path], force: bool):
    """Refuse, before any work, output files that cannot be written: one that
    exists without --force or is a directory, one whose temporary file (see
    serialize.temp_path) is a directory, and one whose directory cannot be
    made because a file stands at it or at one of its parents."""
    for path in files:
        if path.is_dir():
            raise ConfigError(f"{path} is a directory; cannot write an output file there")
        tmp = serialize.temp_path(path)
        if tmp.is_dir():
            raise ConfigError(f"{tmp} is a directory; cannot write {path} through it")
        if path.exists() and not force:
            raise ConfigError(f"{path} already exists; pass --force to overwrite")
        blocked = next((d for d in path.parents if d.exists()), None)
        if blocked is not None and not blocked.is_dir():
            raise ConfigError(f"{blocked} is not a directory; cannot write {path}")


def _make_dir(path: Path):
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror}") from None


def _require_file(path: Path, missing: str):
    """DataError `missing` when nothing is at path, or one naming why it cannot be read."""
    try:
        path.open("rb").close()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}" if path.exists() else missing) from None


def _load_bundle_or_fail(paths, splits) -> corpus.CorpusBundle:
    """The bundle, refused when one of the named splits ("train", "test") is empty."""
    _require_file(paths["bundle"],
                  f"corpus bundle not found at {paths['bundle']}; run `biconvmf ingest` first")
    bundle = corpus.load_bundle(paths["bundle"])
    for split in splits:
        if len(getattr(bundle, f"{split}_ratings")) == 0:
            raise DataError(f"{paths['bundle']} holds no {split} ratings")
    return bundle


def _training_setup(cfg: RunConfig, paths, kinds, splits) -> tuple[corpus.CorpusBundle, dict]:
    """The bundle, checked for these splits, and factorize.train's keywords for these kinds.

    BiConvMF+ without [cnn] pretrained_path is refused before the bundle is read.
    """
    plus = "BiConvMF+" in kinds
    if plus and cfg.pretrained_path is None:
        raise ConfigError("BiConvMF+ requires [cnn] pretrained_path in the config")
    bundle = _load_bundle_or_fail(paths, splits)
    options = {"cnn_config": cfg.cnn_config(), "optimizer": cfg.optimizer(),
               "pretrained_trainable": cfg.pretrained_trainable}
    if plus:
        _require_file(cfg.pretrained_path, f"pretrained embedding file not found: {cfg.pretrained_path}")
        options["pretrained_embedding"] = corpus.load_pretrained_embeddings(
            cfg.pretrained_path, bundle.vocab, cfg.embedding_dim, seed=cfg.base_seed)
    return bundle, options


def cmd_ingest(cfg: RunConfig, force: bool) -> int:
    paths = _paths(cfg)
    _check_outputs([paths["bundle"], paths["corpus"] / "stats.json"], force)
    _require_file(cfg.data_path, f"review file not found: {cfg.data_path}")
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
    _make_dir(paths["corpus"])
    corpus.save_bundle(bundle, paths["bundle"])
    stats_obj = {
        **asdict(stats), "n_train": len(train_idx), "n_test": len(test_idx),
        "vocab_size": len(bundle.vocab), "base_seed": cfg.base_seed,
    }
    serialize.write_text(paths["corpus"] / "stats.json", json.dumps(stats_obj, indent=2, sort_keys=True))
    print(f"users    {stats.n_users}")
    print(f"items    {stats.n_items}")
    print(f"ratings  {stats.n_ratings}")
    print(f"density  {stats.density_percent:.2f}%")
    print(f"train/test  {len(train_idx)}/{len(test_idx)}")
    print(f"vocabulary  {len(bundle.vocab)} tokens")
    print(f"bundle written to {paths['bundle']}")
    return EXIT_OK


def _checkpoint_path(paths, model_kind: str) -> Path:
    return paths["models"] / f"{model_kind}.ckpt"


def cmd_train(cfg: RunConfig, model_kind: str, force: bool) -> int:
    paths = _paths(cfg)
    kind = factorize.canonical_model_kind(model_kind)
    hyper = cfg.hyper_for(kind)
    ckpt = _checkpoint_path(paths, kind)
    loss_csv = paths["models"] / f"{kind}_loss.csv"
    _check_outputs([ckpt, loss_csv], force)
    _make_dir(paths["models"])
    bundle, options = _training_setup(cfg, paths, [kind], ["train"])
    t0 = time.perf_counter()
    model = factorize.train(bundle, hyper, verbose=True, **options)
    seconds = time.perf_counter() - t0
    factorize.save_model(model, ckpt)
    lines = ["iteration,loss_after_user_update,loss_after_item_update,loss\n"]
    lines += [f"{it},{lu:.10e},{li:.10e},{le:.10e}\n"
              for it, (lu, li, le) in enumerate(zip(model.log.losses_after_user,
                                                    model.log.losses_after_item,
                                                    model.log.losses), start=1)]
    serialize.write_text(loss_csv, "".join(lines))
    print(f"{kind}: {model.log.n_iterations()} outer iterations, "
          f"final loss {model.log.losses[-1]:.6e}, {seconds:.1f}s")
    print(f"checkpoint written to {ckpt}")
    return EXIT_OK


def cmd_evaluate(cfg: RunConfig, model_kind: str, clip: bool, force: bool) -> int:
    paths = _paths(cfg)
    kind = factorize.canonical_model_kind(model_kind)
    ckpt = _checkpoint_path(paths, kind)
    report = paths["reports"] / f"{kind}_eval.csv"
    _check_outputs([report], force)
    _make_dir(paths["reports"])
    _require_file(ckpt, f"checkpoint not found at {ckpt}; run `biconvmf train --model {kind}` first")
    bundle = _load_bundle_or_fail(paths, ["test"])
    model = factorize.load_model(ckpt)
    if model.model_kind != kind:
        raise DataError(f"{ckpt} holds a {model.model_kind} model, not {kind}; retrain it")
    if model.user_ids != bundle.user_ids or model.item_ids != bundle.item_ids:
        raise DataError(f"{ckpt} was trained on another corpus (its user or item ids differ "
                        f"from {paths['bundle']}); retrain it")
    if model.train_digest != bundle.train_digest():
        raise DataError(f"{ckpt} was trained on another split (its training triplets "
                        f"differ from {paths['bundle']}'s); retrain it")
    try:
        score, n_test = evaluate.evaluate_model(model, bundle, clip=clip)
    except factorize.NonFinitePredictionError as exc:
        raise DataError(f"{ckpt} cannot be scored: {exc}; retrain it") from None
    serialize.write_text(report, f"model,n_test,clip,rmse\n{kind},{n_test},{int(clip)},{score:.6f}\n")
    print(f"{kind}: test RMSE {score:.5f} over {n_test} ratings"
          + (" (clipped to [1, 5])" if clip else ""))
    return EXIT_OK


def cmd_compare(cfg: RunConfig, clip: bool, force: bool) -> int:
    paths = _paths(cfg)
    csv_path = paths["reports"] / "comparison.csv"
    plot_path = paths["reports"] / "comparison_plot.txt"
    _check_outputs([csv_path, plot_path], force)
    _make_dir(paths["reports"])
    bundle, options = _training_setup(cfg, paths, cfg.models, ["train", "test"])
    report = evaluate.run_experiment(
        bundle, [cfg.hyper_for(kind) for kind in cfg.models],
        n_runs=cfg.n_runs, base_seed=cfg.base_seed, clip=clip, verbose=True, **options,
    )
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

    def command(name, summary, run):
        """A subcommand whose handler, run(cfg, args), main calls (cmd_* are looked up per call)."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", help="output directory (overrides [output] dir)")
        p.add_argument("--seed", type=int, help="base seed (overrides [experiment] base_seed)")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")
        return p

    command("ingest", "parse reviews, split, and write the corpus bundle",
            lambda cfg, a: cmd_ingest(cfg, a.force))
    p = command("train", "train one model and write a checkpoint",
                lambda cfg, a: cmd_train(cfg, a.model, a.force))
    p.add_argument("--model", required=True, help="PMF | ConvMF | BiConvMF | BiConvMF+")
    p = command("evaluate", "score a trained checkpoint on the test split",
                lambda cfg, a: cmd_evaluate(cfg, a.model, a.clip, a.force))
    p.add_argument("--model", required=True)
    p.add_argument("--clip", action="store_true", help="clip predictions to [1, 5]")
    p = command("compare", "run the multi-model, multi-run comparison",
                lambda cfg, a: cmd_compare(cfg, a.clip, a.force))
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
        return args.run(cfg, args)
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
