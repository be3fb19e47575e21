import json
from pathlib import Path

import numpy as np
import pytest

from biconvmf import linalg, synthetic
from biconvmf.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_TRAIN, load_config, main


@pytest.fixture(scope="module")
def review_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "reviews.json"
    records = synthetic.synthetic_review_corpus(n_users=90, n_items=25, seed=13)
    synthetic.write_jsonl(records, path)
    return path


def write_config(tmp_path, review_file, out_dir, **extra):
    import configparser

    parser = configparser.ConfigParser()
    parser["data"] = {"path": str(review_file), "first_n": "500"}
    parser["experiment"] = {"base_seed": "11", "test_fraction": "0.2",
                            "n_runs": "2", "models": "PMF"}
    parser["corpus"] = {"max_vocab": "300", "max_len": "24"}
    parser["cnn"] = {"embedding_dim": "8", "window_sizes": "2,3", "n_filters": "4",
                     "epochs_per_outer": "1", "batch_size": "32"}
    parser["factorization"] = {"n_factors": "4", "outer_iters": "3"}
    parser["output"] = {"dir": str(out_dir)}
    for section, kv in extra.items():
        if section not in parser:
            parser[section] = {}
        for key, value in kv.items():
            parser[section][key] = str(value)
    path = tmp_path / "config.ini"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return path


def test_ingest_writes_bundle_and_stats(tmp_path, review_file, capsys):
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "users" in out and "density" in out
    assert (tmp_path / "out/corpus/bundle.bcmf").exists()
    stats = json.loads((tmp_path / "out/corpus/stats.json").read_text())
    assert stats["n_ratings"] > 0


def test_ingest_refuses_overwrite_without_force(tmp_path, review_file, capsys):
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert main(["ingest", "--config", str(cfg)]) == EXIT_CONFIG
    assert "--force" in capsys.readouterr().err
    assert main(["ingest", "--config", str(cfg), "--force"]) == EXIT_OK


def test_ingest_respects_first_n(tmp_path, review_file):
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    # shrink first_n below the corpus size
    text = cfg.read_text().replace("first_n = 500", "first_n = 50")
    cfg.write_text(text)
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    stats = json.loads((tmp_path / "out/corpus/stats.json").read_text())
    assert stats["n_ratings"] == 50


def test_train_missing_bundle_names_ingest(tmp_path, review_file, capsys):
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    code = main(["train", "--config", str(cfg), "--model", "PMF"])
    assert code == EXIT_DATA
    assert "ingest" in capsys.readouterr().err


def test_train_writes_checkpoint_and_finite_loss_csv(tmp_path, review_file):
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--model", "PMF"]) == EXIT_OK
    ckpt = tmp_path / "out/models/PMF.ckpt"
    loss_csv = tmp_path / "out/models/PMF_loss.csv"
    assert ckpt.exists()
    rows = loss_csv.read_text().strip().split("\n")[1:]
    vals = [float(x) for row in rows for x in row.split(",")[1:]]
    assert vals and all(np.isfinite(v) for v in vals)


def test_train_is_deterministic_across_reruns(tmp_path, review_file):
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--model", "BiConvMF"]) == EXIT_OK
    ckpt = tmp_path / "out/models/BiConvMF.ckpt"
    first = ckpt.read_bytes()
    assert main(["train", "--config", str(cfg), "--model", "BiConvMF", "--force"]) == EXIT_OK
    assert ckpt.read_bytes() == first


def test_biconvmf_plus_without_pretrained_is_config_error(tmp_path, review_file, capsys):
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    code = main(["train", "--config", str(cfg), "--model", "BiConvMF+"])
    assert code == EXIT_CONFIG
    assert "pretrained" in capsys.readouterr().err


def test_biconvmf_plus_trains_with_word_vector_file(tmp_path, review_file):
    from biconvmf import corpus, factorize
    out = tmp_path / "out"
    plain_cfg = write_config(tmp_path, review_file, out)
    assert main(["ingest", "--config", str(plain_cfg)]) == EXIT_OK
    # word vectors (with a header line) covering part of the vocabulary
    bundle = corpus.load_bundle(out / "corpus/bundle.bcmf")
    tokens = bundle.vocab.tokens[:10]
    rng = np.random.default_rng(4)
    vec_path = tmp_path / "vectors.txt"
    with open(vec_path, "w") as fh:
        fh.write(f"{len(tokens)} 8\n")
        for tok in tokens:
            fh.write(tok + " " + " ".join(f"{x:.4f}" for x in rng.normal(0, 0.2, 8)) + "\n")
    cfg = write_config(tmp_path, review_file, out,
                       **{"cnn": {"pretrained_path": vec_path}})
    assert main(["train", "--config", str(cfg), "--model", "BiConvMF+"]) == EXIT_OK
    model = factorize.load_model(out / "models/BiConvMF+.ckpt")
    assert model.model_kind == "BiConvMF+"
    assert model.cnn_user.embedding_trainable is False
    # the file's first token really landed in the embedding table
    first = np.loadtxt(str(vec_path), skiprows=1, usecols=range(1, 9), max_rows=1)
    np.testing.assert_allclose(model.cnn_user.embedding[bundle.vocab.lookup(tokens[0])],
                               first, atol=1e-4)


def test_evaluate_reports_rmse(tmp_path, review_file, capsys):
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--model", "PMF"]) == EXIT_OK
    assert main(["evaluate", "--config", str(cfg), "--model", "PMF"]) == EXIT_OK
    assert "RMSE" in capsys.readouterr().out
    report = (tmp_path / "out/reports/PMF_eval.csv").read_text()
    assert report.startswith("model,n_test,clip,rmse")


def test_evaluate_refuses_checkpoint_from_another_split(tmp_path, review_file, capsys):
    # same records under a new split seed: the ids match, the training counts do not
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--model", "PMF"]) == EXIT_OK
    assert main(["ingest", "--config", str(cfg), "--seed", "12", "--force"]) == EXIT_OK
    assert main(["evaluate", "--config", str(cfg), "--model", "PMF"]) == EXIT_DATA
    assert "another split" in capsys.readouterr().err
    assert not (tmp_path / "out/reports/PMF_eval.csv").exists()


def test_evaluate_refuses_checkpoint_from_another_corpus(tmp_path, review_file, capsys):
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--model", "PMF"]) == EXIT_OK
    larger = tmp_path / "larger.json"
    synthetic.write_jsonl(synthetic.synthetic_review_corpus(n_users=150, n_items=40, seed=13), larger)
    cfg = write_config(tmp_path, larger, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg), "--force"]) == EXIT_OK
    assert main(["evaluate", "--config", str(cfg), "--model", "PMF"]) == EXIT_DATA
    assert "another corpus" in capsys.readouterr().err
    assert not (tmp_path / "out/reports/PMF_eval.csv").exists()


def test_compare_writes_reports(tmp_path, review_file, capsys):
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert main(["compare", "--config", str(cfg)]) == EXIT_OK
    csv_text = (tmp_path / "out/reports/comparison.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "model,run,rmse,seconds"
    assert len(lines) == 4  # 2 runs + 1 mean row
    plot = (tmp_path / "out/reports/comparison_plot.txt").read_text()
    assert plot.splitlines()[0] == "run PMF"
    assert "mean" in capsys.readouterr().out


@pytest.mark.parametrize("bad_file, message", [
    ("vector value", "bad vector value at line 2"),
    ("vector bytes", "line 3 is not valid UTF-8"),
    ("review bytes", "line 3: not valid UTF-8"),
], ids=["vector-value", "vector-bytes", "review-bytes"])
def test_malformed_data_file_is_data_error(tmp_path, review_file, capsys, bad_file, message):
    from biconvmf import corpus
    out = tmp_path / "out"
    if bad_file == "review bytes":
        lines = review_file.read_bytes().splitlines(keepends=True)
        bad_reviews = tmp_path / "reviews.json"
        bad_reviews.write_bytes(b"".join(lines[:2]) + b'{"reviewerID": "\xff"}\n' + b"".join(lines[2:]))
        argv = ["ingest", "--config", str(write_config(tmp_path, bad_reviews, out))]
    else:
        assert main(["ingest", "--config", str(write_config(tmp_path, review_file, out))]) == EXIT_OK
        token = corpus.load_bundle(out / "corpus/bundle.bcmf").vocab.tokens[0].encode()
        good = token + b" 0.1" * 8 + b"\n"
        bad = {"vector value": token + b" x" + b" 0.1" * 7 + b"\n",
               "vector bytes": good + b"\xff" + b" 0.1" * 8 + b"\n"}[bad_file]
        vec_path = tmp_path / "vectors.txt"
        vec_path.write_bytes(b"2 8\n" + bad)
        cfg = write_config(tmp_path, review_file, out, **{"cnn": {"pretrained_path": vec_path}})
        argv = ["train", "--config", str(cfg), "--model", "BiConvMF+"]
    assert main(argv) == EXIT_DATA
    assert message in capsys.readouterr().err


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "config.ini"
    cfg.write_bytes(b"[data]\nfirst_n = 5\n[\xff]\n")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_missing_config_is_config_error(tmp_path, capsys):
    code = main(["ingest", "--config", str(tmp_path / "nope.ini")])
    assert code == EXIT_CONFIG
    assert "config" in capsys.readouterr().err.lower()


def test_missing_data_file_is_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path, tmp_path / "missing.json", tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_DATA
    assert "review file" in capsys.readouterr().err


def test_unknown_model_rejected(tmp_path, review_file, capsys):
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--model", "SVD"]) == EXIT_CONFIG
    assert "unknown model" in capsys.readouterr().err


def test_seed_flag_overrides_config(tmp_path, review_file):
    cfg = write_config(tmp_path, review_file, tmp_path / "outA")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--model", "PMF"]) == EXIT_OK
    cfgB = write_config(tmp_path, review_file, tmp_path / "outB")
    assert main(["ingest", "--config", str(cfgB), "--seed", "999"]) == EXIT_OK
    assert main(["train", "--config", str(cfgB), "--model", "PMF", "--seed", "999"]) == EXIT_OK
    a = (tmp_path / "outA/models/PMF.ckpt").read_bytes()
    b = (tmp_path / "outB/models/PMF.ckpt").read_bytes()
    assert a != b  # different seed, different split and init


def test_training_failure_exit_code(tmp_path, review_file, monkeypatch, capsys):
    from biconvmf import cli, textcnn
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK

    def explode(*args, **kwargs):
        raise textcnn.TrainingDivergedError("non-finite joint loss at outer iteration 1")

    monkeypatch.setattr(cli.factorize, "train", explode)
    code = main(["train", "--config", str(cfg), "--model", "PMF"])
    assert code == cli.EXIT_TRAIN
    assert "training failed" in capsys.readouterr().err


def test_compare_exits_nonzero_only_when_all_runs_fail(tmp_path, review_file, monkeypatch):
    from biconvmf import cli, textcnn
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK

    def explode(*args, **kwargs):
        raise textcnn.TrainingDivergedError("boom")

    monkeypatch.setattr(cli.evaluate.factorize, "train", explode)
    code = main(["compare", "--config", str(cfg)])
    assert code == cli.EXIT_TRAIN
    csv_text = (tmp_path / "out/reports/comparison.csv").read_text()
    assert "nan" in csv_text  # the failed cells are still reported


def test_model_lambda_overrides_apply(tmp_path, review_file):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, review_file, out,
                       **{"model.PMF": {"lambda_user": 7.5, "lambda_item": 9.5}})
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--model", "PMF"]) == EXIT_OK
    from biconvmf import factorize
    model = factorize.load_model(out / "models/PMF.ckpt")
    assert model.hyper.lambda_user == 7.5
    assert model.hyper.lambda_item == 9.5


@pytest.mark.parametrize("error", [linalg.SingularMatrixError(3),
                                   linalg.SolveError("non-finite entries in linear system")])
def test_solver_failure_is_training_failure(tmp_path, review_file, monkeypatch, capsys, error):
    from biconvmf import cli
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK

    def explode(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli.factorize, "train", explode)
    assert main(["train", "--config", str(cfg), "--model", "PMF"]) == EXIT_TRAIN
    assert "training failed" in capsys.readouterr().err
    assert main(["compare", "--config", str(cfg)]) == EXIT_TRAIN


@pytest.mark.parametrize("extra, name", [
    ({"factorization": {"n_factor": 40}}, "n_factor"),
    ({"model.PMF": {"lambda_usr": 2}}, "lambda_usr"),
    ({"model.SVD": {"lambda_user": 2}}, "model.SVD"),
    ({"trainer": {"epochs": 2}}, "trainer"),
])
def test_unknown_config_entry_is_config_error(tmp_path, review_file, capsys, extra, name):
    cfg = write_config(tmp_path, review_file, tmp_path / "out", **extra)
    assert main(["ingest", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert name in err and "unknown" in err


def test_shipped_configs_load():
    root = Path(__file__).resolve().parents[1] / "configs"
    desk = load_config(root / "synthetic.ini")
    assert desk.window_sizes == (2, 3) and desk.n_factors == 12 and desk.n_runs == 3
    movies = load_config(root / "movies_tv.ini")
    assert movies.pretrained_path is None and movies.max_len == 128
    assert movies.models == ["PMF", "ConvMF", "BiConvMF"]


def test_evaluate_refuses_checkpoint_missing_meta_key(tmp_path, review_file, capsys):
    from biconvmf import factorize, serialize
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--model", "PMF"]) == EXIT_OK
    ckpt = tmp_path / "out/models/PMF.ckpt"
    _, sections = serialize.read_container(ckpt, factorize.MODEL_MAGIC, (1,))
    meta = json.loads(sections["meta"])
    del meta["log"]
    sections["meta"] = serialize.json_to_bytes(meta)
    serialize.write_container(ckpt, factorize.MODEL_MAGIC, 1, sections)
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg), "--model", "PMF"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "missing meta key 'log'" in err and "Traceback" not in err


def test_zero_patience_is_config_error(tmp_path, review_file, capsys):
    cfg = write_config(tmp_path, review_file, tmp_path / "out",
                       factorization={"early_stop_patience": 0})
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--model", "PMF"]) == EXIT_CONFIG
    assert "early_stop_patience must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out/models/PMF.ckpt").exists()


@pytest.mark.parametrize("raw, value", [("1", True), ("Yes", True), ("TRUE", True), ("on", True),
                                        ("0", False), ("no", False), ("False", False), ("OFF", False)])
def test_pretrained_trainable_accepts_boolean_words(tmp_path, review_file, raw, value):
    cfg = write_config(tmp_path, review_file, tmp_path / "out", cnn={"pretrained_trainable": raw})
    assert load_config(cfg).pretrained_trainable is value


@pytest.mark.parametrize("raw", ["ture", "2", "y", "enabled"])
def test_pretrained_trainable_rejects_other_words(tmp_path, review_file, capsys, raw):
    cfg = write_config(tmp_path, review_file, tmp_path / "out", cnn={"pretrained_trainable": raw})
    assert main(["ingest", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "pretrained_trainable" in err and repr(raw) in err


@pytest.mark.parametrize("key, raw, name", [
    ("batch_size", "0", "batch_size"), ("batch_size", "-5", "batch_size"),
    ("epochs_per_outer", "0", "epochs"), ("epochs_per_outer", "-1", "epochs"),
    ("learning_rate", "0", "learning_rate"), ("learning_rate", "-0.01", "learning_rate"),
])
def test_bad_cnn_optimizer_setting_is_config_error(tmp_path, review_file, capsys, key, raw, name):
    cfg = write_config(tmp_path, review_file, tmp_path / "out", cnn={key: raw})
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    for argv in (["train", "--model", "ConvMF"], ["compare"]):
        assert main([*argv, "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{name} must be" in err and "Traceback" not in err
    assert not (tmp_path / "out/models/ConvMF.ckpt").exists()
    assert not (tmp_path / "out/reports/comparison.csv").exists()


@pytest.mark.parametrize("argv, report", [
    (["ingest"], "corpus/stats.json"),
    (["train", "--model", "PMF"], "models/PMF_loss.csv"),
    (["evaluate", "--model", "PMF"], "reports/PMF_eval.csv"),
    (["compare"], "reports/comparison.csv"),
    (["compare"], "reports/comparison_plot.txt"),
])
def test_failed_report_write_keeps_old_report(tmp_path, review_file, monkeypatch, argv, report):
    import builtins

    from biconvmf import serialize
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    for command in (["ingest"], ["train", "--model", "PMF"], ["evaluate", "--model", "PMF"], ["compare"]):
        assert main([*command, "--config", str(cfg)]) == EXIT_OK
    path = tmp_path / "out" / report
    before = path.read_bytes()

    class FailingFile:
        """Opens the real file, then fails part-way through the first write."""

        def __init__(self, name, mode):
            self.fh = builtins.open(name, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:10])
            raise OSError("disk full")

    def failing_open(name, mode="r", *args, **kwargs):
        if Path(name) == Path(f"{path}.tmp"):
            return FailingFile(name, mode)
        return builtins.open(name, mode, *args, **kwargs)

    monkeypatch.setattr(serialize, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        main([*argv, "--config", str(cfg), "--force"])
    assert path.read_bytes() == before
    assert not Path(f"{path}.tmp").exists()
