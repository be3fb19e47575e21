import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from biconvmf import linalg, synthetic
from biconvmf.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_TRAIN, load_config, main

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_ingest_refuses_a_split_with_no_test_ratings(tmp_path, review_file, capsys):
    cfg = write_config(tmp_path, review_file, tmp_path / "out", data={"first_n": "2"})
    assert main(["ingest", "--config", str(cfg)]) == EXIT_CONFIG
    assert "no test data (n=2, test_fraction=0.2)" in capsys.readouterr().err
    assert not (tmp_path / "out/corpus").exists()


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
    tokens = bundle.vocab[:10]
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
    np.testing.assert_allclose(model.cnn_user.embedding[bundle.vocab.index(tokens[0]) + 1],
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


def test_evaluate_refuses_a_resplit_that_keeps_every_training_count(tmp_path, review_file, capsys):
    # swap the items of two training ratings: every user and every item keeps
    # its training count, but the split is not the one the model saw
    from biconvmf import corpus
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--model", "PMF"]) == EXIT_OK
    path = tmp_path / "out/corpus/bundle.bcmf"
    bundle = corpus.load_bundle(path)
    users, items = bundle.train_user_idx, bundle.train_item_idx
    j = int(np.flatnonzero((users != users[0]) & (items != items[0]))[0])
    items[[0, j]] = items[[j, 0]]
    corpus.save_bundle(bundle, path)
    assert main(["evaluate", "--config", str(cfg), "--model", "PMF"]) == EXIT_DATA
    assert "another split" in capsys.readouterr().err
    assert not (tmp_path / "out/reports/PMF_eval.csv").exists()


def test_evaluate_refuses_checkpoint_of_another_model_kind(tmp_path, review_file, capsys):
    import shutil
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--model", "PMF"]) == EXIT_OK
    shutil.copy(tmp_path / "out/models/PMF.ckpt", tmp_path / "out/models/BiConvMF.ckpt")
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg), "--model", "BiConvMF"]) == EXIT_DATA
    assert "PMF model, not BiConvMF" in capsys.readouterr().err
    assert not (tmp_path / "out/reports/BiConvMF_eval.csv").exists()


@pytest.mark.parametrize("split, argv", [
    ("train", ["train", "--model", "PMF", "--force"]),
    ("test", ["evaluate", "--model", "PMF"]),
    ("train", ["compare"]),
    ("test", ["compare"]),
])
def test_bundle_with_an_empty_split_is_data_error(tmp_path, review_file, capsys, split, argv):
    from dataclasses import replace
    from biconvmf import corpus
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--model", "PMF"]) == EXIT_OK
    path = tmp_path / "out/corpus/bundle.bcmf"
    bundle = corpus.load_bundle(path)
    empty = {f"{split}_{name}": getattr(bundle, f"{split}_{name}")[:0]
             for name in ("user_idx", "item_idx", "ratings")}
    corpus.save_bundle(replace(bundle, **empty), path)
    capsys.readouterr()
    assert main([argv[0], "--config", str(cfg), *argv[1:]]) == EXIT_DATA
    assert f"holds no {split} ratings" in capsys.readouterr().err


def test_version_1_checkpoint_is_refused(tmp_path, review_file, capsys):
    # a version-1 checkpoint records no training digest, so no split check
    # could pass it; a version-2 one stores model_kind and global_mean beside
    # hyper and item_means, and two weight decays: both are refused, to be retrained
    from biconvmf import factorize, serialize
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--model", "PMF"]) == EXIT_OK
    ckpt = tmp_path / "out/models/PMF.ckpt"
    _, sections = serialize.read_container(ckpt, factorize.MODEL_MAGIC, (factorize.MODEL_VERSION,))
    for version in (1, 2):
        serialize.write_container(ckpt, factorize.MODEL_MAGIC, version, sections)
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg), "--model", "PMF"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"unsupported container version {version}" in err and "Traceback" not in err
        assert not (tmp_path / "out/reports/PMF_eval.csv").exists()


def _with_padded_documents(sections):
    """A bundle's sections as format 2 laid them out: each side's documents as
    one (n, max_len) matrix, right-padded with 0, in place of its tokens."""
    from biconvmf import serialize
    meta = serialize.json_from_bytes(sections["meta"], "meta")
    out = {}
    for name, payload in sections.items():
        side = name.removesuffix("_tokens")
        if side == name:
            out[name] = payload
            continue
        tokens = serialize.array_from_bytes(payload, name)
        lens = serialize.array_from_bytes(sections[f"{side}_doc_lens"], f"{side}_doc_lens")
        docs = np.zeros((len(lens), meta["max_len"]), np.int32)
        docs[np.arange(meta["max_len"]) < lens[:, None]] = tokens
        out[f"{side}_docs"] = serialize.array_payload(docs)
    return out


def _in_previous_layout(sections, moved):
    """Sections as bundle format 1 and checkpoint format 3 laid them out: the
    moved meta keys as JSON sections of their own, right after meta."""
    from biconvmf import serialize
    meta = serialize.json_from_bytes(sections["meta"], "meta")
    json_sections = {name: serialize.json_to_bytes(meta.pop(name)) for name in moved}
    rest = {name: payload for name, payload in sections.items() if name != "meta"}
    return {"meta": serialize.json_to_bytes(meta), **json_sections, **rest}


def test_previous_format_bundle_and_checkpoint_are_refused(tmp_path, review_file, capsys):
    from biconvmf import corpus, factorize, serialize
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--model", "PMF"]) == EXIT_OK
    ckpt, bundle = tmp_path / "out/models/PMF.ckpt", tmp_path / "out/corpus/bundle.bcmf"

    def refused(argv, version):
        capsys.readouterr()
        assert main([*argv, "--config", str(cfg)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"unsupported container version {version}" in err and "Traceback" not in err

    _, sections = serialize.read_container(ckpt, factorize.MODEL_MAGIC, (factorize.MODEL_VERSION,))
    sections = _in_previous_layout(sections, ["user_ids", "item_ids"])
    meta = serialize.json_from_bytes(sections["meta"], "meta")
    meta["log"]["stopped_early"] = False
    sections["meta"] = serialize.json_to_bytes(meta)
    serialize.write_container(ckpt, factorize.MODEL_MAGIC, 3, sections)
    refused(["evaluate", "--model", "PMF"], 3)
    assert not (tmp_path / "out/reports/PMF_eval.csv").exists()

    _, sections = serialize.read_container(bundle, corpus.BUNDLE_MAGIC, (corpus.BUNDLE_VERSION,))
    sections = _with_padded_documents(sections)
    assert list(sections)[1:5] == ["user_docs", "user_doc_lens", "item_docs", "item_doc_lens"]
    serialize.write_container(bundle, corpus.BUNDLE_MAGIC, 2, sections)
    refused(["train", "--model", "PMF", "--force"], 2)

    sections = _in_previous_layout(sections, ["vocab", "user_ids", "item_ids"])
    serialize.write_container(bundle, corpus.BUNDLE_MAGIC, 1, sections)
    refused(["train", "--model", "PMF", "--force"], 1)


@pytest.mark.parametrize("key, value, kind", [
    ("user_ids", lambda ids: "u" * len(ids), "str"),
    ("user_ids", lambda ids: list(range(len(ids))), "str"),
    ("vocab", lambda vocab: [7] * len(vocab), "str"),
    ("user_ids", lambda ids: dict.fromkeys(ids, 1), "str"),
], ids=["string", "integers", "numbers", "object"])
def test_meta_list_of_other_values_is_data_error(tmp_path, review_file, capsys, key, value, kind):
    # each of these has as many entries as the list it replaces
    from biconvmf import corpus, serialize
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    path = tmp_path / "out/corpus/bundle.bcmf"
    _, sections = serialize.read_container(path, corpus.BUNDLE_MAGIC, (corpus.BUNDLE_VERSION,))
    meta = serialize.json_from_bytes(sections["meta"], "meta")
    meta[key] = value(meta[key])
    sections["meta"] = serialize.json_to_bytes(meta)
    serialize.write_container(path, corpus.BUNDLE_MAGIC, corpus.BUNDLE_VERSION, sections)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--model", "PMF"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"invalid value for '{key}': not a JSON list of {kind}" in err and "Traceback" not in err
    assert not (tmp_path / "out/models/PMF.ckpt").exists()


@pytest.mark.parametrize("clip", [[], ["--clip"]], ids=["raw", "clipped"])
def test_overflowing_checkpoint_is_data_error_naming_it(tmp_path, review_file, capsys, clip):
    # finite factors whose dot products overflow: clipping must not hide the infinities
    from biconvmf import factorize
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--model", "PMF"]) == EXIT_OK
    ckpt = tmp_path / "out/models/PMF.ckpt"
    model = factorize.load_model(ckpt)
    model.user_factors[:] = 1e200
    model.item_factors[:] = 1e200
    factorize.save_model(model, ckpt)
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg), "--model", "PMF", *clip]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{ckpt} cannot be scored" in err and "is not finite" in err and "Traceback" not in err
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
        token = corpus.load_bundle(out / "corpus/bundle.bcmf").vocab[0].encode()
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
    err = capsys.readouterr().err
    assert "config error" in err and str(cfg) in err


def test_missing_config_is_config_error(tmp_path, capsys):
    code = main(["ingest", "--config", str(tmp_path / "nope.ini")])
    assert code == EXIT_CONFIG
    assert "config" in capsys.readouterr().err.lower()


def test_missing_data_file_is_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path, tmp_path / "missing.json", tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_DATA
    assert "review file" in capsys.readouterr().err


@pytest.mark.parametrize("overall, message", [
    ("1" + "0" * 400, "line 2: rating inf outside [1, 5]"),
    ("1" + "0" * 4400, "line 2: invalid JSON (Exceeds the limit (4300 digits)"),
], ids=["past-float-range", "past-digit-limit"])
def test_huge_integer_rating_is_data_error_naming_its_line(tmp_path, capsys, overall, message):
    reviews = tmp_path / "reviews.json"
    reviews.write_text('{"reviewerID": "A", "asin": "B", "overall": 4}\n'
                       '{"reviewerID": "A", "asin": "C", "overall": %s}\n' % overall, encoding="utf-8")
    assert main(["ingest", "--config", str(write_config(tmp_path, reviews, tmp_path / "out"))]) == EXIT_DATA
    assert f"data error: {message}" in capsys.readouterr().err


def test_ingest_is_byte_identical_across_hash_seeds(tmp_path, review_file):
    bundles = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"out{hash_seed}"
        cfg = write_config(tmp_path, review_file, out)
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        subprocess.run([sys.executable, "-c", "import sys; from biconvmf.cli import main; sys.exit(main())",
                        "ingest", "--config", str(cfg)],
                       env=env, capture_output=True, check=True, timeout=120)
        bundles.append((out / "corpus/bundle.bcmf").read_bytes())
    assert bundles[0] == bundles[1]


def test_unknown_model_rejected(tmp_path, review_file, capsys):
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--model", "SVD"]) == EXIT_CONFIG
    assert "unknown model" in capsys.readouterr().err


def test_duplicate_model_kind_is_config_error(tmp_path, review_file, capsys):
    cfg = write_config(tmp_path, review_file, tmp_path / "out",
                       experiment={"models": "PMF, ConvMF, pmf"})
    assert main(["ingest", "--config", str(cfg)]) == EXIT_CONFIG
    assert "'PMF' is listed twice" in capsys.readouterr().err


def test_model_list_without_a_kind_is_config_error(tmp_path, review_file, capsys):
    cfg = write_config(tmp_path, review_file, tmp_path / "out", experiment={"models": " , "})
    assert main(["compare", "--config", str(cfg)]) == EXIT_CONFIG
    assert "no model kind given" in capsys.readouterr().err


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


@pytest.mark.parametrize("error", [linalg.SolveError("matrix is not positive definite"),
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


def test_every_config_key_reaches_the_object_that_consumes_it(tmp_path, review_file):
    from dataclasses import fields

    from biconvmf import cli, factorize, textcnn
    cnn = {"embedding_dim": 9, "window_sizes": (2, 4), "n_filters": 7, "dropout_rate": 0.3,
           "learning_rate": 0.02, "epochs_per_outer": 6, "batch_size": 17,
           "pretrained_path": Path("vectors.txt"), "pretrained_trainable": True}
    fact = {"n_factors": 6, "outer_iters": 8, "early_stop_rel_tol": 0.003,
            "early_stop_patience": 5, "weight_decay": 0.002}
    lambdas = {kind: {"lambda_user": 2.5 + i, "lambda_item": 7.5 + i}
               for i, kind in enumerate(factorize.MODEL_KINDS)}
    declared = {f.name: f.metadata["section"] for f in fields(cli.RunConfig) if f.metadata}
    assert {name for name, section in declared.items() if section in ("cnn", "factorization")} \
        == set(cnn) | set(fact)
    path = write_config(tmp_path, review_file, tmp_path / "out",
                        cnn={k: ",".join(map(str, v)) if k == "window_sizes" else v for k, v in cnn.items()},
                        factorization=fact, **{f"model.{kind}": lam for kind, lam in lambdas.items()})
    cfg, defaults = load_config(path), cli.RunConfig()
    for name, value in {**cnn, **fact}.items():   # each set to a value other than its default
        assert getattr(cfg, name) == value and value != getattr(defaults, name), name

    assert cfg.cnn_config() == textcnn.CnnConfig(max_len=24, embedding_dim=9, output_dim=6,
                                                 window_sizes=(2, 4), n_filters=7, dropout_rate=0.3)
    assert cfg.optimizer() == textcnn.OptimizerConfig(learning_rate=0.02, epochs=6, batch_size=17)
    for kind in factorize.MODEL_KINDS:
        assert lambdas[kind] != dict(zip(cli.LAMBDA_KEYS, factorize.DEFAULT_LAMBDAS[kind]))
        assert cfg.hyper_for(kind) == factorize.Hyperparams(
            model_kind=kind, n_factors=6, **lambdas[kind], weight_decay=0.002, outer_iters=8,
            early_stop_rel_tol=0.003, early_stop_patience=5, seed=11)


def test_percent_in_config_value_is_read_verbatim(tmp_path, review_file):
    data = tmp_path / "50%_sample.json"
    data.write_bytes(review_file.read_bytes())
    out = tmp_path / "runs/100%"
    # written by hand: a default ConfigParser refuses to store a lone '%'
    path = tmp_path / "config.ini"
    path.write_text(f"[data]\npath = {data}\nfirst_n = 500\n\n[output]\ndir = {out}\n", encoding="utf-8")
    cfg = load_config(path)
    assert (cfg.data_path, cfg.out_dir) == (data, out)
    assert main(["ingest", "--config", str(path)]) == EXIT_OK
    assert (out / "corpus/bundle.bcmf").exists()


def test_shipped_configs_load():
    root = Path(__file__).resolve().parents[1] / "configs"
    desk = load_config(root / "synthetic.ini")
    assert desk.window_sizes == (2, 3) and desk.n_factors == 12 and desk.n_runs == 3
    movies = load_config(root / "movies_tv.ini")
    assert movies.pretrained_path is None and movies.max_len == 128
    assert movies.models == ["PMF", "ConvMF", "BiConvMF"]


@pytest.mark.parametrize("artifact, key, value", [
    ("model", "hyper.seed", "abc"), ("model", "hyper.n_factors", 4.0),
    ("model", "hyper.outer_iters", True), ("model", "log.loss_initial", "x"),
    ("model", "log.losses", ["a", "b"]),
    ("bundle", "split_seed", "x"), ("bundle", "test_fraction", "x"),
    ("bundle", "stats.n_users", "x"), ("bundle", "stats.density", [1]),
], ids=["hyper.seed", "hyper.n_factors", "hyper.outer_iters", "log.loss_initial", "log.losses",
        "split_seed", "test_fraction", "stats.n_users", "stats.density"])
def test_meta_value_of_another_json_type_is_data_error(tmp_path, review_file, capsys, artifact, key, value):
    # a bool is not an int, and a float that happens to be whole is not one either
    from biconvmf import corpus, factorize, serialize
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    if artifact == "model":
        assert main(["train", "--config", str(cfg), "--model", "PMF"]) == EXIT_OK
        path, magic, version = tmp_path / "out/models/PMF.ckpt", factorize.MODEL_MAGIC, factorize.MODEL_VERSION
        command = "evaluate"
    else:
        path, magic, version = tmp_path / "out/corpus/bundle.bcmf", corpus.BUNDLE_MAGIC, corpus.BUNDLE_VERSION
        command = "train"
    _, sections = serialize.read_container(path, magic, (version,))
    meta = serialize.json_from_bytes(sections["meta"], "meta")
    *outer, last = key.split(".")
    node = meta
    for name in outer:
        node = node[name]
    node[last] = value
    sections["meta"] = serialize.json_to_bytes(meta)
    serialize.write_container(path, magic, version, sections)
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--model", "PMF"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"invalid value for '{key}': not a JSON" in err and "Traceback" not in err


def test_evaluate_refuses_checkpoint_missing_meta_key(tmp_path, review_file, capsys):
    from biconvmf import factorize, serialize
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--model", "PMF"]) == EXIT_OK
    ckpt = tmp_path / "out/models/PMF.ckpt"
    _, sections = serialize.read_container(ckpt, factorize.MODEL_MAGIC, (factorize.MODEL_VERSION,))
    meta = serialize.json_from_bytes(sections["meta"], "meta")
    del meta["log"]
    sections["meta"] = serialize.json_to_bytes(meta)
    serialize.write_container(ckpt, factorize.MODEL_MAGIC, factorize.MODEL_VERSION, sections)
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


def test_negative_stop_tolerance_is_config_error_before_any_work(tmp_path, review_file, capsys,
                                                                monkeypatch):
    from biconvmf import factorize
    cfg = write_config(tmp_path, review_file, tmp_path / "out",
                       factorization={"early_stop_rel_tol": -1})
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    trained = []
    monkeypatch.setattr(factorize, "train", lambda *args, **kwargs: trained.append(args))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--model", "PMF"]) == EXIT_CONFIG
    assert "early_stop_rel_tol must be >= 0, got -1.0" in capsys.readouterr().err
    assert trained == [] and not (tmp_path / "out/models").exists()


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



def _with(arr, index, value):
    """A copy of arr with arr[index] set to value."""
    arr = arr.copy()
    arr[index] = value
    return arr


@pytest.mark.parametrize("kind, section, edit, argv, message", [
    ("bundle", "user_tokens", lambda a, b: _with(a, 0, len(b.vocab) + 1),
     ["train", "--model", "BiConvMF"], "user_tokens has an entry outside [1, "),
    ("bundle", "item_tokens", lambda a, b: _with(a, -1, 0),
     ["train", "--model", "PMF"], "item_tokens has an entry outside [1, "),
    ("bundle", "user_doc_lens", lambda a, b: _with(a, 0, b.max_len + 1),
     ["train", "--model", "BiConvMF"], "user_doc_lens has an entry outside [0, 24]"),
    ("bundle", "item_tokens", lambda a, b: a[:-1],
     ["train", "--model", "BiConvMF"], "item_doc_lens sum to "),
    ("bundle", "user_tokens", lambda a, b: np.append(a, a[:1]),
     ["train", "--model", "PMF"], "user_doc_lens sum to "),
    ("bundle", "train_user_idx", lambda a, b: _with(a, 0, b.n_users),
     ["train", "--model", "PMF"], "train_user_idx has an entry outside"),
    ("bundle", "test_item_idx", lambda a, b: _with(a, -1, b.n_items),
     ["compare"], "test_item_idx has an entry outside"),
    ("bundle", "train_ratings", lambda a, b: _with(a, 0, np.nan),
     ["train", "--model", "PMF"], "train_ratings has a non-finite entry"),
    ("model", "user_factors", lambda a, b: a[:, :3],
     ["evaluate", "--model", "PMF"], "user_factors has shape"),
    ("model", "user_factors", lambda a, b: a * np.nan,
     ["evaluate", "--model", "PMF"], "user_factors has a non-finite entry"),
], ids=["token-past-vocab", "token-zero", "length-past-max-len", "narrow-docs",
        "tokens-past-lengths", "train-user-out-of-range",
        "test-item-out-of-range", "nan-rating", "factor-columns", "nan-factors"])
def test_corrupt_array_section_is_data_error(tmp_path, review_file, capsys,
                                             kind, section, edit, argv, message):
    from biconvmf import corpus, factorize, serialize
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--model", "PMF"]) == EXIT_OK
    bundle = corpus.load_bundle(tmp_path / "out/corpus/bundle.bcmf")
    path, magic, version = {
        "bundle": (tmp_path / "out/corpus/bundle.bcmf", corpus.BUNDLE_MAGIC, corpus.BUNDLE_VERSION),
        "model": (tmp_path / "out/models/PMF.ckpt", factorize.MODEL_MAGIC, factorize.MODEL_VERSION),
    }[kind]
    _, sections = serialize.read_container(path, magic, (version,))
    arr = serialize.array_from_bytes(sections[section], section)
    sections[section] = serialize.array_payload(edit(arr, bundle))
    serialize.write_container(path, magic, version, sections)
    capsys.readouterr()
    assert main([*argv, "--config", str(cfg), "--force"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("target", ["bundle", "checkpoint", "nested-cnn"])
def test_section_name_that_is_not_utf8_is_data_error(tmp_path, review_file, capsys, target):
    from biconvmf import factorize, serialize
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--model", "ConvMF"]) == EXIT_OK
    bundle, ckpt = tmp_path / "out/corpus/bundle.bcmf", tmp_path / "out/models/ConvMF.ckpt"

    def flip_meta_name(blob: bytes) -> bytes:
        # 8 magic, 8 version and count and 2 name-length bytes precede the
        # first section's name, 'meta'; bit 7 of its first byte breaks UTF-8
        blob = bytearray(blob)
        blob[18] ^= 0x80
        return bytes(blob)

    if target == "nested-cnn":
        magic, version = factorize.MODEL_MAGIC, factorize.MODEL_VERSION
        _, sections = serialize.read_container(ckpt, magic, (version,))
        sections["cnn_item"] = flip_meta_name(sections["cnn_item"])
        serialize.write_container(ckpt, magic, version, sections)
    else:
        path = bundle if target == "bundle" else ckpt
        path.write_bytes(flip_meta_name(path.read_bytes()))
    argv = ["train", "--model", "PMF"] if target == "bundle" else ["evaluate", "--model", "ConvMF"]
    capsys.readouterr()
    assert main([*argv, "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    where = "section 'cnn_item': " if target == "nested-cnn" else ""
    assert f"{where}bad section 0 header: name is not valid UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("damage, message", [
    ("trailing-bytes", "7 unexpected bytes after the last section"),
    ("repeated-section", "repeated section name 'meta'"),
])
def test_malformed_bundle_container_is_data_error(tmp_path, review_file, capsys, damage, message):
    import struct

    from biconvmf import corpus, serialize
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    path = tmp_path / "out/corpus/bundle.bcmf"
    blob = bytearray(path.read_bytes())
    if damage == "trailing-bytes":
        blob += b"garbage"
    else:   # one more section, a second 'meta'
        _, sections = serialize.read_container(path, corpus.BUNDLE_MAGIC, (corpus.BUNDLE_VERSION,))
        meta = bytes(sections["meta"])
        struct.pack_into("<I", blob, 12, len(sections) + 1)
        blob += struct.pack("<H", 4) + b"meta" + struct.pack("<Q", len(meta)) + meta
    path.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--model", "PMF"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("extra, message", [
    ({"experiment": {"test_fraction": "1.5"}}, "test_fraction must be in (0, 1), got 1.5"),
    ({"data": {"first_n": "-1"}}, "first_n must be >= 0, got -1"),
    ({"model.PMF": {"lambda_user": "0"}}, "bad value for [model.PMF] lambda_user: '0' (must be > 0, got 0.0)"),
    ({"DEFAULT": {"first_n": "5"}}, "unknown section [DEFAULT]"),
], ids=["test-fraction", "first-n", "zero-lambda", "default-section"])
def test_out_of_range_config_value_is_config_error(tmp_path, review_file, capsys, extra, message):
    cfg = write_config(tmp_path, review_file, tmp_path / "out", **extra)
    assert main(["ingest", "--config", str(cfg)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_max_len_changed_since_ingest_is_config_error(tmp_path, review_file, capsys):
    assert main(["ingest", "--config", str(write_config(tmp_path, review_file, tmp_path / "out"))]) == EXIT_OK
    cfg = write_config(tmp_path, review_file, tmp_path / "out", corpus={"max_len": "30"})
    assert main(["train", "--config", str(cfg), "--model", "ConvMF"]) == EXIT_CONFIG
    assert "cnn max_len 30 != bundle max_len 24" in capsys.readouterr().err
    assert not (tmp_path / "out/models/ConvMF.ckpt").exists()


def test_config_path_that_cannot_be_read_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("reviews.json").write_text("")   # what the defaults would ingest
    assert main(["ingest", "--config", str(tmp_path)]) == EXIT_CONFIG
    assert f"cannot read config file {tmp_path}: Is a directory" in capsys.readouterr().err
    assert not Path("runs").exists()


@pytest.mark.parametrize("case", ["reviews", "pretrained", "bundle", "checkpoint"])
def test_input_path_that_is_a_directory_is_data_error(tmp_path, review_file, capsys, case):
    out = tmp_path / "out"
    directory, extra, argv = {
        "reviews": (tmp_path / "reviews.json", {"data": {"path": tmp_path / "reviews.json"}}, ["ingest"]),
        "pretrained": (tmp_path / "vectors.txt", {"cnn": {"pretrained_path": tmp_path / "vectors.txt"}},
                       ["train", "--model", "BiConvMF+"]),
        "bundle": (out / "corpus/bundle.bcmf", {}, ["train", "--model", "PMF"]),
        "checkpoint": (out / "models/PMF.ckpt", {}, ["evaluate", "--model", "PMF"]),
    }[case]
    if case in ("pretrained", "checkpoint"):
        assert main(["ingest", "--config", str(write_config(tmp_path, review_file, out))]) == EXIT_OK
    directory.mkdir(parents=True)
    cfg = write_config(tmp_path, review_file, out, **extra)
    capsys.readouterr()
    assert main([*argv, "--config", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"cannot read {directory}: Is a directory" in err and "Traceback" not in err


@pytest.mark.parametrize("blocked", ["out-dir-is-a-file", "output-is-a-directory"])
@pytest.mark.parametrize("argv, output", [
    (["ingest"], "corpus/bundle.bcmf"),
    (["train", "--model", "PMF"], "models/PMF.ckpt"),
    (["evaluate", "--model", "PMF"], "reports/PMF_eval.csv"),
    (["compare"], "reports/comparison.csv"),
], ids=["ingest", "train", "evaluate", "compare"])
def test_unwritable_output_path_is_config_error_before_any_work(
        tmp_path, review_file, capsys, monkeypatch, argv, output, blocked):
    from biconvmf import factorize
    out = tmp_path / "out"
    cfg = write_config(tmp_path, review_file, out)
    if blocked == "out-dir-is-a-file":
        out.write_text("")
        named = out
    else:
        # every input the command reads is in place; only its output is blocked
        for command in (["ingest"], ["train", "--model", "PMF"]):
            assert main([*command, "--config", str(cfg)]) == EXIT_OK
        named = out / output
        named.unlink(missing_ok=True)
        named.mkdir(parents=True, exist_ok=True)
    trained = []
    monkeypatch.setattr(factorize, "train", lambda *args, **kwargs: trained.append(args))
    capsys.readouterr()
    assert main([*argv, "--config", str(cfg), "--force"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{named} is " in err and "Traceback" not in err
    assert trained == []


@pytest.mark.parametrize("argv, output", [
    (["ingest"], "corpus/bundle.bcmf"),
    (["train", "--model", "PMF"], "models/PMF.ckpt"),
], ids=["ingest", "train"])
def test_directory_at_an_outputs_temporary_path_is_config_error_before_any_work(
        tmp_path, review_file, capsys, monkeypatch, argv, output):
    from biconvmf import corpus, factorize
    out = tmp_path / "out"
    cfg = write_config(tmp_path, review_file, out)
    if argv != ["ingest"]:
        assert main(["ingest", "--config", str(cfg)]) == EXIT_OK
    tmp = out / f"{output}.tmp"
    tmp.mkdir(parents=True)
    worked = []
    monkeypatch.setattr(corpus, "build_bundle", lambda *args, **kwargs: worked.append(args))
    monkeypatch.setattr(factorize, "train", lambda *args, **kwargs: worked.append(args))
    capsys.readouterr()
    assert main([*argv, "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{tmp} is a directory" in err and "Traceback" not in err
    assert worked == [] and not (out / output).exists()


def test_checkpoint_with_float64_cnns_still_evaluates(tmp_path, review_file):
    # checkpoints written before the CNNs trained in float32 hold float64 arrays
    from biconvmf import factorize
    cfg = write_config(tmp_path, review_file, tmp_path / "out")
    for command in (["ingest"], ["train", "--model", "BiConvMF"], ["evaluate", "--model", "BiConvMF"]):
        assert main([*command, "--config", str(cfg)]) == EXIT_OK
    ckpt = tmp_path / "out/models/BiConvMF.ckpt"
    report = tmp_path / "out/reports/BiConvMF_eval.csv"
    scored = report.read_bytes()
    model = factorize.load_model(ckpt)
    assert model.cnn_user.proj.dtype == model.cnn_item.proj.dtype == np.float32
    model.cnn_user, model.cnn_item = model.cnn_user.astype(np.float64), model.cnn_item.astype(np.float64)
    factorize.save_model(model, ckpt)
    back = factorize.load_model(ckpt)
    for cnn in (back.cnn_user, back.cnn_item):   # a fresh CNN trains every array
        assert {a.dtype for a in cnn.trainable()} == {np.dtype(np.float64)}
    assert main(["evaluate", "--config", str(cfg), "--model", "BiConvMF", "--force"]) == EXIT_OK
    assert report.read_bytes() == scored


@pytest.mark.parametrize("section, key, raw, model", [
    ("model.PMF", "lambda_user", "nan", "PMF"), ("model.PMF", "lambda_item", "inf", "PMF"),
    ("factorization", "weight_decay", "nan", "PMF"), ("cnn", "learning_rate", "inf", "ConvMF"),
])
def test_non_finite_setting_is_config_error(tmp_path, review_file, capsys, section, key, raw, model):
    assert main(["ingest", "--config", str(write_config(tmp_path, review_file, tmp_path / "out"))]) == EXIT_OK
    cfg = write_config(tmp_path, review_file, tmp_path / "out", **{section: {key: raw}})
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--model", model]) == EXIT_CONFIG
    assert f"bad value for [{section}] {key}: {raw!r} (not a finite number)" in capsys.readouterr().err
    assert not (tmp_path / f"out/models/{model}.ckpt").exists()


def test_defaults_are_movies_tv_ini_except_six_keys():
    from dataclasses import fields

    from biconvmf.cli import RunConfig
    shipped = load_config(Path(__file__).parents[1] / "configs/movies_tv.ini")
    default = RunConfig()
    differ = {f.name for f in fields(RunConfig) if getattr(shipped, f.name) != getattr(default, f.name)}
    assert differ == {"data_path", "max_len", "embedding_dim", "epochs_per_outer", "outer_iters", "out_dir"}


def test_list_default_is_fresh_for_each_config():
    from biconvmf.cli import RunConfig
    first = RunConfig()
    first.models.append("BiConvMF+")
    assert RunConfig().models == ["PMF", "ConvMF", "BiConvMF"]
