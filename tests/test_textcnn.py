from dataclasses import replace

import numpy as np
import pytest

from biconvmf import serialize, textcnn
from biconvmf.textcnn import CnnConfig, OptimizerConfig, TrainingDivergedError

import gradcheck


def tiny_config(**kw):
    base = dict(max_len=12, embedding_dim=6, output_dim=3,
                window_sizes=(2, 3), n_filters=5, dropout_rate=0.0)
    base.update(kw)
    return CnnConfig(**base)


def zero_params(cfg, vocab_size=5):
    params = textcnn.init_cnn_params(cfg, vocab_size, seed=0)
    params.embedding[:] = 0.0
    for f in params.filters:
        f[:] = 0.0
    for b in params.filter_biases:
        b[:] = 0.0
    params.proj[:] = 0.0
    params.proj_bias[:] = 0.0
    return params


def random_docs(cfg, n, vocab_size, seed=0):
    rng = np.random.default_rng(seed)
    lens = rng.integers(0, cfg.max_len + 1, n)
    docs = np.zeros((n, cfg.max_len), dtype=np.int32)
    for i, L in enumerate(lens):
        docs[i, :L] = rng.integers(1, vocab_size + 1, L)
    return docs, lens


# ---------------------------------------------------------------- config

def test_config_rejects_window_larger_than_max_len():
    with pytest.raises(ValueError):
        CnnConfig(max_len=2, window_sizes=(3,), embedding_dim=2, output_dim=1)


def test_config_rejects_bad_dropout():
    with pytest.raises(ValueError):
        tiny_config(dropout_rate=1.0)


# ---------------------------------------------------------------- forward

def test_forward_all_zero_params_on_padding_doc():
    cfg = tiny_config()
    params = zero_params(cfg)
    out = textcnn.forward_many(params, np.zeros((1, cfg.max_len), dtype=np.int32), [0])
    np.testing.assert_array_equal(out, np.zeros((1, 3)))


def test_forward_hand_computed_tanh():
    # one token embedded as ones (p=2), single width-1 filter of ones, bias 0,
    # unit projection to one output: s = tanh(1*1 + 1*1) = tanh(2)
    cfg = CnnConfig(max_len=4, embedding_dim=2, output_dim=1,
                    window_sizes=(1,), n_filters=1, dropout_rate=0.0)
    params = zero_params(cfg, vocab_size=1)
    params.embedding[1] = 1.0
    params.filters[0][:] = 1.0
    params.proj[:] = 1.0
    out = textcnn.forward_many(params, np.array([[1, 0, 0, 0]], dtype=np.int32), [1])
    np.testing.assert_allclose(out, [[np.tanh(2.0)]], rtol=0, atol=0)
    assert abs(out[0, 0] - 0.96403) < 1e-5


def test_forward_projection_bias_passthrough():
    cfg = tiny_config()
    params = zero_params(cfg)
    rng = np.random.default_rng(1)
    params.proj_bias[:] = rng.normal(0, 1, 3)
    docs = np.array([[1, 2, 3] + [0] * 9], dtype=np.int32)
    np.testing.assert_array_equal(textcnn.forward_many(params, docs, [3]), params.proj_bias[None])


def test_forward_is_deterministic_bitwise():
    cfg = tiny_config()
    params = textcnn.init_cnn_params(cfg, 9, seed=3)
    docs, lens = random_docs(cfg, 6, 9, seed=4)
    out1 = textcnn.forward_many(params, docs, lens)
    out2 = textcnn.forward_many(params, docs, lens)
    assert np.array_equal(out1, out2)


def test_forward_many_matches_single():
    # more documents than one chunk, so the batched pass crosses a chunk boundary
    cfg = tiny_config()
    params = textcnn.init_cnn_params(cfg, 9, seed=3)
    n = textcnn.ENCODE_CHUNK + 12
    docs, lens = random_docs(cfg, n, 9, seed=4)
    batched = textcnn.forward_many(params, docs, lens)
    for i in range(n):
        single = textcnn.forward_many(params, docs[i:i + 1], lens[i:i + 1])
        np.testing.assert_allclose(batched[i], single[0], rtol=0, atol=1e-15)


def test_forward_output_independent_of_padding_amount():
    # same weights under a larger max_len: output must be bitwise identical
    cfg_small = tiny_config(max_len=10)
    params = textcnn.init_cnn_params(cfg_small, 9, seed=5)
    params_wide = replace(params, config=tiny_config(max_len=25))
    docs, lens = random_docs(cfg_small, 8, 9, seed=6)
    wide = np.zeros((8, 25), dtype=np.int32)
    wide[:, :10] = docs
    out_small = textcnn.forward_many(params, docs, lens)
    out_wide = textcnn.forward_many(params_wide, wide, lens)
    assert np.array_equal(out_small, out_wide)


def test_pooled_features_stay_inside_tanh_range():
    cfg = tiny_config()
    params = textcnn.init_cnn_params(cfg, 9, seed=7)
    params.filter_biases[0][:] = 4.0  # saturate on purpose
    docs, lens = random_docs(cfg, 10, 9, seed=8)
    _, cache = textcnn._forward_batch(params, docs.astype(np.int64), lens, None, want_cache=True)
    pooled = cache["pooled"]
    assert (pooled > -1.0).all() and (pooled < 1.0).all()


def test_forward_validates_doc_length():
    cfg = tiny_config()
    params = textcnn.init_cnn_params(cfg, 9, seed=3)
    with pytest.raises(ValueError):
        textcnn.forward_many(params, np.zeros((1, 5), dtype=np.int32), [0])


# ---------------------------------------------------------------- gradient

def test_gradient_zero_at_perfect_fit():
    cfg = tiny_config()
    params = textcnn.init_cnn_params(cfg, 9, seed=11)
    docs, lens = random_docs(cfg, 1, 9, seed=12)
    targets = textcnn.forward_many(params, docs, lens)
    loss, grads = textcnn._loss_and_grads(params, docs, lens, targets, 2.0, 0.0, None)
    assert loss == 0.0
    assert np.all(grads.proj == 0.0) and np.all(grads.proj_bias == 0.0)
    assert all(np.all(g == 0.0) for g in grads.filters)
    assert np.all(grads.embedding == 0.0)


def test_gradient_at_zero_params():
    # loss = (w/2)||t||^2 and the projection-bias gradient is -w * t
    cfg = tiny_config()
    params = zero_params(cfg)
    docs = np.array([[1, 2] + [0] * 10], dtype=np.int32)
    target = np.array([0.5, -1.0, 2.0])
    weight = 3.0
    loss, grads = textcnn._loss_and_grads(params, docs, np.array([2]), target[None], weight, 0.0, None)
    assert loss == pytest.approx(0.5 * weight * float((target ** 2).sum()), abs=1e-12)
    np.testing.assert_allclose(grads.proj_bias, -weight * target, rtol=0, atol=1e-15)
    assert np.all(grads.proj == 0.0)


@pytest.mark.parametrize("seed", range(8))
def test_gradient_matches_finite_differences(seed):
    case = gradcheck.random_case(seed)
    assert gradcheck.max_relative_error(*case) < 1e-4


def test_gradient_with_dropout_mask_matches_finite_differences():
    rng = np.random.default_rng(99)
    cfg = tiny_config(max_len=6, embedding_dim=2, output_dim=2, window_sizes=(2,), n_filters=3)
    params = textcnn.init_cnn_params(cfg, 5, seed=1)
    docs = np.array([[1, 4, 2, 0, 0, 0]], dtype=np.int32)
    target = rng.normal(0, 1, 2)
    mask = (rng.random(cfg.total_filters) >= 0.4) / 0.6
    err = gradcheck.max_relative_error(params, docs, np.array([3]), target[None], 1.5, 0.01,
                                       mask[None])
    assert err < 1e-4


# ---------------------------------------------------------------- fitting

def fit(params, docs, lens, targets, *args, **kwargs):
    """fit_to_targets started from the params' own encodings."""
    return textcnn.fit_to_targets(params, docs, lens, targets, *args,
                                  start_outputs=textcnn.forward_many(params, docs, lens), **kwargs)


def test_fit_keeps_perfect_params():
    cfg = tiny_config()
    params = textcnn.init_cnn_params(cfg, 9, seed=21)
    docs, lens = random_docs(cfg, 24, 9, seed=22)
    targets = textcnn.forward_many(params, docs, lens)
    fitted, loss, outputs = fit(params, docs, lens, targets, 2.0, 0.0,
                                OptimizerConfig(epochs=3, batch_size=8), seed=23)
    assert loss <= 1e-12
    assert np.array_equal(fitted.proj, params.proj)
    assert np.array_equal(fitted.embedding, params.embedding)
    # the start won, so its encodings come back
    assert np.array_equal(outputs, textcnn.forward_many(fitted, docs, lens))


def test_fit_reduces_loss():
    cfg = tiny_config(dropout_rate=0.2)
    params = textcnn.init_cnn_params(cfg, 9, seed=31)
    docs, lens = random_docs(cfg, 40, 9, seed=32)
    targets = np.random.default_rng(33).normal(0, 1, (40, 3))
    start, start_outputs = textcnn.mean_loss(params, docs, lens, targets, 2.0, 1e-4)
    assert np.array_equal(start_outputs, textcnn.forward_many(params, docs, lens))
    fitted, final, outputs = fit(params, docs, lens, targets, 2.0, 1e-4,
                                 OptimizerConfig(epochs=4, batch_size=16), seed=34)
    assert final < start
    assert final == textcnn.mean_loss(fitted, docs, lens, targets, 2.0, 1e-4)[0]
    # a later epoch won, so its evaluation pass's encodings come back
    assert np.array_equal(outputs, textcnn.forward_many(fitted, docs, lens))


def test_fit_refuses_mismatched_start_outputs():
    cfg = tiny_config()
    params = textcnn.init_cnn_params(cfg, 9, seed=35)
    docs, lens = random_docs(cfg, 6, 9, seed=36)
    targets = np.zeros((6, 3))
    with pytest.raises(ValueError, match="start_outputs"):
        textcnn.fit_to_targets(params, docs, lens, targets, 2.0, 0.0,
                               start_outputs=np.zeros((5, 3)))


def test_fit_never_returns_worse_than_start():
    cfg = tiny_config(dropout_rate=0.5)
    params = textcnn.init_cnn_params(cfg, 9, seed=41)
    docs, lens = random_docs(cfg, 16, 9, seed=42)
    targets = np.random.default_rng(43).normal(0, 3, (16, 3))
    start, _ = textcnn.mean_loss(params, docs, lens, targets, 5.0, 0.0)
    _, final, _ = fit(params, docs, lens, targets, 5.0, 0.0,
                      OptimizerConfig(learning_rate=0.5, epochs=1, batch_size=4), seed=44)
    assert final <= start


def test_fit_same_seed_is_bitwise_identical():
    cfg = tiny_config(dropout_rate=0.3)
    params = textcnn.init_cnn_params(cfg, 9, seed=51)
    docs, lens = random_docs(cfg, 20, 9, seed=52)
    targets = np.random.default_rng(53).normal(0, 1, (20, 3))
    a, la, oa = fit(params, docs, lens, targets, 2.0, 1e-4, seed=54)
    b, lb, ob = fit(params, docs, lens, targets, 2.0, 1e-4, seed=54)
    assert la == lb
    assert np.array_equal(oa, ob)
    assert np.array_equal(a.embedding, b.embedding)
    assert np.array_equal(a.proj, b.proj)
    assert all(np.array_equal(x, y) for x, y in zip(a.filters, b.filters))
    assert all(np.array_equal(x, y) for x, y in zip(a.filter_biases, b.filter_biases))


def test_fit_does_not_mutate_input():
    cfg = tiny_config(dropout_rate=0.2)
    params = textcnn.init_cnn_params(cfg, 9, seed=61)
    snapshot = params.copy()
    docs, lens = random_docs(cfg, 10, 9, seed=62)
    targets = np.random.default_rng(63).normal(0, 1, (10, 3))
    fit(params, docs, lens, targets, 2.0, 1e-4, seed=64)
    assert np.array_equal(params.embedding, snapshot.embedding)
    assert np.array_equal(params.proj, snapshot.proj)


def test_fit_aborts_on_divergence():
    cfg = tiny_config()
    params = textcnn.init_cnn_params(cfg, 9, seed=71)
    params.proj[:] = 1e300  # overflow the data term immediately
    docs, lens = random_docs(cfg, 8, 9, seed=72)
    targets = np.zeros((8, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError, match="batch"):
            fit(params, docs, lens, targets, 2.0, 0.0, seed=73)


def test_frozen_embedding_does_not_move():
    cfg = tiny_config(dropout_rate=0.0)
    pre = np.random.default_rng(81).normal(0, 0.3, (10, cfg.embedding_dim))
    pre[0] = 0.0
    params = textcnn.init_cnn_params(cfg, 9, seed=82, embedding=pre)
    assert params.embedding_trainable is False
    docs, lens = random_docs(cfg, 12, 9, seed=83)
    targets = np.random.default_rng(84).normal(0, 1, (12, 3))
    fitted, _, _ = fit(params, docs, lens, targets, 2.0, 1e-4, seed=85)
    assert np.array_equal(fitted.embedding, pre)
    assert not np.array_equal(fitted.proj, params.proj)


def test_weight_decay_keeps_padding_row_zero():
    cfg = tiny_config(dropout_rate=0.2)
    params = textcnn.init_cnn_params(cfg, 9, seed=91)
    assert params.embedding_trainable
    docs, lens = random_docs(cfg, 12, 9, seed=92)
    targets = np.random.default_rng(93).normal(0, 1, (12, 3))
    fitted, _, _ = fit(params, docs, lens, targets, 2.0, 0.5, seed=94)
    assert not np.array_equal(fitted.embedding, params.embedding)
    assert np.array_equal(fitted.embedding[0], np.zeros(cfg.embedding_dim))


@pytest.mark.parametrize("setting, name", [
    ({"learning_rate": 0.0}, "learning_rate"), ({"learning_rate": float("nan")}, "learning_rate"),
    ({"epochs": 0}, "epochs"), ({"batch_size": 0}, "batch_size"),
])
def test_optimizer_config_rejects_bad_settings(setting, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        OptimizerConfig(**setting)


# ---------------------------------------------------------------- serialization

def test_params_bytes_roundtrip(tmp_path):
    cfg = tiny_config(dropout_rate=0.2)
    params = textcnn.init_cnn_params(cfg, 9, seed=91)
    serialize.save(params, tmp_path / "cnn.bin")
    back = serialize.load(textcnn.CnnParams, tmp_path / "cnn.bin")
    serialize.save(back, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == (tmp_path / "cnn.bin").read_bytes()
    assert back.config == cfg
    assert back.embedding_trainable == params.embedding_trainable
    assert np.array_equal(back.embedding, params.embedding)
    assert np.array_equal(back.proj, params.proj)
    assert all(np.array_equal(x, y) for x, y in zip(back.filters, params.filters))


def test_params_bytes_missing_window_refused(tmp_path):
    path = tmp_path / "cnn.bin"
    serialize.save(textcnn.init_cnn_params(tiny_config(), 9, seed=92), path)
    _, sections = serialize.read_container(path, textcnn.CNN_MAGIC, (1,))
    del sections["filters_1"], sections["filter_biases_1"]
    serialize.write_container(path, textcnn.CNN_MAGIC, 1, sections)
    with pytest.raises(serialize.ContainerError, match="filter bank"):
        serialize.load(textcnn.CnnParams, path)
