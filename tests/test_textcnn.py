from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest

from biconvmf import serialize, textcnn
from biconvmf.corpus import Documents
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
    return ragged([rng.integers(1, vocab_size + 1, L) for L in lens])


def ragged(rows):
    """Documents holding each row of token ids."""
    lens = np.array([len(row) for row in rows], dtype=np.int32)
    return Documents(np.concatenate([np.zeros(0, np.int32), *rows]).astype(np.int32), lens)


def padded(tokens, lens, max_len):
    """The documents as a (batch, max_len) matrix, right-padded with 0."""
    return np.array([np.pad(doc, (0, max_len - len(doc)))
                     for doc in np.split(tokens, np.cumsum(lens)[:-1])], dtype=np.int32)


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
    out = textcnn.forward_many(params, ragged([[]]))
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
    out = textcnn.forward_many(params, ragged([[1]]))
    np.testing.assert_allclose(out, [[np.tanh(2.0)]], rtol=0, atol=0)
    assert abs(out[0, 0] - 0.96403) < 1e-5


def test_forward_projection_bias_passthrough():
    cfg = tiny_config()
    params = zero_params(cfg)
    rng = np.random.default_rng(1)
    params.proj_bias[:] = rng.normal(0, 1, 3)
    np.testing.assert_array_equal(textcnn.forward_many(params, ragged([[1, 2, 3]])),
                                  params.proj_bias[None])


def test_forward_is_deterministic_bitwise():
    cfg = tiny_config()
    params = textcnn.init_cnn_params(cfg, 9, seed=3)
    docs = random_docs(cfg, 6, 9, seed=4)
    out1 = textcnn.forward_many(params, docs)
    out2 = textcnn.forward_many(params, docs)
    assert np.array_equal(out1, out2)


def test_forward_many_matches_single():
    # more documents than one chunk, so the batched pass crosses a chunk
    # boundary; documents shorter than the widest window (3) and longer ones
    cfg = tiny_config()
    params = textcnn.init_cnn_params(cfg, 9, seed=3)
    n = textcnn.ENCODE_CHUNK + 12
    docs = random_docs(cfg, n, 9, seed=4)
    assert (docs.lens < 3).sum() > 5 and (docs.lens > 3).sum() > 5
    batched = textcnn.forward_many(params, docs)
    for i in range(n):
        single = textcnn.forward_many(params, Documents(*docs.gather([i])))
        np.testing.assert_allclose(batched[i], single[0], rtol=0, atol=1e-15)


def test_forward_output_independent_of_padding_amount():
    # same weights under a larger max_len: output must be bitwise identical
    cfg_small = tiny_config(max_len=10)
    params = textcnn.init_cnn_params(cfg_small, 9, seed=5)
    params_wide = replace(params, config=tiny_config(max_len=25))
    docs = random_docs(cfg_small, 8, 9, seed=6)
    out_small = textcnn.forward_many(params, docs)
    out_wide = textcnn.forward_many(params_wide, docs)
    assert np.array_equal(out_small, out_wide)


def test_pooled_features_stay_inside_tanh_range():
    cfg = tiny_config()
    params = textcnn.init_cnn_params(cfg, 9, seed=7)
    params.filter_biases[0][:] = 4.0  # saturate on purpose
    docs = random_docs(cfg, 10, 9, seed=8)
    _, cache = textcnn._forward_batch(params, docs.tokens.astype(np.int64), docs.lens, None,
                                      want_cache=True)
    pooled = cache["pooled"]
    assert (pooled > -1.0).all() and (pooled < 1.0).all()


def test_forward_validates_doc_length():
    cfg = tiny_config()
    params = textcnn.init_cnn_params(cfg, 9, seed=3)
    with pytest.raises(ValueError, match="max_len=12"):
        textcnn.forward_many(params, ragged([[1] * 13]))
    with pytest.raises(ValueError, match="4 tokens in all"):
        textcnn.forward_many(params, Documents(np.ones(5, np.int32), np.array([1, 3])))


# ---------------------------------------------------------------- gradient

def test_gradient_zero_at_perfect_fit():
    cfg = tiny_config()
    params = textcnn.init_cnn_params(cfg, 9, seed=11)
    docs = random_docs(cfg, 1, 9, seed=12)
    targets = textcnn.forward_many(params, docs)
    loss, grads = textcnn._loss_and_grads(params, docs.tokens, docs.lens, targets, 2.0, 0.0, None)
    assert loss == 0.0
    assert np.all(grads.proj == 0.0) and np.all(grads.proj_bias == 0.0)
    assert all(np.all(g == 0.0) for g in grads.filters)
    assert np.all(grads.embedding == 0.0)


def test_gradient_at_zero_params():
    # loss = (w/2)||t||^2 and the projection-bias gradient is -w * t
    cfg = tiny_config()
    params = zero_params(cfg)
    target = np.array([0.5, -1.0, 2.0])
    weight = 3.0
    loss, grads = textcnn._loss_and_grads(params, np.array([1, 2]), np.array([2]), target[None],
                                          weight, 0.0, None)
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
    target = rng.normal(0, 1, 2)
    mask = (rng.random(cfg.total_filters) >= 0.4) / 0.6
    err = gradcheck.max_relative_error(params, np.array([1, 4, 2]), np.array([3]), target[None],
                                       1.5, 0.01, mask[None])
    assert err < 1e-4


def mixed_batch():
    """A packed batch to check across documents: lengths 1, max_len, 0, 2 (below
    the largest window), 5 and 3, two window widths, a dropout mask and a
    trainable embedding.  Returns _loss_and_grads' arguments."""
    cfg = tiny_config(max_len=7, embedding_dim=3, output_dim=2, window_sizes=(2, 3), n_filters=2)
    params = textcnn.init_cnn_params(cfg, 6, seed=101)
    assert params.embedding_trainable
    rng = np.random.default_rng(102)
    docs = ragged([rng.integers(1, 7, L) for L in (1, 7, 0, 2, 5, 3)])
    targets = rng.normal(0, 1, (len(docs), cfg.output_dim))
    mask = (rng.random((len(docs), cfg.total_filters)) >= 0.3) / 0.7
    return params, docs.tokens, docs.lens, targets, 1.5, 0.01, mask


def test_multi_document_gradient_matches_finite_differences():
    assert gradcheck.max_relative_error(*mixed_batch()) < 1e-4


def test_float32_loss_terms_sum_in_float64():
    # float32 squares and differences are exact in float64, so the two agree bit for bit
    params = textcnn.init_cnn_params(tiny_config(), 9, seed=3).astype(np.float32)
    wide = params.astype(np.float64)
    assert params.weight_sqnorm() == wide.weight_sqnorm()
    rng = np.random.default_rng(4)
    out, targets = rng.normal(0, 1, (2, 50, 3)).astype(np.float32)
    assert (textcnn._objective(params, out, targets, 2.0, 0.1)
            == textcnn._objective(wide, out.astype(np.float64), targets.astype(np.float64), 2.0, 0.1))


@pytest.mark.parametrize("case", [*range(22), "mixed"])
def test_float32_gradients_match_float64_at_the_same_params(case):
    # float64 gradients are the finite-difference-checked oracle; float32 ones
    # of the same (float32-representable) params must agree to float32 accuracy
    params, *rest = mixed_batch() if case == "mixed" else gradcheck.random_case(case)
    p32 = params.astype(np.float32)
    loss32, g32 = textcnn._loss_and_grads(p32, *rest)
    loss64, g64 = textcnn._loss_and_grads(p32.astype(np.float64), *rest)
    tol = 1000 * np.finfo(np.float32).eps
    assert type(loss32) is float and loss32 == pytest.approx(loss64, rel=tol, abs=1e-12)
    for a, b in zip(g32.trainable(), g64.trainable(), strict=True):
        assert a.dtype == np.float32 and b.dtype == np.float64
        np.testing.assert_allclose(a, b, rtol=0, atol=tol * max(np.abs(b).max(), 1e-12))


def test_permuting_the_batch_permutes_outputs_and_keeps_gradients():
    params, tokens, lens, targets, weight, decay, mask = mixed_batch()
    perm = np.array([3, 0, 5, 2, 1, 4])
    tokens_p, lens_p = Documents(tokens, lens).gather(perm)
    permuted = (params, tokens_p, lens_p, targets[perm], weight, decay, mask[perm])
    out, _ = textcnn._forward_batch(params, tokens, lens, mask, want_cache=False)
    out_p, _ = textcnn._forward_batch(params, tokens_p, lens_p, mask[perm], want_cache=False)
    np.testing.assert_allclose(out_p, out[perm], rtol=0, atol=1e-15)
    loss, grads = textcnn._loss_and_grads(params, tokens, lens, targets, weight, decay, mask)
    loss_p, grads_p = textcnn._loss_and_grads(*permuted)
    assert loss_p == pytest.approx(loss, rel=0, abs=1e-15)
    for g, g_p in zip(grads.trainable(), grads_p.trainable()):
        np.testing.assert_allclose(g_p, g, rtol=0, atol=1e-15)


def test_all_padding_document_pools_its_first_window():
    # every window of an empty document ties, so each filter's max, and with
    # it the whole filter gradient, goes to the document's first window
    params, tokens, lens, *_ = mixed_batch()
    _, cache = textcnn._forward_batch(params, tokens, lens, None, want_cache=True)
    i = int(np.flatnonzero(lens == 0)[0])
    first_token = np.maximum(lens, max(params.config.window_sizes))[:i].sum()
    for starts, argmax in zip(cache["starts"], cache["argmaxes"]):
        assert (starts[argmax[i]] == first_token).all()


def reference_pooling(params, tokens, lens):
    """Per-document loop over padded documents in the plain order, tanh(conv
    + bias) then max: (pooled, argmaxes), argmaxes per width as (batch,
    n_filters) window offsets within each document."""
    cfg = params.config
    docs = padded(tokens, lens, cfg.max_len)
    pooled, argmaxes = [], []
    for wi, w in enumerate(cfg.window_sizes):
        filters = params.filters[wi].reshape(cfg.n_filters, -1)
        cols, offsets = [], []
        for doc, length in zip(docs, lens):
            eff = max(length, max(cfg.window_sizes))
            x = np.stack([params.embedding[doc[s:s + w]].ravel() for s in range(eff - w + 1)])
            act = np.tanh(x @ filters.T + params.filter_biases[wi])
            cols.append(act.max(axis=0))
            offsets.append(np.argmax(act, axis=0))
        pooled.append(np.array(cols))
        argmaxes.append(np.array(offsets))
    return np.hstack(pooled), argmaxes


def make_dyadic(params, rng):
    """Set the embedding, filters and filter biases to multiples of 1/8 in place."""
    params.embedding[1:] = rng.integers(-3, 4, params.embedding[1:].shape) / 8
    for f, b in zip(params.filters, params.filter_biases):
        f[:] = rng.integers(-2, 3, f.shape) / 8
        b[:] = rng.integers(-2, 3, b.shape) / 8


def pooling_batch(dyadic):
    """Repeated n-grams, empty documents and documents shorter than the
    largest window.  With dyadic values every convolution is exact in any
    summation order, so the packed and per-document passes agree bitwise and
    many windows tie."""
    cfg = tiny_config(max_len=9, embedding_dim=3, window_sizes=(2, 4), n_filters=4)
    params = textcnn.init_cnn_params(cfg, 6, seed=111)
    if dyadic:
        make_dyadic(params, np.random.default_rng(112))
    docs = ragged([[], [1, 2, 1, 2, 1, 2, 1, 2], [3], [4, 4, 4, 4, 4, 4], [5, 6], [],
                   [2, 5, 2, 5, 2], [1, 2, 3, 4, 5, 6, 1, 2, 3], [6, 6, 6]])
    return params, docs.tokens, docs.lens


@pytest.mark.parametrize("dyadic", [True, False])
def test_pooling_and_argmax_match_per_document_loop(dyadic):
    params, tokens, lens = pooling_batch(dyadic)
    _, cache = textcnn._forward_batch(params, tokens, lens, None, want_cache=True)
    pooled, argmaxes = reference_pooling(params, tokens, lens)
    if dyadic:
        np.testing.assert_array_equal(cache["pooled"], pooled)
    else:
        np.testing.assert_allclose(cache["pooled"], pooled, rtol=0, atol=1e-15)
    eff = np.maximum(lens, max(params.config.window_sizes))
    for w, got, want in zip(params.config.window_sizes, cache["argmaxes"], argmaxes):
        n_win = eff - w + 1
        first = np.cumsum(n_win) - n_win
        np.testing.assert_array_equal(got - first[:, None], want)


def scatter_reference_grads(params, tokens, lens, targets, target_weight, weight_decay, mask):
    """_loss_and_grads' gradients by the plain route: padded documents, an
    element-gather im2col, a searchsorted argmax, and the embedding gradient
    through the (windows, w*p) input gradient, scattered offset by offset and
    summed per token in float64 with np.add.at."""
    cfg, dtype, nf = params.config, params.dtype, params.config.n_filters
    docs = padded(tokens, lens, cfg.max_len)
    eff = np.maximum(lens, max(cfg.window_sizes))
    tokens = docs[np.arange(cfg.max_len) < eff[:, None]]
    doc_start = np.cumsum(eff) - eff
    e = params.embedding[tokens]
    pooled = np.empty((len(docs), cfg.total_filters), dtype)
    blocks = []
    for wi, w in enumerate(cfg.window_sizes):
        n_win = eff - w + 1
        first = np.cumsum(n_win) - n_win
        n = int(n_win.sum())
        start = np.arange(n) + np.repeat(doc_start - first, n_win)
        x = e[start[:, None] + np.arange(w)].reshape(n, -1)
        conv = (x @ params.filters[wi].reshape(nf, -1).T).T
        top = np.maximum.reduceat(conv, first, axis=1)
        pooled[:, wi * nf:(wi + 1) * nf] = np.tanh(top.T + params.filter_biases[wi])
        hits = np.flatnonzero(~(conv < np.repeat(top, n_win, axis=1)))
        argmax = (hits[np.searchsorted(hits, np.arange(nf)[:, None] * n + first)] % n).T
        blocks.append((start, x, argmax))
    keep = np.ones_like(pooled) if mask is None else mask.astype(dtype)
    dropped = pooled * keep
    out = dropped @ params.proj + params.proj_bias
    d_out = ((target_weight / len(docs)) * (out - targets)).astype(dtype)
    d_pooled = d_out @ params.proj.T * keep * (1.0 - pooled ** 2)
    d_e = np.zeros_like(e)
    g_filters, g_biases = [], []
    for wi, (w, (start, x, argmax)) in enumerate(zip(cfg.window_sizes, blocks)):
        d_max = d_pooled[:, wi * nf:(wi + 1) * nf]
        d_pre = np.zeros((len(start), nf), dtype)
        d_pre[argmax, np.arange(nf)] = d_max
        g_filters.append((d_pre.T @ x).reshape(nf, w, -1))
        g_biases.append(d_max.sum(axis=0))
        d_x = (d_pre @ params.filters[wi].reshape(nf, -1)).reshape(len(start), w, -1)
        for a in range(w):
            d_e[start + a] += d_x[:, a]
    g_emb = None
    if params.embedding_trainable:
        g_emb = np.zeros(params.embedding.shape)
        np.add.at(g_emb, tokens, d_e)
        g_emb = g_emb.astype(dtype)
        g_emb[0] = 0.0
    grads = replace(params, embedding=g_emb, filters=g_filters, filter_biases=g_biases,
                    proj=dropped.T @ d_out, proj_bias=d_out.sum(axis=0))
    for g, w in zip(grads.decayed(), params.decayed()):
        g += weight_decay * w
    return grads


@pytest.mark.parametrize("trainable", [True, False])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("batch", ["pooling", "mixed"])
def test_gradients_equal_the_per_offset_scatter_bitwise(batch, dtype, trainable):
    # dyadic embedding and filters: every convolution is exact, so ties
    # (repeated n-grams, empty documents) are real and both routes see them.
    # In the pooling batch several maxes share a distinct token, and their
    # gradients, through tanh, sum in another order than the scatter's
    rounded = {"float64": 1e-15, "float32": 5e-7}[np.dtype(dtype).name] if batch == "pooling" else 0
    if batch == "pooling":
        params, tokens, lens = pooling_batch(dyadic=True)
        targets = np.random.default_rng(131).normal(0, 1, (len(lens), params.config.output_dim))
        rest = (targets, 1.5, 0.01, None)
    else:
        params, tokens, lens, *rest = mixed_batch()
        make_dyadic(params, np.random.default_rng(132))
    params = replace(params.astype(dtype), embedding_trainable=trainable)
    _, grads = textcnn._loss_and_grads(params, tokens, lens, *rest)
    want = scatter_reference_grads(params, tokens, lens, *rest)
    assert (grads.embedding is None) == (not trainable)
    weights = {id(a) for a in [want.embedding, *want.filters]}
    for g, w in zip(grads.trainable(), want.trainable(), strict=True):
        assert g.dtype == dtype
        if rounded and id(w) in weights:
            np.testing.assert_allclose(g, w, rtol=0, atol=rounded * np.abs(w).max())
        else:
            np.testing.assert_array_equal(g, w)


def loop_reference_weight_grads(params, cache, d_out):
    """Filter and embedding gradients of a cache with pooled features zero
    (tanh' = 1) and no dropout, by one loop over (document, filter, offset)."""
    cfg, nf, tokens = params.config, params.config.n_filters, cache["tokens"]
    d_pooled = d_out @ params.proj.T
    g_filters = [np.zeros_like(f) for f in params.filters]
    g_emb = np.zeros_like(params.embedding)
    for wi, w in enumerate(cfg.window_sizes):
        for b, f in np.ndindex(len(d_out), nf):
            first = cache["starts"][wi][cache["argmaxes"][wi][b, f]]
            for a in range(w):
                token = tokens[first + a]
                g_filters[wi][f, a] += d_pooled[b, wi * nf + f] * params.embedding[token]
                g_emb[token] += d_pooled[b, wi * nf + f] * params.filters[wi][f, a]
    g_emb[0] = 0.0
    return g_filters, g_emb


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_distinct_token_backward_is_exact_on_dyadic_values(dtype):
    # with d_out, proj, filters and embedding all dyadic and tanh' = 1, every
    # product and sum is exact, so the bincount-and-GEMM route must give the
    # plain loop's bits, ties (empty documents, repeated n-grams) included
    params, tokens, lens = pooling_batch(dyadic=True)
    rng = np.random.default_rng(141)
    params.proj[:] = rng.integers(-3, 4, params.proj.shape) / 8
    params = params.astype(dtype)
    _, cache = textcnn._forward_batch(params, tokens, lens, None, want_cache=True)
    cache["pooled"][:] = 0.0
    d_out = (rng.integers(-3, 4, (len(lens), params.config.output_dim)) / 8).astype(dtype)
    grads = textcnn._backward_batch(params, cache, d_out)
    g_filters, g_emb = loop_reference_weight_grads(params, cache, d_out)
    np.testing.assert_array_equal(grads.embedding, g_emb)
    for g, want in zip(grads.filters, g_filters, strict=True):
        assert g.dtype == dtype
        np.testing.assert_array_equal(g, want)


def test_gradients_match_the_per_offset_scatter_at_random_params():
    args = mixed_batch()
    _, grads = textcnn._loss_and_grads(*args)
    for g, w in zip(grads.trainable(), scatter_reference_grads(*args).trainable(), strict=True):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-15)


def test_nan_filter_is_a_divergence_not_an_index_error():
    # the last filter of the last width: a max with no hit would index past
    # the end of the hits
    params, tokens, lens, targets, weight, decay, mask = mixed_batch()
    params.filters[-1][-1, 0, 0] = np.nan
    _, cache = textcnn._forward_batch(params, tokens, lens, mask, want_cache=True)
    n_win = np.maximum(lens, max(params.config.window_sizes)) - params.config.window_sizes[-1] + 1
    assert np.array_equal(cache["argmaxes"][-1][:, -1], np.cumsum(n_win) - n_win)
    loss, _ = textcnn._loss_and_grads(params, tokens, lens, targets, weight, decay, mask)
    assert not np.isfinite(loss)
    with pytest.raises(TrainingDivergedError):
        fit(params, Documents(tokens, lens), targets, weight, decay,
            optimizer=OptimizerConfig(batch_size=4), seed=5)


def test_frozen_embedding_leaves_the_other_gradients_bitwise_equal():
    params, *batch = mixed_batch()
    _, trained = textcnn._loss_and_grads(params, *batch)
    _, frozen = textcnn._loss_and_grads(replace(params, embedding_trainable=False), *batch)
    assert frozen.embedding is None
    assert trained.embedding is not None
    for g, g_frozen in zip(trained.trainable()[1:], frozen.trainable()):
        assert np.array_equal(g, g_frozen)


def test_backward_leaves_its_cache_intact():
    # the cache holds no row per packed token or window (no embedding rows,
    # no (windows, w*p) im2col block), and the backward only reads it
    params, tokens, lens, targets, weight, decay, mask = mixed_batch()
    out, cache = textcnn._forward_batch(params, tokens, lens, mask, want_cache=True)
    d_out = (weight / len(lens)) * (out - targets)

    def arrays(c):
        return [a for v in c.values() for a in (v if isinstance(v, list) else [v])]

    kept = deepcopy(cache)
    first = textcnn._backward_batch(params, cache, d_out)
    second = textcnn._backward_batch(params, cache, d_out)
    for g, g_again in zip(first.trainable(), second.trainable(), strict=True):
        assert np.array_equal(g, g_again)
    assert cache.keys() == kept.keys()
    for a, b in zip(arrays(cache), arrays(kept), strict=True):
        assert np.array_equal(a, b)
    p = params.config.embedding_dim
    m = len(cache["tokens"])
    blocks = {(len(start), w * p) for w, start in zip(params.config.window_sizes, cache["starts"])}
    assert not any(a.shape in blocks | {(m, p), (m, params.config.n_filters)} for a in arrays(cache))


# ---------------------------------------------------------------- fitting

def fit(params, docs, targets, *args, **kwargs):
    """fit_to_targets started from the params' own encodings."""
    return textcnn.fit_to_targets(params, docs, targets, *args,
                                  start_outputs=textcnn.forward_many(params, docs), **kwargs)


def test_fit_keeps_perfect_params():
    cfg = tiny_config()
    params = textcnn.init_cnn_params(cfg, 9, seed=21)
    docs = random_docs(cfg, 24, 9, seed=22)
    targets = textcnn.forward_many(params, docs)
    fitted, loss, outputs = fit(params, docs, targets, 2.0, 0.0,
                                optimizer=OptimizerConfig(epochs=3, batch_size=8), seed=23)
    assert loss <= 1e-12
    assert np.array_equal(fitted.proj, params.proj)
    assert np.array_equal(fitted.embedding, params.embedding)
    # the start won, so its encodings come back
    assert np.array_equal(outputs, textcnn.forward_many(fitted, docs))


def test_fit_reduces_loss():
    cfg = tiny_config(dropout_rate=0.2)
    params = textcnn.init_cnn_params(cfg, 9, seed=31)
    docs = random_docs(cfg, 40, 9, seed=32)
    targets = np.random.default_rng(33).normal(0, 1, (40, 3))
    start, start_outputs = textcnn.mean_loss(params, docs, targets, 2.0, 1e-4)
    assert np.array_equal(start_outputs, textcnn.forward_many(params, docs))
    fitted, final, outputs = fit(params, docs, targets, 2.0, 1e-4,
                                 optimizer=OptimizerConfig(epochs=4, batch_size=16), seed=34)
    assert final < start
    assert final == textcnn.mean_loss(fitted, docs, targets, 2.0, 1e-4)[0]
    # a later epoch won, so its evaluation pass's encodings come back
    assert np.array_equal(outputs, textcnn.forward_many(fitted, docs))


def test_fit_refuses_mismatched_start_outputs():
    cfg = tiny_config()
    params = textcnn.init_cnn_params(cfg, 9, seed=35)
    docs = random_docs(cfg, 6, 9, seed=36)
    targets = np.zeros((6, 3))
    with pytest.raises(ValueError, match="start_outputs"):
        textcnn.fit_to_targets(params, docs, targets, 2.0, 0.0,
                               start_outputs=np.zeros((5, 3)))


def test_fit_never_returns_worse_than_start():
    cfg = tiny_config(dropout_rate=0.5)
    params = textcnn.init_cnn_params(cfg, 9, seed=41)
    docs = random_docs(cfg, 16, 9, seed=42)
    targets = np.random.default_rng(43).normal(0, 3, (16, 3))
    start, _ = textcnn.mean_loss(params, docs, targets, 5.0, 0.0)
    _, final, _ = fit(params, docs, targets, 5.0, 0.0,
                      optimizer=OptimizerConfig(learning_rate=0.5, epochs=1, batch_size=4), seed=44)
    assert final <= start


def test_fit_same_seed_is_bitwise_identical():
    cfg = tiny_config(dropout_rate=0.3)
    params = textcnn.init_cnn_params(cfg, 9, seed=51)
    docs = random_docs(cfg, 20, 9, seed=52)
    targets = np.random.default_rng(53).normal(0, 1, (20, 3))
    a, la, oa = fit(params, docs, targets, 2.0, 1e-4, seed=54)
    b, lb, ob = fit(params, docs, targets, 2.0, 1e-4, seed=54)
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
    docs = random_docs(cfg, 10, 9, seed=62)
    targets = np.random.default_rng(63).normal(0, 1, (10, 3))
    fit(params, docs, targets, 2.0, 1e-4, seed=64)
    assert np.array_equal(params.embedding, snapshot.embedding)
    assert np.array_equal(params.proj, snapshot.proj)


def test_fit_aborts_on_divergence():
    cfg = tiny_config()
    params = textcnn.init_cnn_params(cfg, 9, seed=71)
    params.proj[:] = 1e300  # overflow the data term immediately
    docs = random_docs(cfg, 8, 9, seed=72)
    targets = np.zeros((8, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError, match="batch"):
            fit(params, docs, targets, 2.0, 0.0, seed=73)


@pytest.mark.skipif(not textcnn.HEAP_TOP_KEPT, reason="the C library has no mallopt")
def test_repeated_fit_reuses_its_scratch_memory():
    # a fit frees and reallocates megabytes of temporaries every batch; with
    # the heap top kept, a second identical fit faults in (almost) no pages
    resource = pytest.importorskip("resource")
    cfg = CnnConfig(max_len=64, embedding_dim=32, window_sizes=(3, 4, 5), n_filters=64)
    params = textcnn.init_cnn_params(cfg, 2000, seed=121)
    docs = random_docs(cfg, 512, 2000, seed=122)
    targets = np.random.default_rng(123).normal(0, 1, (512, cfg.output_dim))
    opt = OptimizerConfig(epochs=2)
    fit(params, docs, targets, 1.0, 1e-4, optimizer=opt, seed=124)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fit(params, docs, targets, 1.0, 1e-4, optimizer=opt, seed=124)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


@pytest.mark.skipif(not textcnn.HEAP_TOP_KEPT, reason="the C library has no mallopt")
def test_repeated_fit_at_embedding_width_200_reuses_its_scratch_memory(monkeypatch):
    # float32 im2col blocks of about 12, 16 and 20 MB per batch: the forward
    # frees each one after its convolution and the backward works on the
    # batch's distinct tokens, so its temporaries fit in the heap top
    # kept from the batch before.  Faults are counted inside the backward
    # only: a per-offset scatter of a (windows, w*p) input gradient, with
    # every block cached, took 1,600-3,600 there per fit, while the rest of
    # the process can fault a few hundred either way.
    resource = pytest.importorskip("resource")
    cfg = CnnConfig(max_len=64, embedding_dim=200, window_sizes=(3, 4, 5), n_filters=64)
    params = textcnn.init_cnn_params(cfg, 2000, seed=125).astype(np.float32)
    rng = np.random.default_rng(126)
    docs = ragged([rng.integers(1, 2001, L) for L in rng.integers(16, cfg.max_len + 1, 512)])
    targets = rng.normal(0, 1, (512, cfg.output_dim))
    opt = OptimizerConfig(epochs=1)
    faults = []
    backward = textcnn._backward_batch

    def counted(*args):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        grads = backward(*args)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        return grads

    monkeypatch.setattr(textcnn, "_backward_batch", counted)
    fit(params, docs, targets, 1.0, 1e-4, optimizer=opt, seed=127)
    faults.clear()
    fit(params, docs, targets, 1.0, 1e-4, optimizer=opt, seed=127)
    assert len(faults) == 4 and sum(faults) < 300


def test_frozen_embedding_does_not_move():
    cfg = tiny_config(dropout_rate=0.0)
    pre = np.random.default_rng(81).normal(0, 0.3, (10, cfg.embedding_dim))
    pre[0] = 0.0
    params = textcnn.init_cnn_params(cfg, 9, seed=82, embedding=pre)
    assert params.embedding_trainable is False
    docs = random_docs(cfg, 12, 9, seed=83)
    targets = np.random.default_rng(84).normal(0, 1, (12, 3))
    fitted, _, _ = fit(params, docs, targets, 2.0, 1e-4, seed=85)
    assert np.array_equal(fitted.embedding, pre)
    assert not np.array_equal(fitted.proj, params.proj)


def test_weight_decay_keeps_padding_row_zero():
    cfg = tiny_config(dropout_rate=0.2)
    params = textcnn.init_cnn_params(cfg, 9, seed=91)
    assert params.embedding_trainable
    docs = random_docs(cfg, 12, 9, seed=92)
    targets = np.random.default_rng(93).normal(0, 1, (12, 3))
    fitted, _, _ = fit(params, docs, targets, 2.0, 0.5, seed=94)
    assert not np.array_equal(fitted.embedding, params.embedding)
    assert np.array_equal(fitted.embedding[0], np.zeros(cfg.embedding_dim))


@pytest.mark.parametrize("setting, name", [
    ({"learning_rate": 0.0}, "learning_rate"), ({"learning_rate": float("nan")}, "learning_rate"),
    ({"epochs": 0}, "epochs"), ({"batch_size": 0}, "batch_size"),
    ({"learning_rate": float("inf")}, "learning_rate"),
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


def test_params_in_the_previous_section_order_load(tmp_path):
    # format 2 files once held the arrays in the order embedding, proj,
    # proj_bias, then each window's filters and biases side by side
    path = tmp_path / "cnn.bin"
    serialize.save(textcnn.init_cnn_params(tiny_config(), 9, seed=93), path)
    _, sections = serialize.read_container(path, textcnn.CNN_MAGIC, (textcnn.CNN_VERSION,))
    windows = len(tiny_config().window_sizes)
    order = ["meta", "embedding", "proj", "proj_bias",
             *(f"{name}_{i}" for i in range(windows) for name in ("filters", "filter_biases"))]
    assert sorted(order) == sorted(sections) and order != list(sections)
    serialize.write_container(tmp_path / "old.bin", textcnn.CNN_MAGIC, textcnn.CNN_VERSION,
                              {name: sections[name] for name in order})
    serialize.save(serialize.load(textcnn.CnnParams, tmp_path / "old.bin"), tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_params_bytes_missing_window_refused(tmp_path):
    path = tmp_path / "cnn.bin"
    serialize.save(textcnn.init_cnn_params(tiny_config(), 9, seed=92), path)
    _, sections = serialize.read_container(path, textcnn.CNN_MAGIC, (textcnn.CNN_VERSION,))
    del sections["filters_1"], sections["filter_biases_1"]
    serialize.write_container(path, textcnn.CNN_MAGIC, textcnn.CNN_VERSION, sections)
    with pytest.raises(serialize.ContainerError, match="filter bank"):
        serialize.load(textcnn.CnnParams, path)
