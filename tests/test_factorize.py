from dataclasses import replace

import numpy as np
import pytest

from biconvmf import factorize, serialize, textcnn
from biconvmf.factorize import (
    Hyperparams,
    SparseRatings,
    init_factors,
    total_loss,
    update_item_factors,
    update_user_factors,
)
from conftest import traced

def small_ratings(seed=3, n_users=7, n_items=5, n=15):
    rng = np.random.default_rng(seed)
    return SparseRatings(
        rng.integers(0, n_users, n), rng.integers(0, n_items, n),
        rng.uniform(1, 5, n), n_users, n_items,
    )


# ---------------------------------------------------------------- ratings store

def test_ratings_adjacency_mirrors_triplets():
    ratings = SparseRatings([0, 1, 0], [2, 0, 1], [5.0, 3.0, 1.0], 2, 3)
    by_user, by_item = ratings.by_user, ratings.by_item
    np.testing.assert_array_equal(by_user.ptr, [0, 2, 3])
    np.testing.assert_array_equal(by_user.cols, [2, 1, 0])
    np.testing.assert_array_equal(by_user.vals, [5.0, 1.0, 3.0])
    np.testing.assert_array_equal(by_item.ptr, [0, 1, 2, 3])
    np.testing.assert_array_equal(by_item.cols, [1, 0, 0])
    np.testing.assert_array_equal(by_item.vals, [3.0, 1.0, 5.0])
    np.testing.assert_array_equal(by_user.counts(), [2, 1])
    np.testing.assert_array_equal(by_item.counts(), [1, 1, 1])


def test_ratings_rejects_out_of_range():
    with pytest.raises(ValueError):
        SparseRatings([0], [5], [1.0], 2, 3)


def test_duplicate_pairs_kept_as_distinct_triplets():
    ratings = SparseRatings([0, 0], [0, 0], [4.0, 2.0], 1, 1)
    assert len(ratings) == 2
    u = np.array([[1.0]])
    v = np.array([[1.0]])
    # both squared errors count: 0.5*(4-1)^2 + 0.5*(2-1)^2, plus priors at lam=1
    loss = total_loss(ratings, u, v, None, None, 1.0, 1.0)
    assert loss == pytest.approx(0.5 * 9 + 0.5 * 1 + 0.5 + 0.5)


# ---------------------------------------------------------------- init

def test_init_factors_deterministic_bitwise():
    u1, v1 = init_factors(2, 2, 50, seed=7)
    u2, v2 = init_factors(2, 2, 50, seed=7)
    assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
    # the draws fill U^T (k x N), then V^T (k x M), and come back as C-ordered rows
    u, v = init_factors(3, 4, 5, seed=7)
    rng = np.random.default_rng(7)
    assert u.flags.c_contiguous and v.flags.c_contiguous
    assert np.array_equal(u, rng.random((5, 3)).T) and np.array_equal(v, rng.random((5, 4)).T)


def test_init_factors_in_unit_interval():
    u, v = init_factors(20, 30, 10, seed=1)
    for arr in (u, v):
        assert (arr >= 0.0).all() and (arr < 1.0).all()


def test_init_factors_scalar_case():
    u, v = init_factors(1, 1, 1, seed=0)
    assert u.shape == (1, 1) and v.shape == (1, 1)


# ---------------------------------------------------------------- row updates

def test_zero_rating_user_copies_target():
    ratings = SparseRatings([1], [0], [4.0], 2, 1)
    v = np.array([[1.0, 0.0]])
    targets = np.array([[0.3, 0.1], [0.9, -0.2]])
    u = update_user_factors(ratings, v, targets, 1.0)
    assert np.array_equal(u[0], targets[0])


def test_user_update_hand_solved_two_by_two():
    # one rating r on an item with v=(1,0), lam=1, target 0:
    # (vv^T + I) u = r v  ->  [[2,0],[0,1]] u = (r,0)  ->  u = (r/2, 0)
    r = 3.0
    ratings = SparseRatings([0], [0], [r], 1, 1)
    v = np.array([[1.0, 0.0]])
    u = update_user_factors(ratings, v, None, 1.0)
    np.testing.assert_allclose(u[0], [r / 2, 0.0], rtol=1e-15)


def test_item_update_hand_solved_two_by_two():
    r = 5.0
    ratings = SparseRatings([0], [0], [r], 1, 1)
    u = np.array([[1.0, 0.0]])
    v = update_item_factors(ratings, u, None, 1.0)
    np.testing.assert_allclose(v[0], [r / 2, 0.0], rtol=1e-15)


def user_side_gradient(ratings, u, v, targets, lam):
    """Independent stationarity oracle: d(joint loss)/d u_i written out directly."""
    worst = 0.0
    for i in range(ratings.n_users):
        mine = ratings.users == i
        idx, vals = ratings.items[mine], ratings.ratings[mine]
        target = targets[i] if targets is not None else 0.0
        g = lam * (u[i] - target)
        for j, r in zip(idx, vals):
            g = g + (u[i] @ v[j] - r) * v[j]
        worst = max(worst, float(np.abs(g).max()))
    return worst


def item_side_gradient(ratings, u, v, targets, lam):
    worst = 0.0
    for j in range(ratings.n_items):
        mine = ratings.items == j
        idx, vals = ratings.users[mine], ratings.ratings[mine]
        target = targets[j] if targets is not None else 0.0
        g = lam * (v[j] - target)
        for i, r in zip(idx, vals):
            g = g + (u[i] @ v[j] - r) * u[i]
        worst = max(worst, float(np.abs(g).max()))
    return worst


@pytest.mark.parametrize("seed", range(5))
def test_updates_reach_stationarity(seed):
    rng = np.random.default_rng(seed)
    ratings = small_ratings(seed)
    k = 4
    v = rng.normal(0, 1, (ratings.n_items, k))
    targets_u = rng.normal(0, 1, (ratings.n_users, k))
    lam = float(rng.uniform(0.5, 5))
    u = update_user_factors(ratings, v, targets_u, lam)
    assert user_side_gradient(ratings, u, v, targets_u, lam) <= 1e-8
    targets_v = rng.normal(0, 1, (ratings.n_items, k))
    v2 = update_item_factors(ratings, u, targets_v, lam)
    assert item_side_gradient(ratings, u, v2, targets_v, lam) <= 1e-8


def test_huge_lambda_pins_factors_to_targets():
    rng = np.random.default_rng(5)
    ratings = SparseRatings([0, 0, 1], [0, 1, 0], [4.0, 2.0, 5.0], 3, 2)
    v = rng.normal(0, 1, (2, 3))
    targets = rng.normal(0, 1, (3, 3))
    u = update_user_factors(ratings, v, targets, 1e8)
    # user 2 has no ratings: exact copy; users with ratings: pinned within 1e-3
    assert np.array_equal(u[2], targets[2])
    assert np.abs(u - targets).max() <= 1e-3


def per_row_reference(rows, cols, vals, fixed, targets, lam):
    """Each row's normal equations (C C^T + lam I) x = C r + lam t, solved one by
    one; row r's entries are read from the triplets where rows == r."""
    k = fixed.shape[1]
    out = targets.copy()
    for row in range(targets.shape[0]):
        mine = rows == row
        idx = cols[mine]
        if len(idx):
            c = fixed[idx].T
            out[row] = np.linalg.solve(c @ c.T + lam * np.eye(k),
                                       c @ vals[mine] + lam * targets[row])
    return out


def test_half_steps_match_per_row_solves_on_both_sides():
    # k = 6; user degrees run 0..12 and item degrees 0..~30, so both sides
    # mix the d < k push-through solve with the d >= k primal solve
    rng = np.random.default_rng(21)
    n_users, n_items, k = 40, 15, 6
    users = np.repeat(np.arange(n_users), np.arange(n_users) % 13)
    items = np.minimum(rng.geometric(0.12, len(users)) - 1, n_items - 2)  # last item unrated
    ratings = SparseRatings(users, items, rng.uniform(1, 5, len(users)), n_users, n_items)
    for counts in (ratings.by_user.counts(), ratings.by_item.counts()):
        assert counts.min() == 0
        assert ((counts > 0) & (counts < k)).any() and (counts >= k).any()
    u = rng.normal(0, 1, (n_users, k))
    v = rng.normal(0, 1, (n_items, k))
    tu = rng.normal(0, 1, (n_users, k))
    tv = rng.normal(0, 1, (n_items, k))
    by_user = (ratings.users, ratings.items, ratings.ratings)
    by_item = (ratings.items, ratings.users, ratings.ratings)
    for lam in (0.3, 7.0, 250.0):
        got_u = update_user_factors(ratings, v, tu, lam)
        assert np.abs(got_u - per_row_reference(*by_user, v, tu, lam)).max() <= 1e-10
        got_v = update_item_factors(ratings, u, tv, lam)
        assert np.abs(got_v - per_row_reference(*by_item, u, tv, lam)).max() <= 1e-10
        zeros = np.zeros((n_items, k))
        got_v0 = update_item_factors(ratings, u, None, lam)
        assert np.abs(got_v0 - per_row_reference(*by_item, u, zeros, lam)).max() <= 1e-10
        assert np.array_equal(got_v0[n_items - 1], zeros[n_items - 1])


def test_half_step_leaves_targets_untouched():
    ratings = small_ratings(4)
    rng = np.random.default_rng(4)
    v = rng.normal(0, 1, (ratings.n_items, 3))
    targets = rng.normal(0, 1, (ratings.n_users, 3))
    before = targets.copy()
    update_user_factors(ratings, v, targets, 2.0)
    assert np.array_equal(targets, before)


def mixed_degree_ratings(rng, k):
    """Users of degree 0, 2 (< k, five rows) and k + 3 (>= k, three rows); items of many degrees."""
    degrees = np.array([2, 0, k + 3, 2, 2, k + 3, 2, k + 3, 2])
    users = np.repeat(np.arange(len(degrees)), degrees)
    items = rng.integers(0, 6, len(users))
    return SparseRatings(users, items, rng.uniform(1, 5, len(users)), len(degrees), 6)


@pytest.mark.parametrize("k", [4, 50])
def test_half_step_is_bitwise_the_same_for_every_chunk_size(monkeypatch, k):
    # the degree-2 group takes the push-through solve and the degree-(k + 3)
    # group the primal one; a chunk of 2 (k + 3) k entries splits the latter
    # 2 + 1 (a one-row tail), one of 3 * 2 * k the degree-2 group 3 + 2, and a
    # chunk of 1 solves row by row, as SOLVE_CHUNK does any row with d k above
    # it; k = 50 is the training width
    rng = np.random.default_rng(5)
    ratings = mixed_degree_ratings(rng, k)
    u, v = rng.normal(0, 1, (ratings.n_users, k)), rng.normal(0, 1, (ratings.n_items, k))
    tu, tv = rng.normal(0, 1, u.shape), rng.normal(0, 1, v.shape)
    results = []
    for chunk in (10**9, 1, 2 * (k + 3) * k, 3 * 2 * k):
        monkeypatch.setattr(factorize, "SOLVE_CHUNK", chunk)
        results.append([update_user_factors(ratings, v, tu, 2.5), update_user_factors(ratings, v, None, 0.5),
                        update_item_factors(ratings, u, tv, 3.0)])
    for got in results[1:]:
        for a, b in zip(results[0], got):
            assert a.tobytes() == b.tobytes()


def test_half_step_holds_one_chunk_of_gathered_columns(monkeypatch):
    # 6,000 users of degree 3 at k = 16: the whole group's C^T alone would be
    # 2.3 MB; beyond the result, half_step may hold only per-row index arrays
    # and one SOLVE_CHUNK block
    monkeypatch.setattr(factorize, "SOLVE_CHUNK", 4096)
    rng = np.random.default_rng(8)
    k, n_users, n_items = 16, 6000, 40
    users = np.repeat(np.arange(n_users), 3)
    ratings = SparseRatings(users, rng.integers(0, n_items, len(users)),
                            rng.uniform(1, 5, len(users)), n_users, n_items)
    v = rng.normal(0, 1, (n_items, k))
    out, peak, _ = traced(factorize.half_step, ratings.by_user, v, None, 1.0)
    assert peak <= out.nbytes + 8 * 8 * n_users + 16 * 8 * factorize.SOLVE_CHUNK


def test_item_half_step_copies_no_user_factors():
    # 40,000 users of one rating each at k = 16: the user factors, copied,
    # would take 5.1 MB; each block's rows are gathered from the
    # (n_users, k) matrix itself, so no transient comes near that size
    rng = np.random.default_rng(10)
    k, n_users, n_items = 16, 40000, 30
    ratings = SparseRatings(np.arange(n_users), rng.integers(0, n_items, n_users),
                            rng.uniform(1, 5, n_users), n_users, n_items)
    u = rng.normal(0, 1, (n_users, k))
    out, peak, _ = traced(factorize.half_step, ratings.by_item, u, None, 1.0)
    assert peak - out.nbytes < 8 * k * n_users / 2


# ---------------------------------------------------------------- joint loss

def test_loss_zero_factors_is_half_sum_of_squares():
    ratings = small_ratings(1)
    k = 3
    zeros_u = np.zeros((ratings.n_users, k))
    zeros_v = np.zeros((ratings.n_items, k))
    loss = total_loss(ratings, zeros_u, zeros_v, None, None, 1.0, 1.0)
    assert loss == pytest.approx(0.5 * float((ratings.ratings ** 2).sum()))


def test_loss_zero_at_perfect_fit_and_matching_targets():
    ratings = SparseRatings([0], [0], [4.0], 1, 1)
    u = np.array([[2.0]])
    v = np.array([[2.0]])
    loss = total_loss(ratings, u, v, u, v, 3.0, 7.0)
    assert loss == 0.0


def test_loss_matches_naive_summation():
    rng = np.random.default_rng(9)
    n_users, n_items, k = 3, 2, 2
    users = np.array([0, 1, 2, 0])
    items = np.array([0, 1, 0, 1])
    vals = rng.uniform(1, 5, 4)
    ratings = SparseRatings(users, items, vals, n_users, n_items)
    u = rng.normal(0, 1, (n_users, k))
    v = rng.normal(0, 1, (n_items, k))
    tu = rng.normal(0, 1, (n_users, k))
    tv = rng.normal(0, 1, (n_items, k))
    lu, lv, wd = 1.3, 0.7, 0.01
    nu, nv = 3.0, 4.0
    naive = 0.0
    for uu, ii, rr in zip(users, items, vals):
        naive += 0.5 * (rr - float(u[uu] @ v[ii])) ** 2
    naive += 0.5 * lu * float(((u - tu) ** 2).sum())
    naive += 0.5 * lv * float(((v - tv) ** 2).sum())
    naive += 0.5 * wd * nu + 0.5 * wd * nv
    got = total_loss(ratings, u, v, tu, tv, lu, lv, wd, nu, nv)
    assert got == pytest.approx(naive, rel=1e-12)


@pytest.mark.parametrize("k", [3, 50])
def test_loss_is_bitwise_the_same_for_every_chunk_size(monkeypatch, k):
    rng = np.random.default_rng(6)
    ratings = small_ratings(6, n=23)
    u, v = rng.normal(0, 1, (ratings.n_users, k)), rng.normal(0, 1, (ratings.n_items, k))
    losses = []
    # 5: four full chunks and a three-pair tail; 11: two and a one-pair tail
    for chunk in (10**9, 1, 5, 11):
        monkeypatch.setattr(factorize, "PAIR_CHUNK", chunk)
        losses.append(total_loss(ratings, u, v, None, v[::-1], 1.5, 0.5))
    assert losses[1:] == losses[:1] * 3


def test_loss_holds_one_chunk_of_gathered_columns(monkeypatch):
    # 40,000 ratings at k = 16: gathering all their factor columns would take
    # 10 MB; beyond the factors' size, the loss may hold a few floats per rating
    monkeypatch.setattr(factorize, "PAIR_CHUNK", 256)
    rng = np.random.default_rng(7)
    ratings = small_ratings(7, n_users=50, n_items=40, n=40000)
    u, v = rng.normal(0, 1, (50, 16)), rng.normal(0, 1, (40, 16))
    _, peak, _ = traced(total_loss, ratings, u, v, None, None, 1.0, 1.0)
    assert peak <= 4 * 8 * len(ratings) + 2 * (u.nbytes + v.nbytes) + 4 * 8 * 16 * factorize.PAIR_CHUNK


# ---------------------------------------------------------------- training

@pytest.mark.parametrize("patience", [0, -1])
def test_hyperparams_reject_patience_below_one(patience):
    with pytest.raises(ValueError, match="early_stop_patience must be >= 1"):
        Hyperparams(model_kind="PMF", early_stop_patience=patience)


@pytest.mark.parametrize("tol", [float("nan"), -1e-4])
def test_hyperparams_reject_negative_or_nan_stop_tolerance(tol):
    # either would switch early stopping off: no relative change is below it
    with pytest.raises(ValueError, match="early_stop_rel_tol must be >= 0"):
        Hyperparams(model_kind="PMF", early_stop_rel_tol=tol)


@pytest.mark.parametrize("setting", [
    {"lambda_user": float("nan")}, {"lambda_item": float("inf")},
    {"weight_decay": float("nan")}, {"weight_decay": float("inf")},
])
def test_hyperparams_reject_non_finite_regularization(setting):
    with pytest.raises(ValueError, match="must be finite"):
        Hyperparams(model_kind="PMF", **setting)


def one_cell_bundle(rating=4.0):
    from biconvmf import corpus
    records = [corpus.ReviewRecord("u0", "i0", rating, "fine movie")]
    return corpus.build_bundle(records, [0], [], max_vocab=10, max_len=4)


def test_pmf_on_single_cell_matches_scalar_iteration():
    r = 4.0
    bundle = one_cell_bundle(r)
    lam_u, lam_v = 0.4, 0.5
    hyper = Hyperparams(model_kind="PMF", n_factors=1, lambda_user=lam_u,
                        lambda_item=lam_v, outer_iters=25, seed=17,
                        early_stop_rel_tol=0.0)
    model = factorize.train(bundle, hyper)
    # scalar oracle using the same seed stream the trainer draws from
    factors_ss = np.random.SeedSequence(17).spawn(4)[0]
    u, v = init_factors(1, 1, 1, factors_ss)
    u, v = float(u[0, 0]), float(v[0, 0])
    for _ in range(25):
        u = v * r / (v * v + lam_u)
        v = u * r / (u * u + lam_v)
    assert float(model.user_factors[0, 0]) == pytest.approx(u, rel=1e-10)
    assert float(model.item_factors[0, 0]) == pytest.approx(v, rel=1e-10)
    # each half-step was non-increasing
    prev = [model.log.loss_initial] + model.log.losses[:-1]
    assert all(a <= b + 1e-12 for a, b in zip(model.log.losses_after_user, prev))
    assert all(a <= b + 1e-12 for a, b in
               zip(model.log.losses_after_item, model.log.losses_after_user))


def test_biconvmf_with_zeroed_cnns_reduces_to_pmf(tiny_bundle):
    shared = dict(n_factors=5, lambda_user=1.0, lambda_item=100.0, outer_iters=4, seed=42)
    pmf = factorize.train(tiny_bundle, Hyperparams(model_kind="PMF", **shared))
    bi = factorize.train(tiny_bundle, Hyperparams(model_kind="BiConvMF", **shared),
                         force_zero_cnn=True)
    assert np.array_equal(pmf.user_factors, bi.user_factors)
    assert np.array_equal(pmf.item_factors, bi.item_factors)
    assert pmf.log.losses == bi.log.losses


def test_model_kind_governs_which_cnns_exist(tiny_bundle):
    cfg = textcnn.CnnConfig(max_len=tiny_bundle.max_len, embedding_dim=8,
                            output_dim=4, window_sizes=(2,), n_filters=4)
    opt = textcnn.OptimizerConfig(epochs=1, batch_size=64)
    pmf = factorize.train(tiny_bundle, Hyperparams.for_model("PMF", n_factors=4, outer_iters=1))
    assert pmf.cnn_user is None and pmf.cnn_item is None
    conv = factorize.train(tiny_bundle, Hyperparams.for_model("ConvMF", n_factors=4, outer_iters=1),
                           cnn_config=cfg, optimizer=opt)
    assert conv.cnn_user is None and conv.cnn_item is not None
    bi = factorize.train(tiny_bundle, Hyperparams.for_model("BiConvMF", n_factors=4, outer_iters=1),
                         cnn_config=cfg, optimizer=opt)
    assert bi.cnn_user is not None and bi.cnn_item is not None
    # the kind also decides the default lambdas, through either constructor
    for kind in factorize.MODEL_KINDS:
        hyper = Hyperparams(model_kind=kind)
        assert hyper == Hyperparams.for_model(kind)
        assert (hyper.lambda_user, hyper.lambda_item) == factorize.DEFAULT_LAMBDAS[kind]


def test_biconvmf_plus_requires_pretrained(tiny_bundle):
    with pytest.raises(ValueError, match="pretrained"):
        factorize.train(tiny_bundle, Hyperparams.for_model("BiConvMF+", n_factors=4, outer_iters=1))


def test_biconvmf_plus_uses_frozen_pretrained_table(tiny_bundle):
    cfg = textcnn.CnnConfig(max_len=tiny_bundle.max_len, embedding_dim=6,
                            output_dim=4, window_sizes=(2,), n_filters=4)
    opt = textcnn.OptimizerConfig(epochs=1, batch_size=64)
    rng = np.random.default_rng(8)
    table = rng.normal(0, 0.2, (len(tiny_bundle.vocab) + 1, 6))
    table[0] = 0.0
    model = factorize.train(
        tiny_bundle, Hyperparams.for_model("BiConvMF+", n_factors=4, outer_iters=2),
        cnn_config=cfg, optimizer=opt, pretrained_embedding=table)
    assert model.cnn_user.embedding_trainable is False
    assert np.array_equal(model.cnn_user.embedding, table)
    assert np.array_equal(model.cnn_item.embedding, table)


def test_fresh_cnns_train_in_float32_throughout(tiny_bundle, monkeypatch):
    # every array the fit computes, not only the params it returns: a float64
    # operand upcasting a pass would still round back into float32 params
    seen = []

    def record(name, arrays_of):
        fn = getattr(textcnn, name)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen.extend((name, a.dtype) for a in arrays_of(args, result))
            return result
        monkeypatch.setattr(textcnn, name, wrapper)

    def forward_arrays(args, result):
        out, cache = result
        if cache is None:
            return [out]
        held = [a for v in cache.values() if v is not None for a in (v if isinstance(v, list) else [v])]
        return [out, *(a for a in held if a.dtype.kind == "f")]

    record("_forward_batch", forward_arrays)
    record("_backward_batch", lambda args, result: [args[2], *result.trainable()])
    record("_rmsprop_step", lambda args, result: [*args[0].trainable(), *args[1]])
    record("forward_many", lambda args, result: [result])
    record("fit_to_targets", lambda args, result: [*result[0].trainable(), result[2]])
    cfg = textcnn.CnnConfig(max_len=tiny_bundle.max_len, embedding_dim=8,
                            output_dim=4, window_sizes=(2, 3), n_filters=4, dropout_rate=0.2)
    model = factorize.train(tiny_bundle, Hyperparams.for_model("BiConvMF", n_factors=4, outer_iters=2),
                            cnn_config=cfg, optimizer=textcnn.OptimizerConfig(epochs=1, batch_size=32))
    assert {name for name, _ in seen} == {"_forward_batch", "_backward_batch", "_rmsprop_step",
                                          "forward_many", "fit_to_targets"}
    assert [(name, dtype) for name, dtype in seen if dtype != np.float32] == []
    for cnn in (model.cnn_user, model.cnn_item):   # a fresh CNN trains every array
        assert cnn.embedding_trainable and {a.dtype for a in cnn.trainable()} == {np.dtype(np.float32)}
    assert all(type(loss) is float for loss in model.log.fit_losses_user + model.log.losses)
    assert model.user_factors.dtype == model.item_factors.dtype == np.float64


def test_train_same_seed_bitwise_identical(tiny_bundle):
    cfg = textcnn.CnnConfig(max_len=tiny_bundle.max_len, embedding_dim=8,
                            output_dim=4, window_sizes=(2, 3), n_filters=4,
                            dropout_rate=0.2)
    opt = textcnn.OptimizerConfig(epochs=1, batch_size=32)
    hyper = Hyperparams.for_model("BiConvMF", n_factors=4, outer_iters=2, seed=5)
    a = factorize.train(tiny_bundle, hyper, cnn_config=cfg, optimizer=opt)
    b = factorize.train(tiny_bundle, hyper, cnn_config=cfg, optimizer=opt)
    assert np.array_equal(a.user_factors, b.user_factors)
    assert np.array_equal(a.item_factors, b.item_factors)
    assert np.array_equal(a.cnn_user.proj, b.cnn_user.proj)
    assert a.log.losses == b.log.losses


def test_train_encodes_each_side_once(tiny_bundle, monkeypatch):
    # forward_many inside mean_loss is the fit's evaluation pass; any other
    # call encodes a side's documents for the trainer itself
    forward_many, mean_loss = textcnn.forward_many, textcnn.mean_loss
    encoded, in_eval = [], False

    def counting_forward_many(params, docs, *args, **kwargs):
        if not in_eval:
            encoded.append(docs)
        return forward_many(params, docs, *args, **kwargs)

    def flagged_mean_loss(*args, **kwargs):
        nonlocal in_eval
        in_eval = True
        try:
            return mean_loss(*args, **kwargs)
        finally:
            in_eval = False

    monkeypatch.setattr(textcnn, "forward_many", counting_forward_many)
    monkeypatch.setattr(textcnn, "mean_loss", flagged_mean_loss)
    cfg = textcnn.CnnConfig(max_len=tiny_bundle.max_len, embedding_dim=8,
                            output_dim=4, window_sizes=(2, 3), n_filters=4, dropout_rate=0.2)
    hyper = Hyperparams.for_model("BiConvMF", n_factors=4, outer_iters=3, seed=6)
    model = factorize.train(tiny_bundle, hyper, cnn_config=cfg,
                            optimizer=textcnn.OptimizerConfig(epochs=2, batch_size=32))
    assert model.log.n_iterations() == 3
    assert [id(d) for d in encoded] == [id(tiny_bundle.user_docs), id(tiny_bundle.item_docs)]

    # the reused encodings are those of the final CNNs
    ratings = SparseRatings(tiny_bundle.train_user_idx, tiny_bundle.train_item_idx,
                            tiny_bundle.train_ratings, tiny_bundle.n_users, tiny_bundle.n_items)
    t_user = forward_many(model.cnn_user, tiny_bundle.user_docs)
    t_item = forward_many(model.cnn_item, tiny_bundle.item_docs)
    assert model.log.losses[-1] == factorize.total_loss(
        ratings, model.user_factors.T, model.item_factors.T, t_user, t_item,
        hyper.lambda_user, hyper.lambda_item, hyper.weight_decay,
        model.cnn_user.weight_sqnorm(), model.cnn_item.weight_sqnorm())


def test_pmf_reuses_the_after_item_loss_at_the_end_of_each_iteration(tiny_bundle, monkeypatch):
    n_iters, calls = 3, []

    def counting_total_loss(*args, **kwargs):
        calls.append(1)
        return total_loss(*args, **kwargs)

    monkeypatch.setattr(factorize, "total_loss", counting_total_loss)
    hyper = Hyperparams.for_model("PMF", n_factors=4, outer_iters=n_iters, seed=4,
                                  early_stop_rel_tol=0.0)
    log = factorize.train(tiny_bundle, hyper).log
    assert len(calls) == 1 + 2 * n_iters
    assert log.n_iterations() == n_iters
    assert np.array_equal(log.losses, log.losses_after_item)


def test_early_stop_triggers(tiny_bundle):
    hyper = Hyperparams.for_model("PMF", n_factors=4, outer_iters=60, seed=2,
                                  early_stop_rel_tol=1e-4, early_stop_patience=3)
    model = factorize.train(tiny_bundle, hyper)
    assert model.log.n_iterations() < 60


def test_stopped_early_only_when_iterations_are_skipped(tiny_bundle):
    # any loss change is below the tolerance, so the streak completes at iteration 2
    hyper = Hyperparams.for_model("PMF", n_factors=4, outer_iters=2, seed=2,
                                  early_stop_rel_tol=1e9, early_stop_patience=1)
    last = factorize.train(tiny_bundle, hyper)
    assert last.log.n_iterations() == 2
    skipped = factorize.train(tiny_bundle, replace(hyper, outer_iters=3))
    assert skipped.log.n_iterations() == 2
    assert skipped.log.losses == last.log.losses


# ---------------------------------------------------------------- predict

def make_predictable_model():
    hyper = Hyperparams.for_model("PMF", n_factors=2, outer_iters=1)
    return factorize.TrainedModel(
        hyper=hyper,
        user_factors=np.array([[1.0, 0.0], [2.0, 0.0]]),
        item_factors=np.array([[3.0, 0.5], [4.0, 0.5]]),
        user_ids=["alice", "cold_carl"], item_ids=["widget", "ghost"],
        cnn_user=None, cnn_item=None,
        item_means=np.array([4.5, 3.7]),   # 3.7: the global training mean
        user_train_counts=np.array([2, 0]),
        item_train_counts=np.array([2, 0]),
        train_digest="",
        log=factorize.TrainLog(),
    )


# user 0 (alice) and item 0 (widget) have training ratings; user 1 and item 1 have none

def test_predict_dot_product():
    model = make_predictable_model()
    assert model.predict_indexed([0], [0])[0] == pytest.approx(11.0)


def test_predict_cold_user_falls_back_to_item_mean():
    model = make_predictable_model()
    assert model.predict_indexed([1], [0])[0] == pytest.approx(4.5)


def test_predict_cold_item_falls_back_to_global_mean():
    model = make_predictable_model()
    np.testing.assert_allclose(model.predict_indexed([0, 1], [1, 1]), [3.7, 3.7])


def test_predict_clip_flag():
    model = make_predictable_model()
    assert model.predict_indexed([0], [0], clip=True)[0] == 5.0


def test_predict_indexed_mixes_fallbacks_per_pair():
    model = make_predictable_model()
    preds = model.predict_indexed([0, 1, 0, 1], [0, 0, 1, 1])
    np.testing.assert_array_equal(preds, [11.0, 4.5, 3.7, 3.7])


@pytest.mark.parametrize("users, items, message", [
    ([0, -1], [0, 0], "user index -1 outside"),
    ([0, 2], [0, 0], "user index 2 outside"),
    ([0], [-3], "item index -3 outside"),
    ([0], [2], "item index 2 outside"),
])
def test_predict_indexed_refuses_out_of_range_index(users, items, message):
    with pytest.raises(ValueError, match=message):
        make_predictable_model().predict_indexed(users, items)



@pytest.mark.parametrize("clip", [False, True])
def test_predict_indexed_refuses_overflowing_dot_product_before_clipping(clip):
    model = make_predictable_model()
    model.user_factors[:] = 1e200
    model.item_factors[:] = 1e200
    # a cold pair falls back to the item mean, and is never the dot product
    np.testing.assert_array_equal(model.predict_indexed([1], [0], clip=clip), [4.5])
    with pytest.raises(factorize.NonFinitePredictionError,
                       match="user 'alice' for item 'widget' is not finite"):
        model.predict_indexed([1, 0], [0, 0], clip=clip)

# ---------------------------------------------------------------- checkpoints

def trained_tiny_model(tiny_bundle):
    cfg = textcnn.CnnConfig(max_len=tiny_bundle.max_len, embedding_dim=8,
                            output_dim=4, window_sizes=(2,), n_filters=4)
    opt = textcnn.OptimizerConfig(epochs=1, batch_size=64)
    hyper = Hyperparams.for_model("BiConvMF", n_factors=4, outer_iters=2, seed=3)
    return factorize.train(tiny_bundle, hyper, cnn_config=cfg, optimizer=opt)


def test_checkpoint_roundtrip_is_bitwise(tmp_path, tiny_bundle):
    model = trained_tiny_model(tiny_bundle)
    path = tmp_path / "model.ckpt"
    factorize.save_model(model, path)
    back = factorize.load_model(path)
    assert back.model_kind == model.model_kind
    assert np.array_equal(back.user_factors, model.user_factors)
    assert np.array_equal(back.item_factors, model.item_factors)
    assert np.array_equal(back.item_means, model.item_means)
    assert np.array_equal(back.cnn_user.embedding, model.cnn_user.embedding)
    assert back.log.losses == model.log.losses
    rng = np.random.default_rng(0)
    users = rng.integers(0, len(model.user_ids), 100)
    items = rng.integers(0, len(model.item_ids), 100)
    assert np.array_equal(back.predict_indexed(users, items), model.predict_indexed(users, items))
    factorize.save_model(back, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_item_means_hold_the_global_training_mean_at_cold_items(tiny_bundle):
    model = trained_tiny_model(tiny_bundle)
    cold = model.item_train_counts == 0
    assert cold.any()
    global_mean = np.asarray(tiny_bundle.train_ratings, dtype=np.float64).mean()
    assert np.all(model.item_means[cold] == global_mean)


def test_checkpoint_records_the_training_split_digest(tmp_path, tiny_bundle):
    model = trained_tiny_model(tiny_bundle)
    assert model.train_digest == tiny_bundle.train_digest()
    factorize.save_model(model, tmp_path / "model.ckpt")
    assert factorize.load_model(tmp_path / "model.ckpt").train_digest == model.train_digest


def edit_checkpoint(path, edit):
    _, sections = serialize.read_container(path, factorize.MODEL_MAGIC, (factorize.MODEL_VERSION,))
    meta = serialize.json_from_bytes(sections["meta"], "meta")
    edit(meta, sections)
    sections["meta"] = serialize.json_to_bytes(meta)
    serialize.write_container(path, factorize.MODEL_MAGIC, factorize.MODEL_VERSION, sections)


@pytest.mark.parametrize("edit, message", [
    (lambda meta, sections: meta.pop("log"), "missing meta key 'log'"),
    (lambda meta, sections: meta["hyper"].update(clip=True), "unexpected meta key 'hyper.clip'"),
    (lambda meta, sections: sections.pop("item_means"), "missing required section 'item_means'"),
    (lambda meta, sections: sections.update(notes=b"{}"), "unexpected section 'notes'"),
    (lambda meta, sections: meta.update(global_mean=3.5), "unexpected meta key 'global_mean'"),
])
def test_checkpoint_layout_mismatch_refused(tmp_path, tiny_bundle, edit, message):
    path = tmp_path / "model.ckpt"
    factorize.save_model(trained_tiny_model(tiny_bundle), path)
    edit_checkpoint(path, edit)
    with pytest.raises(serialize.ContainerError, match=message):
        factorize.load_model(path)


def test_checkpoint_truncated_file_errors(tmp_path, tiny_bundle):
    model = trained_tiny_model(tiny_bundle)
    path = tmp_path / "model.ckpt"
    factorize.save_model(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(serialize.ContainerError, match="section"):
        factorize.load_model(path)


def test_checkpoint_unknown_version_rejected(tmp_path, tiny_bundle):
    model = trained_tiny_model(tiny_bundle)
    path = tmp_path / "model.ckpt"
    factorize.save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[8] = 99  # bump the version field
    path.write_bytes(bytes(blob))
    with pytest.raises(serialize.UnsupportedVersionError, match="99"):
        factorize.load_model(path)
