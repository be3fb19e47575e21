"""Alternating MAP optimization of the latent factor model.

One trainer covers four model variants:

  PMF        ratings only; both factor priors are zero-centered.
  ConvMF     item factors get a text prior from a CNN over item review sets.
  BiConvMF   both sides get text priors from two independent CNNs.
  BiConvMF+  BiConvMF with the embeddings initialized from pretrained vectors.

Each outer iteration alternates exact closed-form row updates

    u_i <- (V_i V_i^T + lambda_u I)^-1 (V_i r_i + lambda_u * prior_u(i))
    v_j <- (U_j U_j^T + lambda_v I)^-1 (U_j r_j + lambda_v * prior_v(j))

(sums over the rated entries only) with a few epochs of CNN refitting toward
the fresh factor columns.  Holding the CNN outputs fixed, each half-step is
an exact minimizer, so the joint loss never increases across it.  One
function, half_step, serves both sides: it groups the rows of a side by
their number of ratings and solves each group as one stacked system (the
batched ALS-WR half-step of Zhou et al., 2008), with no per-row loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import serialize, textcnn
from .linalg import spd_solve, weighted_gram
from .textcnn import CnnConfig, CnnParams, OptimizerConfig, TrainingDivergedError

MODEL_KINDS = ("PMF", "ConvMF", "BiConvMF", "BiConvMF+")

# Tuned regularization strengths shipped as per-model defaults.
DEFAULT_LAMBDAS = {
    "PMF": (1.0, 100.0),
    "ConvMF": (1.0, 100.0),
    "BiConvMF": (100.0, 100.0),
    "BiConvMF+": (100.0, 100.0),
}

MODEL_MAGIC = b"BCMFMODL"
MODEL_VERSION = 1


def canonical_model_kind(name: str) -> str:
    for kind in MODEL_KINDS:
        if name.lower() == kind.lower():
            return kind
    raise ValueError(f"unknown model kind {name!r}; expected one of {MODEL_KINDS}")


def uses_user_cnn(model_kind: str) -> bool:
    return model_kind in ("BiConvMF", "BiConvMF+")


def uses_item_cnn(model_kind: str) -> bool:
    return model_kind != "PMF"


@dataclass
class Hyperparams:
    model_kind: str = "BiConvMF"
    n_factors: int = 50
    lambda_user: float = 100.0
    lambda_item: float = 100.0
    weight_decay_user: float = 1e-4
    weight_decay_item: float = 1e-4
    outer_iters: int = 30
    early_stop_rel_tol: float = 1e-4
    early_stop_patience: int = 3
    seed: int = 0

    def __post_init__(self):
        self.model_kind = canonical_model_kind(self.model_kind)
        if self.n_factors < 1:
            raise ValueError(f"n_factors must be >= 1, got {self.n_factors}")
        if self.lambda_user <= 0 or self.lambda_item <= 0:
            raise ValueError("lambda_user and lambda_item must be > 0")
        if self.weight_decay_user < 0 or self.weight_decay_item < 0:
            raise ValueError("weight decays must be >= 0")
        if self.outer_iters < 1:
            raise ValueError("outer_iters must be >= 1")
        if self.early_stop_patience < 1:
            raise ValueError(f"early_stop_patience must be >= 1, got {self.early_stop_patience}")

    @classmethod
    def for_model(cls, model_kind: str, **overrides) -> "Hyperparams":
        kind = canonical_model_kind(model_kind)
        lu, lv = DEFAULT_LAMBDAS[kind]
        base = dict(model_kind=kind, lambda_user=lu, lambda_item=lv)
        base.update(overrides)
        return cls(**base)


class CsrSide(NamedTuple):
    """One side of the rating triplets in compressed-row form: the entries of
    row r are cols[ptr[r]:ptr[r + 1]] with ratings vals[ptr[r]:ptr[r + 1]]."""

    ptr: np.ndarray     # (n_rows + 1,) row offsets
    cols: np.ndarray    # column index of each entry, grouped by row
    vals: np.ndarray    # rating of each entry

    @classmethod
    def build(cls, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n_rows: int) -> "CsrSide":
        # stable sort keeps input order within each row
        order = np.argsort(rows, kind="stable")
        ptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_rows))])
        return cls(ptr, cols[order], vals[order])

    def counts(self) -> np.ndarray:
        return np.diff(self.ptr)


class SparseRatings:
    """Rating triplets with per-user and per-item adjacency.

    Duplicate (user, item) pairs are kept as distinct triplets; each one
    contributes its own squared-error term.
    """

    def __init__(self, user_idx, item_idx, ratings, n_users: int, n_items: int):
        self.users = np.asarray(user_idx, dtype=np.int64)
        self.items = np.asarray(item_idx, dtype=np.int64)
        self.ratings = np.asarray(ratings, dtype=np.float64)
        if not (len(self.users) == len(self.items) == len(self.ratings)):
            raise ValueError("triplet arrays must have equal length")
        if len(self.users) and (self.users.min() < 0 or self.users.max() >= n_users):
            raise ValueError("user index out of range")
        if len(self.items) and (self.items.min() < 0 or self.items.max() >= n_items):
            raise ValueError("item index out of range")
        self.n_users = n_users
        self.n_items = n_items
        self.by_user = CsrSide.build(self.users, self.items, self.ratings, n_users)
        self.by_item = CsrSide.build(self.items, self.users, self.ratings, n_items)

    def __len__(self) -> int:
        return len(self.ratings)


def init_factors(n_users: int, n_items: int, n_factors: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """U (k x N) and V (k x M) with entries i.i.d. Uniform[0, 1), seeded."""
    if min(n_users, n_items, n_factors) < 1:
        raise ValueError("n_users, n_items, n_factors must all be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.random((n_factors, n_users))
    v = rng.random((n_factors, n_items))
    return u, v


def half_step(side: CsrSide, fixed: np.ndarray, targets: np.ndarray | None,
              lam: float) -> np.ndarray:
    """Exact minimizer of the joint loss over one factor matrix, all rows at once.

    Row r with columns C = fixed[:, cols of r] (k x d), ratings y and prior
    mean t (its target column, zeros when targets is None) solves

        (C C^T + lam I_k) x = C y + lam t.

    Rows are grouped by degree d and each group is one stacked solve: for
    d >= k the k x k system above; for d < k the d x d push-through form
    x = t + C (C^T C + lam I_d)^-1 (y - C^T t), the same minimizer.  Rows
    with no ratings get their target column verbatim.
    """
    k, n_rows = fixed.shape[0], len(side.ptr) - 1
    out = np.zeros((k, n_rows)) if targets is None else np.array(targets, dtype=np.float64)
    fixed_rows = np.ascontiguousarray(fixed.T)         # (n_fixed, k)
    deg = side.counts()
    order = np.argsort(deg, kind="stable")
    degrees, starts = np.unique(deg[order], return_index=True)
    for d, rows in zip(degrees, np.split(order, starts[1:])):
        if d == 0:
            continue
        entries = side.ptr[rows, None] + np.arange(d)  # (n_d, d)
        c_t = fixed_rows[side.cols[entries]]            # (n_d, d, k): C^T per row
        c = c_t.swapaxes(1, 2)                          # (n_d, k, d)
        y = side.vals[entries]                          # (n_d, d)
        t = out[:, rows].T                              # (n_d, k)
        if d < k:
            a = weighted_gram(c_t)                      # C^T C
            a[:, np.arange(d), np.arange(d)] += lam
            z = spd_solve(a, y - np.einsum("ndk,nk->nd", c_t, t))
            x = t + np.einsum("nkd,nd->nk", c, z)
        else:
            a = weighted_gram(c)                        # C C^T
            a[:, np.arange(k), np.arange(k)] += lam
            x = spd_solve(a, np.einsum("nkd,nd->nk", c, y) + lam * t)
        out[:, rows] = x.T
    return out


def update_user_factors(ratings: SparseRatings, item_factors: np.ndarray,
                        targets: np.ndarray | None, lambda_user: float) -> np.ndarray:
    """User half-step: targets holds the per-user prior means as columns."""
    return half_step(ratings.by_user, item_factors, targets, lambda_user)


def update_item_factors(ratings: SparseRatings, user_factors: np.ndarray,
                        targets: np.ndarray | None, lambda_item: float) -> np.ndarray:
    """Item half-step: targets holds the per-item prior means as columns."""
    return half_step(ratings.by_item, user_factors, targets, lambda_item)


def total_loss(ratings: SparseRatings, user_factors: np.ndarray, item_factors: np.ndarray,
               targets_user: np.ndarray | None, targets_item: np.ndarray | None,
               lambda_user: float, lambda_item: float,
               weight_decay_user: float = 0.0, weight_decay_item: float = 0.0,
               user_weight_sqnorm: float = 0.0, item_weight_sqnorm: float = 0.0) -> float:
    """Joint MAP loss: squared rating error plus factor-prior and weight terms.

    0.5 * sum_(i,j) (r_ij - u_i . v_j)^2
    + (lambda_user/2) * sum_i ||u_i - prior_u(i)||^2
    + (lambda_item/2) * sum_j ||v_j - prior_v(j)||^2
    + (weight_decay_user/2) * user_weight_sqnorm
    + (weight_decay_item/2) * item_weight_sqnorm
    """
    preds = np.einsum("ki,ki->i", user_factors[:, ratings.users], item_factors[:, ratings.items])
    loss = 0.5 * float(((ratings.ratings - preds) ** 2).sum())
    du = user_factors - targets_user if targets_user is not None else user_factors
    dv = item_factors - targets_item if targets_item is not None else item_factors
    loss += 0.5 * lambda_user * float((du ** 2).sum())
    loss += 0.5 * lambda_item * float((dv ** 2).sum())
    loss += 0.5 * weight_decay_user * user_weight_sqnorm
    loss += 0.5 * weight_decay_item * item_weight_sqnorm
    return loss


@dataclass
class TrainLog:
    loss_initial: float = 0.0
    losses_after_user: list = field(default_factory=list)
    losses_after_item: list = field(default_factory=list)
    losses: list = field(default_factory=list)          # end-of-iteration joint loss
    fit_losses_user: list = field(default_factory=list)
    fit_losses_item: list = field(default_factory=list)
    stopped_early: bool = False

    def n_iterations(self) -> int:
        return len(self.losses)


@serialize.container(MODEL_MAGIC, MODEL_VERSION,
                     "user_ids", "item_ids", "user_factors", "item_factors", "item_means",
                     "user_train_counts", "item_train_counts", "cnn_user", "cnn_item")
@dataclass
class TrainedModel:
    model_kind: str
    hyper: Hyperparams
    user_factors: np.ndarray   # (k, n_users)
    item_factors: np.ndarray   # (k, n_items)
    user_ids: list[str]
    item_ids: list[str]
    cnn_user: CnnParams | None
    cnn_item: CnnParams | None
    global_mean: float
    item_means: np.ndarray         # per-item training mean; global mean where unrated
    user_train_counts: np.ndarray
    item_train_counts: np.ndarray
    log: TrainLog

    def predict_indexed(self, user_idx, item_idx, clip: bool = False) -> np.ndarray:
        """Vectorized predictions for index arrays, with cold-start fallbacks.

        A user or item is cold when it has no training ratings: a cold item
        falls back to the global training mean, a cold user (on a warm item)
        to that item's training mean; otherwise the factor dot product.  An
        index outside [0, n) is a ValueError.
        """
        user_idx = np.asarray(user_idx, dtype=np.int64)
        item_idx = np.asarray(item_idx, dtype=np.int64)
        for side, idx, n in (("user", user_idx, len(self.user_ids)),
                             ("item", item_idx, len(self.item_ids))):
            bad = idx[(idx < 0) | (idx >= n)]
            if bad.size:
                raise ValueError(f"{side} index {bad[0]} outside [0, {n})")
        dots = np.einsum("ki,ki->i", self.user_factors[:, user_idx], self.item_factors[:, item_idx])
        warm_u = self.user_train_counts[user_idx] > 0
        warm_i = self.item_train_counts[item_idx] > 0
        preds = np.where(~warm_i, self.global_mean,
                         np.where(~warm_u, self.item_means[item_idx], dots))
        if clip:
            preds = np.clip(preds, 1.0, 5.0)
        return preds


@dataclass
class _Side:
    """Training state of one factor side (users or items)."""

    docs: np.ndarray                # one review document per factor column
    lens: np.ndarray
    lam: float                      # prior strength
    weight_decay: float
    fit_losses: list                # the TrainLog list of this side's CNN fit losses
    cnn: CnnParams | None
    encodings: np.ndarray | None    # (n, k) outputs of cnn on docs: the prior means
    factors: np.ndarray | None = None   # (k, n) factor columns

    def targets(self) -> np.ndarray | None:
        """Prior means as columns, or None for the zero prior."""
        return None if self.encodings is None else self.encodings.T

    def weight_sqnorm(self) -> float:
        return 0.0 if self.cnn is None else self.cnn.weight_sqnorm()


def train(bundle, hyper: Hyperparams, cnn_config: CnnConfig | None = None,
          optimizer: OptimizerConfig | None = None,
          pretrained_embedding: np.ndarray | None = None,
          pretrained_trainable: bool = False,
          force_zero_cnn: bool = False,
          verbose: bool = False) -> TrainedModel:
    """Train one model variant on a corpus bundle's training split.

    force_zero_cnn pins both text priors to zero and skips CNN creation and
    fitting entirely; with the same seed this reproduces the PMF trainer
    bit for bit (used as a reduction check).
    """
    kind = hyper.model_kind
    ratings = SparseRatings(bundle.train_user_idx, bundle.train_item_idx,
                            bundle.train_ratings, bundle.n_users, bundle.n_items)
    if len(ratings) == 0:
        raise ValueError("bundle has no training ratings")

    want_user_cnn = uses_user_cnn(kind) and not force_zero_cnn
    want_item_cnn = uses_item_cnn(kind) and not force_zero_cnn
    if (want_user_cnn or want_item_cnn) and cnn_config is None:
        cnn_config = CnnConfig(max_len=bundle.max_len, output_dim=hyper.n_factors)
    if cnn_config is not None and (want_user_cnn or want_item_cnn):
        if cnn_config.max_len != bundle.max_len:
            raise ValueError(f"cnn max_len {cnn_config.max_len} != bundle max_len {bundle.max_len}")
        if cnn_config.output_dim != hyper.n_factors:
            raise ValueError(f"cnn output_dim {cnn_config.output_dim} != n_factors {hyper.n_factors}")
    if kind == "BiConvMF+" and not force_zero_cnn and pretrained_embedding is None:
        raise ValueError("BiConvMF+ requires a pretrained embedding table")

    # Independent seed streams so that dropping the CNNs does not shift the
    # factor initialization.
    root = np.random.SeedSequence(hyper.seed)
    factors_ss, user_cnn_ss, item_cnn_ss, fits_ss = root.spawn(4)

    def start_side(docs, lens, lam, weight_decay, fit_losses, want_cnn, cnn_ss) -> _Side:
        if not want_cnn:
            return _Side(docs, lens, lam, weight_decay, fit_losses, None, None)
        cnn = textcnn.init_cnn_params(
            cnn_config, bundle.vocab.size, cnn_ss,
            embedding=pretrained_embedding if kind == "BiConvMF+" else None,
            embedding_trainable=pretrained_trainable if kind == "BiConvMF+" else None)
        return _Side(docs, lens, lam, weight_decay, fit_losses, cnn,
                     textcnn.forward_many(cnn, docs, lens))

    log = TrainLog()
    user = start_side(bundle.user_docs, bundle.user_doc_lens, hyper.lambda_user,
                      hyper.weight_decay_user, log.fit_losses_user, want_user_cnn, user_cnn_ss)
    item = start_side(bundle.item_docs, bundle.item_doc_lens, hyper.lambda_item,
                      hyper.weight_decay_item, log.fit_losses_item, want_item_cnn, item_cnn_ss)
    user.factors, item.factors = init_factors(bundle.n_users, bundle.n_items, hyper.n_factors,
                                              factors_ss)
    cnn_sides = [side for side in (user, item) if side.cnn is not None]

    def loss_now():
        return total_loss(ratings, user.factors, item.factors, user.targets(), item.targets(),
                          user.lam, item.lam, user.weight_decay, item.weight_decay,
                          user.weight_sqnorm(), item.weight_sqnorm())

    log.loss_initial = loss_now()
    streak = 0
    prev_loss = None
    for it in range(1, hyper.outer_iters + 1):
        user.factors = update_user_factors(ratings, item.factors, user.targets(), user.lam)
        log.losses_after_user.append(loss_now())
        item.factors = update_item_factors(ratings, user.factors, item.targets(), item.lam)
        log.losses_after_item.append(loss_now())

        # each fit starts from this iteration's encodings and returns those of
        # the params it keeps, so no side is encoded outside the fit
        for side, fit_seed in zip(cnn_sides, fits_ss.spawn(len(cnn_sides))):
            side.cnn, fit_loss, side.encodings = textcnn.fit_to_targets(
                side.cnn, side.docs, side.lens, side.factors.T, side.lam, side.weight_decay,
                optimizer, fit_seed, start_outputs=side.encodings)
            side.fit_losses.append(fit_loss)

        loss = loss_now()
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"non-finite joint loss at outer iteration {it}: {loss}")
        log.losses.append(loss)
        if verbose:
            print(f"iter {it:3d}  loss {loss:.6e}", flush=True)

        if prev_loss is not None:
            rel = abs(prev_loss - loss) / max(abs(prev_loss), 1e-300)
            streak = streak + 1 if rel < hyper.early_stop_rel_tol else 0
            if streak >= hyper.early_stop_patience and it < hyper.outer_iters:
                log.stopped_early = True
                break
        prev_loss = loss

    user_counts = ratings.by_user.counts()
    item_counts = ratings.by_item.counts()
    global_mean = float(ratings.ratings.mean())
    sums = np.bincount(ratings.items, weights=ratings.ratings, minlength=bundle.n_items)
    item_means = np.where(item_counts > 0, sums / np.maximum(item_counts, 1), global_mean)

    return TrainedModel(
        model_kind=kind, hyper=hyper,
        user_factors=user.factors, item_factors=item.factors,
        user_ids=list(bundle.user_ids), item_ids=list(bundle.item_ids),
        cnn_user=user.cnn, cnn_item=item.cnn,
        global_mean=global_mean, item_means=item_means,
        user_train_counts=user_counts, item_train_counts=item_counts,
        log=log,
    )


def save_model(model: TrainedModel, path) -> None:
    serialize.save(model, path)


def load_model(path) -> TrainedModel:
    return serialize.load(TrainedModel, path)
