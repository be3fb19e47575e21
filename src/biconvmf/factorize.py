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
an exact minimizer, so the joint loss never increases across it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

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

    @classmethod
    def for_model(cls, model_kind: str, **overrides) -> "Hyperparams":
        kind = canonical_model_kind(model_kind)
        lu, lv = DEFAULT_LAMBDAS[kind]
        base = dict(model_kind=kind, lambda_user=lu, lambda_item=lv)
        base.update(overrides)
        return cls(**base)


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
        # CSR-style adjacency; stable sort keeps input order within each row.
        order_u = np.argsort(self.users, kind="stable")
        self._u_items = self.items[order_u]
        self._u_ratings = self.ratings[order_u]
        self._u_ptr = np.zeros(n_users + 1, dtype=np.int64)
        np.add.at(self._u_ptr, self.users + 1, 1)
        np.cumsum(self._u_ptr, out=self._u_ptr)
        order_i = np.argsort(self.items, kind="stable")
        self._i_users = self.users[order_i]
        self._i_ratings = self.ratings[order_i]
        self._i_ptr = np.zeros(n_items + 1, dtype=np.int64)
        np.add.at(self._i_ptr, self.items + 1, 1)
        np.cumsum(self._i_ptr, out=self._i_ptr)

    def __len__(self) -> int:
        return len(self.ratings)

    @property
    def density(self) -> float:
        cells = self.n_users * self.n_items
        return len(self) / cells if cells else 0.0

    def items_of(self, user: int) -> tuple[np.ndarray, np.ndarray]:
        sl = slice(self._u_ptr[user], self._u_ptr[user + 1])
        return self._u_items[sl], self._u_ratings[sl]

    def users_of(self, item: int) -> tuple[np.ndarray, np.ndarray]:
        sl = slice(self._i_ptr[item], self._i_ptr[item + 1])
        return self._i_users[sl], self._i_ratings[sl]

    def user_counts(self) -> np.ndarray:
        return np.diff(self._u_ptr)

    def item_counts(self) -> np.ndarray:
        return np.diff(self._i_ptr)


def init_factors(n_users: int, n_items: int, n_factors: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """U (k x N) and V (k x M) with entries i.i.d. Uniform[0, 1), seeded."""
    if min(n_users, n_items, n_factors) < 1:
        raise ValueError("n_users, n_items, n_factors must all be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.random((n_factors, n_users))
    v = rng.random((n_factors, n_items))
    return u, v


def update_user_factors(ratings: SparseRatings, item_factors: np.ndarray,
                        targets: np.ndarray | None, lambda_user: float) -> np.ndarray:
    """Exact row-wise minimizer of the joint loss over the user factors.

    targets holds the per-user prior means as columns (zeros when None).
    Users with no training ratings get their target column verbatim.
    """
    k = item_factors.shape[0]
    u = np.empty((k, ratings.n_users))
    for i in range(ratings.n_users):
        idx, r = ratings.items_of(i)
        target = targets[:, i] if targets is not None else np.zeros(k)
        if len(idx) == 0:
            u[:, i] = target
            continue
        cols = item_factors[:, idx]
        a = weighted_gram(cols)
        a[np.diag_indices_from(a)] += lambda_user
        b = cols @ r + lambda_user * target
        u[:, i] = spd_solve(a, b)
    return u


def update_item_factors(ratings: SparseRatings, user_factors: np.ndarray,
                        targets: np.ndarray | None, lambda_item: float) -> np.ndarray:
    """Mirror of update_user_factors with the roles swapped."""
    k = user_factors.shape[0]
    v = np.empty((k, ratings.n_items))
    for j in range(ratings.n_items):
        idx, r = ratings.users_of(j)
        target = targets[:, j] if targets is not None else np.zeros(k)
        if len(idx) == 0:
            v[:, j] = target
            continue
        cols = user_factors[:, idx]
        a = weighted_gram(cols)
        a[np.diag_indices_from(a)] += lambda_item
        b = cols @ r + lambda_item * target
        v[:, j] = spd_solve(a, b)
    return v


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
    # not stored: checkpoints must be byte-identical across reruns of one config and seed
    seconds: float = field(default=0.0, metadata=serialize.SKIP)

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

    def __post_init__(self):
        self._user_pos = {uid: i for i, uid in enumerate(self.user_ids)}
        self._item_pos = {iid: j for j, iid in enumerate(self.item_ids)}

    def predict_indexed(self, user_idx, item_idx, clip: bool = False) -> np.ndarray:
        """Vectorized predictions for index arrays, with cold-start fallbacks.

        A user or item is cold when it has no training ratings or a negative
        index (an id unknown to training): a cold item falls back to the global
        training mean, a cold user (on a warm item) to that item's training
        mean; otherwise the factor dot product.
        """
        user_idx = np.asarray(user_idx, dtype=np.int64)
        item_idx = np.asarray(item_idx, dtype=np.int64)
        dots = np.einsum("ki,ki->i", self.user_factors[:, user_idx], self.item_factors[:, item_idx])
        warm_u = (user_idx >= 0) & (self.user_train_counts[user_idx] > 0)
        warm_i = (item_idx >= 0) & (self.item_train_counts[item_idx] > 0)
        preds = np.where(~warm_i, self.global_mean,
                         np.where(~warm_u, self.item_means[item_idx], dots))
        if clip:
            preds = np.clip(preds, 1.0, 5.0)
        return preds

    def predict(self, user_key: str, item_key: str, clip: bool = False) -> float:
        """Single prediction by id; an id absent from training counts as cold."""
        i = self._user_pos.get(user_key, -1)
        j = self._item_pos.get(item_key, -1)
        return float(self.predict_indexed([i], [j], clip=clip)[0])


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
    t0 = time.perf_counter()
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
    u, v = init_factors(bundle.n_users, bundle.n_items, hyper.n_factors, factors_ss)

    cnn_user = cnn_item = None
    if want_user_cnn:
        cnn_user = textcnn.init_cnn_params(
            cnn_config, bundle.vocab.size, user_cnn_ss,
            embedding=pretrained_embedding if kind == "BiConvMF+" else None,
            embedding_trainable=pretrained_trainable if kind == "BiConvMF+" else None,
        )
    if want_item_cnn:
        cnn_item = textcnn.init_cnn_params(
            cnn_config, bundle.vocab.size, item_cnn_ss,
            embedding=pretrained_embedding if kind == "BiConvMF+" else None,
            embedding_trainable=pretrained_trainable if kind == "BiConvMF+" else None,
        )

    def user_targets():
        if cnn_user is None:
            return None
        return textcnn.forward_many(cnn_user, bundle.user_docs, bundle.user_doc_lens).T

    def item_targets():
        if cnn_item is None:
            return None
        return textcnn.forward_many(cnn_item, bundle.item_docs, bundle.item_doc_lens).T

    def sqnorms():
        return (cnn_user.weight_sqnorm() if cnn_user is not None else 0.0,
                cnn_item.weight_sqnorm() if cnn_item is not None else 0.0)

    log = TrainLog()
    t_user = user_targets()
    t_item = item_targets()
    wn_u, wn_i = sqnorms()

    def loss_now():
        return total_loss(ratings, u, v, t_user, t_item,
                          hyper.lambda_user, hyper.lambda_item,
                          hyper.weight_decay_user, hyper.weight_decay_item,
                          wn_u, wn_i)

    log.loss_initial = loss_now()
    streak = 0
    prev_loss = None
    for it in range(1, hyper.outer_iters + 1):
        u = update_user_factors(ratings, v, t_user, hyper.lambda_user)
        log.losses_after_user.append(loss_now())
        v = update_item_factors(ratings, u, t_item, hyper.lambda_item)
        log.losses_after_item.append(loss_now())

        # the fresh targets are this iteration's forward outputs, so the fits
        # can skip their initial evaluation pass
        if cnn_user is not None:
            fit_seed_u, fit_seed_i = fits_ss.spawn(2)
            cnn_user, fl = textcnn.fit_to_targets(
                cnn_user, bundle.user_docs, bundle.user_doc_lens, u.T,
                hyper.lambda_user, hyper.weight_decay_user, optimizer, fit_seed_u,
                start_outputs=t_user.T)
            log.fit_losses_user.append(fl)
        else:
            fit_seed_i = fits_ss.spawn(1)[0] if cnn_item is not None else None
        if cnn_item is not None:
            cnn_item, fl = textcnn.fit_to_targets(
                cnn_item, bundle.item_docs, bundle.item_doc_lens, v.T,
                hyper.lambda_item, hyper.weight_decay_item, optimizer, fit_seed_i,
                start_outputs=t_item.T)
            log.fit_losses_item.append(fl)

        t_user = user_targets()
        t_item = item_targets()
        wn_u, wn_i = sqnorms()
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

    user_counts = ratings.user_counts()
    item_counts = ratings.item_counts()
    global_mean = float(ratings.ratings.mean())
    sums = np.zeros(bundle.n_items)
    np.add.at(sums, ratings.items, ratings.ratings)
    item_means = np.where(item_counts > 0, sums / np.maximum(item_counts, 1), global_mean)
    log.seconds = time.perf_counter() - t0

    return TrainedModel(
        model_kind=kind, hyper=hyper,
        user_factors=u, item_factors=v,
        user_ids=list(bundle.user_ids), item_ids=list(bundle.item_ids),
        cnn_user=cnn_user, cnn_item=cnn_item,
        global_mean=global_mean, item_means=item_means,
        user_train_counts=user_counts, item_train_counts=item_counts,
        log=log,
    )


def save_model(model: TrainedModel, path) -> None:
    serialize.save(model, path)


def load_model(path) -> TrainedModel:
    return serialize.load(TrainedModel, path)
