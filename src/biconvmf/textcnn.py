"""Convolutional text encoder mapping token documents to latent vectors.

Architecture: embedding lookup -> parallel convolutions over several window
widths -> tanh -> max-over-time pooling -> dropout (training only) -> linear
projection to the latent dimension.  Forward, loss, and gradients are written
directly in numpy (float64) so the gradients can be checked against central
finite differences.

Window masking rule: a document whose true_len non-pad tokens are followed by
padding is convolved over the first max(true_len, max window size) positions
only.  Windows starting at or beyond that boundary (entirely padding) are
excluded from pooling; windows that merely overlap the boundary see the
all-zero pad rows.  The output therefore never depends on how much trailing
padding a document carries, and an empty document still pools over at least
one window per width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .corpus import TokenDocument

CNN_MAGIC = b"BCMFCNNP"
CNN_VERSION = 1

POOL_MASK_VALUE = -2.0  # below tanh's range, so masked windows never win the max


class TrainingDivergedError(RuntimeError):
    """Optimization produced a non-finite loss."""


@dataclass(frozen=True)
class CnnConfig:
    max_len: int
    embedding_dim: int = 200
    output_dim: int = 50
    window_sizes: tuple[int, ...] = (3, 4, 5)
    n_filters: int = 100
    dropout_rate: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "window_sizes", tuple(int(w) for w in self.window_sizes))
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")
        if not self.window_sizes:
            raise ValueError("need at least one window size")
        if any(w < 1 or w > self.max_len for w in self.window_sizes):
            raise ValueError(f"window sizes {self.window_sizes} must lie in [1, max_len={self.max_len}]")
        if self.n_filters < 1:
            raise ValueError(f"n_filters must be >= 1, got {self.n_filters}")
        if self.output_dim < 1:
            raise ValueError(f"output_dim must be >= 1, got {self.output_dim}")
        if self.embedding_dim < 1:
            raise ValueError(f"embedding_dim must be >= 1, got {self.embedding_dim}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def total_filters(self) -> int:
        return len(self.window_sizes) * self.n_filters


@dataclass
class OptimizerConfig:
    """Per-parameter adaptive step scaling (RMSprop-style)."""

    learning_rate: float = 1e-3
    decay: float = 0.9
    epsilon: float = 1e-8
    epochs: int = 5
    batch_size: int = 128

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 <= self.decay < 1.0:
            raise ValueError(f"decay must be in [0, 1), got {self.decay}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@serialize.container(CNN_MAGIC, CNN_VERSION,
                     "embedding", "proj", "proj_bias", ("filters", "filter_biases"))
@dataclass
class CnnParams:
    config: CnnConfig = field(metadata=serialize.INLINE)
    embedding: np.ndarray            # (vocab+1, embedding_dim); row 0 stays zero
    filters: list[np.ndarray]        # per window: (n_filters, w, embedding_dim)
    filter_biases: list[np.ndarray]  # per window: (n_filters,)
    proj: np.ndarray                 # (total_filters, output_dim)
    proj_bias: np.ndarray            # (output_dim,)
    embedding_trainable: bool = True

    def __post_init__(self):
        if not len(self.filters) == len(self.filter_biases) == len(self.config.window_sizes):
            raise ValueError("need one filter bank and one bias vector per window size")

    def copy(self) -> "CnnParams":
        return CnnParams(
            config=self.config,
            embedding=self.embedding.copy(),
            filters=[f.copy() for f in self.filters],
            filter_biases=[b.copy() for b in self.filter_biases],
            proj=self.proj.copy(),
            proj_bias=self.proj_bias.copy(),
            embedding_trainable=self.embedding_trainable,
        )

    def weight_sqnorm(self) -> float:
        """Squared L2 norm of the regularized weights (biases excluded)."""
        total = float((self.proj ** 2).sum())
        total += sum(float((f ** 2).sum()) for f in self.filters)
        if self.embedding_trainable:
            total += float((self.embedding ** 2).sum())
        return total


@dataclass
class CnnGrads:
    embedding: np.ndarray | None
    filters: list[np.ndarray]
    filter_biases: list[np.ndarray]
    proj: np.ndarray
    proj_bias: np.ndarray


def init_cnn_params(config: CnnConfig, vocab_size: int, seed,
                    embedding: np.ndarray | None = None,
                    embedding_trainable: bool | None = None) -> CnnParams:
    """Seeded parameter initialization.

    Filters and projection use Uniform(+-sqrt(6/(fan_in + fan_out))).  When no
    pretrained table is given the embedding is drawn Uniform(-0.1, 0.1) and is
    trainable; a supplied table is copied and frozen unless overridden.
    """
    rng = np.random.default_rng(seed)
    p = config.embedding_dim
    if embedding is None:
        emb = rng.uniform(-0.1, 0.1, (vocab_size + 1, p))
        emb[0] = 0.0
        trainable = True if embedding_trainable is None else embedding_trainable
    else:
        emb = np.array(embedding, dtype=np.float64)
        if emb.shape != (vocab_size + 1, p):
            raise ValueError(f"embedding shape {emb.shape} != {(vocab_size + 1, p)}")
        emb[0] = 0.0
        trainable = False if embedding_trainable is None else embedding_trainable
    filters, biases = [], []
    for w in config.window_sizes:
        limit = math.sqrt(6.0 / (w * p + config.n_filters))
        filters.append(rng.uniform(-limit, limit, (config.n_filters, w, p)))
        biases.append(np.zeros(config.n_filters))
    limit = math.sqrt(6.0 / (config.total_filters + config.output_dim))
    proj = rng.uniform(-limit, limit, (config.total_filters, config.output_dim))
    proj_bias = np.zeros(config.output_dim)
    return CnnParams(config, emb, filters, biases, proj, proj_bias, trainable)


def _check_docs(config: CnnConfig, docs: np.ndarray, lens: np.ndarray):
    if docs.ndim != 2 or docs.shape[1] != config.max_len:
        raise ValueError(f"documents must be (batch, {config.max_len}), got {docs.shape}")
    if lens.shape != (docs.shape[0],):
        raise ValueError(f"lens shape {lens.shape} does not match batch {docs.shape[0]}")
    if (lens < 0).any() or (lens > config.max_len).any():
        raise ValueError("true lengths must lie in [0, max_len]")


def _forward_batch(params: CnnParams, docs: np.ndarray, lens: np.ndarray,
                   dropout_mask: np.ndarray | None, want_cache: bool):
    """Batched forward pass.

    Returns (outputs, cache); cache holds what the backward pass needs and is
    None unless requested.
    """
    cfg = params.config
    b = docs.shape[0]
    p = cfg.embedding_dim
    w_max = max(cfg.window_sizes)
    eff = np.maximum(lens.astype(np.int64), w_max)      # per-doc convolved length
    lmax = int(eff.max())
    d = params.embedding[docs[:, :lmax]]                # (b, lmax, p)
    pooled = np.empty((b, cfg.total_filters))
    argmaxes = []
    positions = []
    windows = []
    off = 0
    for wi, w in enumerate(cfg.window_sizes):
        n_pos = lmax - w + 1
        # im2col: row (b, t) holds the window d[b, t:t+w] flattened, so the
        # whole convolution is one GEMM against the flattened filter bank
        x = np.concatenate([d[:, a:a + n_pos, :] for a in range(w)], axis=2)
        x = x.reshape(b * n_pos, w * p)
        pre = x @ params.filters[wi].reshape(cfg.n_filters, w * p).T
        pre += params.filter_biases[wi]
        act = np.tanh(pre).reshape(b, n_pos, cfg.n_filters)
        valid = np.arange(n_pos)[None, :] < (eff - w + 1)[:, None]
        act = np.where(valid[:, :, None], act, POOL_MASK_VALUE)
        t_star = act.argmax(axis=1)                     # (b, n_filters)
        pooled[:, off:off + cfg.n_filters] = np.take_along_axis(
            act, t_star[:, None, :], axis=1)[:, 0, :]
        argmaxes.append(t_star)
        positions.append(n_pos)
        windows.append(x if want_cache else None)
        off += cfg.n_filters
    dropped = pooled if dropout_mask is None else pooled * dropout_mask
    out = dropped @ params.proj + params.proj_bias
    cache = None
    if want_cache:
        cache = {
            "lmax": lmax, "pooled": pooled, "dropped": dropped,
            "argmaxes": argmaxes, "positions": positions, "windows": windows,
            "docs": docs, "dropout_mask": dropout_mask,
        }
    return out, cache


def _backward_batch(params: CnnParams, cache: dict, d_out: np.ndarray) -> CnnGrads:
    """Gradients of the cached forward pass, given the upstream d(loss)/d(out)."""
    cfg = params.config
    p = cfg.embedding_dim
    lmax = cache["lmax"]
    b = cache["docs"].shape[0]
    g_proj = cache["dropped"].T @ d_out
    g_proj_bias = d_out.sum(axis=0)
    d_pooled = d_out @ params.proj.T
    if cache["dropout_mask"] is not None:
        d_pooled = d_pooled * cache["dropout_mask"]
    d_d = np.zeros((b, lmax, p))
    g_filters, g_biases = [], []
    off = 0
    for wi, w in enumerate(cfg.window_sizes):
        n_pos = cache["positions"][wi]
        t_star = cache["argmaxes"][wi]
        x = cache["windows"][wi]                        # (b*n_pos, w*p) im2col block
        pooled_w = cache["pooled"][:, off:off + cfg.n_filters]
        d_pre_vals = d_pooled[:, off:off + cfg.n_filters] * (1.0 - pooled_w ** 2)
        # Dense (b, n_pos, n_filters) gradient that is zero except at each
        # filter's argmax position; turns the scatter into plain GEMMs.
        d_pre = np.zeros((b, n_pos, cfg.n_filters))
        np.put_along_axis(d_pre, t_star[:, None, :], d_pre_vals[:, None, :], axis=1)
        d_pre = d_pre.reshape(b * n_pos, cfg.n_filters)
        g_filters.append((d_pre.T @ x).reshape(cfg.n_filters, w, p))
        g_biases.append(d_pre_vals.sum(axis=0))
        d_x = (d_pre @ params.filters[wi].reshape(cfg.n_filters, w * p)).reshape(b, n_pos, w, p)
        for a in range(w):
            d_d[:, a:a + n_pos, :] += d_x[:, :, a, :]
        off += cfg.n_filters
    g_emb = None
    if params.embedding_trainable:
        g_emb = np.zeros_like(params.embedding)
        np.add.at(g_emb, cache["docs"][:, :lmax].ravel(), d_d.reshape(-1, p))
        g_emb[0] = 0.0  # padding row never trains
    return CnnGrads(g_emb, g_filters, g_biases, g_proj, g_proj_bias)


def forward(params: CnnParams, doc: TokenDocument) -> np.ndarray:
    """Deterministic encoding of one document (dropout disabled)."""
    docs = np.asarray(doc.indices, dtype=np.int64)[None, :]
    lens = np.array([doc.true_len], dtype=np.int64)
    _check_docs(params.config, docs, lens)
    out, _ = _forward_batch(params, docs, lens, None, want_cache=False)
    return out[0]


def forward_many(params: CnnParams, docs: np.ndarray, lens: np.ndarray,
                 chunk: int = 128) -> np.ndarray:
    """Deterministic encoding of a document matrix, processed in chunks.

    Documents are grouped by length so that short-document chunks are not
    convolved at the longest document's width; outputs come back in input
    order.
    """
    docs = np.asarray(docs)
    lens = np.asarray(lens)
    _check_docs(params.config, docs, lens)
    order = np.argsort(lens, kind="stable")
    out = np.empty((docs.shape[0], params.config.output_dim))
    for start in range(0, docs.shape[0], chunk):
        sel = order[start:start + chunk]
        out[sel], _ = _forward_batch(params, docs[sel], lens[sel], None, want_cache=False)
    return out


def _loss_and_grads(params: CnnParams, docs, lens, targets, target_weight,
                    weight_decay, dropout_mask):
    """Mean loss over the batch and its exact gradients.

    loss = (target_weight/2) * mean ||t_i - cnn(doc_i)||^2
         + (weight_decay/2) * ||W||^2          (biases excluded)
    """
    b = docs.shape[0]
    out, cache = _forward_batch(params, docs, lens, dropout_mask, want_cache=True)
    diff = out - targets
    data_loss = 0.5 * target_weight * float((diff ** 2).sum()) / b
    grads = _backward_batch(params, cache, (target_weight / b) * diff)
    sqnorm = params.weight_sqnorm()
    loss = data_loss + 0.5 * weight_decay * sqnorm
    if weight_decay != 0.0:
        grads.proj += weight_decay * params.proj
        for wi in range(len(grads.filters)):
            grads.filters[wi] += weight_decay * params.filters[wi]
        if grads.embedding is not None:
            grads.embedding += weight_decay * params.embedding
            grads.embedding[0] = 0.0
    return loss, grads


def gradient(params: CnnParams, doc: TokenDocument, target: np.ndarray,
             target_weight: float, weight_decay: float,
             dropout_mask: np.ndarray | None = None) -> tuple[float, CnnGrads]:
    """Loss and exact partial derivatives for a single document.

    The optional dropout mask multiplies the pooled features; pass the same
    mask when checking against finite differences.
    """
    if target_weight <= 0:
        raise ValueError(f"target_weight must be > 0, got {target_weight}")
    if weight_decay < 0:
        raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (params.config.output_dim,):
        raise ValueError(f"target shape {target.shape} != ({params.config.output_dim},)")
    docs = np.asarray(doc.indices, dtype=np.int64)[None, :]
    lens = np.array([doc.true_len], dtype=np.int64)
    _check_docs(params.config, docs, lens)
    mask = None if dropout_mask is None else np.asarray(dropout_mask, dtype=np.float64)[None, :]
    loss, grads = _loss_and_grads(params, docs, lens, target[None, :],
                                  target_weight, weight_decay, mask)
    return loss, grads


def _slots(arrays: CnnParams | CnnGrads, embedding_trainable: bool) -> list[np.ndarray]:
    """The trainable arrays of params, or their gradients, in update order."""
    head = [arrays.embedding] if embedding_trainable else []
    return head + [*arrays.filters, *arrays.filter_biases, arrays.proj, arrays.proj_bias]


def _objective(params: CnnParams, outputs, targets, target_weight, weight_decay) -> float:
    """Mean per-document fit loss of given encodings, plus weight decay."""
    data = 0.5 * target_weight * float(((outputs - targets) ** 2).sum()) / outputs.shape[0]
    return data + 0.5 * weight_decay * params.weight_sqnorm()


def mean_loss(params: CnnParams, docs, lens, targets, target_weight,
              weight_decay) -> tuple[float, np.ndarray]:
    """Mean per-document loss with dropout disabled, and the encodings it
    scored: (loss, forward_many(params, docs, lens))."""
    out = forward_many(params, docs, lens)
    return _objective(params, out, np.asarray(targets, dtype=np.float64),
                      target_weight, weight_decay), out


def fit_to_targets(params: CnnParams, docs, lens, targets,
                   target_weight: float, weight_decay: float,
                   optimizer: OptimizerConfig | None = None,
                   seed=0, *, start_outputs: np.ndarray
                   ) -> tuple[CnnParams, float, np.ndarray]:
    """Fit the encoder to per-document target vectors.

    Runs seeded mini-batch RMSprop with dropout on the pooled features.  The
    input params are not mutated; the returned params are the best seen by
    mean loss (dropout disabled) after each epoch, so the result is never
    worse than the starting point on the given data.

    start_outputs must equal forward_many(params, docs, lens): the caller has
    these encodings already, so the start is scored without another pass.
    Returns (params, mean loss, outputs), where outputs are the encodings of
    the returned params -- from the evaluation pass that selected them, or
    start_outputs when the start wins.
    """
    cfg = optimizer or OptimizerConfig()
    docs = np.asarray(docs)
    lens = np.asarray(lens)
    targets = np.asarray(targets, dtype=np.float64)
    n = docs.shape[0]
    if targets.shape != (n, params.config.output_dim):
        raise ValueError(f"targets shape {targets.shape} != ({n}, {params.config.output_dim})")
    if start_outputs.shape != targets.shape:
        raise ValueError(f"start_outputs shape {start_outputs.shape} != {targets.shape}")
    _check_docs(params.config, docs, lens)

    current = params.copy()
    rng = np.random.default_rng(seed)
    rate = params.config.dropout_rate
    slots = _slots(current, current.embedding_trainable)
    caches = [np.zeros_like(s) for s in slots]

    best, best_outputs = params, start_outputs
    best_loss = _objective(params, start_outputs, targets, target_weight, weight_decay)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for bi, start in enumerate(range(0, n, cfg.batch_size)):
            batch = order[start:start + cfg.batch_size]
            mask = None
            if rate > 0.0:
                keep = rng.random((len(batch), params.config.total_filters)) >= rate
                mask = keep / (1.0 - rate)
            loss, grads = _loss_and_grads(
                current, docs[batch], lens[batch], targets[batch],
                target_weight, weight_decay, mask,
            )
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite batch loss (epoch {epoch + 1}, batch {bi}, "
                    f"learning_rate {cfg.learning_rate})"
                )
            for slot, cache, g in zip(slots, caches, _slots(grads, current.embedding_trainable)):
                cache *= cfg.decay
                cache += (1.0 - cfg.decay) * g * g
                slot -= cfg.learning_rate * g / (np.sqrt(cache) + cfg.epsilon)
        cur, outputs = mean_loss(current, docs, lens, targets, target_weight, weight_decay)
        if cur < best_loss:
            best, best_loss, best_outputs = current.copy(), cur, outputs
    return best, best_loss, best_outputs
