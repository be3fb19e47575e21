"""Convolutional text encoder mapping token documents to latent vectors.

Architecture: embedding lookup -> parallel convolutions over several window
widths -> tanh -> max-over-time pooling -> dropout (training only) -> linear
projection to the latent dimension.  Forward, loss, and gradients are written
directly in numpy so the gradients can be checked against central finite
differences.  Documents come as a corpus.Documents: token ids back to back,
with no padding, and each document's length.

Precision: every array a pass computes takes the dtype of the params it is
given (CnnParams.dtype), and every loss it reports is summed in float64.
factorize.train rounds its freshly drawn CNNs to float32, which halves the
bytes each GEMM, im2col gather and pooling pass moves.  A BiConvMF+ CNN keeps
the float64 of its pretrained table, and float64 params compute in float64
throughout; the gradients are checked against finite differences there.

Packed layout: a document with true_len tokens is convolved over its first
max(true_len, max window size) positions, and a batch keeps only those
positions, one document after another: a document shorter than the widest
window gets zero (padding) token ids up to that width, and no other document
gets any.  For each width, a window exists for every start inside a
document's convolved length and nowhere else, so no window reads the next
document; windows that overlap the end of a short document see its all-zero
pad rows.  Max-over-time pooling runs over each document's own windows.  The
output therefore never depends on max_len, and an empty document still pools
over at least one window per width.  Row s of a read-only strided view of the m
packed embedding rows e is window s flattened, so a width's im2col block is
one row gather of its window starts.  The backward works on the batch's n_u
distinct tokens, not its m token positions: per width, one float64 bincount
adds each max's gradient into D[u, a, filter] (n_u, w, n_filters) for the
distinct token u that offset a of its window reads.  Then
g_filters[:, a] = D[:, a].T @ embedding[distinct], and a trainable embedding
gets d_emb[distinct] = D @ filters over (offset, filter) pairs, one GEMM per
width.  As n_u <= m, this never does more multiply-adds than GEMMs over the
packed rows would.  Both weight gradients agree to rounding with an im2col
GEMM and a per-window scatter of the (windows, w*p) input gradient, and equal
them bitwise where every product and sum is exact.

Pooling order: the raw convolution (no bias) is max-pooled first, and the
bias and tanh are applied to the (batch, n_filters) maxima only; both are
monotone, so this equals pooling tanh(conv + bias).  Each max's window (the
one its gradient flows to) is the first window reaching the raw max, so ties
go to the first position, and a NaN max (a diverged fit) goes to the
document's first window.

Allocator: every batch frees multi-megabyte temporaries (im2col blocks,
convolution outputs, backward buffers) and the next allocates them again.
glibc would hand the freed heap top back to the kernel and fault it in,
zeroed, on the next batch, so importing this module sets glibc's M_TOP_PAD
to keep HEAP_TOP_PAD bytes at the heap top.  Setting it also freezes glibc's
otherwise adaptive mmap threshold, so that threshold is pinned at its
adaptive ceiling, MMAP_THRESHOLD; larger blocks are mmapped as before.
Where the C library has no mallopt, or refuses these values, nothing changes.
The im2col blocks are the largest temporaries (about 48 MB per batch in
float32 at embedding width 200, windows 3/4/5 and 128 documents of about 40
tokens), so the forward frees each block right after its convolution and
caches no per-position rows; a batch holds one block at a time, and its
temporaries stay within the kept heap top.
"""

from __future__ import annotations

import ctypes
import math
import os
from copy import deepcopy
from dataclasses import dataclass, replace

import numpy as np

from . import serialize
from .corpus import Documents

CNN_MAGIC = b"BCMFCNNP"
CNN_VERSION = 2  # 2: config nested under its own meta key; version-1 files are refused

ENCODE_CHUNK = 128      # documents per forward pass in forward_many
RMSPROP_DECAY = 0.9     # decay of the running mean of squared gradients
RMSPROP_EPSILON = 1e-8  # added to its root before dividing

HEAP_TOP_PAD = 64 << 20    # bytes glibc keeps at the heap top (module docstring)
MMAP_THRESHOLD = 32 << 20  # glibc's adaptive ceiling on 64-bit hosts
_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3  # mallopt parameters, from glibc's malloc.h


def _keep_heap_top() -> bool:
    """Set the allocator as the module docstring says; False where there is
    no mallopt or it refuses a value."""
    if os.name != "posix":
        return False
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)  # the loaded C library
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(_M_TOP_PAD, HEAP_TOP_PAD) == 1)


HEAP_TOP_KEPT = _keep_heap_top()


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
    epochs: int = 5
    batch_size: int = 128

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@serialize.container(CNN_MAGIC, CNN_VERSION)
@dataclass
class CnnParams:
    """The encoder's arrays; gradients come in the same shape, with embedding
    None when it is frozen."""

    config: CnnConfig
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
        return deepcopy(self)

    def trainable(self) -> list[np.ndarray]:
        """The arrays the fit updates, in update order."""
        head = [self.embedding] if self.embedding_trainable else []
        return head + [*self.filters, *self.filter_biases, self.proj, self.proj_bias]

    def decayed(self) -> list[np.ndarray]:
        """The weight-decayed arrays (biases excluded), in decay order."""
        return [self.proj, *self.filters] + ([self.embedding] if self.embedding_trainable else [])

    @property
    def dtype(self) -> np.dtype:
        """The dtype every pass over these params computes in."""
        return self.proj.dtype

    def astype(self, dtype) -> "CnnParams":
        """A copy with every array in dtype."""
        return replace(self, embedding=self.embedding.astype(dtype),
                       filters=[f.astype(dtype) for f in self.filters],
                       filter_biases=[b.astype(dtype) for b in self.filter_biases],
                       proj=self.proj.astype(dtype), proj_bias=self.proj_bias.astype(dtype))

    def weight_sqnorm(self) -> float:
        """Squared L2 norm of the decayed weights, summed in float64."""
        proj, *rest = [float(np.square(w, dtype=np.float64).sum()) for w in self.decayed()]
        n = len(self.filters)
        # summed as (proj + filters) + embedding, so logged losses keep their bits
        return proj + sum(rest[:n]) + sum(rest[n:])


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


def _check_docs(config: CnnConfig, docs: Documents):
    lens = docs.lens
    if lens.ndim != 1 or (lens < 0).any() or (lens > config.max_len).any():
        raise ValueError(f"document lengths must lie in [0, max_len={config.max_len}]")
    if docs.tokens.shape != (lens.sum(),):
        raise ValueError(f"documents of {lens.sum()} tokens in all, got token ids of shape "
                         f"{docs.tokens.shape}")


def _forward_batch(params: CnnParams, tokens: np.ndarray, lens: np.ndarray,
                   dropout_mask: np.ndarray | None, want_cache: bool):
    """Batched forward pass over the packed layout (see the module docstring)
    of documents given as their token ids back to back and their lengths.

    Returns (outputs, cache); cache holds what the backward pass needs and is
    None unless requested.
    """
    cfg = params.config
    nf = cfg.n_filters
    batch = len(lens)
    widest = max(cfg.window_sizes)
    eff = np.maximum(lens.astype(np.int64), widest)     # convolved lengths
    doc_start = np.cumsum(eff) - eff
    if (lens < widest).any():   # pad the short documents to the widest window
        packed = np.zeros(int(eff.sum()), tokens.dtype)
        run_start = np.cumsum(lens) - lens
        packed[np.repeat(doc_start - run_start, lens) + np.arange(len(tokens))] = tokens
        tokens = packed
    e = params.embedding[tokens]                                    # (n_tokens, p)
    pooled = np.empty((batch, cfg.total_filters), params.dtype)
    argmaxes, starts = [], []
    for wi, w in enumerate(cfg.window_sizes):
        n_win = eff - w + 1
        first = np.cumsum(n_win) - n_win                # each document's first window row
        n = int(n_win.sum())
        start = np.arange(n) + np.repeat(doc_start - first, n_win)  # window -> first token
        # im2col: row s of this read-only view of e is e[s:s+w] flattened, so
        # a width's block is one row gather and its convolution one GEMM
        rows = np.lib.stride_tricks.as_strided(e, (len(e) - w + 1, w * e.shape[1]),
                                               e.strides, writeable=False)
        # window-major GEMM: filters @ block.T is as fast but rounds
        # differently, moving fitted weights by up to ~1e-12; the backward
        # reads e, so the block is freed as soon as it is convolved
        conv = rows[start] @ params.filters[wi].reshape(nf, -1).T    # (windows, n_filters)
        top = np.maximum.reduceat(conv, first)             # (batch, n_filters)
        pooled[:, wi * nf:(wi + 1) * nf] = np.tanh(top + params.filter_biases[wi])
        if want_cache:
            # Hits are the windows reaching their document's max (every window,
            # for a NaN max), listed filter-major.  A (filter, document)'s
            # first hit is the one whose segment differs from the previous hit's.
            hit = ~(conv < np.repeat(top, n_win, axis=0))
            f, r = np.divmod(np.flatnonzero(hit.T), n)
            seg = f * batch + np.repeat(np.arange(batch), n_win)[r]
            new_seg = np.empty(len(seg), bool)
            new_seg[0] = True
            np.not_equal(seg[1:], seg[:-1], out=new_seg[1:])
            argmaxes.append(r[new_seg].reshape(nf, batch).T)
            starts.append(start)
    dropped = pooled if dropout_mask is None else pooled * dropout_mask
    out = dropped @ params.proj + params.proj_bias
    cache = dict(tokens=tokens, pooled=pooled, dropped=dropped, argmaxes=argmaxes,
                 starts=starts, dropout_mask=dropout_mask) if want_cache else None
    return out, cache


def _backward_batch(params: CnnParams, cache: dict, d_out: np.ndarray) -> CnnParams:
    """Gradients of the cached forward pass, given the upstream d(loss)/d(out).
    Each max's gradient goes onto the batch's distinct tokens (module
    docstring); the cache is only read."""
    cfg = params.config
    nf = cfg.n_filters
    g_proj = cache["dropped"].T @ d_out
    g_proj_bias = d_out.sum(axis=0)
    d_pooled = d_out @ params.proj.T
    if cache["dropout_mask"] is not None:
        d_pooled = d_pooled * cache["dropout_mask"]
    d_pooled *= 1.0 - cache["pooled"] ** 2              # through tanh at each max
    distinct, token_of = np.unique(cache["tokens"], return_inverse=True)
    e = params.embedding[distinct]                      # (n_u, p)
    trainable = params.embedding_trainable
    d_e = np.zeros_like(e) if trainable else None       # per distinct token
    g_filters, g_biases = [], []
    for wi, w in enumerate(cfg.window_sizes):
        d_max = d_pooled[:, wi * nf:(wi + 1) * nf]
        # offset a of the window of max (document, filter) reads distinct
        # token u; D[u, a, filter] sums, in float64, the maxes that do
        max_start = cache["starts"][wi][cache["argmaxes"][wi]]        # (batch, n_filters)
        bins = ((token_of * (w * nf))[max_start[:, None] + np.arange(w)[:, None]]
                + np.arange(w * nf).reshape(w, nf))                   # (batch, w, n_filters)
        D = np.bincount(bins.ravel(), weights=np.repeat(d_max, w, axis=0).ravel(),
                        minlength=len(e) * w * nf).reshape(len(e), w * nf).astype(params.dtype)
        g_filters.append((D.T @ e).reshape(w, nf, -1).transpose(1, 0, 2))
        if trainable:
            d_e += D @ params.filters[wi].transpose(1, 0, 2).reshape(w * nf, -1)
        g_biases.append(d_max.sum(axis=0))
    g_emb = None
    if trainable:
        g_emb = np.zeros_like(params.embedding)
        g_emb[distinct] = d_e
        g_emb[0] = 0.0  # padding row never trains
    return replace(params, embedding=g_emb, filters=g_filters, filter_biases=g_biases,
                   proj=g_proj, proj_bias=g_proj_bias)


def forward_many(params: CnnParams, docs: Documents) -> np.ndarray:
    """Deterministic encoding of documents, ENCODE_CHUNK consecutive ones per
    pass: a chunk's token ids are one slice of docs.tokens, and packing makes
    its cost follow its documents' lengths."""
    _check_docs(params.config, docs)
    out = np.empty((len(docs), params.config.output_dim), params.dtype)
    for start in range(0, len(docs), ENCODE_CHUNK):
        lens = docs.lens[start:start + ENCODE_CHUNK]
        first = docs.offsets[start]
        out[start:start + len(lens)], _ = _forward_batch(
            params, docs.tokens[first:first + lens.sum()], lens, None, want_cache=False)
    return out


def _loss_and_grads(params: CnnParams, tokens, lens, targets, target_weight,
                    weight_decay, dropout_mask):
    """Mean loss over the batch and its exact gradients.

    loss = (target_weight/2) * mean ||t_i - cnn(doc_i)||^2
         + (weight_decay/2) * ||W||^2          (biases excluded)

    The mask and d(loss)/d(out) are cast to the params' dtype, so that no
    float64 operand upcasts a float32 pass.
    """
    if dropout_mask is not None:
        dropout_mask = dropout_mask.astype(params.dtype, copy=False)
    out, cache = _forward_batch(params, tokens, lens, dropout_mask, want_cache=True)
    loss = _objective(params, out, targets, target_weight, weight_decay)
    d_out = (target_weight / len(lens)) * (out - targets)
    grads = _backward_batch(params, cache, d_out.astype(params.dtype, copy=False))
    if weight_decay != 0.0:
        for g, w in zip(grads.decayed(), params.decayed()):
            g += weight_decay * w
    return loss, grads


def _objective(params: CnnParams, outputs, targets, target_weight, weight_decay) -> float:
    """Mean per-document fit loss of given encodings, plus weight decay."""
    diff = np.subtract(outputs, targets, dtype=np.float64)
    data = 0.5 * target_weight * float((diff ** 2).sum()) / outputs.shape[0]
    return data + 0.5 * weight_decay * params.weight_sqnorm()


def mean_loss(params: CnnParams, docs: Documents, targets, target_weight,
              weight_decay) -> tuple[float, np.ndarray]:
    """Mean per-document loss with dropout disabled, and the encodings it
    scored: (loss, forward_many(params, docs))."""
    out = forward_many(params, docs)
    return _objective(params, out, targets, target_weight, weight_decay), out


def _rmsprop_step(params: CnnParams, caches: list[np.ndarray], grads: CnnParams,
                  learning_rate: float) -> None:
    """One in-place RMSprop update of params' trainable arrays; caches hold
    the running means of their squared gradients, in the same order."""
    for slot, cache, g in zip(params.trainable(), caches, grads.trainable()):
        cache *= RMSPROP_DECAY
        cache += (1.0 - RMSPROP_DECAY) * g * g
        slot -= learning_rate * g / (np.sqrt(cache) + RMSPROP_EPSILON)


def fit_to_targets(params: CnnParams, docs: Documents, targets,
                   target_weight: float, weight_decay: float, *,
                   optimizer: OptimizerConfig | None = None,
                   seed=0, start_outputs: np.ndarray
                   ) -> tuple[CnnParams, float, np.ndarray]:
    """Fit the encoder to per-document target vectors.

    Runs seeded mini-batch RMSprop with dropout on the pooled features, in the
    params' dtype, RMSprop caches included.  The input params are not mutated;
    the returned params are the best seen by mean loss (dropout disabled)
    after each epoch, so the result is never worse than the starting point on
    the given data.  Each batch's token ids are gathered through docs'
    offsets.

    start_outputs must equal forward_many(params, docs): the caller has
    these encodings already, so the start is scored without another pass.
    Returns (params, mean loss, outputs), where outputs are the encodings of
    the returned params -- from the evaluation pass that selected them, or
    start_outputs when the start wins.
    """
    cfg = optimizer or OptimizerConfig()
    targets = np.asarray(targets, dtype=np.float64)
    n = len(docs)
    if targets.shape != (n, params.config.output_dim):
        raise ValueError(f"targets shape {targets.shape} != ({n}, {params.config.output_dim})")
    if start_outputs.shape != targets.shape:
        raise ValueError(f"start_outputs shape {start_outputs.shape} != {targets.shape}")
    _check_docs(params.config, docs)

    current = params.copy()
    rng = np.random.default_rng(seed)
    rate = params.config.dropout_rate
    caches = [np.zeros_like(s) for s in current.trainable()]

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
                current, *docs.gather(batch), targets[batch],
                target_weight, weight_decay, mask,
            )
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite batch loss (epoch {epoch + 1}, batch {bi}, "
                    f"learning_rate {cfg.learning_rate})"
                )
            _rmsprop_step(current, caches, grads, cfg.learning_rate)
        cur, outputs = mean_loss(current, docs, targets, target_weight, weight_decay)
        if cur < best_loss:
            best, best_loss, best_outputs = current.copy(), cur, outputs
    return best, best_loss, best_outputs
