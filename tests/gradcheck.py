"""Finite-difference gradient checking used by the CNN and acceptance tests.

Each case is a one-document batch for textcnn._loss_and_grads, the function
the CNN fit calls.  The embedding's padding row (row 0) is pinned to zero by
construction, so it is excluded from the check: it is a constant, not a free
parameter.
"""

import numpy as np

from biconvmf import textcnn


def random_case(seed):
    """A random small CNN setup as a one-document batch:
    (params, tokens, lens, targets, target_weight, weight_decay, mask)."""
    rng = np.random.default_rng(seed)
    max_len = int(rng.integers(4, 11))
    p = int(rng.integers(1, 5))
    k = int(rng.integers(1, 4))
    n_windows = int(rng.integers(1, 3))
    windows = tuple(sorted(rng.choice(
        np.arange(1, min(4, max_len) + 1), size=n_windows, replace=False).tolist()))
    cfg = textcnn.CnnConfig(
        max_len=max_len, embedding_dim=p, output_dim=k,
        window_sizes=windows, n_filters=int(rng.integers(1, 4)), dropout_rate=0.0,
    )
    vocab_size = int(rng.integers(2, 8))
    trainable = bool(rng.integers(0, 2))
    params = textcnn.init_cnn_params(cfg, vocab_size, seed=seed, embedding_trainable=trainable)
    true_len = int(rng.integers(0, max_len + 1))
    tokens = rng.integers(1, vocab_size + 1, true_len).astype(np.int32)
    target = rng.normal(0.0, 1.0, k)
    target_weight = float(rng.uniform(0.5, 3.0))
    weight_decay = float(rng.uniform(0.0, 0.1))
    mask = None
    if rng.integers(0, 2):
        mask = (rng.random(cfg.total_filters) >= 0.3) / 0.7
    return (params, tokens, np.array([true_len]), target[None], target_weight, weight_decay,
            None if mask is None else mask[None])


def max_relative_error(params, tokens, lens, targets, target_weight, weight_decay, mask,
                       h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients."""
    args = (params, tokens, lens, targets, target_weight, weight_decay, mask)
    _, grads = textcnn._loss_and_grads(*args)

    def loss_at():
        loss, _ = textcnn._loss_and_grads(*args)
        return loss

    slots = []
    if params.embedding_trainable:
        slots.append((params.embedding, grads.embedding, params.config.embedding_dim))
    for wi in range(len(params.config.window_sizes)):
        slots.append((params.filters[wi], grads.filters[wi], 0))
        slots.append((params.filter_biases[wi], grads.filter_biases[wi], 0))
    slots.append((params.proj, grads.proj, 0))
    slots.append((params.proj_bias, grads.proj_bias, 0))

    worst = 0.0
    for arr, g, skip_first in slots:
        flat = arr.ravel()
        gflat = g.ravel()
        for pos in range(skip_first, flat.size):  # skip pinned padding row
            orig = flat[pos]
            flat[pos] = orig + h
            up = loss_at()
            flat[pos] = orig - h
            down = loss_at()
            flat[pos] = orig
            numeric = (up - down) / (2.0 * h)
            analytic = gflat[pos]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
