import json
import tracemalloc

import pytest

from biconvmf import corpus, evaluate, synthetic


def make_bundle(n_users=120, n_items=30, corpus_seed=11, split_seed=5,
                max_vocab=500, max_len=30, test_fraction=0.2):
    """Small synthetic corpus bundle for integration-style tests."""
    raw = synthetic.synthetic_review_corpus(n_users=n_users, n_items=n_items, seed=corpus_seed)
    records = list(corpus.parse_reviews(json.dumps(r) for r in raw))
    train_idx, test_idx = evaluate.split(len(records), evaluate.SplitSpec(test_fraction, split_seed))
    return corpus.build_bundle(
        records, train_idx, test_idx,
        max_vocab=max_vocab, max_len=max_len,
        test_fraction=test_fraction, split_seed=split_seed,
    )


def traced(fn, *args):
    """fn(*args), the peak of the memory it allocated and what stays allocated (tracemalloc)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        now, peak = tracemalloc.get_traced_memory()
        return result, peak - base, now - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def tiny_bundle():
    return make_bundle()
