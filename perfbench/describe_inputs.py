"""Make-up of the benchmark's generated inputs, for the README.

    python3 perfbench/describe_inputs.py [--seeds 1,2,3]

For each workload and seed: users, items and ratings of the ingested
slice; the share of users with 1, 2, 3, 4-5 and 6+ ratings; item-degree
percentiles; and percentiles of the true (unpadded) token length of the
training documents of users and items.
"""

from __future__ import annotations

import argparse

import numpy as np

import run
import workload as wl
from biconvmf import cli, corpus, evaluate


def ingest_settings(workload: str) -> dict:
    if workload in wl.MOVIES:
        return dict(first_n=wl.MOVIES[workload]["first_n"], max_vocab=wl.MOVIES_MAX_VOCAB,
                    max_len=wl.MOVIES_MAX_LEN, split_seed=wl.MOVIES_SPLIT_SEED)
    cfg = cli.load_config(wl.DESK_CONFIG)
    return dict(first_n=cfg.first_n, max_vocab=cfg.max_vocab, max_len=cfg.max_len,
                split_seed=cfg.base_seed)


def describe(workload: str, seed: int) -> str:
    s = ingest_settings(workload)
    path = run.input_file(workload, seed, tiny=False)
    records, stats = corpus.take_first_n(corpus.parse_reviews(path), s["first_n"])
    train_idx, test_idx = evaluate.split(len(records),
                                         evaluate.SplitSpec(wl.TEST_FRACTION, s["split_seed"]))
    bundle = corpus.build_bundle(records, train_idx, test_idx, max_vocab=s["max_vocab"],
                                 max_len=s["max_len"], test_fraction=wl.TEST_FRACTION,
                                 split_seed=s["split_seed"])
    user_deg = np.bincount(np.unique([r.user_id for r in records], return_inverse=True)[1])
    item_deg = np.bincount(np.unique([r.item_id for r in records], return_inverse=True)[1])
    bins = [(1, 1), (2, 2), (3, 3), (4, 5), (6, 10 ** 9)]
    profile = " ".join(f"{lo}{'+' if hi > 10 ** 8 else '' if lo == hi else f'-{hi}'}:"
                       f"{np.mean((user_deg >= lo) & (user_deg <= hi)):.0%}" for lo, hi in bins)
    pct = lambda a: "/".join(str(int(v)) for v in np.percentile(a, [50, 90, 99, 100]))
    return (f"{workload:16s} {seed:4d} {stats.n_users:6d} {stats.n_items:5d} "
            f"{stats.n_ratings:6d}  {profile:30s}  {pct(item_deg):15s}  "
            f"{pct(bundle.user_doc_lens):13s}  {pct(bundle.item_doc_lens)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    args = ap.parse_args(argv)
    print(f"{'workload':16s} {'seed':>4s} {'users':>6s} {'items':>5s} {'ratngs':>6s}  "
          f"{'users by ratings':30s}  {'item deg p50/90/99/max':15s}  "
          f"{'user doc len':13s}  item doc len (p50/90/99/max)")
    for workload in wl.WORKLOADS:
        for seed in (int(s) for s in args.seeds.split(",")):
            print(describe(workload, seed), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
