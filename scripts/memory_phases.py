#!/usr/bin/env python3
"""Memory high-water and seconds of each phase from ingest to a trained PMF model.

    python3 scripts/memory_phases.py [--users 13533 --items 311 --records 20000]
        [--factors 50] [--outer-iters 2]

Run from the root of a checkout.  The input is the first --records records of
synthetic_review_corpus(--users, --items, seed 1); the defaults are the shape
of the benchmark's movies-pmf workload, and training uses seed 1.  The phases
are those of that workload: import, parse (parse_reviews and take_first_n),
build (split and build_bundle), save (save_bundle), load (load_bundle) and
train (factorize.train and evaluate_model).

The phases run twice, each time in a fresh single-threaded process:

  * once untraced, for vm_hwm_mb: the process's peak resident set (VmHWM)
    after each phase, so it only ever grows; and for seconds: the phase's
    wall-clock time (import counts from just before the package import);
  * once under tracemalloc, for tracemalloc_peak_mb: the peak of Python and
    numpy allocations during each phase alone (the peak is reset between
    phases), and tracemalloc_mb, what is still allocated at its end.
    tracemalloc's own bookkeeping would inflate VmHWM, hence the second run.

Prints one JSON object: the shape, bundle_bytes (the size of the saved
bundle file), and one entry per phase, in order.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PHASES = ("import", "parse", "build", "save", "load", "train")

# Input and training seeds, and the split and bundle settings of the
# movies-pmf workload.
CORPUS_SEED = 1
TRAIN_SEED = 1
TEST_FRACTION = 0.2
SPLIT_SEED = 42
MAX_VOCAB = 8000
MAX_LEN = 128


def vm_hwm_mb() -> float:
    """Peak resident set of this process, from /proc (reset at exec)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_phases(input_path: Path, work: Path, n_records: int, factors: int, outer_iters: int,
               traced: bool) -> dict:
    """Run every phase in this process; returns {phase: figures}."""
    if traced:
        tracemalloc.start()
    marks = {}
    last = time.perf_counter()

    def mark(phase):
        nonlocal last
        if traced:
            now, peak = tracemalloc.get_traced_memory()
            marks[phase] = {"tracemalloc_peak_mb": peak / 2**20, "tracemalloc_mb": now / 2**20}
            tracemalloc.reset_peak()
        else:
            now = time.perf_counter()
            marks[phase] = {"vm_hwm_mb": vm_hwm_mb(), "seconds": now - last}
            last = now

    from biconvmf import corpus, evaluate, factorize
    mark("import")
    records, _ = corpus.take_first_n(corpus.parse_reviews(input_path), n_records)
    mark("parse")
    train_idx, test_idx = evaluate.split(len(records), evaluate.SplitSpec(TEST_FRACTION, SPLIT_SEED))
    bundle = corpus.build_bundle(records, train_idx, test_idx, max_vocab=MAX_VOCAB, max_len=MAX_LEN,
                                 test_fraction=TEST_FRACTION, split_seed=SPLIT_SEED)
    mark("build")
    path = work / "bundle.bcmf"
    corpus.save_bundle(bundle, path)
    mark("save")
    marks["bundle_bytes"] = path.stat().st_size
    bundle = corpus.load_bundle(path)
    mark("load")
    hyper = factorize.Hyperparams.for_model("PMF", n_factors=factors, outer_iters=outer_iters,
                                            early_stop_rel_tol=0.0, seed=TRAIN_SEED)
    evaluate.evaluate_model(factorize.train(bundle, hyper), bundle)
    mark("train")
    return marks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--users", type=int, default=13533)
    ap.add_argument("--items", type=int, default=311)
    ap.add_argument("--records", type=int, default=20000)
    ap.add_argument("--factors", type=int, default=50)
    ap.add_argument("--outer-iters", type=int, default=2)
    ap.add_argument("--child", choices=("untraced", "traced"), help=argparse.SUPPRESS)
    ap.add_argument("--input", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child:
        marks = run_phases(args.input, args.work, args.records, args.factors, args.outer_iters,
                           args.child == "traced")
        print(json.dumps(marks))
        return 0

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from biconvmf import synthetic

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]),
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    phases = {phase: {} for phase in PHASES}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        input_path = work / "reviews.jsonl"
        records = synthetic.synthetic_review_corpus(args.users, args.items, CORPUS_SEED)
        synthetic.write_jsonl(records[:args.records], input_path)
        del records
        for child in ("untraced", "traced"):
            cmd = [sys.executable, __file__, "--child", child, "--input", str(input_path),
                   "--work", str(work), "--records", str(args.records), "--factors", str(args.factors),
                   "--outer-iters", str(args.outer_iters)]
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-4000:])
                return 1
            marks = json.loads(proc.stdout.splitlines()[-1])
            bundle_bytes = marks.pop("bundle_bytes")
            for phase, figures in marks.items():
                phases[phase].update(figures)
    shape = {"users": args.users, "items": args.items, "records": args.records,
             "factors": args.factors, "outer_iters": args.outer_iters}
    print(json.dumps({"shape": shape, "bundle_bytes": bundle_bytes,
                      "phases": [{"phase": phase, **phases[phase]} for phase in PHASES]},
                     indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
