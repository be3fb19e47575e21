"""BiConvMF benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The input is generated from --seed with
biconvmf.synthetic and cached under data/perfbench/.  A run then starts
fresh single-threaded processes (perfbench/workload.py), one per round:

  * full rounds: at least one, and then more for as long as another round
    and the set-up round before it, at the length of the longest such pair
    so far, still end within --seconds of the run's start;
  * SETUP_ROUNDS set-up rounds, which stop at the first training call and
    only time set-up.  One runs before each full round, so that they sample
    the whole run; those still missing run after the last full round.

With --trace 0 the last line of standard output is the JSON result with the
end-to-end metrics: setup_s is the median over the set-up rounds, the rest
are medians over the full rounds.  With --trace 1 every full
round is traced and the result holds the per-layer metrics instead.  The
line before it holds the environment and every round's raw figures.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_ROUNDS = 7
ROUND_TIMEOUT_S = 170

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import workload as wl  # noqa: E402  (needs src/ on sys.path)
from biconvmf import synthetic  # noqa: E402


def input_file(workload: str, seed: int, tiny: bool) -> Path:
    """The workload's generated input for this seed, made once and cached."""
    key = wl.input_key(workload)
    n_users, n_items, keep = (wl.TINY_INPUTS if tiny else wl.INPUTS)[key]
    name = f"{key}-{n_users}x{n_items}-{keep or 'all'}-seed{seed}.jsonl"
    path = ROOT / "data" / "perfbench" / name
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        records = synthetic.synthetic_review_corpus(n_users, n_items, seed)[:keep]
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        synthetic.write_jsonl(records, tmp)
        os.replace(tmp, path)
    return path


def run_round(workload: str, input_path: Path, trace: bool, setup_only: bool,
              tiny: bool, tag: str) -> dict:
    """One round in a fresh process; returns its figures, times from process start."""
    work = ROOT / "runs" / "perfbench" / f"{workload}-{os.getpid()}-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--input", str(input_path), "--work", str(work), "--trace", str(int(trace))]
    if trace:
        trace_dir = ROOT / "runs" / "perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_dir / f"{workload}-{tag}.jsonl")]
    cmd += ["--setup-only"] * setup_only + ["--tiny"] * tiny
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]),
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        t_spawn = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise RuntimeError(f"{workload} round {tag} exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["t_first_train"] - t_spawn if out["t_first_train"] else None
    out["pipeline_s"] = out["t_end"] - t_spawn
    return out


def source_id() -> dict:
    """git commit when the checkout is a repository, and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "biconvmf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> tuple[dict, dict]:
    """All rounds of one run; returns (result, details)."""
    input_path = input_file(workload, seed, tiny)
    compileall.compile_dir(SRC, quiet=1)
    # traced runs report no set-up time
    n_setups = 0 if trace else 1 if tiny else SETUP_ROUNDS
    setups, rounds, longest = [], [], 0.0

    def setup_round():
        setups.append(run_round(workload, input_path, False, True, tiny, f"s{len(setups)}"))

    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + longest <= seconds:
        began = time.perf_counter()
        if len(setups) < n_setups:
            setup_round()
        rounds.append(run_round(workload, input_path, trace, False, tiny, f"r{len(rounds)}"))
        longest = max(longest, time.perf_counter() - began)
    while len(setups) < n_setups:
        setup_round()

    def med(key):
        return statistics.median(r[key] for r in rounds)

    correct = all(all(r["checks"].values()) and r["rmse"] is not None for r in rounds)
    if trace:
        values = {name: statistics.median(r["layers"][name] for r in rounds)
                  for name in rounds[0]["layers"]}
        values["trace.pipeline_s"] = med("pipeline_s")
        units = {name: unit_of(name) for name in values}
    else:
        values = {"setup_s": statistics.median(r["setup_s"] for r in setups),
                  **{key: med(key) for key in ("train_s", "pipeline_s", "peak_rss_mb", "rmse")}}
        units = {"setup_s": "s", "train_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB",
                 "rmse": "RMSE"}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    result = {"correct": correct,
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": metrics}
    details = {"workload": workload, "seed": seed, "trace": int(trace), "tiny": tiny,
               **source_id(), "env": rounds[0]["env"],
               "setup_rounds": [{k: r[k] for k in ("setup_s", "pipeline_s")} for r in setups],
               "rounds": [{k: v for k, v in r.items()
                           if k not in ("env", "layers", "t_first_train", "t_end")}
                          for r in rounds]}
    return result, details


def unit_of(layer_metric: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    suffix = layer_metric.rsplit("_", 1)[-1]
    return {"s": "s", "bytes": "bytes", "mb": "MB"}.get(suffix, "count")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one BiConvMF benchmark workload.")
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny shapes, for the smoke test")
    args = ap.parse_args(argv)
    if not (SRC / "biconvmf").is_dir():
        ap.error(f"no package source at {SRC / 'biconvmf'}; run from the root of a checkout")
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.tiny)
    for rnd in details["rounds"]:
        if not all(rnd.get("facts", {}).values()):
            print(f"{args.workload} seed {args.seed}: reported, not checked: {rnd['facts']}",
                  file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
