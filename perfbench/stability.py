"""Run-to-run stability of the benchmark on one commit.

    python3 perfbench/stability.py

Makes two sets of RUNS runs of every workload at the run length in
BENCHMARK.json, seeds 1 .. RUNS in each set, alternating the order of the workloads from one seed to the next.  For
each set and end-to-end metric it prints the median and quartiles
(statistics.quantiles, n=4) and the quartile spread as a share of the
median.  For the second set it adds how far its median is worse than the
first's, and the paired difference: the median over seeds of
|second - first| / first for the same seed, which is run-to-run noise alone,
without the spread between the seeds' inputs.

It exits non-zero when a spread other than setup_s's, or a shift of a
median, exceeds the metric's bound in BENCHMARK.json.  Each run's input
comes from its seed, so the spread mixes noise and input; the paired
difference is printed beside it, not gated.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """(result, details) of one run of run.py."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    details, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(result), json.loads(details)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    # results[set][workload] -> list of run results, in seed order
    results = [{w: [] for w in workloads} for _ in range(2)]
    facts = {w: [] for w in workloads}     # per-round facts reported, not checked
    for set_no in range(2):
        for i in range(RUNS):
            seed = 1 + i
            order = workloads if (set_no + i) % 2 == 0 else workloads[::-1]
            for w in order:
                res, details = one_run(w, seed, spec["run_seconds"])
                results[set_no][w].append(res)
                facts[w] += [r["facts"] for r in details["rounds"] if r.get("facts")]
                vals = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.4f}"
                                for m in metrics)
                print(f"set {set_no + 1} seed {seed:3d} {w:16s} correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} {vals}", flush=True)

    print()
    print(f"{'workload':16s} {'metric':12s} {'set':>3s} {'q1':>10s} {'median':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s} {'worse':>7s} {'paired':>7s}  verdict")
    all_ok = True
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in results[set_no][w]]
                    for set_no in range(2)]
            meds = []
            for set_no in range(2):
                q1, med, q3 = statistics.quantiles(vals[set_no], n=4)
                meds.append(med)
                spread = (q3 - q1) / med
                spread_ok = name == "setup_s" or spread <= bound
                line = (f"{w:16s} {name:12s} {set_no + 1:3d} {q1:10.4f} {med:10.4f} "
                        f"{q3:10.4f} {spread:7.1%} {bound:6.0%}")
                if set_no == 0:
                    verdict = "" if spread_ok else "SPREAD OUT OF BOUND"
                    line += f" {'':7s} {'':7s}  {verdict}"
                else:
                    sign = 1.0 if m["better"] == "lower" else -1.0
                    worse = sign * (meds[1] - meds[0]) / meds[0]
                    paired = statistics.median(abs(b - a) / a for a, b in zip(*vals))
                    ok = worse <= bound and spread_ok
                    line += f" {worse:7.1%} {paired:7.1%}  {'ok' if ok else 'OUT OF BOUND'}"
                all_ok &= spread_ok
                if set_no == 1:
                    all_ok &= worse <= bound
                if name == "setup_s" and spread > bound:
                    line += " (setup_s spread not gated)"
                print(line.rstrip())
        for set_no in range(2):
            att = sum(r["attempted"] for r in results[set_no][w])
            fail = sum(r["failed"] for r in results[set_no][w])
            corr = all(r["correct"] for r in results[set_no][w])
            print(f"{w:16s} set {set_no + 1}: failed {fail}/{att}, all correct: {corr}")
        for key in sorted({k for f in facts[w] for k in f if isinstance(f[k], bool)}):
            held = sum(bool(f.get(key)) for f in facts[w])
            print(f"{w:16s} reported, not checked: {key} held in {held} of {len(facts[w])} rounds")
    print(f"\nall within bounds: {all_ok}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
