"""Smoke test of the benchmark: every workload, untraced and traced, at tiny shapes.

It checks that a run prints exactly the metric names and units declared in
BENCHMARK.json and that every correctness check of the workload ran.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
CHECKS = {"ingest_counts", "predictions_finite", "rmse_recomputed",
          "half_steps_and_iterations", "all_models_scored"}
WORKLOAD_CHECKS = {
    "movies-pmf": CHECKS | {"item_normal_equations"},
    "movies-biconvmf": CHECKS,
    "desk-compare": CHECKS | {"checkpoint_rmse", "text_models_beat_pmf"},
}


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workloads_match_the_declaration():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.wl.WORKLOADS)


@pytest.mark.parametrize("workload", run.wl.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(workload, trace):
    result, details = run.run(workload, seed=3, seconds=0, trace=bool(trace), tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared("per_layer" if trace else "end_to_end")
    assert result["attempted"] >= 1 and result["failed"] == 0
    for rnd in details["rounds"]:
        assert set(rnd["checks"]) == WORKLOAD_CHECKS[workload]
        # The text models' lead over PMF needs the full desk shape, so that
        # check only has to run here, not to pass.
        assert all(ok for name, ok in rnd["checks"].items() if name != "text_models_beat_pmf")
