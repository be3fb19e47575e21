import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "memory_phases.py"


def test_memory_phases_reports_every_phase_at_a_tiny_shape():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--users", "60", "--items", "10", "--records", "150",
         "--factors", "4", "--outer-iters", "1"],
        capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(proc.stdout)
    assert report["shape"]["records"] == 150 and report["shape"]["factors"] == 4
    assert report["bundle_bytes"] > 0
    phases = report["phases"]
    assert [p["phase"] for p in phases] == ["import", "parse", "build", "save", "load", "train"]
    hwm = [p["vm_hwm_mb"] for p in phases]
    assert hwm[0] > 0 and hwm == sorted(hwm)    # a high-water mark never falls
    for p in phases:
        assert p["tracemalloc_peak_mb"] >= p["tracemalloc_mb"] > 0
        assert p["seconds"] > 0
