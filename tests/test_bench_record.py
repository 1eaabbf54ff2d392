"""scripts/bench_record.py runs the harness and writes every field."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
METRICS = {"setup_s", "units_per_s", "op_p50_ms", "op_p90_ms", "ok_ratio", "peak_rss_mb"}


def test_bench_record_writes_medians_minima_and_run_records(tmp_path):
    command = [sys.executable, str(SCRIPT), "--number", "0", "--seconds", "1", "--seeds", "7",
               "--workload", "constants-cold", "--out", str(tmp_path)]
    subprocess.run(command, check=True, capture_output=True, timeout=300)
    doc = json.loads((tmp_path / "BENCH_0.json").read_text(encoding="utf-8"))
    assert doc["bench"] == 0 and doc["seeds"] == [7] and doc["seconds"] == 1
    assert doc["python"] == ".".join(map(str, sys.version_info[:3]))
    assert doc["nproc"] >= 1 and doc["commit"]
    assert list(doc["workloads"]) == ["constants-cold"]
    record = doc["workloads"]["constants-cold"]
    assert set(record["median"]) == set(record["min"]) == METRICS
    assert record["median"]["units_per_s"] > 0 and record["median"]["ok_ratio"] == 1.0
    assert record["correct"] is True and record["known_defects"] == 0
    assert len(record["outputs_sha256"]) == 64
    (run,) = record["runs"]
    assert run["seed"] == 7 and run["metrics"] == record["median"] == record["min"]
    assert len(run["first_block_sha256"]) == 64
