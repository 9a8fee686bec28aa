"""Checks of the benchmark itself.

Every workload runs in smoke mode (tiny trial counts) on a seed that was
not used while the benchmark was tuned, untraced and traced, and must
pass every gate and report every metric BENCHMARK.json lists.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
HELD_OUT_SEED = 90210


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_every_gate(workload, trace):
    proc = _bench("--workload", workload, "--seed", str(HELD_OUT_SEED),
                  "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "roc-default", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_roc_csv_gate_rejects_a_corrupted_curve(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import phases
    from run import WORKLOADS

    run = phases.Run(root=ROOT, work=tmp_path, workload=WORKLOADS["roc-default"],
                     seed=HELD_OUT_SEED, seconds=1, smoke=True, workers=1)
    csv = phases.roc_rep(run, 7, 1, 2).csv
    phases.check_roc_csv(run, csv, 2, "intact")
    assert run.correct
    lines = csv.decode().splitlines()
    fields = lines[-1].split(",")
    fields[4] = "0.5"  # p_d at gamma=+inf must be 0
    lines[-1] = ",".join(fields)
    phases.check_roc_csv(run, "\n".join(lines).encode(), 2, "corrupted")
    assert not run.correct
