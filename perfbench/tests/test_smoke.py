"""Small-grid runs of every workload through the benchmark's command line.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_reported_and_every_check_passes(workload, trace, kind):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCH[kind]}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_same_seed_same_inputs():
    out = [_run(ROOT, "--workload", "transport_static", "--seed", "11",
                "--seconds", "0", "--smoke") for _ in range(2)]
    errs = [json.loads(p.stdout.strip().splitlines()[-1])["metrics"]["ref_err"]["value"]
            for p in out]
    assert errs[0] == errs[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "chain_moving", "--seed", "1",
                "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
