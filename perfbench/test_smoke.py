"""Smoke tests of the benchmark: every workload at tiny sizes, through the
same code path as a full run, traced and untraced."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_the_metrics_of_benchmark_json(trace, kind):
    done = bench("--smoke", "--seed", "3", "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    headers = [line.split()[0] for line in lines if "  seed 3  trace" in line]
    assert headers == [w["name"] for w in SPEC["workloads"]]
    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(results) == len(headers)
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "sweep_empty", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
