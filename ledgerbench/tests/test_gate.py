"""The benchmark's gate can fail: a damaged input fails every workload.

Each case runs ``ledgerbench/run.py`` end to end on a small capture
(``--scale 0.002``, about 1,400 records) and a one-second run, so the
whole file takes a couple of minutes. Run with
``python3 -m pytest ledgerbench/tests``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import LAYER_METRICS  # noqa: E402
from run import WORKLOADS  # noqa: E402

SMALL = ["--seed", "7", "--scale", "0.002", "--seconds", "1"]


def run_bench(*args: str) -> tuple[int, dict]:
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=str(ROOT),
        capture_output=True, text=True, timeout=300)
    return process.returncode, json.loads(
        process.stdout.strip().splitlines()[-1])


def test_benchmark_spec_lists_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_input_passes(workload):
    code, result = run_bench("--workload", workload, *SMALL)
    assert code == 0, result
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "records_per_s",
                                      "peak_rss_mb"}


@pytest.mark.parametrize("fault", ["drop-record", "corrupt-length"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_fault_fails_every_workload(workload, fault):
    code, result = run_bench("--workload", workload, "--fault", fault,
                             *SMALL)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] > 0
