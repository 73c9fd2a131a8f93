#!/usr/bin/env python3
"""Measure how steady the benchmark is on this host.

Runs ``run.py`` once per seed for each workload (workloads interleaved
per seed, so all of them see the same host drift) and prints, per
end-to-end metric, the median, the quartiles and the interquartile
spread as a share of the median, as ``statistics.quantiles(n=4)``
gives them. ``NOTES.md`` records these figures and the bounds in
``BENCHMARK.json`` derive from them.

Usage::

    python3 ledgerbench/steadiness.py --seeds 1-10 --seconds 25 \\
        replay-fleet batch-report live-serve
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import quartiles, spread  # noqa: E402


def seed_range(text: str) -> list[int]:
    first, _dash, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seeds", type=seed_range, default="1-10")
    parser.add_argument("--seconds", default="25")
    args = parser.parse_args()
    values: dict[str, dict[str, list[float]]] = {
        workload: {} for workload in args.workloads}
    for seed in args.seeds:
        for workload in args.workloads:
            process = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 args.seconds], cwd=str(HERE.parent),
                capture_output=True, text=True)
            result = json.loads(process.stdout.strip().splitlines()[-1])
            print(workload, seed, process.returncode, result["correct"],
                  {name: metric["value"] for name, metric
                   in result["metrics"].items()}, flush=True)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(
                    metric["value"])
    for workload, metrics in values.items():
        for name, series in metrics.items():
            q1, q2, q3 = quartiles(series)
            print(f"{workload} {name}: median {q2:.4g} q1 {q1:.4g} "
                  f"q3 {q3:.4g} spread {spread(series):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
