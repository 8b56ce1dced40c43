"""Record the outputs the benchmark checks every run against.

    python3 perfbench/record.py

Writes ``perfbench/expected.json``: the ``classify --json`` report of every
ring in every pool, every suite report, and the falsifier report of every
pooled falsifier seed, all without timing.  It refuses to record a suite or
falsifier failure or a fast-path disagreement.  Record only when the pools
change; a change to the program must reproduce the recorded outputs, so
never re-record to make a change pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from finring import harness  # noqa: E402


def record() -> dict:
    classify = {}
    for pool in workloads.POOLS.values():
        for text in sorted({t for slot in pool for t in slot}):
            _, payload, fast = workloads.classify_one(text)
            if not all(ok for _, _, ok in fast):
                raise SystemExit(f"{text}: fast-path verdicts disagree: {fast}")
            classify[text] = payload
            print(f"classified {text}", flush=True)
    full = workloads.draw("theorems", 0)
    suites = {}
    for name, suite in harness.ALL_SUITES.items():
        report = suite(**workloads.suite_kwargs(name, full))
        if not report.ok:
            raise SystemExit(f"suite {name} failed: {report.failures}")
        suites[name] = report.to_json(include_timing=False)
    falsify = {}
    for seed in workloads.FALSIFY_SEEDS:
        config = harness.SearchConfig(seed=seed, count=workloads.FALSIFY_COUNT,
                                      order_cap=workloads.FALSIFY_ORDER_CAP)
        report = harness.falsify(config)
        if not report.ok:
            raise SystemExit(f"falsify seed {seed} failed: {report.failures}")
        falsify[str(seed)] = report.to_json(include_timing=False)
        print(f"falsified seed {seed}", flush=True)
    return {"classify": classify, "suites": suites, "falsify": falsify}


if __name__ == "__main__":
    workloads.EXPECTED_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
