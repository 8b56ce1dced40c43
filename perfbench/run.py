"""Run one finring benchmark workload and print its metrics.

    python3 perfbench/run.py --workload classify-mid --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload theorems --seed 0 --seconds 30 --trace 1
    python3 perfbench/run.py --workload classify-cliff --seed 0 --seconds 30 --repeat 10

Run from the root of a checkout; the program is imported from ``src``.
The workload runs in this one process, with one thread, as a closed loop
with one caller, for at least ``--seconds`` seconds (whole passes).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--repeat N`` instead runs N such runs with seeds seed..seed+N-1, each in
a fresh process, and prints each metric's median and quartiles.
"""

from __future__ import annotations

import os

# One thread: set before numpy is imported, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("classify-mid", "classify-cliff", "theorems")

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# import finring and draw the inputs in a fresh interpreter; prints seconds.
_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.draw({workload!r}, {seed})
print(time.perf_counter() - start)
"""

END_TO_END = {"wall_s": "s", "item_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# item_p90_s is reported (not as a metric) only when a run has this many items.
P90_MIN_ITEMS = 100


def layer_units() -> dict:
    """Per-layer metric name -> unit, in report order."""
    from finring import deciders, harness

    names = [
        "cli.parse_s", "cli.elaborate_s", "constructions.assoc_gate_s",
        "kernel.tables_s", "kernel.table_bytes", "kernel.scalar_path_rings",
        "kernel.units_s", "kernel.nilpotents_s", "kernel.jacobson_s",
        "kernel.freeze_s", "kernel.axioms_s",
        "deciders.classify_s", "deciders.NI_s",
    ]
    for flag in deciders._ELEMENT_DECIDERS:
        names += [f"deciders.flag.{flag}_s", f"deciders.flag.{flag}.elements"]
    names += [f"harness.suite.{name}_s" for name in harness.ALL_SUITES]
    names += ["harness.falsify_s", "harness.crosscheck_s"]
    names += [f"harness.{kind}.{field}" for kind in ("cases", "instances")
              for field in ("attempted", "passed", "skipped")]
    names.append("trace.overhead_s")
    return {n: "s" if n.endswith("_s") else "bytes" if n.endswith("_bytes") else "count"
            for n in names}


def machine() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "timing": "single process, one thread, closed loop with one caller",
    }


def setup_seconds(workload: str, seed: int, probes: int) -> list:
    code = _SETUP_PROBE.format(src=str(SRC), bench=str(BENCH), workload=workload, seed=seed)
    out = []
    for _ in range(probes):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S, check=True)
        out.append(float(done.stdout.split()[-1]))
    return out


def measure(workload, inputs, seconds, traced, expected):
    """Run passes until ``seconds`` have passed; with ``traced`` they alternate
    untraced and traced, at least one of each."""
    import workloads
    from tracing import Tracer

    untraced, tracers = [], []          # (wall, item seconds) ; (wall, tracer)
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while (not untraced or (traced and not tracers)) or time.perf_counter() < deadline:
        tracer = Tracer() if traced and len(tracers) < len(untraced) else None
        with tracer.installed() if tracer else nullcontext():
            start = time.perf_counter()
            items, outputs = workloads.run_pass(workload, inputs, tracer)
            wall = time.perf_counter() - start
        bad, messages = workloads.check_pass(workload, inputs, outputs, expected)
        for message in messages:
            print(f"incorrect: {message}", file=sys.stderr)
        attempted += len(items)
        failed += bad
        if tracer is None:
            untraced.append((wall, items))
        else:
            tracers.append((wall, tracer))
    return untraced, tracers, attempted, failed


def end_to_end(untraced, setup) -> tuple[dict, list]:
    walls = [wall for wall, _ in untraced]
    times = sorted(t for _, items in untraced for t in items)
    values = {
        "wall_s": (statistics.median(walls), len(walls)),
        "item_p50_s": (statistics.median(times), len(times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "setup_s": (statistics.median(setup), len(setup)),
    }
    extra = []
    if len(times) >= P90_MIN_ITEMS:
        p90 = statistics.quantiles(times, n=10)[-1]
        extra.append(f"item_p90_s = {p90!r} s (n={len(times)} items)")
    else:
        extra.append(f"item_p90_s not reported: {len(times)} items < {P90_MIN_ITEMS}")
    metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END.items()}
    lines = [f"{name} = {values[name][0]!r} {unit} (n={values[name][1]})"
             for name, unit in END_TO_END.items()]
    extra.append("pass walls (s): " + ", ".join(f"{w:.3f}" for w in walls))
    return metrics, lines + extra


def per_layer(untraced, tracers) -> dict:
    units = layer_units()
    per_pass = [tracer.layer_metrics() for _, tracer in tracers]
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            value = (statistics.median(w for w, _ in tracers)
                     - statistics.median(w for w, _ in untraced))
        else:
            # counts repeat exactly from pass to pass; keep them whole numbers
            median = statistics.median if unit == "s" else statistics.median_low
            value = median(p.get(name, 0) for p in per_pass)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def write_trace(workload, seed, inputs, info, tracers) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    doc = {"workload": workload, "seed": seed, "inputs": inputs, "machine": info,
           "passes": [{"wall_s": wall, **tracer.to_json()} for wall, tracer in tracers]}
    path.write_text(json.dumps(doc))
    return path


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    info = machine()
    inputs = workloads.draw(args.workload, args.seed)
    if args.smoke:
        inputs = workloads.shrink(args.workload, inputs)
    expected = workloads.load_expected()
    setup = setup_seconds(args.workload, args.seed, 1 if args.smoke else SETUP_PROBES)
    untraced, tracers, attempted, failed = measure(
        args.workload, inputs, args.seconds, args.trace, expected)

    print("machine: " + json.dumps(info, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: inputs {json.dumps(inputs)}")
    if args.trace:
        metrics = per_layer(untraced, tracers)
        path = write_trace(args.workload, args.seed, inputs, info, tracers)
        print(f"{len(tracers)} traced and {len(untraced)} untraced passes; spans in "
              f"{path.relative_to(ROOT)}")
        lines = [f"{name} = {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    else:
        metrics, lines = end_to_end(untraced, setup)
    lines.append(f"failed_share = {failed / attempted!r} ({failed}/{attempted} items)")
    for line in lines:
        print("  " + line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def repeat(args) -> int:
    """Run ``--repeat`` fresh runs and print each metric's median and quartiles."""
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        doc = json.loads(spec.read_text())
        bounds = {m["name"]: m.get("bound") for m in doc["end_to_end"] + doc["per_layer"]}
    seeds = list(range(args.seed, args.seed + args.repeat))
    results = []
    for seed in seeds:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"seed {seed}: exit code {done.returncode}", file=sys.stderr)
            return 1
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: " + json.dumps(results[-1]), flush=True)
    summary = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                          else values * 3)
        spread = (q3 - q1) / median if median else None
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name), "unit": first["unit"]}
        print(f"  {name}: median {median:.6g} {first['unit']}, quartiles "
              f"[{q1:.6g}, {q3:.6g}], spread {spread if spread is None else round(spread, 4)}"
              + (f", bound {bounds[name]}" if bounds.get(name) is not None else ""))
    correct = all(r["correct"] for r in results)
    print(json.dumps({"workload": args.workload, "seeds": seeds, "correct": correct,
                      "metrics": summary}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many fresh runs on consecutive seeds and summarize")
    parser.add_argument("--smoke", action="store_true",
                        help="one ring or tiny theorem sizes per pass, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "finring" / "__init__.py").is_file():
        print(f"no finring package under {SRC}; run from a finring checkout",
              file=sys.stderr)
        return 2
    return repeat(args) if args.repeat else run(args)


if __name__ == "__main__":
    sys.exit(main())
