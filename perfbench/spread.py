"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a source checkout:

    python3 perfbench/spread.py --seeds 1-10 [--trace 0]
                                [--out perfbench/baseline/BENCH_<commit>.json]

It runs every workload in ``BENCHMARK.json`` once per seed, one process at a
time, and reads each run's record from the ``.perfbench/BENCH_*.json`` file
``run.py`` writes. For every workload and metric it prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the bound in ``BENCHMARK.json``.
With ``--out`` the per-run values and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORK, provenance

ROOT = Path(__file__).resolve().parent.parent
# recorded with --trace 0 beside the end-to-end metrics of BENCHMARK.json
RAW = ("run_wall_s", "setup_wall_s", "reference_s", "setup_reference_s")


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload and return the metrics its record holds."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    record = json.loads((WORK / f"BENCH_{workload}_{seed}_trace{trace}.json").read_text())
    return record["per_layer"] if trace else record["end_to_end"]


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"] + [{"name": n} for n in RAW]
    seeds = seed_list(args.seeds)
    runs: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs[workload] = []
        for seed in seeds:
            found = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs[workload].append({"seed": seed, "metrics": found})
            shown = "" if args.trace else " ".join(
                f"{m['name']}={found[m['name']]:.4g}" for m in bench["end_to_end"])
            print(f"{workload} seed={seed} {shown}", flush=True)
        summary[workload] = {}
        for metric in metrics:
            values = [r["metrics"][metric["name"]] for r in runs[workload]]
            if len(values) < 2:
                continue
            stats = summarize(values)
            summary[workload][metric["name"]] = stats
            if stats["spread"] is None:
                continue
            bound = metric.get("bound")
            within = "" if bound is None else f" bound={bound} third={'ok' if stats['spread'] < bound / 3 else 'OVER'}"
            print(f"  {workload} {metric['name']}: median={stats['median']:.5g} "
                  f"q1={stats['q1']:.5g} q3={stats['q3']:.5g} spread={stats['spread']:.4f}{within}",
                  flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(
            {"seeds": seeds, "run_seconds": bench["run_seconds"], "trace": args.trace,
             "provenance": provenance(), "summary": summary, "runs": runs}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
