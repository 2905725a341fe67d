"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload desk --seed 23 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory; nothing is
installed. With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. Every output of every
timed run is checked exactly; the command exits 1 if any check fails and 2
if the package source is missing. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. A detailed
record with provenance is written to ``.perfbench/BENCH_<workload>_<seed>_trace<0|1>.json``,
and the traced run's spans to ``.perfbench/SPANS_<workload>_<seed>.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 10
# median reference_seconds() on the machine the first baseline was recorded on
REFERENCE_S = 0.009
SAMPLE_PERIOD_S = 0.25
# A fresh interpreter that imports the package's third-party and standard
# dependencies but no package code: the reference for set-up probes. Its
# median wall time on the machine the first baseline was recorded on:
REFERENCE_CHILD = [sys.executable, "-c", "import numpy, csv, fractions, hashlib, json, tempfile"]
REFERENCE_SETUP_S = 0.2

# (name, unit) of every metric, in the order printed
END_TO_END = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# printed and recorded but not in BENCHMARK.json: the raw wall times behind
# the scaled ones, and the share of failed checks
EXTRA = [
    ("run_wall_s", "s"),
    ("setup_wall_s", "s"),
    ("reference_s", "s"),
    ("setup_reference_s", "s"),
    ("fail_frac", "ratio"),
]
# output quality, deterministic for a seed: printed on every run and reported
# with the per-layer metrics, where a workload that has no such output reads 0
QUALITY = [
    ("fk_objective", "disagreements"),
    ("pd_loss_fair", "ratio"),
    ("repair_flips", "pairs"),
]
PER_LAYER = [
    ("consensus.bnb_s", "s"),
    ("consensus.bnb_nodes", "count"),
    ("consensus.bnb_nodes_per_s", "1/s"),
    ("consensus.bnb_calls", "count"),
    ("consensus.bnb_completed_frac", "ratio"),
    ("consensus.kemeny_exact_s", "s"),
    ("consensus.unaware_s", "s"),
    ("consensus.baseline_s", "s"),
    ("consensus.fairness_key_s", "s"),
    ("consensus.fairness_key_calls", "count"),
    ("fair.repair_s", "s"),
    ("fair.repair_calls", "count"),
    ("fair.repair_swaps", "count"),
    ("fair.repair_swaps_per_s", "1/s"),
    ("fair.repair_stalled", "count"),
    ("fair.fair_kemeny_self_s", "s"),
    ("fair.pipeline_self_s", "s"),
    ("mallows.sample_s", "s"),
    ("mallows.rows", "count"),
    ("mallows.rows_per_s", "1/s"),
    ("mallows.scenario_s", "s"),
    ("mallows.scenario_setup_s", "s"),
    ("model.index_s", "s"),
    ("model.index_setup_s", "s"),
    ("model.precedence_s", "s"),
    ("model.precedence_calls", "count"),
    ("metrics.pd_loss_s", "s"),
    ("metrics.pd_loss_rankings", "count"),
    ("metrics.evaluate_s", "s"),
    ("metrics.evaluate_calls", "count"),
    ("cli.self_s", "s"),
    ("cli.cells", "count"),
    ("cli.bytes_written", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
    *QUALITY,
]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("desk", "wide", "deep", "sweep"))
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def provenance() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if found.returncode == 0:
            commit = found.stdout.strip()
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


def _reference_step(x: int) -> int:
    return (x * 2_654_435_761) % 1_000_003


def reference_seconds() -> float:
    """Wall seconds of a fixed pure-Python task that calls no package code.

    A shared machine's speed can drift by a fifth or more within a minute.
    Timed around and during each measured interval, this task tells how fast
    the machine ran meanwhile. It mixes arithmetic, dict stores and function
    calls, takes about 9 ms, and allocates next to nothing, so it adds
    nothing to the workload's peak memory.
    """
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(30_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    for i in range(10_000):
        acc += _reference_step(i)
    return time.perf_counter() - start


def bracketed(interval, sample_during: bool = True) -> tuple[object, float, float]:
    """Call ``interval()``; return its result, wall seconds and reference seconds.

    The reference task runs three times before and three times after the
    interval and, with ``sample_during``, every SAMPLE_PERIOD_S within it
    from a timer signal; the returned wall time leaves out those runs, and
    the reference time is the median of them all. The traced run samples
    only around its repeats, so no span absorbs the task's time.
    """
    samples = [reference_seconds() for _ in range(3)]
    spent = 0.0

    def sample(signum, frame) -> None:
        nonlocal spent
        taken = reference_seconds()
        samples.append(taken)
        spent += taken

    if sample_during:
        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    began = time.perf_counter()
    try:
        result = interval()
    finally:
        wall = time.perf_counter() - began
        if sample_during:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    samples.extend(reference_seconds() for _ in range(3))
    return result, wall - spent, statistics.median(samples)


def scaled(samples: list[tuple[float, float]], nominal: float = REFERENCE_S) -> list[float]:
    """Each wall time rescaled to the speed at which its reference takes ``nominal``."""
    return [wall * nominal / ref for wall, ref in samples]


def time_setup(args, seed: int) -> list[tuple[float, float]]:
    """(wall, reference) seconds of fresh processes that import the package and build the inputs.

    Each probe runs between two runs of REFERENCE_CHILD, and its reference is
    their mean: process start and imports slow down with the machine in a
    way an in-process task does not follow.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(seed), "--setup-only"]

    def wall(cmd) -> float:
        began = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr.strip()}")
        return time.perf_counter() - began

    refs = [wall(REFERENCE_CHILD)]
    samples = []
    for _ in range(SETUP_PROBES):
        probe = wall(command)
        refs.append(wall(REFERENCE_CHILD))
        samples.append((probe, (refs[-2] + refs[-1]) / 2))
    return samples


class Runner:
    """Repeats one workload, checking every output, for a fixed time."""

    def __init__(self, workload, inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fingerprint: str | None = None
        self.quality: dict = {}

    def _check(self, result) -> None:
        checked = self.workload.check(self.inputs, result)
        fingerprint = self.workload.fingerprint(result)
        if self.fingerprint is None:
            self.fingerprint = fingerprint
        elif fingerprint != self.fingerprint:
            checked.failed = checked.attempted
            checked.problems.append("outputs differ from the first repeat")
        # quality() reads outputs that passed their checks
        if checked.failed == 0 and not self.quality:
            self.quality = self.workload.quality(self.inputs, result)
        self.attempted += checked.attempted
        self.failed += checked.failed
        self.problems.extend(checked.problems[: 10 - len(self.problems)])

    def measure(self, seconds: float, tracer) -> list[tuple[float, float]]:
        """(wall, reference) seconds per repeat.

        Stops before the next repeat would overrun ``seconds``.
        """
        samples: list[tuple[float, float]] = []
        start = time.perf_counter()
        while True:
            tracer.install()
            try:
                result, wall, ref = bracketed(
                    lambda: self.workload.run(self.inputs, tracer), sample_during=not tracer.active
                )
            finally:
                tracer.restore()
            samples.append((wall, ref))
            self._check(result)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(w for w, _ in samples) > seconds:
                return samples


def layer_metrics(tracer, setup_tracer, samples, untraced, quality: dict) -> dict:
    walls = [wall for wall, _ in samples]
    runs = len(walls)
    self_s = tracer.self_times()
    setup_self_s = setup_tracer.self_times()
    counts = tracer.counts

    def per_run(value: float) -> float:
        return value / runs

    def rate(count_key: str, span: str) -> float:
        busy = self_s.get(span, 0.0)
        return counts[count_key] / busy if busy else 0.0

    bnb_calls = counts["consensus.bnb_calls"]
    out = {
        "consensus.bnb_nodes": per_run(counts["consensus.bnb_nodes"]),
        "consensus.bnb_nodes_per_s": rate("consensus.bnb_nodes", "consensus.bnb"),
        "consensus.bnb_calls": per_run(bnb_calls),
        "consensus.bnb_completed_frac": counts["consensus.bnb_completed"] / bnb_calls if bnb_calls else 0.0,
        "consensus.fairness_key_calls": per_run(counts["consensus.fairness_key_calls"]),
        "fair.repair_calls": per_run(counts["fair.repair_calls"]),
        "fair.repair_swaps": per_run(counts["fair.repair_swaps"]),
        "fair.repair_swaps_per_s": rate("fair.repair_swaps", "fair.repair"),
        "fair.repair_stalled": per_run(counts["fair.repair_raised.RepairStalled"]),
        "mallows.rows": per_run(counts["mallows.rows"]),
        "mallows.rows_per_s": rate("mallows.rows", "mallows.sample"),
        "mallows.scenario_setup_s": setup_self_s.get("mallows.scenario", 0.0),
        "model.index_setup_s": setup_self_s.get("model.index", 0.0),
        "model.precedence_calls": per_run(counts["model.precedence_calls"]),
        "metrics.pd_loss_rankings": per_run(counts["metrics.pd_loss_rankings"]),
        "metrics.evaluate_calls": per_run(counts["metrics.evaluate_calls"]),
        "cli.cells": quality.get("cells", 0),
        "cli.bytes_written": quality.get("bytes_written", 0),
        "trace.wall_s": per_run(sum(walls)),
        "trace.unattributed_s": per_run(sum(walls) - self_s.pop("<covered>", 0.0)),
        "trace.overhead_frac": statistics.fmean(scaled(samples)) / statistics.fmean(scaled(untraced)) - 1,
        **{name: quality.get(name, 0) for name, _ in QUALITY},
    }
    for name, _ in PER_LAYER:
        if name not in out:
            out[name] = per_run(self_s.get(name[: -len("_s")], 0.0))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fairconsensus" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import NullTracer, Tracer

    workload = workloads.WORKLOADS[args.workload]()
    seed = workload.default_seed if args.seed is None else args.seed
    workdir = WORK / f"{args.workload}-{seed}-{os.getpid()}"
    try:
        if args.setup_only:
            workload.setup(seed, workdir)
            return 0
        setup_samples = time_setup(args, seed)
        setup_tracer = Tracer() if args.trace else NullTracer()
        setup_tracer.install()
        try:
            inputs = workload.setup(seed, workdir)
        finally:
            setup_tracer.restore()
        runner = Runner(workload, inputs)
        if args.trace:
            untraced = runner.measure(args.seconds / 2, NullTracer())
            tracer = Tracer()
            samples = runner.measure(args.seconds / 2, tracer)
        else:
            untraced = samples = runner.measure(args.seconds, NullTracer())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    quality = runner.quality
    e2e = {
        "run_s": statistics.median(scaled(untraced)),
        "setup_s": statistics.median(scaled(setup_samples, REFERENCE_SETUP_S)),
        "peak_rss_mb": peak_rss_mb,
        "run_wall_s": statistics.median(wall for wall, _ in untraced),
        "setup_wall_s": statistics.median(wall for wall, _ in setup_samples),
        "reference_s": statistics.median(ref for _, ref in untraced),
        "setup_reference_s": statistics.median(ref for _, ref in setup_samples),
        "fail_frac": runner.failed / runner.attempted,
        **{name: quality[name] for name, _ in QUALITY if name in quality},
    }
    units = dict(END_TO_END + EXTRA + PER_LAYER)
    if args.trace:
        metrics = layer_metrics(tracer, setup_tracer, samples, untraced, quality)
        reported = PER_LAYER
    else:
        metrics = e2e
        reported = END_TO_END
    record = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params,
        "provenance": provenance(),
        "reference_s_nominal": REFERENCE_S,
        "setup_reference_s_nominal": REFERENCE_SETUP_S,
        "repeats": len(samples),
        "repeat_wall_ref_s": samples,
        "untraced_wall_ref_s": untraced,
        "setup_wall_ref_s": setup_samples,
        "end_to_end": e2e,
        "quality_detail": quality,
        "per_layer": metrics if args.trace else None,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
    }
    WORK.mkdir(exist_ok=True)
    bench_file = WORK / f"BENCH_{args.workload}_{seed}_trace{args.trace}.json"
    bench_file.write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.dump(WORK / f"SPANS_{args.workload}_{seed}.json")

    print(f"# {args.workload} seed={seed} repeats={len(samples)} {json.dumps(record['provenance'])}")
    print(f"# params {json.dumps(workload.params)}")
    for name, value in e2e.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    if args.trace:
        for name, _ in PER_LAYER:
            if name not in e2e:
                print(f"{args.workload} {name} = {metrics[name]:.6g} {units[name]}")
    for problem in runner.problems:
        print(f"# check failed: {problem}")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in reported},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
