"""The benchmark's own tests: tiny workloads, trace bookkeeping, exit codes.

Run from the root of a source checkout:

    python3 -m pytest perfbench -q

``test_roadmap_figures`` re-runs the instance sizes whose counters the
project ROADMAP quotes and takes about half a minute; the rest take a few
seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import TARGETS, NullTracer, Tracer  # noqa: E402

TINY = {
    "desk": {"n": 12, "thetas": [0.5, 1.0], "voters": 20, "max_nodes": 500},
    "wide": {"n": 80, "rankings": 10, "batch": 10},
    "deep": {"n": 20, "rankings": 2000, "batch": 512},
    "sweep": {"trials": 1, "num_rankings": 20},
}
DETERMINISTIC = (
    "consensus.bnb_nodes",
    "fair.repair_swaps",
    "mallows.rows",
    "fk_objective",
    "repair_flips",
    "pd_loss_fair",
)


def traced_once(name: str, seed: int, workdir: Path, **params) -> tuple[dict, run.Runner]:
    """Set up, run once untraced and once traced; return the per-layer metrics."""
    workload = workloads.WORKLOADS[name](**params)
    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        inputs = workload.setup(seed, workdir)
    finally:
        setup_tracer.restore()
    runner = run.Runner(workload, inputs)
    untraced = runner.measure(0, NullTracer())
    tracer = Tracer()
    samples = runner.measure(0, tracer)
    spans = set(tracer.self_times()) - {"<covered>"}
    layers = {name for name, _ in run.PER_LAYER}
    assert {s + "_s" for s in spans} <= layers, "a span feeds no per-layer metric"
    metrics = run.layer_metrics(tracer, setup_tracer, samples, untraced, runner.quality)
    return {**metrics, **runner.quality}, runner


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_checks_pass_and_counters_repeat(name, tmp_path):
    seed = workloads.WORKLOADS[name].default_seed
    first, runner = traced_once(name, seed, tmp_path / "a", **TINY[name])
    assert runner.attempted > 0
    assert runner.failed == 0, runner.problems
    second, _ = traced_once(name, seed, tmp_path / "b", **TINY[name])
    for key in DETERMINISTIC:
        assert first.get(key) == second.get(key), key

    # self times of the run-phase layers plus the unattributed remainder
    # make up the traced wall time
    run_phase = [
        n for n, unit in run.PER_LAYER
        if unit == "s" and not n.startswith("trace.") and not n.endswith("_setup_s")
    ]
    total = sum(first[n] for n in run_phase) + first["trace.unattributed_s"]
    assert total == pytest.approx(first["trace.wall_s"], rel=1e-9, abs=1e-9)
    assert first["trace.unattributed_s"] >= 0


def test_second_seed_runs_cleanly(tmp_path):
    for name, params in TINY.items():
        metrics, runner = traced_once(name, 1001, tmp_path / name, **params)
        assert runner.failed == 0, (name, runner.problems)


def test_failing_outputs_are_counted(tmp_path, monkeypatch):
    """Outputs that fail their checks give ``failed`` > 0, not a crash."""
    def refuse(*args, **kwargs):
        raise workloads.FairConsensusError("refused")

    for attr in ("fair_kemeny", "fair_pipeline", "repair_ranking"):
        monkeypatch.setattr(workloads.fc_fair, attr, refuse)
    monkeypatch.setattr(workloads.fc_cli, "main", lambda argv: 1)
    for name, params in TINY.items():
        workload = workloads.WORKLOADS[name](**params)
        runner = run.Runner(workload, workload.setup(1, tmp_path / name))
        runner.measure(0, NullTracer())
        assert runner.failed > 0, name
        assert runner.quality == {}, name


def test_metric_lists_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_restores_every_function():
    import importlib

    before = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, functions in TARGETS.items()
        for attr in functions
    }
    tracer = Tracer()
    tracer.install()
    tracer.restore()
    for (module, attr), fn in before.items():
        assert getattr(importlib.import_module(module), attr) is fn


def test_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_roadmap_figures(tmp_path):
    """The instance sizes whose counters the ROADMAP quotes reproduce them."""
    desk = workloads.Desk(trials=2, max_nodes=25_000)
    inputs = desk.setup(23, tmp_path)
    result = desk.run(inputs, NullTracer())
    assert desk.check(inputs, result).failed == 0
    quality = desk.quality(inputs, result)
    assert quality["fk_objectives"] == [18722, 19054, 15813, 15850, 15002, 15063]
    assert quality["fk_objective"] == 99504

    for streamed, size, swaps in ((workloads.Wide, {"n": 2000}, 204802),
                                  (workloads.Deep, {"rankings": 200_000}, 509)):
        workload = streamed(**size)
        inputs = workload.setup(workload.default_seed, tmp_path)
        result = workload.run(inputs, NullTracer())
        assert workload.check(inputs, result).failed == 0
        assert result["swaps"] == swaps
