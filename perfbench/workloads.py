"""The benchmark's four seeded workloads.

Each workload builds its inputs from a seed (``setup``), runs the timed
steps against the public ``fairconsensus`` API or CLI (``run``), and checks
every output exactly (``check``). Inputs are built here, not borrowed from
the test suite, so the benchmark depends on the package alone.

Why these four: each puts a different layer on the critical path.

- ``desk``: the node-capped fair branch-and-bound dominates; repair and
  sampling barely run.
- ``wide``: swap repair of one long ranking dominates; there is no search.
- ``deep``: the streamed sampler's per-row decode dominates; repair does
  little work on the same layer ``wide`` stresses.
- ``sweep``: the CLI experiment at small n, where the exact-rational metrics
  and fairness keys dominate and many short searches and repairs run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import fairconsensus.cli as fc_cli
import fairconsensus.consensus as fc_consensus
import fairconsensus.fair as fc_fair
import fairconsensus.mallows as fc_mallows
import fairconsensus.metrics as fc_metrics
import fairconsensus.model as fc_model
from fairconsensus import (
    CandidateTable,
    FairConsensusError,
    FairnessSpec,
    Ranking,
    RankingSet,
    evaluate_fairness,
    kendall_tau,
    pd_loss,
    ranking_objective,
)

# Timed steps call the package through its module namespaces
# (``fc_fair.fair_kemeny`` and so on) so that the traced run's wrappers see
# them; checks call the names imported above, which tracing never replaces.


def grid_table(n: int, first: int, second: int) -> CandidateTable:
    """``n`` candidates spread evenly over a ``first`` x ``second`` grid."""
    ids = tuple(f"c{i:03d}" for i in range(n))
    rows = tuple((f"r{i % first}", f"g{(i // first) % second}") for i in range(n))
    return CandidateTable(ids, ("race", "gender"), rows)


def digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@dataclass
class Checked:
    """What the checks of one run found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)


class Workload:
    """Parameters, with per-instance overrides for tests; subclasses define
    ``setup``, ``run``, ``check``, ``quality`` and ``fingerprint``."""

    name = ""
    default_seed = 0
    params: dict = {}

    def __init__(self, **overrides) -> None:
        self.params = {**self.params, **overrides}


def check_fair_output(
    checked: Checked, label: str, ranking: Ranking, spec, index
) -> None:
    """A fair output is a permutation of the table and passes exactly."""
    table = index.table
    ok = sorted(ranking.order) == sorted(table.candidate_ids) and len(
        ranking.order
    ) == table.n
    ok = ok and evaluate_fairness(ranking, spec, index).satisfied
    checked.expect(ok, f"{label}: not a fair permutation of the table")


# --------------------------------------------------------------------------
# desk: 24 candidates, node-capped fair Kemeny plus three fair pipelines


class Desk(Workload):
    name = "desk"
    default_seed = 23
    params = {
        "n": 24,
        "grid": [3, 2],
        "scenario": "low-fair",
        "modal_seed": 7,
        "delta": "1/10",
        "thetas": [0.1, 0.5, 1.0],
        "trials": 4,
        "voters": 150,
        "max_nodes": 6_250,
        "pipelines": ["borda", "copeland", "schulze"],
    }

    def setup(self, seed: int, workdir: Path) -> dict:
        p = self.params
        table = grid_table(p["n"], *p["grid"])
        spec = FairnessSpec(delta_default=Fraction(p["delta"]))
        index = spec.build_index(table)
        targets = fc_mallows.scenario_targets(p["scenario"], table.attributes)
        modal = fc_mallows.build_scenario(index, targets, p["modal_seed"])
        return {"seed": seed, "table": table, "spec": spec, "index": index, "modal": modal}

    def run(self, inputs: dict, tracer) -> list[dict]:
        p = self.params
        table, spec, index = inputs["table"], inputs["spec"], inputs["index"]
        out = []
        for ti, theta in enumerate(p["thetas"]):
            for trial in range(p["trials"]):
                config = fc_mallows.MallowsConfig(
                    inputs["modal"],
                    theta,
                    p["voters"],
                    fc_mallows.derive_seed(inputs["seed"], ti, trial),
                )
                rankings = fc_mallows.sample_mallows(config)
                matrix = fc_model.build_precedence_matrix(rankings, table)
                outputs = {}
                try:
                    solution = fc_fair.fair_kemeny(
                        matrix, spec, index, max_nodes=p["max_nodes"]
                    )
                    outputs["fair-kemeny"] = solution.ranking
                except FairConsensusError as exc:
                    outputs["fair-kemeny"] = exc
                    solution = None
                for method in p["pipelines"]:
                    try:
                        outputs[f"fair-{method}"] = fc_fair.fair_pipeline(
                            method, rankings, spec, index, collect_swaps=False
                        ).ranking
                    except FairConsensusError as exc:
                        outputs[f"fair-{method}"] = exc
                # scoring every output is part of the timed work; the checks
                # re-run evaluate_fairness outside the timed region
                losses = {}
                for label, ranking in outputs.items():
                    if isinstance(ranking, Ranking):
                        losses[label] = fc_metrics.pd_loss(rankings, ranking)
                        fc_metrics.evaluate_fairness(ranking, spec, index)
                out.append(
                    {
                        "theta": theta,
                        "trial": trial,
                        "rankings": rankings,
                        "matrix": matrix,
                        "solution": solution,
                        "outputs": outputs,
                        "losses": losses,
                    }
                )
        return out

    def check(self, inputs: dict, result: list[dict]) -> Checked:
        checked = Checked()
        for inst in result:
            where = f"theta={inst['theta']} trial={inst['trial']}"
            for label, ranking in inst["outputs"].items():
                if not isinstance(ranking, Ranking):
                    checked.expect(False, f"{where} {label}: raised {ranking!r}")
                    continue
                check_fair_output(
                    checked, f"{where} {label}", ranking, inputs["spec"], inputs["index"]
                )
            solution = inst["solution"]
            if solution is not None:
                order = solution.ranking.to_indices(inputs["table"])
                recomputed = ranking_objective(inst["matrix"].cost_lists(), order)
                checked.expect(
                    recomputed == solution.objective,
                    f"{where}: objective {solution.objective} != {recomputed}",
                )
        return checked

    def quality(self, inputs: dict, result: list[dict]) -> dict:
        losses = [loss for inst in result for loss in inst["losses"].values()]
        return {
            "fk_objective": sum(
                inst["solution"].objective for inst in result if inst["solution"]
            ),
            "fk_objectives": [
                inst["solution"].objective if inst["solution"] else None
                for inst in result
            ],
            "pd_loss_fair": float(sum(losses, Fraction(0)) / len(losses)),
        }

    def fingerprint(self, result: list[dict]) -> str:
        return digest(
            [
                (
                    inst["solution"].objective if inst["solution"] else None,
                    [
                        r.order if isinstance(r, Ranking) else repr(r)
                        for r in inst["outputs"].values()
                    ],
                )
                for inst in result
            ]
        )


# --------------------------------------------------------------------------
# wide and deep: streamed Borda then swap repair of one ranking


class _Streamed(Workload):
    """Sample -> streamed Borda -> repair, on a 2x2 grid (``wide``, ``deep``)."""

    def setup(self, seed: int, workdir: Path) -> dict:
        p = self.params
        table = grid_table(p["n"], *p["grid"])
        spec = FairnessSpec(delta_default=Fraction(p["delta"]))
        index = spec.build_index(table)
        modal = fc_mallows.mixed_block_modal(index, p["mix"])
        return {
            "seed": seed,
            "table": table,
            "spec": spec,
            "index": index,
            "modal_indices": modal.to_indices(table),
        }

    def _batches(self, inputs: dict):
        p = self.params
        return fc_mallows.iter_ranking_batches(
            inputs["modal_indices"],
            p["theta"],
            p["rankings"],
            inputs["seed"],
            batch_size=p["batch"],
        )

    def run(self, inputs: dict, tracer) -> dict:
        batches = tracer.sampled(self._batches(inputs))
        consensus = fc_consensus.borda_streamed(batches, inputs["table"])
        try:
            fair, trace = fc_fair.repair_ranking(
                consensus, inputs["spec"], inputs["index"], collect_swaps=False
            )
        except FairConsensusError as exc:
            return {"consensus": consensus, "fair": exc, "swaps": None}
        return {"consensus": consensus, "fair": fair, "swaps": trace.iterations}

    def check(self, inputs: dict, result: dict) -> Checked:
        checked = Checked()
        fair = result["fair"]
        if not isinstance(fair, Ranking):
            checked.expect(False, f"repair raised {fair!r}")
        else:
            check_fair_output(checked, "repaired", fair, inputs["spec"], inputs["index"])
        return checked

    def quality(self, inputs: dict, result: dict) -> dict:
        if not isinstance(result["fair"], Ranking):
            return {}
        return {
            "repair_flips": kendall_tau(result["consensus"], result["fair"]),
            "repair_swaps": result["swaps"],
        }

    def fingerprint(self, result: dict) -> str:
        fair = result["fair"]
        return digest(
            result["consensus"].order, fair.order if isinstance(fair, Ranking) else repr(fair)
        )


class Wide(_Streamed):
    name = "wide"
    default_seed = 5
    params = {
        "n": 1200,
        "grid": [2, 2],
        "mix": 0.5,
        "delta": "33/100",
        "theta": 1.0,
        "rankings": 100,
        "batch": 100,
    }

    def quality(self, inputs: dict, result: dict) -> dict:
        found = super().quality(inputs, result)
        if found:
            # the timed run streams its rankings; materialize them again here
            ids = inputs["table"].candidate_ids
            rankings = RankingSet(
                tuple(
                    Ranking(tuple(ids[i] for i in row))
                    for rows in self._batches(inputs)
                    for row in rows.tolist()
                )
            )
            found["pd_loss_fair"] = float(pd_loss(rankings, result["fair"]))
        return found


class Deep(_Streamed):
    name = "deep"
    default_seed = 6
    params = {
        "n": 100,
        "grid": [2, 2],
        "mix": 0.5,
        "delta": "33/100",
        "theta": 0.6,
        "rankings": 60_000,
        "batch": 8192,
    }


# --------------------------------------------------------------------------
# sweep: the CLI experiment command over all methods at small n

FAIR_METHODS = ("fair-kemeny", "fair-borda", "fair-copeland", "fair-schulze", "correct-pick")


class Sweep(Workload):
    name = "sweep"
    default_seed = 11
    params = {
        "n": 12,
        "grid": [3, 2],
        "methods": list(fc_cli.METHODS),
        "scenario": "low-fair",
        "thetas": [0.3, 0.9],
        "deltas": ["0.1", "0.3"],
        "trials": 2,
        "num_rankings": 300,
        "max_nodes": 2000,
    }

    def setup(self, seed: int, workdir: Path) -> dict:
        p = self.params
        table = grid_table(p["n"], *p["grid"])
        workdir.mkdir(parents=True, exist_ok=True)
        with (workdir / "candidates.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["candidate_id", *table.attributes])
            for cid, values in zip(table.candidate_ids, table.values):
                writer.writerow([cid, *values])
        config = {
            "candidates": "candidates.csv",
            "methods": p["methods"],
            "scenario": p["scenario"],
            "thetas": p["thetas"],
            "deltas": p["deltas"],
            "trials": p["trials"],
            "num_rankings": p["num_rankings"],
            "max_nodes": p["max_nodes"],
            "seed": seed,
        }
        (workdir / "config.json").write_text(json.dumps(config, indent=2))
        return {"workdir": workdir, "attributes": table.attributes}

    def run(self, inputs: dict, tracer) -> dict:
        workdir = inputs["workdir"]
        out = workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        code = fc_cli.main(["experiment", "--config", str(workdir / "config.json"), "--out", str(out)])
        return {"code": code, "out": out}

    def _rows(self, result: dict) -> list[dict]:
        with (result["out"] / "runs.csv").open(newline="") as fh:
            return list(csv.DictReader(fh))

    def check(self, inputs: dict, result: dict) -> Checked:
        checked = Checked()
        if result["code"] != 0 or not (result["out"] / "runs.csv").is_file():
            checked.expect(False, f"experiment exited {result['code']} or wrote no runs.csv")
            return checked
        rows = self._rows(result)
        expected = (
            len(self.params["methods"])
            * len(self.params["thetas"])
            * len(self.params["deltas"])
            * self.params["trials"]
        )
        checked.expect(len(rows) == expected, f"runs.csv has {len(rows)} rows, not {expected}")
        spread_columns = [f"arp:{a}" for a in inputs["attributes"]] + ["irp"]
        for row in rows:
            where = f"{row['method']} theta={row['theta']} delta={row['delta']} trial={row['trial']}"
            ok = row["status"] == "ok"
            if ok and row["method"] in FAIR_METHODS:
                delta = Fraction(row["delta"])
                ok = all(Fraction(row[c]) <= delta for c in spread_columns)
            checked.expect(ok, f"{where}: status {row['status']} or a spread above delta")
        return checked

    def quality(self, inputs: dict, result: dict) -> dict:
        losses = [
            Fraction(row["pd_loss"])
            for row in self._rows(result)
            if row["method"] in FAIR_METHODS and row["status"] == "ok"
        ]
        return {
            "pd_loss_fair": float(sum(losses, Fraction(0)) / len(losses)),
            "cells": len(self._rows(result)),
            "bytes_written": sum(
                f.stat().st_size for f in result["out"].iterdir() if f.is_file()
            ),
        }

    def fingerprint(self, result: dict) -> str:
        path = result["out"] / "runs.csv"
        return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""


WORKLOADS = {w.name: w for w in (Desk, Wide, Deep, Sweep)}
