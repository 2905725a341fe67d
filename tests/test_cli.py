"""Command-line surface: formats, exit codes, determinism, atomicity."""

from __future__ import annotations

import csv
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from fairconsensus import Ranking, cli, pd_loss
from fairconsensus.cli import METHODS, main
from fairconsensus.mallows import derive_seed

import helpers


def write_candidates(path: Path, rows: list[tuple[str, ...]], header: list[str]):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_rankings(path: Path, rankings: list[tuple[str, ...]]):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerows(rankings)


@pytest.fixture
def small_case(tmp_path):
    """Eight candidates over two binary attributes with six base rankings."""
    table = helpers.grid_table(8, 2, 2)
    candidates = tmp_path / "candidates.csv"
    write_candidates(
        candidates,
        [
            (cid, *table.values[i])
            for i, cid in enumerate(table.candidate_ids)
        ],
        ["candidate_id", "race", "gender"],
    )
    import random

    rng = random.Random(7)
    rankings = tmp_path / "rankings.csv"
    rows = [r.order for r in helpers.random_ranking_set(table, 6, rng).rankings]
    write_rankings(rankings, rows)
    return table, candidates, rankings, tmp_path


@pytest.fixture
def odd_parity_case(tmp_path):
    """Sizes 3 vs 1: spread 0 is unreachable (odd shared mixed-pair count)."""
    candidates = tmp_path / "candidates.csv"
    write_candidates(
        candidates,
        [("a", "g"), ("b", "g"), ("c", "g"), ("d", "o")],
        ["candidate_id", "team"],
    )
    rankings = tmp_path / "rankings.csv"
    write_rankings(rankings, [("a", "b", "c", "d"), ("d", "c", "b", "a")])
    return candidates, rankings, tmp_path


class TestAggregate:
    def test_round_trip_consensus(self, small_case):
        table, candidates, rankings, tmp = small_case
        out = tmp / "out"
        code = main(
            [
                "aggregate",
                "--method",
                "kemeny",
                "--candidates",
                str(candidates),
                "--rankings",
                str(rankings),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        consensus_rows = list(csv.reader(open(out / "consensus.csv")))
        assert len(consensus_rows) == 1
        assert sorted(consensus_rows[0]) == sorted(table.candidate_ids)
        report = json.loads((out / "report.json").read_text())
        assert report["method"] == "kemeny"
        assert report["optimal"] is True
        assert report["consensus"] == consensus_rows[0]
        assert (out / "timing.json").exists()

    def test_fair_method_reports_satisfied(self, small_case):
        table, candidates, rankings, tmp = small_case
        out = tmp / "fair"
        code = main(
            [
                "aggregate",
                "--method",
                "fair-borda",
                "--candidates",
                str(candidates),
                "--rankings",
                str(rankings),
                "--delta",
                "0.25",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["fairness"]["satisfied"] is True
        assert report["swaps"] is not None
        assert report["pd_loss_unaware"] is not None
        pof = report["price_of_fairness"]
        assert Fraction(pof["num"], pof["den"]) >= 0

    def test_fair_kemeny_node_cap_reported(self, small_case):
        table, candidates, rankings, tmp = small_case
        out = tmp / "capped"
        code = main(
            [
                "aggregate",
                "--method",
                "fair-kemeny",
                "--candidates",
                str(candidates),
                "--rankings",
                str(rankings),
                "--delta",
                "0.25",
                "--max-nodes",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["optimal"] is False

    def test_deterministic_outputs(self, small_case):
        table, candidates, rankings, tmp = small_case
        outs = []
        for name in ("first", "second"):
            out = tmp / name
            assert (
                main(
                    [
                        "aggregate",
                        "--method",
                        "fair-kemeny",
                        "--candidates",
                        str(candidates),
                        "--rankings",
                        str(rankings),
                        "--delta",
                        "0.25",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            outs.append(out)
        for file in ("consensus.csv", "report.json"):
            assert (outs[0] / file).read_bytes() == (outs[1] / file).read_bytes()


class TestExitCodes:
    def test_parse_error_bad_header(self, tmp_path):
        bad = tmp_path / "candidates.csv"
        write_candidates(bad, [("a", "g"), ("b", "o")], ["id", "team"])
        rankings = tmp_path / "rankings.csv"
        write_rankings(rankings, [("a", "b")])
        code = main(
            [
                "aggregate",
                "--method",
                "borda",
                "--candidates",
                str(bad),
                "--rankings",
                str(rankings),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_parse_error_unknown_candidate(self, tmp_path):
        candidates = tmp_path / "candidates.csv"
        write_candidates(
            candidates, [("a", "g"), ("b", "o")], ["candidate_id", "team"]
        )
        rankings = tmp_path / "rankings.csv"
        write_rankings(rankings, [("a", "z")])
        code = main(
            [
                "aggregate",
                "--method",
                "borda",
                "--candidates",
                str(candidates),
                "--rankings",
                str(rankings),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2

    def test_parse_error_bad_delta(self, small_case):
        table, candidates, rankings, tmp = small_case
        code = main(
            [
                "aggregate",
                "--method",
                "fair-borda",
                "--candidates",
                str(candidates),
                "--rankings",
                str(rankings),
                "--delta",
                "0.1234567",
                "--out",
                str(tmp / "out"),
            ]
        )
        assert code == 2

    def test_infeasible_exit_and_no_partial_output(self, odd_parity_case):
        candidates, rankings, tmp = odd_parity_case
        out = tmp / "out"
        code = main(
            [
                "aggregate",
                "--method",
                "fair-kemeny",
                "--candidates",
                str(candidates),
                "--rankings",
                str(rankings),
                "--delta",
                "0",
                "--intersection",
                "none",
                "--out",
                str(out),
            ]
        )
        assert code == 3
        assert not out.exists()

    def test_repair_stall_exit(self, odd_parity_case):
        candidates, rankings, tmp = odd_parity_case
        code = main(
            [
                "aggregate",
                "--method",
                "fair-borda",
                "--candidates",
                str(candidates),
                "--rankings",
                str(rankings),
                "--delta",
                "0",
                "--intersection",
                "none",
                "--out",
                str(tmp / "out"),
            ]
        )
        assert code == 4

    def test_budget_exit_without_incumbent(self, odd_parity_case):
        # repair cannot seed the capped search here, so truncation at zero
        # nodes surfaces as the budget error rather than a silent result
        candidates, rankings, tmp = odd_parity_case
        code = main(
            [
                "aggregate",
                "--method",
                "fair-kemeny",
                "--candidates",
                str(candidates),
                "--rankings",
                str(rankings),
                "--delta",
                "0",
                "--intersection",
                "none",
                "--max-nodes",
                "0",
                "--out",
                str(tmp / "out"),
            ]
        )
        assert code == 5

    def test_scenario_unreachable_exit(self, tmp_path):
        candidates = tmp_path / "candidates.csv"
        write_candidates(
            candidates,
            [("a", "g"), ("b", "g"), ("c", "o"), ("d", "o")],
            ["candidate_id", "team"],
        )
        code = main(
            [
                "generate",
                "--candidates",
                str(candidates),
                "--scenario",
                "high-fair",
                "--tolerance",
                "0.000001",
                "--theta",
                "0.5",
                "--num-rankings",
                "5",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 6


class TestMetrics:
    def test_scores_match_library(self, small_case):
        table, candidates, rankings, tmp = small_case
        out = tmp / "metrics"
        code = main(
            [
                "metrics",
                "--candidates",
                str(candidates),
                "--rankings",
                str(rankings),
                "--delta",
                "0.25",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(open(out / "metrics.csv")))
        base_rows = list(csv.reader(open(rankings)))
        assert len(rows) == len(base_rows)
        import random

        from fairconsensus.cli import decimal_string

        rng = random.Random(7)
        base = helpers.random_ranking_set(table, 6, rng)
        for row, ranking in zip(rows, base.rankings):
            assert row["pd_loss"] == decimal_string(pd_loss(base, ranking))

    def test_scoring_external_file(self, small_case):
        table, candidates, rankings, tmp = small_case
        scored = tmp / "scored.csv"
        write_rankings(scored, [tuple(table.candidate_ids)])
        out = tmp / "metrics"
        code = main(
            [
                "metrics",
                "--candidates",
                str(candidates),
                "--rankings",
                str(rankings),
                "--score",
                str(scored),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(open(out / "metrics.csv")))
        assert len(rows) == 1
        assert rows[0]["source"].endswith("scored.csv")


class TestGenerate:
    def test_scenario_generation_writes_modal_and_samples(self, tmp_path):
        table = helpers.grid_table(12, 3, 2)
        candidates = tmp_path / "candidates.csv"
        write_candidates(
            candidates,
            [(cid, *table.values[i]) for i, cid in enumerate(table.candidate_ids)],
            ["candidate_id", "race", "gender"],
        )
        out = tmp_path / "gen"
        code = main(
            [
                "generate",
                "--candidates",
                str(candidates),
                "--scenario",
                "low-fair",
                "--theta",
                "0.5",
                "--num-rankings",
                "10",
                "--seed",
                "11",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        sample_rows = list(csv.reader(open(out / "rankings.csv")))
        assert len(sample_rows) == 10
        modal_rows = list(csv.reader(open(out / "modal.csv")))
        assert len(modal_rows) == 1
        modal_report = json.loads((out / "modal_report.json").read_text())
        assert "race" in modal_report["fairness"]["attributes"]

    def test_modal_and_scenario_are_exclusive(self, tmp_path, small_case):
        table, candidates, rankings, tmp = small_case
        code = main(
            [
                "generate",
                "--candidates",
                str(candidates),
                "--modal",
                str(rankings),
                "--scenario",
                "low-fair",
                "--theta",
                "0.5",
                "--num-rankings",
                "5",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2


class TestExperiment:
    def test_small_grid_shapes(self, tmp_path):
        table = helpers.grid_table(12, 3, 2)
        candidates = tmp_path / "candidates.csv"
        write_candidates(
            candidates,
            [(cid, *table.values[i]) for i, cid in enumerate(table.candidate_ids)],
            ["candidate_id", "race", "gender"],
        )
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "candidates": "candidates.csv",
                    "methods": ["kemeny", "fair-kemeny", "fair-borda"],
                    "thetas": [0.3, 0.9],
                    "deltas": ["0.25", "1.0"],
                    "trials": 2,
                    "num_rankings": 8,
                    "seed": 5,
                    "scenario": "low-fair",
                }
            )
        )
        out = tmp_path / "exp"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "runs.csv")))
        assert len(rows) == 3 * 2 * 2 * 2
        assert all(row["status"] == "ok" for row in rows)
        summary = list(csv.DictReader(open(out / "summary.csv")))
        assert len(summary) == 3 * 2 * 2
        # same instance cache: equal seeds for equal (theta, trial) pairs
        seeds = {
            (row["method"], row["theta"], row["trial"]): row["seed"] for row in rows
        }
        for theta in ("0.3", "0.9"):
            for trial in ("0", "1"):
                values = {
                    seeds[(m, theta, trial)]
                    for m in ("kemeny", "fair-kemeny", "fair-borda")
                }
                assert len(values) == 1

    def test_missing_key_is_parse_error(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"methods": ["kemeny"]}))
        assert (
            main(["experiment", "--config", str(config), "--out", str(tmp_path / "e")])
            == 2
        )

    def test_unaware_methods_solve_once_per_instance(self, grid_case, monkeypatch):
        """No unaware method reads a threshold: one solve per (theta, trial)."""
        calls = Counter()

        def counting(name):
            original = getattr(cli, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        for name in ("kemeny_weighted", "pick_fairest"):
            monkeypatch.setattr(cli, name, counting(name))
        config = {
            **SMALL_EXPERIMENT,
            "methods": ["pick-fairest", "kemeny-weighted"],
            "thetas": [0.3, 0.9],
            "deltas": ["0.1", "0.3"],
            "trials": 2,
        }
        Path("config.json").write_text(json.dumps(config))
        assert main(EXPERIMENT) == 0
        assert calls == {"kemeny_weighted": 4, "pick_fairest": 4}
        rows = list(csv.DictReader(open("out/runs.csv")))
        assert len(rows) == 2 * 2 * 2 * 2


@pytest.fixture
def grid_case(tmp_path, monkeypatch):
    """12 candidates on a 3x2 grid plus five base rankings, run from tmp_path."""
    import random

    monkeypatch.chdir(tmp_path)
    table = helpers.grid_table(12, 3, 2)
    write_candidates(
        tmp_path / "candidates.csv",
        [(cid, *table.values[i]) for i, cid in enumerate(table.candidate_ids)],
        ["candidate_id", "race", "gender"],
    )
    rows = [r.order for r in helpers.random_ranking_set(table, 5, random.Random(3)).rankings]
    write_rankings(tmp_path / "rankings.csv", rows)
    write_rankings(tmp_path / "modal.csv", [table.candidate_ids])
    return table


SMALL_EXPERIMENT = {
    "candidates": "candidates.csv",
    "methods": ["fair-borda"],
    "thetas": [0.5],
    "deltas": ["0.3"],
    "trials": 1,
    "num_rankings": 5,
    "seed": 1,
    "scenario": "low-fair",
}
GENERATE = [
    "generate", "--candidates", "candidates.csv", "--modal", "modal.csv",
    "--seed", "1", "--out", "out",
]
AGGREGATE = [
    "aggregate", "--method", "fair-kemeny", "--candidates", "candidates.csv",
    "--rankings", "rankings.csv", "--delta", "0.3", "--out", "out",
]
EXPERIMENT = ["experiment", "--config", "config.json", "--out", "out"]


class TestInputBoundary:
    @pytest.mark.parametrize(
        "argv, env, config",
        [
            pytest.param(
                [*GENERATE, "--theta", "0.5", "--num-rankings", "0"], {}, None,
                id="generate-num-rankings-0",
            ),
            pytest.param(
                [*GENERATE, "--theta", "-1", "--num-rankings", "5"], {}, None,
                id="generate-theta-negative",
            ),
            pytest.param(
                [*GENERATE, "--theta", "nan", "--num-rankings", "5"], {}, None,
                id="generate-theta-nan",
            ),
            pytest.param(
                [*AGGREGATE, "--budget-ms", "-5"], {}, None, id="budget-ms-negative"
            ),
            pytest.param(
                AGGREGATE, {"FAIRCONSENSUS_BUDGET_MS": "abc"}, None, id="budget-env"
            ),
            pytest.param(
                [*AGGREGATE, "--max-nodes", "-1"], {}, None, id="max-nodes-negative"
            ),
            pytest.param(EXPERIMENT, {}, {"trials": "x"}, id="config-trials"),
            pytest.param(EXPERIMENT, {}, {"scenario": "bogus"}, id="config-scenario"),
            pytest.param(EXPERIMENT, {}, {"thetas": [-1]}, id="config-thetas"),
            pytest.param(EXPERIMENT, {}, {"max_nodes": -1}, id="config-max-nodes"),
            pytest.param(
                EXPERIMENT, {}, {"intersection": "race,height"}, id="config-intersection"
            ),
        ],
    )
    def test_malformed_input_exits_2(
        self, grid_case, capsys, monkeypatch, argv, env, config
    ):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        if config is not None:
            Path("config.json").write_text(json.dumps({**SMALL_EXPERIMENT, **config}))
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not Path("out").exists()

    @pytest.mark.parametrize(
        "argv, name, content",
        [
            pytest.param(
                AGGREGATE, "candidates.csv", b"candidate_id,g\na,\xff\xfe\nb,y\n",
                id="candidates",
            ),
            pytest.param(AGGREGATE, "rankings.csv", b"c00,\xff\n", id="rankings"),
            pytest.param(EXPERIMENT, "config.json", b"\xff{", id="config"),
        ],
    )
    def test_non_utf8_input_exits_2(self, grid_case, capsys, argv, name, content):
        Path(name).write_bytes(content)
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {name}: not valid UTF-8")
        assert not Path("out").exists()

    def test_config_intersection_string_reads_as_names(self, grid_case):
        outputs = []
        for scope in ("race", ["race"]):
            out = f"out-{len(outputs)}"
            Path("config.json").write_text(
                json.dumps({**SMALL_EXPERIMENT, "intersection": scope})
            )
            assert main(["experiment", "--config", "config.json", "--out", out]) == 0
            outputs.append((Path(out) / "runs.csv").read_bytes())
        assert outputs[0] == outputs[1]


def test_aggregate_matches_experiment_cells(grid_case):
    """Both commands reach each method through one dispatch: equal cells."""
    seed, delta = 4, "0.2"
    config = {
        **SMALL_EXPERIMENT,
        "methods": list(METHODS),
        "thetas": [0.7],
        "deltas": [delta],
        "num_rankings": 30,
        "seed": seed,
        "max_nodes": 2000,
    }
    Path("config.json").write_text(json.dumps(config))
    assert main(["experiment", "--config", "config.json", "--out", "exp"]) == 0
    rows = {row["method"]: row for row in csv.DictReader(open("exp/runs.csv"))}
    assert main(
        [
            "generate", "--candidates", "candidates.csv", "--modal", "exp/modal.csv",
            "--theta", "0.7", "--num-rankings", "30",
            "--seed", str(derive_seed(seed, 0, 0)), "--out", "gen",
        ]
    ) == 0

    def cell(value) -> str:
        return "" if value is None else value["decimal"]

    for method in METHODS:
        out = Path(f"agg-{method}")
        argv = [
            "aggregate", "--method", method, "--candidates", "candidates.csv",
            "--rankings", "gen/rankings.csv", "--delta", delta,
            "--max-nodes", "2000", "--out", str(out),
        ]
        assert main(argv) == 0
        report = json.loads((out / "report.json").read_text())
        fairness = report["fairness"]
        got = {
            f"arp:{name}": cell(fairness["attributes"][name]["spread"])
            for name in ("race", "gender")
        }
        got["irp"] = cell(fairness["intersection"]["spread"])
        got["pd_loss"] = cell(report["pd_loss"])
        got["pof"] = cell(report["price_of_fairness"])
        got["swaps"] = "" if report["swaps"] is None else str(report["swaps"])
        assert got == {key: rows[method][key] for key in got}, method
        assert rows[method]["status"] == "ok"
