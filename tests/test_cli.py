"""Command-line surface: formats, exit codes, determinism, atomicity."""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fairconsensus
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
        consensus_rows = helpers.read_csv(out / "consensus.csv")
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
    def test_module_entry_point(self, tmp_path):
        # `python -m fairconsensus` runs `cli.main` and exits with its code
        src = str(Path(fairconsensus.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "fairconsensus", *args],
                cwd=tmp_path,
                env={**os.environ, "PYTHONPATH": path},
                capture_output=True,
                text=True,
            )

        shown = run("--help")
        assert shown.returncode == 0
        assert "aggregate" in shown.stdout
        bare = run("aggregate")
        assert bare.returncode == 2
        assert "required" in bare.stderr
        assert not list(tmp_path.iterdir())

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
        rows = helpers.read_csv(out / "metrics.csv", dicts=True)
        base_rows = helpers.read_csv(rankings)
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
        rows = helpers.read_csv(out / "metrics.csv", dicts=True)
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
        sample_rows = helpers.read_csv(out / "rankings.csv")
        assert len(sample_rows) == 10
        modal_rows = helpers.read_csv(out / "modal.csv")
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
        rows = helpers.read_csv(out / "runs.csv", dicts=True)
        assert len(rows) == 3 * 2 * 2 * 2
        assert all(row["status"] == "ok" for row in rows)
        summary = helpers.read_csv(out / "summary.csv", dicts=True)
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
        """No unaware method reads a threshold: one solve per (theta, trial).

        The repair pipelines repair those same solves, so they build no
        unaware ranking or precedence matrix of their own. The sampler, the
        scenario build and the cell scoring are counted too: the benchmark's
        tracer times them only through the names ``cli`` calls them by.
        """
        calls = Counter()

        def counting(name):
            original = getattr(cli, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        per_instance = (
            "kemeny_weighted", "pick_fairest", "borda", "copeland", "schulze",
            "build_precedence_matrix", "sample_mallows",
        )
        counted = (*per_instance, "build_scenario", "evaluate_fairness")
        for name in counted:
            monkeypatch.setattr(cli, name, counting(name))
        methods = [
            "pick-fairest", "kemeny-weighted",
            "fair-borda", "fair-copeland", "fair-schulze", "correct-pick",
        ]
        config = {
            **SMALL_EXPERIMENT,
            "methods": methods,
            "thetas": [0.3, 0.9],
            "deltas": ["0.1", "0.3"],
            "trials": 2,
        }
        Path("config.json").write_text(json.dumps(config))
        assert main(EXPERIMENT) == 0
        rows = helpers.read_csv("out/runs.csv", dicts=True)
        assert len(rows) == len(methods) * 2 * 2 * 2
        ok = sum(row["status"] == "ok" for row in rows)
        assert ok > 0
        assert calls == {
            **{name: 4 for name in per_instance},
            "build_scenario": 1,
            "evaluate_fairness": ok,
        }


@pytest.fixture
def grid_case(tmp_path, monkeypatch):
    """12 candidates on a 3x2 grid plus five base rankings, run from tmp_path.

    ``ids.csv`` lists the same candidates with no attribute columns.
    """
    import random

    monkeypatch.chdir(tmp_path)
    table = helpers.grid_table(12, 3, 2)
    write_candidates(
        tmp_path / "candidates.csv",
        [(cid, *table.values[i]) for i, cid in enumerate(table.candidate_ids)],
        ["candidate_id", "race", "gender"],
    )
    write_candidates(
        tmp_path / "ids.csv", [(cid,) for cid in table.candidate_ids], ["candidate_id"]
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
SCENARIO = [
    "generate", "--candidates", "candidates.csv", "--scenario", "low-fair",
    "--seed", "1", "--out", "out",
]
AGGREGATE = [
    "aggregate", "--method", "fair-kemeny", "--candidates", "candidates.csv",
    "--rankings", "rankings.csv", "--delta", "0.3", "--out", "out",
]
EXPERIMENT = ["experiment", "--config", "config.json", "--out", "out"]

#: Small JSON values for the config fuzz: integers stay small so that no
#: draw samples a large instance, strings name no other directory, and a
#: few strings are valid entries, so that some draws run the sweep.
_CONFIG_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.floats(-2, 3, allow_nan=False),
    st.text("a01,", max_size=3),
    st.sampled_from(["0.5", "1", "borda", "fair-kemeny", "high-fair", "out"]),
)
CONFIG_VALUES = st.one_of(
    _CONFIG_SCALARS,
    st.lists(_CONFIG_SCALARS, max_size=2),
    st.dictionaries(st.text("a0", max_size=2), _CONFIG_SCALARS, max_size=2),
)

METRICS = [
    "metrics", "--candidates", "candidates.csv", "--rankings", "rankings.csv",
    "--out", "out",
]
_SAMPLING = ["--theta", "0.5", "--num-rankings", "3"]
#: an integer that int() reads and float() cannot hold
_PAST_FLOAT = "9" * 400
_FAIRNESS_FLAGS = {
    "--delta": ["0.5"], "--delta-attr": ["race=0.5"], "--delta-inter": ["0.5"],
    "--intersection": ["race", "none"], "--attributes": ["none"],
}
_GENERATE_FLAGS = {
    "--candidates": ["candidates.csv"], "--modal": ["modal.csv"],
    "--scenario": ["low-fair"], "--tolerance": ["0.5"], "--theta": ["3"],
    "--num-rankings": ["2"], "--seed": ["7", _PAST_FLOAT], "--out": ["out"],
}
#: Per command: a command line that runs, and every flag with values it
#: accepts (``None`` for a switch). ``scenario`` is ``generate`` from a preset.
ARGV_COMMANDS = {
    "aggregate": (AGGREGATE, {
        "--method": ["kemeny-weighted", "correct-pick", "fair-borda"],
        "--candidates": ["candidates.csv"], "--rankings": ["rankings.csv"],
        "--out": ["out"], "--budget-ms": ["1000", _PAST_FLOAT],
        "--max-exact-n": ["12", _PAST_FLOAT], "--max-nodes": ["50", _PAST_FLOAT],
        "--no-pof": None, **_FAIRNESS_FLAGS,
    }),
    "metrics": (METRICS, {
        "--candidates": ["candidates.csv"], "--rankings": ["rankings.csv"],
        "--score": ["rankings.csv"], "--out": ["out"], **_FAIRNESS_FLAGS,
    }),
    "generate": ([*GENERATE, *_SAMPLING], _GENERATE_FLAGS),
    "scenario": ([*SCENARIO, *_SAMPLING], _GENERATE_FLAGS),
    "experiment": (EXPERIMENT, {"--config": ["config.json"], "--out": ["out"]}),
}
#: Empty, not a number, negative, past a double, past int()'s digit limit,
#: a missing path, and input files in the wrong role.
HOSTILE_VALUES = [
    "", "nan", "-1", "1e309", "9" * 5_000, "missing.csv", "rankings.csv", "config.json",
]


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
            pytest.param(EXPERIMENT, {}, {"trials": True}, id="config-trials-bool"),
            pytest.param(
                EXPERIMENT, {}, {"num_rankings": True}, id="config-num-rankings-bool"
            ),
            pytest.param(EXPERIMENT, {}, {"thetas": [True]}, id="config-thetas-bool"),
            pytest.param(
                EXPERIMENT, {}, {"deltas": ["0.2", "0.2"]}, id="config-deltas-repeat"
            ),
            pytest.param(
                EXPERIMENT, {}, {"thetas": [0.5, "0.5"]}, id="config-thetas-repeat"
            ),
            pytest.param(
                EXPERIMENT, {}, {"methods": ["borda", "fair-borda", "borda"]},
                id="config-methods-repeat",
            ),
            pytest.param(EXPERIMENT[:3], {}, {"out": 5}, id="config-out-number"),
            pytest.param(EXPERIMENT[:3], {}, {"out": ["out"]}, id="config-out-list"),
            pytest.param(EXPERIMENT, {}, {"tolerance": "0"}, id="config-tolerance-0"),
            pytest.param(
                [*SCENARIO, "--tolerance", "0"]
                + ["--theta", "0.5", "--num-rankings", "3"],
                {}, None, id="generate-tolerance-0",
            ),
            pytest.param(
                [*SCENARIO, "--candidates", "ids.csv"]
                + ["--theta", "0.5", "--num-rankings", "3"],
                {}, None, id="generate-scenario-one-cell",
            ),
            pytest.param(
                EXPERIMENT, {}, {"candidates": "ids.csv"}, id="config-scenario-one-cell"
            ),
            pytest.param(
                EXPERIMENT, {}, {"scenario": {"arp": {"height": ["0.7", "0.05"]}}},
                id="config-scenario-unknown-attribute",
            ),
            pytest.param(
                EXPERIMENT, {}, {"scenario": {"irp": ["1.00"]}},
                id="config-scenario-window-not-pair",
            ),
            pytest.param(
                [*GENERATE, "--theta", "0.5", "--num-rankings", _PAST_FLOAT], {}, None,
                id="generate-num-rankings-oversized",
            ),
            pytest.param(
                EXPERIMENT, {}, {"num_rankings": _PAST_FLOAT},
                id="config-num-rankings-oversized",
            ),
            pytest.param(
                EXPERIMENT, {}, {"trials": _PAST_FLOAT}, id="config-trials-oversized"
            ),
        ],
    )
    def test_malformed_input_exits_2(
        self, grid_case, capsys, monkeypatch, argv, env, config
    ):
        """Each exits 2 with one ``error:`` line before anything is sampled
        or written."""

        def refuse(*args, **kwargs):
            raise AssertionError("malformed input reached the sampler")

        monkeypatch.setattr(cli, "sample_mallows", refuse)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        if config is not None:
            Path("config.json").write_text(json.dumps({**SMALL_EXPERIMENT, **config}))
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not Path("out").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**70)])
    def test_generate_takes_any_integer_seed(self, grid_case, seed):
        argv = [*GENERATE, "--theta", "0.5", "--num-rankings", "3"]
        argv[argv.index("--seed") + 1] = seed
        assert main(argv) == 0
        rows = helpers.read_csv("out/rankings.csv")
        assert len(rows) == 3
        assert all(sorted(row) == sorted(grid_case.candidate_ids) for row in rows)

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

    @pytest.mark.parametrize(
        "argv, name",
        [
            pytest.param(AGGREGATE, "candidates.csv", id="aggregate-candidates"),
            pytest.param(
                ["metrics", "--candidates", "candidates.csv", "--rankings",
                 "rankings.csv", "--out", "out"],
                "rankings.csv",
                id="metrics-rankings",
            ),
        ],
    )
    def test_oversized_csv_field_exits_2(self, grid_case, capsys, argv, name):
        # one field past the csv module's limit (131 072 characters)
        long_field = "x" * (csv.field_size_limit() + 1)
        Path(name).write_text(f"candidate_id,g\n{long_field},y\n", encoding="utf-8")
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {name}: field larger")
        assert not Path("out").exists()

    @pytest.mark.parametrize(
        "text, what",
        [
            pytest.param("[" * 200_000 + "]" * 200_000, "recursion", id="deep-nesting"),
            pytest.param(
                '{"trials": ' + "9" * 5_000 + "}", "digits", id="long-integer"
            ),
        ],
    )
    def test_unreadable_config_json_exits_2(self, grid_case, capsys, text, what):
        Path("config.json").write_text(text, encoding="utf-8")
        assert main(EXPERIMENT) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config.json: invalid JSON")
        assert what in err[0]
        assert not Path("out").exists()

    @settings(
        max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        changes=st.dictionaries(
            st.sampled_from([*SMALL_EXPERIMENT, "out"]), CONFIG_VALUES,
            min_size=1, max_size=2,
        )
    )
    def test_config_fuzz_exits_documented(
        self, grid_case, tmp_path, monkeypatch, capsys, changes
    ):
        """Any small JSON value in one or two keys ends in a documented exit.

        A replaced ``out`` is read without ``--out``. A failing run prints
        one ``error:`` line and writes nothing.
        """
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        shutil.copy(tmp_path / "candidates.csv", work)
        monkeypatch.chdir(work)
        Path("config.json").write_text(json.dumps({**SMALL_EXPERIMENT, **changes}))
        argv = EXPERIMENT[:3] if "out" in changes else EXPERIMENT
        code = main(argv)
        err = capsys.readouterr().err.splitlines()
        assert code in (0, 2, 3, 4, 5, 6)
        if code:
            assert len(err) == 1 and err[0].startswith("error: ")
            assert sorted(os.listdir()) == ["candidates.csv", "config.json"]

    @settings(
        max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_argv_fuzz_exits_documented(
        self, grid_case, tmp_path, monkeypatch, capsys, data
    ):
        """Any command with a flag left out, flags repeated or given hostile
        values, an unknown flag or a missing last value ends in a documented
        exit. A failing run prints one ``error:`` line and writes nothing."""
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        inputs = ["candidates.csv", "config.json", "modal.csv", "rankings.csv"]
        for name in ("candidates.csv", "modal.csv", "rankings.csv"):
            shutil.copy(tmp_path / name, work)
        monkeypatch.chdir(work)
        Path("config.json").write_text(json.dumps(SMALL_EXPERIMENT))
        base, flags = ARGV_COMMANDS[
            data.draw(st.sampled_from(sorted(ARGV_COMMANDS)), label="command")
        ]
        argv = list(base)
        dropped = data.draw(st.sampled_from([None, *argv[1::2]]), label="dropped")
        if dropped is not None:
            del argv[argv.index(dropped) : argv.index(dropped) + 2]
        for _ in range(data.draw(st.integers(1, 2), label="extra flags")):
            flag = data.draw(st.sampled_from([*flags, "--bogus"]), label="flag")
            accepted = flags.get(flag) or [None]
            value = data.draw(
                st.sampled_from(accepted) | st.sampled_from(HOSTILE_VALUES), label="value"
            )
            argv += [flag] if value is None else [flag, value]
        if data.draw(st.integers(0, 3), label="cut") == 0:
            argv.pop()
        code = main(argv)
        err = capsys.readouterr().err.splitlines()
        assert code in (0, 2, 3, 4, 5, 6), argv
        if code:
            assert len(err) == 1 and err[0].startswith("error: "), argv
            assert sorted(os.listdir()) == inputs, argv

    @pytest.mark.parametrize("command", ["metrics", "experiment"])
    def test_single_valued_attribute_leaves_its_cells_empty(self, grid_case, command):
        """Every candidate shares one race: its cells are empty, as the irp
        cell is without an intersection, and gender is still scored."""
        write_candidates(
            Path("one-race.csv"),
            [
                (cid, "r0", row[1])
                for cid, row in zip(grid_case.candidate_ids, grid_case.values)
            ],
            ["candidate_id", "race", "gender"],
        )
        if command == "metrics":
            argv = ["metrics", "--candidates", "one-race.csv"]
            argv += ["--rankings", "rankings.csv"]
            written = "out/metrics.csv"
        else:
            config = {k: v for k, v in SMALL_EXPERIMENT.items() if k != "scenario"}
            config.update(candidates="one-race.csv", modal="modal.csv")
            config["methods"] = ["borda", "fair-borda"]
            Path("config.json").write_text(json.dumps(config))
            argv = EXPERIMENT[:3]
            written = "out/runs.csv"
        assert main([*argv, "--out", "out"]) == 0
        rows = helpers.read_csv(written, dicts=True)
        assert rows and all(row["arp:race"] == "" and row["arp:gender"] for row in rows)

    @pytest.mark.parametrize("command", ["generate", "experiment"])
    def test_preset_scenario_skips_single_valued_attribute(self, grid_case, command):
        """A preset targets only the attributes that have a spread: a
        constant ``region`` beside race and gender is left out, and reruns
        write the same bytes."""
        write_candidates(
            Path("region.csv"),
            [
                (cid, *row, "north")
                for cid, row in zip(grid_case.candidate_ids, grid_case.values)
            ],
            ["candidate_id", "race", "gender", "region"],
        )
        if command == "generate":
            argv = [*SCENARIO, *_SAMPLING]
            argv[argv.index("--candidates") + 1] = "region.csv"
            written = ["modal_report.json", "modal.csv", "rankings.csv"]
        else:
            config = {**SMALL_EXPERIMENT, "candidates": "region.csv"}
            Path("config.json").write_text(json.dumps(config))
            argv = list(EXPERIMENT)
            written = ["runs.csv", "summary.csv"]
        outputs = []
        for out in ("out", "again"):
            argv[argv.index("--out") + 1] = out
            assert main(argv) == 0
            outputs.append([(Path(out) / name).read_bytes() for name in written])
        assert outputs[0] == outputs[1]
        if command == "generate":
            report = json.loads(Path("out/modal_report.json").read_text())
            assert list(report["targets"]["arp"]) == ["race", "gender"]

    @pytest.mark.parametrize(
        "changes",
        [
            pytest.param(
                {
                    "scenario": {
                        "arp": {"race": ["0.70", "0.05"], "gender": ["0.70", "0.05"]},
                        "irp": ["1.00", "0.05"],
                    }
                },
                id="target-object",
            ),
            pytest.param({"deltas": [0.1, 0.3]}, id="numeric-deltas"),
        ],
    )
    def test_config_spelling_matches_preset_and_strings(self, grid_case, changes):
        """A target object that spells out ``low-fair``'s windows, and
        thresholds given as JSON numbers, write the same ``runs.csv`` as the
        preset name and the decimal strings."""
        config = {
            **SMALL_EXPERIMENT,
            "methods": ["fair-kemeny", "fair-borda"],
            "deltas": ["0.1", "0.3"],
            "trials": 2,
            "num_rankings": 50,
        }
        outputs = []
        for out, spelled in (("out", config), ("again", {**config, **changes})):
            Path("config.json").write_text(json.dumps(spelled))
            assert main([*EXPERIMENT[:3], "--out", out]) == 0
            outputs.append((Path(out) / "runs.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @settings(
        max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        groups=st.lists(
            st.tuples(st.sampled_from(["r0", "r1"]), st.sampled_from(["g0", "g1"])),
            min_size=1,
            max_size=3,
        ),
        delta=st.sampled_from(["0", "0.5", "1"]),
        intersection=st.sampled_from(["all", "none"]),
        data=st.data(),
    )
    def test_small_input_fuzz_exits_documented(
        self, tmp_path, monkeypatch, capsys, groups, delta, intersection, data
    ):
        """One to three candidates, an attribute that may hold one value,
        threshold 0 or looser, with or without the intersection: every method
        of ``aggregate``, ``metrics``, ``generate`` from a modal and from a
        scenario, and ``experiment`` end in a documented exit, and a failing
        run prints one ``error:`` line."""
        monkeypatch.chdir(tempfile.mkdtemp(dir=tmp_path))
        ids = [f"c{i}" for i in range(len(groups))]
        write_candidates(
            Path("candidates.csv"),
            [(cid, *values) for cid, values in zip(ids, groups)],
            ["candidate_id", "race", "gender"],
        )
        orders = data.draw(
            st.lists(st.permutations(ids), min_size=1, max_size=3), label="orders"
        )
        write_rankings(Path("rankings.csv"), orders)
        write_rankings(Path("modal.csv"), orders[:1])
        config = {
            "candidates": "candidates.csv", "modal": "modal.csv",
            "methods": list(METHODS), "thetas": [0.5], "deltas": [delta],
            "trials": 1, "num_rankings": 2, "seed": 1, "intersection": intersection,
        }
        Path("config.json").write_text(json.dumps(config))
        base = ["--candidates", "candidates.csv", "--rankings", "rankings.csv"]
        fairness = ["--delta", delta, "--intersection", intersection]
        sampling = ["--theta", "0.5", "--num-rankings", "2", "--seed", "1"]
        runs = [["aggregate", "--method", m, *base, *fairness] for m in METHODS]
        runs += [
            ["metrics", *base, *fairness],
            ["generate", *base[:2], "--modal", "modal.csv", *sampling],
            ["generate", *base[:2], "--scenario", "low-fair", *sampling],
            EXPERIMENT[:3],
        ]
        for i, argv in enumerate(runs):
            code = main([*argv, "--out", f"out-{i}"])
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4, 5, 6), argv
            if code:
                assert len(err.splitlines()) == 1 and err.startswith("error: "), argv

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
    rows = {row["method"]: row for row in helpers.read_csv("exp/runs.csv", dicts=True)}
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


@pytest.mark.parametrize(
    "argv, files",
    [
        pytest.param(
            AGGREGATE, {"consensus.csv", "report.json"}, id="aggregate"
        ),
        pytest.param(
            ["metrics", "--candidates", "candidates.csv", "--rankings",
             "rankings.csv", "--out", "out"],
            {"metrics.csv", "metrics.json"},
            id="metrics",
        ),
        pytest.param(
            [*GENERATE, "--theta", "0.5", "--num-rankings", "3"],
            {"rankings.csv"},
            id="generate-modal",
        ),
        pytest.param(
            [*SCENARIO, "--theta", "0.5", "--num-rankings", "3"],
            {"rankings.csv", "modal.csv", "modal_report.json"},
            id="generate-scenario",
        ),
        pytest.param(
            EXPERIMENT,
            {"runs.csv", "summary.csv", "modal.csv", "timings.csv"},
            id="experiment",
        ),
    ],
)
def test_written_files_and_timing_sidecars(grid_case, argv, files):
    """What the golden digests leave out: the file set and both timing files."""
    Path("config.json").write_text(
        json.dumps(
            {
                **SMALL_EXPERIMENT,
                "methods": ["fair-kemeny", "borda", "fair-borda"],
                "thetas": [0.9, 0.3],
                # loosest first: the cells are solved in another order
                "deltas": ["0.3", "0", "0.1"],
                "trials": 2,
                "max_nodes": 50,
            }
        )
    )
    assert main(argv) == 0
    assert sorted(os.listdir("out")) == sorted({*files, "timing.json"})
    timing = json.loads(Path("out/timing.json").read_text())
    assert list(timing) == ["millis"]
    assert isinstance(timing["millis"], int) and timing["millis"] >= 0
    if "timings.csv" in files:
        runs = helpers.read_csv("out/runs.csv", dicts=True)
        timings = helpers.read_csv("out/timings.csv", dicts=True)
        key = ("method", "theta", "delta", "trial")
        assert [[row[k] for k in key] for row in timings] == [
            [row[k] for k in key] for row in runs
        ]
        assert len(runs) == 3 * 2 * 3 * 2
        assert all(int(row["millis"]) >= 0 for row in timings)
