"""End-to-end acceptance checks, one printed verdict line per criterion.

Run ``pytest -s tests/test_acceptance.py`` to see the verdict lines as they
print; a plain run shows them only for failures. Every check is
deterministic: fixed seeds, exact rational comparisons, and node-capped
searches make each number reproducible run over run.

The checks share one synthetic scenario family: a 24-candidate table with
a 3-value and a 2-value attribute (4 candidates per intersection cell), a
constructed low-fairness modal ranking, and seeded dispersion-model samples
at three consensus levels. Criterion 2 runs last and audits the fairness
verdict of every fair-method result the other checks produced.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
import statistics
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

import helpers

from fairconsensus import (
    FairnessSpec,
    Infeasible,
    MallowsConfig,
    Ranking,
    borda_streamed,
    brute_force_fair_kemeny,
    build_precedence_matrix,
    build_scenario,
    derive_seed,
    evaluate_fairness,
    fair_kemeny,
    fair_pipeline,
    iter_ranking_batches,
    kemeny_exact,
    kendall_tau,
    mixed_block_modal,
    pd_loss,
    ranking_objective,
    repair_ranking,
    sample_mallows,
    scenario_targets,
)
from fairconsensus.cli import main

BASE_SEED = 23
MODAL_SEED = 7
THETAS = (0.1, 0.5, 1.0)
DELTA = Fraction(1, 10)
DESK_VOTERS = 25
SCOPE_CAP = 600_000  # node budget for the constraint-scope solves
TREND_CAP = 150_000  # node budget for the fairness-cost curve solves
ORDER_VOTERS = 150  # ranking-set size for the method-ordering check
ORDER_TRIALS = 20  # trials per dispersion level in the ordering check
ORDER_CAP = 25_000  # node budget per solve in the ordering check

#: (label, satisfied) for every successful fair-method run in this suite.
RECORDED: list[tuple[str, bool]] = []


def _verdict(num: int, title: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} ({title}): {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, flush=True)
    assert ok, line


def _record(label: str, ranking, spec, index) -> None:
    RECORDED.append((label, evaluate_fairness(ranking, spec, index).satisfied))


# --------------------------------------------------------------------------
# shared scenario family
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def desk_table():
    return helpers.grid_table(24, 3, 2)


@lru_cache(maxsize=None)
def desk_scopes():
    table = desk_table()
    full = FairnessSpec(delta_default=DELTA)
    attrs_only = FairnessSpec(delta_default=DELTA, intersection_attrs=None)
    inter_only = FairnessSpec(delta_default=DELTA, constrain_attributes=False)
    return {
        "full": (full, full.build_index(table)),
        "attrs": (attrs_only, attrs_only.build_index(table)),
        "inter": (inter_only, inter_only.build_index(table)),
    }


@lru_cache(maxsize=None)
def desk_modal():
    _, index = desk_scopes()["full"]
    targets = scenario_targets("low-fair", ("race", "gender"))
    return build_scenario(index, targets, MODAL_SEED)


@lru_cache(maxsize=None)
def desk_samples(theta_index: int, trial: int, voters: int):
    config = MallowsConfig(
        desk_modal(),
        THETAS[theta_index],
        voters,
        derive_seed(BASE_SEED, theta_index, trial),
    )
    return sample_mallows(config)


@lru_cache(maxsize=None)
def desk_matrix(theta_index: int, trial: int, voters: int):
    return build_precedence_matrix(
        desk_samples(theta_index, trial, voters), desk_table()
    )


@lru_cache(maxsize=None)
def desk_unaware(theta_index: int):
    return kemeny_exact(desk_matrix(theta_index, 0, DESK_VOTERS))


def _write_case(directory):
    """A 12-candidate fixture on disk: candidates, six sampled rankings."""
    table = helpers.grid_table(12, 3, 2)
    candidates = directory / "candidates.csv"
    with candidates.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["candidate_id", "race", "gender"])
        for i, cid in enumerate(table.candidate_ids):
            writer.writerow([cid, *table.values[i]])
    modal = Ranking(table.candidate_ids)
    sampled = sample_mallows(MallowsConfig(modal, 0.5, 6, 42))
    rankings = directory / "rankings.csv"
    with rankings.open("w", newline="") as fh:
        writer = csv.writer(fh)
        for ranking in sampled.rankings:
            writer.writerow(ranking.order)
    return table, candidates, rankings


# --------------------------------------------------------------------------
# criterion 1 — the constrained search is exact
# --------------------------------------------------------------------------


def test_exact_solver_matches_enumeration_oracle():
    rng = random.Random(20260819)
    deltas = ("0", "0.1", "0.25", "0.5", "1")
    letters = ("x", "y", "z")
    start = time.perf_counter()
    compared = 0
    feasible_count = 0
    for _ in range(40):
        n = rng.choice((4, 5, 5, 6, 6, 7, 7, 8))
        num_attrs = rng.choice((1, 2))
        attr_values = {
            f"a{k}": letters[: rng.choice((2, 3))] for k in range(num_attrs)
        }
        table = helpers.random_table(n, attr_values, rng)
        rankings = helpers.random_ranking_set(table, rng.randint(2, 7), rng)
        pm = build_precedence_matrix(rankings, table)

        solution = kemeny_exact(pm)
        wm = pm.cost_lists()
        best = min(
            ranking_objective(wm, perm)
            for perm in itertools.permutations(range(table.n))
        )
        assert solution.objective == best, "unconstrained objective diverged"

        if num_attrs == 2:
            scope = rng.choice(("full", "full", "attrs", "inter"))
        else:
            scope = "attrs"
        for delta in deltas:
            d = Fraction(delta)
            if scope == "full":
                spec = FairnessSpec(delta_default=d)
            elif scope == "attrs":
                spec = FairnessSpec(delta_default=d, intersection_attrs=None)
            else:
                spec = FairnessSpec(delta_default=d, constrain_attributes=False)
            index = spec.build_index(table)
            try:
                expected = brute_force_fair_kemeny(rankings, spec, index)
            except Infeasible:
                expected = None
            try:
                got = fair_kemeny(pm, spec, index)
            except Infeasible:
                got = None
            case = f"n={n} scope={scope} delta={delta}"
            assert (expected is None) == (got is None), (
                f"feasibility diverged on {case}"
            )
            if expected is not None:
                assert got.objective == expected.objective, (
                    f"objective diverged on {case}"
                )
                assert got.optimal, f"uncapped search left incomplete on {case}"
                _record(f"exactness {case}", got.ranking, spec, index)
                feasible_count += 1
            compared += 1
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "exact solver matches enumeration",
        compared >= 200 and elapsed < 120,
        f"{compared} instances ({feasible_count} feasible), {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# criterion 3 — each constraint scope protects exactly what it constrains
# --------------------------------------------------------------------------


@pytest.mark.slow
def test_constraint_scope_ablation():
    scopes = desk_scopes()
    report_spec, report_index = scopes["full"]
    start = time.perf_counter()
    problems = []
    for ti, theta in enumerate(THETAS):
        pm = desk_matrix(ti, 0, DESK_VOTERS)

        def spreads(ranking):
            report = evaluate_fairness(ranking, report_spec, report_index)
            return (
                report.attribute_spreads["race"],
                report.attribute_spreads["gender"],
                report.intersection_spread,
            )

        race_k, gender_k, inter_k = spreads(desk_unaware(ti).ranking)
        if not (race_k > DELTA or gender_k > DELTA or inter_k > DELTA):
            problems.append(f"θ={theta}: unconstrained run exceeded nothing")

        spec, index = scopes["full"]
        full = fair_kemeny(pm, spec, index, max_nodes=SCOPE_CAP)
        _record(f"scope full θ={theta}", full.ranking, spec, index)
        race_f, gender_f, inter_f = spreads(full.ranking)
        if not (race_f <= DELTA and gender_f <= DELTA and inter_f <= DELTA):
            problems.append(f"θ={theta}: full scope left a spread above Δ")

        spec, index = scopes["attrs"]
        attrs = fair_kemeny(pm, spec, index, max_nodes=SCOPE_CAP)
        _record(f"scope attrs θ={theta}", attrs.ranking, spec, index)
        if not spreads(attrs.ranking)[2] > DELTA:
            problems.append(
                f"θ={theta}: attribute-only scope also bounded the intersection"
            )

        spec, index = scopes["inter"]
        inter = fair_kemeny(pm, spec, index, max_nodes=SCOPE_CAP)
        _record(f"scope inter θ={theta}", inter.ranking, spec, index)
        race_i, gender_i, _ = spreads(inter.ranking)
        if not (race_i > DELTA or gender_i > DELTA):
            problems.append(
                f"θ={theta}: intersection-only scope also bounded both attributes"
            )
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        "constraint scopes protect what they constrain",
        not problems and elapsed < 300,
        f"3 consensus levels, {elapsed:.1f}s"
        + ("" if not problems else "; " + "; ".join(problems)),
    )


# --------------------------------------------------------------------------
# criterion 4 — loosening the threshold never costs more preference loss
# --------------------------------------------------------------------------


@pytest.mark.slow
def test_fairness_cost_weakly_decreases_with_threshold():
    table = desk_table()
    _, index = desk_scopes()["full"]
    problems = []
    details = []
    for ti, theta in enumerate(THETAS):
        rankings = desk_samples(ti, 0, DESK_VOTERS)
        pm = desk_matrix(ti, 0, DESK_VOTERS)
        base_pd = pd_loss(rankings, desk_unaware(ti).ranking)
        curve = []
        warm = None
        for k in range(1, 11):
            spec = FairnessSpec(delta_default=Fraction(k, 10))
            solution = fair_kemeny(
                pm,
                spec,
                index,
                max_nodes=TREND_CAP,
                warm_starts=() if warm is None else (warm,),
            )
            warm = solution.ranking
            _record(f"cost-curve θ={theta} Δ={k}/10", solution.ranking, spec, index)
            curve.append(pd_loss(rankings, solution.ranking) - base_pd)
        if not all(curve[i] >= curve[i + 1] for i in range(len(curve) - 1)):
            problems.append(f"θ={theta}: cost increased while loosening")
        if not all(point >= 0 for point in curve):
            problems.append(f"θ={theta}: fairness cost went negative")
        details.append(f"θ={theta}: {float(curve[0]):.4f}→{float(curve[-1]):.4f}")
    _verdict(
        4,
        "fairness cost weakly decreases as the threshold loosens",
        not problems,
        "; ".join(details if not problems else problems),
    )


# --------------------------------------------------------------------------
# criterion 5 — the ranking sampler matches its exact distribution
# --------------------------------------------------------------------------


def test_sampler_matches_exact_distribution():
    rng = random.Random(5)
    table = helpers.random_table(5, {"t": ("g", "o")}, rng)
    modal = Ranking(table.candidate_ids)
    perms = list(itertools.permutations(table.candidate_ids))
    distances = [kendall_tau(Ranking(perm), modal) for perm in perms]
    z99 = statistics.NormalDist().inv_cdf(0.99)
    num_samples = 50_000
    details = []
    ok = True
    for ti, theta in enumerate((0.2, 0.6, 1.0)):
        weights = [math.exp(-theta * d) for d in distances]
        total = sum(weights)
        expected = [num_samples * w / total for w in weights]
        sampled = sample_mallows(
            MallowsConfig(modal, theta, num_samples, derive_seed(BASE_SEED, 101, ti))
        )
        counts = Counter(r.order for r in sampled.rankings)
        observed = [counts.get(perm, 0) for perm in perms]

        buckets = []
        tail_obs, tail_exp = 0, 0.0
        for obs, exp in zip(observed, expected):
            if exp < 5.0:
                tail_obs += obs
                tail_exp += exp
            else:
                buckets.append((obs, exp))
        if tail_exp > 0:
            buckets.append((tail_obs, tail_exp))
        chi2 = sum((obs - exp) ** 2 / exp for obs, exp in buckets)
        df = len(buckets) - 1
        critical = df * (1 - 2 / (9 * df) + z99 * math.sqrt(2 / (9 * df))) ** 3
        details.append(f"θ={theta}: χ²={chi2:.1f}<{critical:.1f} (df={df})")
        if chi2 >= critical:
            ok = False

    monotone = True
    for k in range(5):
        means = []
        for ti, theta in enumerate((0.2, 0.6, 1.0)):
            sampled = sample_mallows(
                MallowsConfig(modal, theta, 5_000, derive_seed(BASE_SEED, 103, k, ti))
            )
            means.append(
                statistics.fmean(kendall_tau(r, modal) for r in sampled.rankings)
            )
        if not means[0] > means[1] > means[2]:
            monotone = False
    _verdict(
        5,
        "sampler matches its exact distribution",
        ok and monotone,
        "; ".join(details) + f"; dispersion trend on 5 seeded runs: {monotone}",
    )


# --------------------------------------------------------------------------
# criterion 6 — preference loss orders the fair methods
# --------------------------------------------------------------------------


@pytest.mark.slow
def test_preference_loss_method_ordering():
    spec, index = desk_scopes()["full"]
    table = desk_table()
    ordered = 0
    total = 0
    for ti, theta in enumerate(THETAS):
        for trial in range(ORDER_TRIALS):
            rankings = desk_samples(ti, trial, ORDER_VOTERS)
            pm = build_precedence_matrix(rankings, table)
            exact = fair_kemeny(pm, spec, index, max_nodes=ORDER_CAP)
            _record(f"ordering θ={theta} t={trial} kemeny", exact.ranking, spec, index)
            loss = {"kemeny": pd_loss(rankings, exact.ranking)}
            for method in ("borda", "copeland", "schulze"):
                result = fair_pipeline(
                    method, rankings, spec, index, collect_swaps=False
                )
                _record(
                    f"ordering θ={theta} t={trial} {method}",
                    result.ranking,
                    spec,
                    index,
                )
                loss[method] = result.pd_loss_fair
            good = (
                loss["kemeny"] <= loss["copeland"]
                and loss["kemeny"] <= loss["schulze"]
                and loss["copeland"] <= loss["borda"]
                and loss["schulze"] <= loss["borda"]
            )
            ordered += good
            total += 1
    _verdict(
        6,
        "preference loss orders the fair methods",
        ordered * 5 >= total * 4,
        f"ordering held on {ordered}/{total} trials "
        f"(need {-(-total * 4 // 5)}) at {ORDER_VOTERS} rankings per trial",
    )


# --------------------------------------------------------------------------
# criterion 7 — the positional pipeline holds up at scale
# --------------------------------------------------------------------------


@pytest.mark.slow
def test_large_instance_runtime():
    spec_delta = Fraction(33, 100)

    start = time.perf_counter()
    wide_table = helpers.grid_table(10_000, 2, 2)
    wide_spec = FairnessSpec(delta_default=spec_delta)
    wide_index = wide_spec.build_index(wide_table)
    wide_modal = mixed_block_modal(wide_index, 0.5)
    wide_consensus = borda_streamed(
        iter_ranking_batches(
            wide_modal.to_indices(wide_table), 1.0, 100, seed=5, batch_size=100
        ),
        wide_table,
    )
    repair_start = time.perf_counter()
    wide_fair, wide_trace = repair_ranking(
        wide_consensus, wide_spec, wide_index, collect_swaps=False
    )
    wide_repair_seconds = time.perf_counter() - repair_start
    wide_ok = evaluate_fairness(wide_fair, wide_spec, wide_index).satisfied
    RECORDED.append(("scale wide borda-repair", wide_ok))
    wide_seconds = time.perf_counter() - start

    start = time.perf_counter()
    deep_table = helpers.grid_table(100, 2, 2)
    deep_spec = FairnessSpec(delta_default=spec_delta)
    deep_index = deep_spec.build_index(deep_table)
    deep_modal = mixed_block_modal(deep_index, 0.5)
    deep_consensus = borda_streamed(
        iter_ranking_batches(
            deep_modal.to_indices(deep_table), 0.6, 1_000_000, seed=6, batch_size=8192
        ),
        deep_table,
    )
    deep_fair, _ = repair_ranking(
        deep_consensus, deep_spec, deep_index, collect_swaps=False
    )
    deep_ok = evaluate_fairness(deep_fair, deep_spec, deep_index).satisfied
    RECORDED.append(("scale deep borda-repair", deep_ok))
    deep_seconds = time.perf_counter() - start

    _verdict(
        7,
        "positional pipeline scales",
        wide_ok and deep_ok and wide_seconds < 300 and deep_seconds < 300,
        f"10000 candidates × 100 rankings in {wide_seconds:.1f}s "
        f"(repair {wide_repair_seconds:.1f}s for {wide_trace.iterations} swaps, "
        f"sampling, Borda and check {wide_seconds - wide_repair_seconds:.1f}s); "
        f"100 candidates × 1000000 streamed rankings in {deep_seconds:.1f}s",
    )


# --------------------------------------------------------------------------
# criterion 8 — identical inputs and seeds give byte-identical outputs
# --------------------------------------------------------------------------


def test_byte_identical_reruns(tmp_path):
    table, candidates, rankings = _write_case(tmp_path)
    modal_csv = tmp_path / "modal.csv"
    with modal_csv.open("w", newline="") as fh:
        csv.writer(fh).writerow(table.candidate_ids)
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
    shared = ["--candidates", str(candidates)]
    commands = [
        ("agg-kemeny", ["aggregate", "--method", "kemeny", *shared, "--rankings", str(rankings)]),
        (
            "agg-fair-kemeny",
            [
                "aggregate", "--method", "fair-kemeny", *shared,
                "--rankings", str(rankings), "--delta", "0.25",
                "--max-nodes", "50000",
            ],
        ),
        (
            "agg-fair-borda",
            [
                "aggregate", "--method", "fair-borda", *shared,
                "--rankings", str(rankings), "--delta", "0.25",
            ],
        ),
        (
            "agg-fair-copeland",
            [
                "aggregate", "--method", "fair-copeland", *shared,
                "--rankings", str(rankings), "--delta", "0.25",
            ],
        ),
        (
            "agg-fair-schulze",
            [
                "aggregate", "--method", "fair-schulze", *shared,
                "--rankings", str(rankings), "--delta", "0.25",
            ],
        ),
        (
            "agg-correct-pick",
            [
                "aggregate", "--method", "correct-pick", *shared,
                "--rankings", str(rankings), "--delta", "0.25",
            ],
        ),
        ("metrics", ["metrics", *shared, "--rankings", str(rankings), "--delta", "0.25"]),
        (
            "gen-scenario",
            [
                "generate", *shared, "--scenario", "low-fair",
                "--theta", "0.5", "--num-rankings", "10", "--seed", "9",
            ],
        ),
        (
            "gen-modal",
            [
                "generate", *shared, "--modal", str(modal_csv),
                "--theta", "0.3", "--num-rankings", "7", "--seed", "4",
            ],
        ),
        ("experiment", ["experiment", "--config", str(config)]),
    ]
    timing_files = {"timing.json", "timings.csv"}

    def snapshot(root):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    mismatched = []
    checked = 0
    for name, argv in commands:
        snapshots = []
        for attempt in (1, 2):
            out = tmp_path / f"{name}-{attempt}"
            code = main([*argv, "--out", str(out)])
            assert code == 0, f"{name} run {attempt} exited {code}"
            snapshots.append(snapshot(out))
        assert sorted(snapshots[0]) == sorted(snapshots[1]), (
            f"{name}: reruns produced different file sets"
        )
        for fname, blob in snapshots[0].items():
            if fname.rsplit("/", maxsplit=1)[-1] in timing_files:
                continue
            checked += 1
            if snapshots[1][fname] != blob:
                mismatched.append(f"{name}/{fname}")
    _verdict(
        8,
        "byte-identical reruns",
        not mismatched,
        f"{checked} files compared across {len(commands)} commands"
        + ("" if not mismatched else "; differing: " + ", ".join(mismatched)),
    )


# --------------------------------------------------------------------------
# criterion 2 — every successful fair run satisfied its thresholds
# (defined last: it audits the runs recorded by the checks above)
# --------------------------------------------------------------------------


def test_fair_methods_always_satisfy_thresholds(tmp_path):
    _, candidates, rankings = _write_case(tmp_path)
    for method in (
        "fair-kemeny",
        "fair-borda",
        "fair-copeland",
        "fair-schulze",
        "correct-pick",
    ):
        out = tmp_path / method
        argv = [
            "aggregate", "--method", method,
            "--candidates", str(candidates),
            "--rankings", str(rankings),
            "--delta", "0.25",
            "--out", str(out),
        ]
        if method == "fair-kemeny":
            argv += ["--max-nodes", "50000"]
        code = main(argv)
        assert code == 0, f"{method} exited {code}"
        payload = json.loads((out / "report.json").read_text())
        RECORDED.append((f"cli {method}", payload["fairness"]["satisfied"] is True))
    unsatisfied = [label for label, flag in RECORDED if not flag]
    _verdict(
        2,
        "every successful fair run satisfied its thresholds",
        len(RECORDED) >= 5 and not unsatisfied,
        f"{len(RECORDED)} recorded runs"
        + ("" if not unsatisfied else "; unsatisfied: " + ", ".join(unsatisfied[:5])),
    )
