"""Unaware consensus methods and the exact search machinery."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from fairconsensus import (
    FairnessSpec,
    Ranking,
    RankingSet,
    borda,
    borda_streamed,
    build_precedence_matrix,
    copeland,
    fairness_sort_key,
    kemeny_exact,
    kemeny_weighted,
    pick_fairest,
    prefix_branch_and_bound,
    ranking_objective,
    schulze,
)
from fairconsensus.errors import InstanceTooLarge, ParseError
from fairconsensus.model import ALL, build_group_index

import helpers


def enumeration_best(wm):
    """Independent optimum: scan every permutation for the cheapest order."""
    n = len(wm)
    best = None
    for perm in permutations(range(n)):
        cost = ranking_objective(wm, perm)
        if best is None or cost < best:
            best = cost
    return best


def cycle_instance():
    """Three rankings forming a perfect preference cycle over a, b, c."""
    rankings = RankingSet(
        (Ranking(("a", "b", "c")), Ranking(("b", "c", "a")), Ranking(("c", "a", "b")))
    )
    table = type(helpers.grid_table(4, 2, 2))(
        ("a", "b", "c"), ("t",), (("g",), ("o",), ("g",))
    )
    return table, rankings


class TestBorda:
    def test_hand_example(self, abc_table):
        rankings = RankingSet(
            (
                Ranking(("a", "b", "c")),
                Ranking(("b", "a", "c")),
                Ranking(("a", "c", "b")),
            )
        )
        # points: a = 2+1+2, b = 1+2+0, c = 0+0+1
        assert borda(rankings, abc_table) == Ranking(("a", "b", "c"))

    def test_weight_equals_multiplicity(self, rng):
        table = helpers.random_table(6, {"t": ["g", "o"]}, rng)
        rankings = helpers.random_ranking_set(table, 4, rng)
        weighted = RankingSet(rankings.rankings, (3, 1, 2, 1))
        repeated = RankingSet(
            rankings.rankings[:1] * 3
            + rankings.rankings[1:2]
            + rankings.rankings[2:3] * 2
            + rankings.rankings[3:]
        )
        assert borda(weighted, table) == borda(repeated, table)

    def test_tie_breaks_by_declared_order(self, abc_table):
        rankings = RankingSet(
            (Ranking(("a", "b", "c")), Ranking(("c", "b", "a")))
        )
        # a and c tie on points, as do nothing else; a precedes c in the table
        result = borda(rankings, abc_table)
        assert result.order.index("a") < result.order.index("c")

    def test_streamed_matches_batch(self, rng):
        for _ in range(5):
            table = helpers.random_table(9, {"t": ["g", "o"]}, rng)
            rankings = helpers.random_ranking_set(table, 20, rng)
            rows = np.array(
                [r.to_indices(table) for r in rankings.rankings], dtype=np.int64
            )
            batches = [rows[:7], rows[7:8], rows[8:]]
            assert borda_streamed(iter(batches), table) == borda(rankings, table)

    def test_points_are_precedence_column_sums(self, rng):
        """Weighted positional points equal the precedence matrix's column
        sums, the identity the matrix-based Borda seed relies on."""
        for _ in range(5):
            table = helpers.random_table(9, {"t": ["g", "o"]}, rng)
            base = helpers.random_ranking_set(table, 12, rng)
            weights = tuple(rng.choice((1, 2, 3, 7, 1000)) for _ in range(base.size))
            rankings = RankingSet(base.rankings, weights)
            points = build_precedence_matrix(rankings, table).matrix.sum(axis=0)
            order = sorted(range(table.n), key=lambda c: (-int(points[c]), c))
            expected = Ranking(tuple(table.candidate_ids[i] for i in order))
            assert borda(rankings, table) == expected

    def test_huge_weights_stay_exact(self, abc_table):
        # c = 2w + 2, b = 2w + 1, a = 2w: equal in float64, not in integers
        w = 10**20
        rankings = RankingSet(
            (Ranking(("c", "b", "a")), Ranking(("a", "b", "c"))), (w + 1, w)
        )
        assert borda(rankings, abc_table) == Ranking(("c", "b", "a"))


class TestBudgetEnvironment:
    @pytest.mark.parametrize("raw", ["abc", "-5"])
    def test_malformed_value_is_parse_error(self, abc_table, monkeypatch, raw):
        monkeypatch.setenv("FAIRCONSENSUS_BUDGET_MS", raw)
        rankings = RankingSet((Ranking(("a", "b", "c")),))
        matrix = build_precedence_matrix(rankings, abc_table)
        with pytest.raises(ParseError, match="FAIRCONSENSUS_BUDGET_MS"):
            kemeny_exact(matrix)


class TestCondorcetMethods:
    def test_copeland_hand_example(self, abc_table):
        rankings = RankingSet(
            (
                Ranking(("a", "b", "c")),
                Ranking(("b", "a", "c")),
                Ranking(("a", "c", "b")),
            )
        )
        pm = build_precedence_matrix(rankings, abc_table)
        assert copeland(pm) == Ranking(("a", "b", "c"))
        assert schulze(pm) == Ranking(("a", "b", "c"))

    def test_condorcet_winner_ranked_first(self, rng):
        # plant a candidate that wins every pairwise contest
        for _ in range(10):
            table = helpers.random_table(6, {"t": ["g", "o"]}, rng)
            rankings = helpers.random_ranking_set(table, 5, rng)
            winner = table.candidate_ids[rng.randrange(table.n)]
            boosted = []
            for r in rankings.rankings:
                rest = [c for c in r.order if c != winner]
                boosted.append(Ranking((winner, *rest)))
            pm = build_precedence_matrix(RankingSet(tuple(boosted)), table)
            assert copeland(pm).order[0] == winner
            assert schulze(pm).order[0] == winner

    def test_perfect_cycle_breaks_by_declared_order(self):
        table, rankings = cycle_instance()
        pm = build_precedence_matrix(rankings, table)
        assert copeland(pm) == Ranking(("a", "b", "c"))
        assert schulze(pm) == Ranking(("a", "b", "c"))


class TestKemenyExact:
    def test_matches_enumeration(self, rng):
        for _ in range(12):
            n = rng.randint(3, 7)
            table = helpers.random_table(n, {"t": ["g", "o"]}, rng)
            rankings = helpers.random_ranking_set(table, rng.randint(2, 7), rng)
            pm = build_precedence_matrix(rankings, table)
            solution = kemeny_exact(pm)
            assert solution.optimal
            wm = pm.cost_lists()
            assert solution.objective == enumeration_best(wm)
            assert (
                ranking_objective(wm, solution.ranking.to_indices(table))
                == solution.objective
            )

    def test_cycle_objective(self):
        table, rankings = cycle_instance()
        pm = build_precedence_matrix(rankings, table)
        solution = kemeny_exact(pm)
        assert solution.objective == 4
        assert solution.ranking in (
            Ranking(("a", "b", "c")),
            Ranking(("b", "c", "a")),
            Ranking(("c", "a", "b")),
        )

    def test_size_guard(self, rng):
        table = helpers.random_table(9, {"t": ["g", "o"]}, rng)
        rankings = helpers.random_ranking_set(table, 3, rng)
        pm = build_precedence_matrix(rankings, table)
        with pytest.raises(InstanceTooLarge):
            kemeny_exact(pm, max_exact_n=8)

    def test_deterministic(self, rng):
        table = helpers.random_table(7, {"t": ["g", "o"]}, rng)
        rankings = helpers.random_ranking_set(table, 6, rng)
        pm = build_precedence_matrix(rankings, table)
        first = kemeny_exact(pm)
        second = kemeny_exact(pm)
        assert first == second


class TestPrefixSearch:
    def test_max_nodes_truncates_deterministically(self, rng):
        from fairconsensus.consensus import GroupConstraint

        table = helpers.sized_table({"t": [4, 4]}, rng)
        rankings = helpers.random_ranking_set(table, 7, rng)
        wm = build_precedence_matrix(rankings, table).cost_lists()
        gid = tuple(
            0 if table.values[i][0] == "t0" else 1 for i in range(table.n)
        )
        constraint = GroupConstraint("t", gid, (4, 4), (16, 16), 0, 1)
        incumbent = list(range(8))
        runs = [
            prefix_branch_and_bound(
                wm,
                constraints=(constraint,),
                incumbent_order=incumbent,
                incumbent_objective=ranking_objective(wm, incumbent),
                max_nodes=40,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        order, objective, completed, nodes = runs[0]
        assert not completed
        assert nodes == 41
        assert objective == ranking_objective(wm, order)
        assert objective <= ranking_objective(wm, incumbent)

    def test_without_incumbent_truncation_returns_nothing(self, rng):
        table = helpers.random_table(6, {"t": ["g", "o"]}, rng)
        rankings = helpers.random_ranking_set(table, 3, rng)
        wm = build_precedence_matrix(rankings, table).cost_lists()
        order, objective, completed, nodes = prefix_branch_and_bound(wm, max_nodes=0)
        assert order is None and objective is None and not completed


class TestFairnessAwareBaselines:
    def test_pick_fairest_takes_lowest_key(self, rng):
        table = helpers.grid_table(8, 2, 2)
        index = build_group_index(table, intersection_attrs=ALL)
        spec = FairnessSpec(delta_default=Fraction(1, 4))
        rankings = helpers.random_ranking_set(table, 6, rng)
        chosen = pick_fairest(rankings, spec, index)
        keys = [fairness_sort_key(r, spec, index) for r in rankings.rankings]
        best = min(keys)
        # ties keep input order: the chosen one is the first with the best key
        assert chosen == rankings.rankings[keys.index(best)]

    def test_kemeny_weighted_equals_reweighted_exact(self, rng):
        table = helpers.grid_table(6, 3, 2)
        index = build_group_index(table, intersection_attrs=ALL)
        spec = FairnessSpec(delta_default=Fraction(1, 4))
        rankings = helpers.random_ranking_set(table, 5, rng)
        keys = [fairness_sort_key(r, spec, index) for r in rankings.rankings]
        by_fairness = sorted(range(5), key=lambda i: (keys[i], i))
        weights = [0] * 5
        for rank_from_worst, i in enumerate(by_fairness):
            weights[i] = 5 - rank_from_worst
        expected = kemeny_exact(
            build_precedence_matrix(
                RankingSet(rankings.rankings, tuple(weights)), table
            )
        )
        actual = kemeny_weighted(rankings, spec, index)
        assert actual.ranking == expected.ranking
        assert actual.objective == expected.objective
