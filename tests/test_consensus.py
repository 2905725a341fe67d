"""Unaware consensus methods and the exact search machinery."""

from __future__ import annotations

import gc
import hashlib
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairconsensus import (
    BudgetExceeded,
    CandidateTable,
    FairnessSpec,
    Infeasible,
    MallowsConfig,
    Ranking,
    RankingSet,
    borda,
    borda_streamed,
    build_precedence_matrix,
    copeland,
    fair_kemeny,
    fairness_sort_key,
    iter_ranking_batches,
    kemeny_exact,
    kemeny_weighted,
    pick_fairest,
    prefix_branch_and_bound,
    ranking_objective,
    sample_mallows,
    schulze,
)
from fairconsensus import consensus, mallows
from fairconsensus.errors import (
    InconsistentCandidateSet,
    InstanceTooLarge,
    ParseError,
)
from fairconsensus.fair import enabled_entities
from fairconsensus.model import (
    ALL,
    build_group_index,
    ranking_from_indices,
    total_mixed_pair_count,
)

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
            batches = [rows[:7], rows[7:7], rows[7:8], rows[8:]]
            assert borda_streamed(iter(batches), table) == borda(rankings, table)

    @pytest.mark.parametrize(
        "batch",
        [
            np.zeros((2, 2), dtype=np.int64),
            np.zeros((2, 4), dtype=np.int64),
            np.arange(3),
            np.arange(3).reshape(1, 1, 3),
            np.array([[0, 1, 2], [2, -1, 0]]),
            np.array([[0, 1, 2], [3, 1, 0]]),
        ],
        ids=["narrow", "wide", "1-d", "3-d", "negative", "past-n"],
    )
    def test_streamed_rejects_malformed_batch(self, abc_table, batch):
        # a narrow batch used to return a ranking short of the table, a wide
        # one dropped a column and -1 counted for the last candidate
        batches = iter([np.array([[0, 1, 2]]), batch])
        with pytest.raises(InconsistentCandidateSet):
            borda_streamed(batches, abc_table)

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

    def test_matrix_points_pass_int64(self, abc_table):
        # the total fits int64, so the matrix does; a's and b's points,
        # 3 * 2**62 - 1 and 3 * 2**62 - 2, do not, and wrapped would sort below c
        rankings = RankingSet(
            (Ranking(("a", "b", "c")), Ranking(("b", "a", "c"))), (2**62, 2**62 - 1)
        )
        pm = build_precedence_matrix(rankings, abc_table)
        assert pm.matrix.dtype == np.int64
        assert consensus._borda_order(pm.matrix) == [0, 1, 2]

    def test_huge_weights_stay_exact(self, abc_table):
        # c = 2w + 2, b = 2w + 1, a = 2w: equal in float64, not in integers
        w = 10**20
        rankings = RankingSet(
            (Ranking(("c", "b", "a")), Ranking(("a", "b", "c"))), (w + 1, w)
        )
        assert borda(rankings, abc_table) == Ranking(("c", "b", "a"))


class TestStreamedWorkingSet:
    """The sampler and the streamed Borda hold one batch of rows at a time,
    and their block and chunk edges leave every output unchanged."""

    def test_peak_is_about_one_batch(self):
        # one batch's rows are 8192 * 100 * 8 bytes; a whole batch's words,
        # scatter index or tiled points, or a batch kept across ``next()``,
        # would each add about as much again
        table = helpers.grid_table(100, 2, 2)
        batches = iter_ranking_batches(range(100), 0.6, 3 * 8192, 6, batch_size=8192)
        gc.disable()
        try:
            tracemalloc.start()
            before = tracemalloc.get_traced_memory()[0]
            borda_streamed(batches, table)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak < 1.6 * 8192 * 100 * 8

    @pytest.mark.parametrize("budget", [1, 7, 29])
    @pytest.mark.parametrize(
        ("n", "num_rankings", "batch_size"),
        [(0, 3, 2), (1, 4, 3), (2, 5, 5), (3, 11, 5), (6, 20, 7), (9, 11, 2)],
    )
    def test_chunk_edges_keep_outputs(
        self, monkeypatch, budget, n, num_rankings, batch_size
    ):
        # at budget 7 and 29 some batch ends on a part-full step block,
        # scatter chunk or Borda chunk (e.g. 29 at n = 6: steps 4 + 1, rows
        # 4 + 3); at 1 every block is one step and every chunk one row
        monkeypatch.setattr(mallows, "_STREAM_CHUNK", budget)
        monkeypatch.setattr(consensus, "_STREAM_CHUNK", budget)
        modal = list(range(n - 1, -1, -1))
        batches = list(iter_ranking_batches(modal, 0.4, num_rankings, 97, batch_size))
        rows = [row for b in batches for row in b.tolist()]
        if n == 0:
            assert rows == [[]] * num_rankings
            return
        assert rows == helpers.reference_mallows(modal, 0.4, num_rankings, 97)
        if n >= 2:  # a candidate table needs two
            table = helpers.grid_table(n, 1, 1)
            rankings = RankingSet(
                tuple(ranking_from_indices(row, table) for row in rows)
            )
            assert borda_streamed(iter(batches), table) == borda(rankings, table)


class TestBudgetEnvironment:
    @pytest.mark.parametrize("raw", ["abc", "-5"])
    def test_malformed_value_is_parse_error(self, abc_table, monkeypatch, raw):
        monkeypatch.setenv("FAIRCONSENSUS_BUDGET_MS", raw)
        rankings = RankingSet((Ranking(("a", "b", "c")),))
        matrix = build_precedence_matrix(rankings, abc_table)
        with pytest.raises(ParseError, match="FAIRCONSENSUS_BUDGET_MS"):
            kemeny_exact(matrix)

    def test_valid_value_is_the_default(self, monkeypatch):
        monkeypatch.setenv("FAIRCONSENSUS_BUDGET_MS", "0")
        assert consensus.resolve_budget_ms(None) == 0
        assert consensus.resolve_budget_ms(60_000) == 60_000
        # a spent budget stops the search at its first deadline check;
        # an explicit one beats the environment's
        table = helpers.grid_table(20, 1, 1)
        rankings = helpers.random_ranking_set(table, 5, random.Random(2))
        matrix = build_precedence_matrix(rankings, table)
        spent = kemeny_exact(matrix)
        assert (spent.optimal, spent.nodes_explored) == (False, 512)
        solved = kemeny_exact(matrix, time_budget_ms=60_000)
        assert solved.optimal and solved.nodes_explored > 512


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

    @given(data=st.data())
    def test_property_matches_definitions(self, data):
        """Copeland's pair-by-pair wins and Schulze's strongest paths over
        every simple path, each tie-broken by the positional points and then
        table order. A mirrored ranking of equal weight ties every pair, and
        a large scale puts the points, or the matrix itself, past int64."""
        n = data.draw(st.integers(2, 6), label="n")
        ids = tuple(f"c{i}" for i in range(n))
        orders = data.draw(
            st.lists(st.permutations(ids), min_size=1, max_size=7), label="orders"
        )
        weights = data.draw(
            st.lists(st.integers(1, 3), min_size=len(orders), max_size=len(orders)),
            label="weights",
        )
        if data.draw(st.booleans(), label="mirror"):
            orders.append(orders[0][::-1])
            weights.append(weights[0])
        scale = data.draw(st.sampled_from([1, 2**61, 2**62 - 1, 10**20]), label="scale")
        table = CandidateTable(ids, ("t",), tuple((f"v{i % 2}",) for i in range(n)))
        rankings = RankingSet(
            tuple(Ranking(tuple(o)) for o in orders), tuple(w * scale for w in weights)
        )
        pm = build_precedence_matrix(rankings, table)
        wm = pm.cost_lists()
        points = [sum(column) for column in zip(*wm)]
        assert consensus._borda_order(pm.matrix) == borda(rankings, table).to_indices(
            table
        )
        for solve, wins in (
            (copeland, helpers.copeland_wins_reference(wm)),
            (schulze, helpers.schulze_wins_reference(wm)),
        ):
            order = sorted(range(n), key=lambda c: (-wins[c], -points[c], c))
            assert solve(pm) == Ranking(tuple(ids[i] for i in order))


class TestHugeWeights:
    def test_solvers_take_weights_beyond_int64(self, rng):
        """Scaling every weight by 10**20 keeps each solver's order and
        scales each objective exactly."""
        table = helpers.grid_table(8, 2, 2)
        spec = FairnessSpec(delta_default=Fraction(1, 4), intersection_attrs=ALL)
        index = spec.build_index(table)
        base = helpers.random_ranking_set(table, 5, rng, weights=[1, 2, 1, 3, 1])
        scale = 10**20
        huge = RankingSet(base.rankings, tuple(w * scale for w in base.weights))
        small_pm = build_precedence_matrix(base, table)
        huge_pm = build_precedence_matrix(huge, table)
        assert small_pm.matrix.dtype == np.int64
        assert huge_pm.cost_lists() == [
            [v * scale for v in row] for row in small_pm.cost_lists()
        ]
        assert copeland(huge_pm) == copeland(small_pm)
        assert schulze(huge_pm) == schulze(small_pm)
        for solve in (kemeny_exact, lambda pm: fair_kemeny(pm, spec, index)):
            small, big = solve(small_pm), solve(huge_pm)
            assert big.ranking == small.ranking
            assert big.objective == small.objective * scale
            assert big.optimal and small.optimal


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
        table = helpers.sized_table({"t": [4, 4]}, rng)
        rankings = helpers.random_ranking_set(table, 7, rng)
        wm = build_precedence_matrix(rankings, table).cost_lists()
        spec = FairnessSpec(delta_default=Fraction(0), intersection_attrs=None)
        constraints = enabled_entities(spec, spec.build_index(table))
        incumbent = list(range(8))
        runs = [
            prefix_branch_and_bound(
                wm,
                constraints=constraints,
                incumbent_order=incumbent,
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

    @staticmethod
    def _held_after(wm, **kwargs):
        """The search's result and the traced bytes still held once it
        returns, with the cyclic collector off so nothing it leaves in a
        cycle is freed behind the measurement."""
        gc.disable()
        try:
            tracemalloc.start()
            before = tracemalloc.get_traced_memory()[0]
            result = prefix_branch_and_bound(wm, **kwargs)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        return result, held

    def test_tables_released_on_return(self):
        # the dominance table and the per-node lists must not outlive it
        table = helpers.grid_table(24, 3, 2)
        rankings = helpers.random_ranking_set(table, 41, random.Random(11))
        wm = build_precedence_matrix(rankings, table).cost_lists()
        result, held = self._held_after(wm, max_nodes=10_000)
        assert result[3] > 5_000
        assert held < 100_000

    def test_constrained_tables_released_on_return(self):
        # the count-state table and the per-node lists must not outlive it;
        # twelve intersection cells intern megabytes of states in this walk
        table = helpers.grid_table(24, 4, 3)
        spec = FairnessSpec(delta_default=Fraction(1, 10))
        constraints = enabled_entities(spec, spec.build_index(table))
        wm = _blocked_matrix(table, 0.5, 23).cost_lists()
        result, held = self._held_after(
            wm, constraints=constraints, max_nodes=6_000
        )
        assert result[3] > 5_000
        assert held < 100_000

    @pytest.mark.parametrize(
        "incumbent",
        [[0, 1], [3, 2, 1, 1], [9, 1, 2, 3], [0, 1, 2, 3, 4], [0.0, 1, 2, 3]],
    )
    def test_rejects_incumbent_that_is_not_a_permutation(self, incumbent):
        # refused before any search: a non-permutation would otherwise come
        # back as a completed optimum, or fail on an index
        wm = [[0, 1, 2, 1], [1, 0, 1, 2], [0, 1, 0, 1], [1, 0, 1, 0]]
        with pytest.raises(ValueError, match="incumbent_order"):
            prefix_branch_and_bound(wm, incumbent_order=incumbent)

    @pytest.mark.parametrize("max_nodes", [-1, 1.5, True, False, "3"])
    def test_rejects_bad_max_nodes(self, max_nodes):
        table = helpers.grid_table(8, 2, 2)
        spec = FairnessSpec(delta_default=Fraction(1, 4))
        index = spec.build_index(table)
        rankings = RankingSet((Ranking(table.candidate_ids),))
        pm = build_precedence_matrix(rankings, table)
        with pytest.raises(ValueError, match="max_nodes"):
            prefix_branch_and_bound(pm.cost_lists(), max_nodes=max_nodes)
        # rejected up front, where no search would run (a vacuous
        # threshold) as where one would
        vacuous = FairnessSpec(delta_default=Fraction(1))
        with pytest.raises(ValueError, match="max_nodes"):
            fair_kemeny(pm, vacuous, index, max_nodes=max_nodes)
        with pytest.raises(ValueError, match="max_nodes"):
            fair_kemeny(pm, spec, index, max_nodes=max_nodes)

    @pytest.mark.parametrize("budget", [-5, 1.5, True, False, "3"])
    def test_rejects_bad_time_budget(self, budget):
        # an explicit budget is checked like a node cap, before any solve
        table = helpers.grid_table(8, 2, 2)
        spec = FairnessSpec(delta_default=Fraction(1, 4))
        index = spec.build_index(table)
        pm = build_precedence_matrix(RankingSet((Ranking(table.candidate_ids),)), table)
        with pytest.raises(ValueError, match="time_budget_ms"):
            kemeny_exact(pm, time_budget_ms=budget)
        with pytest.raises(ValueError, match="time_budget_ms"):
            fair_kemeny(pm, spec, index, time_budget_ms=budget)

    def test_budget_past_float_range_never_expires(self):
        # 10**400 ms has no float; it runs like no budget at all
        table = helpers.grid_table(8, 2, 2)
        spec = FairnessSpec(delta_default=Fraction(1, 4))
        index = spec.build_index(table)
        pm = build_precedence_matrix(RankingSet((Ranking(table.candidate_ids),)), table)
        assert kemeny_exact(pm, time_budget_ms=10**400) == kemeny_exact(pm)
        assert fair_kemeny(pm, spec, index, time_budget_ms=10**400) == fair_kemeny(
            pm, spec, index
        )

    def test_past_deadline_stops_at_node_512(self):
        # the clock is read at every 512th node, a skipped dead-state node
        # too: a deadline already past stops the search where max_nodes=511
        # does, on a fresh table and on one a capped search has filled, and
        # both skip nodes before that
        table = helpers.grid_table(24, 3, 2)
        spec = FairnessSpec(delta_default=Fraction(1, 10))
        constraints = enabled_entities(spec, spec.build_index(table))
        wm = _blocked_matrix(table, 0.5, 23).cost_lists()
        capped = prefix_branch_and_bound(wm, constraints=constraints, max_nodes=511)
        assert capped[2:] == (False, 512)
        warm = consensus._CountStates(constraints, table.n)
        prefix_branch_and_bound(wm, constraints=warm, max_nodes=4_000)
        for states in (constraints, warm):
            result, entered = _entered(
                lambda: prefix_branch_and_bound(wm, constraints=states, deadline=0.0)
            )
            assert result == capped
            assert entered < 511

    @pytest.mark.parametrize(
        "wm",
        [
            [[0, 1, 2], [1, 0, 1], [0, 1]],
            [[0, 1], [1, 0], [0, 1]],
            [[0, -1], [1, 0]],
            [[0, 1.0], [1, 0]],
            [[0, True], [False, 0]],
            [[0, "1"], [1, 0]],
            [[0, 1], 1],
            [[]],
            [[5, 1, 2], [2, 0, 1], [1, 2, 0]],
        ],
        ids=[
            "ragged",
            "tall",
            "negative",
            "float",
            "bool",
            "str",
            "scalar-row",
            "empty-row",
            "diagonal",
        ],
    )
    def test_rejects_bad_weights(self, wm):
        with pytest.raises(ValueError, match="wm"):
            prefix_branch_and_bound(wm)

    def test_numpy_int_weights_come_back_as_python_ints(self):
        wm = [[0, np.int64(3), 1], [2, 0, np.int64(2)], [4, 1, 0]]
        order, objective, completed, _ = prefix_branch_and_bound(wm)
        assert completed and type(objective) is int
        assert objective == enumeration_best([[int(v) for v in row] for row in wm])
        assert objective == ranking_objective(wm, order)


_WINDOW_DELTAS = [Fraction(0), Fraction(1, 20), Fraction(1, 10), Fraction(1, 5)]


def _prefix_window_states(rng: random.Random):
    """Each count state along one random prefix walk over k = 3-7 equal
    groups, as ``(f, rem, left, window, total)``: favored pairs and members
    left per group, candidates left, the window width and the favored-pair
    total. Four steps in five place a group whose state the cut keeps, when
    there is one, so walks reach deep states."""
    k, s = rng.randint(3, 7), rng.randint(1, 4)
    n = k * s
    delta = rng.choice(_WINDOW_DELTAS)
    window = s * (n - s) * delta.numerator // delta.denominator
    total = total_mixed_pair_count([s] * k, n)
    f, rem = [0] * k, [s] * k
    for left in range(n - 1, -1, -1):
        # placing a member of g favors it over the `left + 1 - rem[g]`
        # non-members still unplaced
        moves = {
            g: (
                [v + (left + 1 - rem[g]) * (h == g) for h, v in enumerate(f)],
                [r - (h == g) for h, r in enumerate(rem)],
            )
            for g in range(k)
            if rem[g]
        }
        options = list(moves)
        if rng.random() < 0.8:
            options = [
                g
                for g in options
                if helpers.window_feasible_reference(*moves[g], left, window, total)
            ] or options
        f, rem = moves[rng.choice(options)]
        yield f, rem, left, window, total


def _arbitrary_window_state(rng: random.Random):
    """Integer ``(f, rem, left, window, total)`` of no prefix walk, with the
    total drawn around the range the floors and ceilings span."""
    k = rng.randint(3, 7)
    f = [rng.randint(0, 40) for _ in range(k)]
    rem = [rng.randint(0, 6) for _ in range(k)]
    left = rng.randint(0, 30)
    high = sum(v + r * (left - r) for v, r in zip(f, rem))
    total = rng.randint(sum(f) - 5, max(sum(f), high) + 5)
    return f, rem, left, rng.randint(0, 25), total


class TestWindowCut:
    """``consensus._window_feasible`` cuts exactly the states the five-test
    uniform-window cut it replaced did (``helpers.window_feasible_reference``)."""

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_five_test_reference(self, seed):
        """At least 1 100 states per example: whole prefix walks, each
        paired with as many arbitrary states."""
        rng = random.Random(seed)
        checked = 0
        while checked < 1_100:
            walk = list(_prefix_window_states(rng))
            for state in walk + [_arbitrary_window_state(rng) for _ in walk]:
                f, rem, left, window, total = state
                his = [v + r * (left - r) for v, r in zip(f, rem)]
                assert consensus._window_feasible(
                    f, his, window, total
                ) == helpers.window_feasible_reference(*state), state
                checked += 1

    def test_only_the_refinement_cuts(self):
        # 4 groups of 3 at threshold 0: the four final counts must be equal
        # and sum to 54, which no integer count does. The floor at max(f)
        # leaves room (4 * 9 <= 54), but the counts reach 54 only with the
        # window's top at 14 or above (4 * 13 < 54), and at threshold 0 its
        # floor is there too (4 * 14 > 54)
        f, rem, left, total = (0, 0, 0, 9), (3, 3, 3, 2), 11, 54
        assert total == total_mixed_pair_count([3] * 4, 12)
        his = [v + r * (left - r) for v, r in zip(f, rem)]
        assert sum(max(v, max(f)) for v in f) <= total
        assert not helpers.window_feasible_reference(f, rem, left, 0, total)
        assert not consensus._window_feasible(f, his, 0, total)


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

    @staticmethod
    def key_order(rankings, spec, index):
        """The reference order: every ranking's ``Fraction`` key, then input order."""
        keys = [fairness_sort_key(r, spec, index) for r in rankings.rankings]
        return sorted(range(rankings.size), key=lambda i: (keys[i], i))

    @given(data=st.data())
    def test_fairest_first_matches_key_order(self, data):
        """Unequal cells give the groups different mixed-pair counts; the
        third attribute may take one value, the intersection may be all
        attributes, a subset or none, attributes may go unscored, and
        repeated rankings tie."""
        n = data.draw(st.integers(2, 9), label="n")
        values = [
            data.draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
            for labels in ("xyz", "pq", data.draw(st.sampled_from(["u", "uv"])))
        ]
        table = CandidateTable(
            tuple(f"c{i}" for i in range(n)), ("a", "b", "c"), tuple(zip(*values))
        )
        spec = FairnessSpec(
            intersection_attrs=data.draw(
                st.sampled_from([ALL, None, ("a",), ("b", "c")]), label="intersection"
            ),
            constrain_attributes=data.draw(st.booleans(), label="attributes"),
        )
        index = spec.build_index(table)
        orders = data.draw(
            st.lists(st.permutations(table.candidate_ids), min_size=1, max_size=8)
        )
        orders += data.draw(st.lists(st.sampled_from(orders), max_size=4), label="repeats")
        weights = data.draw(
            st.lists(st.integers(1, 10**20), min_size=len(orders), max_size=len(orders))
        )
        rankings = RankingSet(tuple(Ranking(tuple(o)) for o in orders), tuple(weights))
        expected = self.key_order(rankings, spec, index)
        assert consensus._fairest_first(rankings, spec, index) == expected
        assert pick_fairest(rankings, spec, index) == rankings.rankings[expected[0]]

    def test_fairest_first_scales_past_int64(self, rng):
        # one attribute of groups sized 1..13: the lcm of their mixed-pair
        # counts s * (91 - s) passes 2**63, so the keys compare as Python ints
        table = helpers.sized_table({"t": list(range(1, 14))}, rng)
        index = build_group_index(table, intersection_attrs=None)
        spec = FairnessSpec(intersection_attrs=None)
        assert math.lcm(*(g.mixed_pairs for g in index.attribute("t").groups)) > 2**63
        rankings = helpers.random_ranking_set(table, 12, rng)
        rankings = RankingSet(rankings.rankings + rankings.rankings[3:6])
        order = consensus._fairest_first(rankings, spec, index)
        assert order == self.key_order(rankings, spec, index)
        assert order.index(3) < order.index(12)  # a tie keeps input order

    def test_fairest_first_without_scores_keeps_input_order(self, rng):
        # every entity has a single group: all keys are (0,)
        table = CandidateTable(
            ("a", "b", "c", "d"), ("t", "u"), (("x", "p"),) * 4
        )
        rankings = helpers.random_ranking_set(table, 5, rng)
        for spec in (FairnessSpec(), FairnessSpec(intersection_attrs=("u",))):
            index = spec.build_index(table)
            assert consensus._fairest_first(rankings, spec, index) == [0, 1, 2, 3, 4]
            assert pick_fairest(rankings, spec, index) == rankings.rankings[0]

    def test_other_candidates_raise(self, rng):
        table = helpers.grid_table(6, 3, 2)
        index = build_group_index(table, intersection_attrs=ALL)
        spec = FairnessSpec()
        other = RankingSet((Ranking(("c000", "c001", "c002", "c003", "c004", "x")),))
        for baseline in (consensus._fairest_first, pick_fairest, kemeny_weighted):
            with pytest.raises(InconsistentCandidateSet):
                baseline(other, spec, index)

    @given(data=st.data())
    def test_kemeny_weighted_weights_count_as_copies(self, data):
        """A set with weights solves as the set listing each ranking that
        many times, in place: same ranking, same objective."""
        n = data.draw(st.integers(2, 6), label="n")
        table = helpers.grid_table(6, 3, 2)
        table = CandidateTable(table.candidate_ids[:n], table.attributes, table.values[:n])
        index = build_group_index(table, intersection_attrs=ALL)
        spec = FairnessSpec()
        orders = data.draw(
            st.lists(st.permutations(table.candidate_ids), min_size=1, max_size=5)
        )
        weights = data.draw(
            st.lists(st.integers(1, 4), min_size=len(orders), max_size=len(orders))
        )
        rankings = tuple(Ranking(tuple(o)) for o in orders)
        expanded = RankingSet(
            tuple(r for r, w in zip(rankings, weights) for _ in range(w))
        )
        actual = kemeny_weighted(RankingSet(rankings, tuple(weights)), spec, index)
        expected = kemeny_weighted(expanded, spec, index)
        assert actual.ranking == expected.ranking
        assert actual.objective == expected.objective


def _blocked_matrix(table, theta, seed, voters=40, scale=1):
    """Precedence matrix of Mallows votes around the order that lists
    candidates by their attribute values: every group in one block, so the
    unconstrained optimum is as unfair as it gets and the cut binds. Every
    vote weighs ``scale``."""
    modal = sorted(range(table.n), key=lambda i: (table.values[i], i))
    config = MallowsConfig(
        Ranking(tuple(table.candidate_ids[i] for i in modal)), theta, voters, seed
    )
    votes = sample_mallows(config)
    weighted = RankingSet(votes.rankings, tuple(w * scale for w in votes.weights))
    return build_precedence_matrix(weighted, table)


def _solved(pm, spec, index, max_nodes):
    """A capped ``fair_kemeny``'s (order, objective, optimal, nodes), or its
    error's name."""
    try:
        solution = fair_kemeny(pm, spec, index, max_nodes=max_nodes)
    except (Infeasible, BudgetExceeded) as exc:
        return type(exc).__name__
    return (
        solution.ranking.order,
        solution.objective,
        solution.optimal,
        solution.nodes_explored,
    )


def _searched(pm, spec, index, max_nodes):
    """A capped search from no incumbent, then a capped ``fair_kemeny``."""
    constraints = enabled_entities(spec, index)
    bare = prefix_branch_and_bound(
        pm.cost_lists(), constraints=constraints, max_nodes=max_nodes
    )
    return bare, _solved(pm, spec, index, max_nodes)


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _entered(search):
    """``search()``'s result and how many nodes it entered: the calls of the
    branch-and-bound's inner ``rec``, which leave out the nodes counted at a
    dead count state and skipped."""
    (rec,) = (
        code
        for code in prefix_branch_and_bound.__code__.co_consts
        if getattr(code, "co_name", None) == "rec"
    )
    entered = 0

    def profile(frame, event, arg):
        nonlocal entered
        if event == "call" and frame.f_code is rec:
            entered += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = search()
    finally:
        sys.setprofile(previous)
    return result, entered


class TestSearchWalkPinned:
    """The search walk itself, not just its objective: the order, objective,
    completion flag and node count of capped searches are pinned by sha256.
    The digests were recorded with the search that updated and undid each
    group count in place around every child, before the feasibility cut was
    memoized over count states; ``NO_INCUMBENT_DIGEST`` with the memoized
    cut, while every node still summed each child's cost afresh and sorted
    all its children; ``HUGE_WEIGHTS_DIGEST`` and ``DEGENERATE_DIGEST`` while
    each node carried its costs and minima as two separate lists."""

    @pytest.mark.parametrize("state_cap", [None, 0, 64])
    def test_desk_shape(self, monkeypatch, state_cap):
        # past the cap a state is computed afresh each time: the same walk
        if state_cap is not None:
            monkeypatch.setattr(consensus, "_COUNT_STATE_CAP", state_cap)
        table = helpers.grid_table(24, 3, 2)
        spec = FairnessSpec(delta_default=Fraction(1, 10))
        index = spec.build_index(table)
        outcomes = [
            _searched(_blocked_matrix(table, theta, seed), spec, index, 4_000)
            for theta, seed in ((0.5, 23), (1.0, 24))
        ]
        assert sum(o[1][3] for o in outcomes) == DESK_NODES
        assert _sha(outcomes) == DESK_DIGEST
        # the dead-state marks change no walk: at 2 000 nodes a node skipped
        # uncounted, or a state marked with a live signature, moves the
        # incumbent the cap stops on away from that of a search without marks
        constraints = enabled_entities(spec, index)
        wms = [
            _blocked_matrix(table, theta, seed).cost_lists()
            for theta, seed in ((0.5, 23), (1.0, 24))
        ]
        marked = [
            prefix_branch_and_bound(wm, constraints=constraints, max_nodes=2_000)
            for wm in wms
        ]
        monkeypatch.setattr(consensus._CountStates, "mark_dead", lambda self, state: None)
        assert [
            prefix_branch_and_bound(wm, constraints=constraints, max_nodes=2_000)
            for wm in wms
        ] == marked

    def test_unequal_group_sizes(self):
        # differing mixed-pair counts: the cut compares shares by
        # cross-multiplication, never through the uniform window
        table = helpers.sized_table({"x": [6, 4, 2], "y": [7, 5]}, random.Random(5))
        spec = FairnessSpec(delta_default=Fraction(1, 5))
        index = spec.build_index(table)
        assert not any(
            len({g.mixed_pairs for g in entity.groups}) == 1 and len(entity.groups) > 2
            for entity, _ in enabled_entities(spec, index)
        )
        outcomes = [
            _searched(_blocked_matrix(table, theta, seed), spec, index, 3_000)
            for theta, seed in ((0.3, 1), (0.8, 2))
        ]
        assert _sha(outcomes) == UNEQUAL_DIGEST

    def test_two_groups_alone(self):
        table = helpers.sized_table({"t": [7, 5]}, random.Random(6))
        spec = FairnessSpec(delta_default=Fraction(1, 10), intersection_attrs=None)
        index = spec.build_index(table)
        outcomes = [
            _searched(_blocked_matrix(table, theta, seed), spec, index, 3_000)
            for theta, seed in ((0.3, 3), (1.0, 4))
        ]
        assert _sha(outcomes) == TWO_GROUP_DIGEST

    def test_zero_threshold(self):
        # 12 candidates: equal shares would give each cell 13.5 favored
        # pairs, so the search proves infeasibility; 16 candidates are feasible
        spec = FairnessSpec(delta_default=Fraction(0))
        outcomes = []
        for n, theta, seed in ((12, 0.5, 5), (16, 0.5, 5), (16, 1.0, 6)):
            table = helpers.grid_table(n, 2, 2)
            index = spec.build_index(table)
            pm = _blocked_matrix(table, theta, seed)
            outcomes.append(_searched(pm, spec, index, 3_000))
        assert outcomes[0][1] == "Infeasible"
        assert _sha(outcomes) == ZERO_DELTA_DIGEST

    def test_intersection_off(self):
        table = helpers.grid_table(18, 3, 2)
        spec = FairnessSpec(delta_default=Fraction(1, 8), intersection_attrs=None)
        index = spec.build_index(table)
        outcomes = [
            _searched(_blocked_matrix(table, theta, seed), spec, index, 3_000)
            for theta, seed in ((0.5, 7), (1.0, 8))
        ]
        assert _sha(outcomes) == NO_INTERSECTION_DIGEST

    def test_constrained_without_incumbent(self):
        # no incumbent: the bound is off until the first leaf, then tightens
        # while the rest of that node's children wait their turn
        table = helpers.grid_table(12, 3, 2)
        spec = FairnessSpec(delta_default=Fraction(1, 10))
        constraints = enabled_entities(spec, spec.build_index(table))
        outcomes = [
            prefix_branch_and_bound(
                _blocked_matrix(table, theta, seed).cost_lists(),
                constraints=constraints,
                max_nodes=cap,
            )
            for theta, seed in ((0.3, 11), (1.0, 12))
            for cap in (None, 2_000)
        ]
        assert [o[2] for o in outcomes] == [True, False, True, False]
        assert _sha(outcomes) == NO_INCUMBENT_DIGEST

    def test_unconstrained(self):
        # one signature, never cut; the prefix-set dominance table prunes
        table = helpers.grid_table(17, 2, 2)
        outcomes = []
        for seed in (9, 10):
            rankings = helpers.random_ranking_set(table, 41, random.Random(seed))
            pm = build_precedence_matrix(rankings, table)
            solution = kemeny_exact(pm)
            outcomes.append(
                (
                    prefix_branch_and_bound(pm.cost_lists(), max_nodes=450),
                    solution.ranking.order,
                    solution.objective,
                    solution.optimal,
                    solution.nodes_explored,
                )
            )
        assert all(o[3] for o in outcomes)
        assert _sha(outcomes) == UNCONSTRAINED_DIGEST

    def test_weights_beyond_int64(self):
        # every vote weighs 10**20, so the row sums and every running sum
        # need more than 64 bits: capped walks with and without constraints
        table = helpers.grid_table(12, 3, 2)
        spec = FairnessSpec(delta_default=Fraction(1, 10))
        index = spec.build_index(table)
        huge = _blocked_matrix(table, 0.5, 23, scale=10**20)
        assert huge.matrix.dtype == object
        free_table = helpers.grid_table(17, 2, 2)
        votes = helpers.random_ranking_set(free_table, 41, random.Random(9))
        free = build_precedence_matrix(
            RankingSet(votes.rankings, (10**20,) * votes.size), free_table
        )
        wm = free.cost_lists()
        assert max(map(max, wm)) > 2**64
        solution = kemeny_exact(free)
        outcomes = [
            _searched(huge, spec, index, 1_500),
            prefix_branch_and_bound(wm, max_nodes=450),
            (solution.ranking.order, solution.objective, solution.nodes_explored),
        ]
        assert _sha(outcomes) == HUGE_WEIGHTS_DIGEST

    def test_degenerate_matrices(self):
        # all-zero weights, with and without constraints; one candidate;
        # no candidates
        table = helpers.grid_table(8, 2, 2)
        spec = FairnessSpec(delta_default=Fraction(1, 4))
        constraints = enabled_entities(spec, spec.build_index(table))
        zeros = [[0] * 8 for _ in range(8)]
        outcomes = [
            prefix_branch_and_bound(zeros, constraints=constraints, max_nodes=500),
            prefix_branch_and_bound(zeros, max_nodes=500),
            prefix_branch_and_bound(zeros, incumbent_order=list(range(8))),
            prefix_branch_and_bound([[0]]),
            prefix_branch_and_bound([[0]], incumbent_order=[0]),
            prefix_branch_and_bound([]),
        ]
        assert outcomes[3:] == [([0], 0, True, 2), ([0], 0, True, 1), ([], 0, True, 1)]
        assert _sha(outcomes) == DEGENERATE_DIGEST


DESK_NODES = 8030
DESK_DIGEST = "4f35c8009ba213936be13fcac731132da2c5e720a0ff572e390a495d16148154"
UNEQUAL_DIGEST = "e2a2956c9ad154c7e37ec5e110ba0728ee255550a919e8e5c7e6266164eeb1a9"
TWO_GROUP_DIGEST = "589a3c4c2a377c591a5dff73931ffbd1defb2db66f476faa7bc36c9aa3283510"
ZERO_DELTA_DIGEST = "07620813da84a31cf3884da98685ee0122494c46b0522ac50575f65a619ddd98"
NO_INTERSECTION_DIGEST = "bc85890ac82a542258261ceeb427f7b577ac2953e810bb31dd20a71d840dbed7"
NO_INCUMBENT_DIGEST = "761f93360555b50dbd637e2336d392fd7e4887b4ebec0dd6b8caa48723bdec60"
UNCONSTRAINED_DIGEST = "83873c06b74208d3926a5ab5e98486fe6ca9d482418a20192a91a70ef176b4c6"
HUGE_WEIGHTS_DIGEST = "6be703ce70ae12ad988324b3e285b4d3bb815c3f488131d66c8e704bb82f7932"
DEGENERATE_DIGEST = "6c059f1ab19c24a39be154ba8cc05216090f3b7e3d47cffe0b6184ba07c09790"


class TestSharedCountStates:
    """Every fair search on one group index reads and extends the count-state
    table of its constraint set, which the index keeps and frees."""

    @pytest.mark.parametrize("state_cap", [None, 0, 64])
    def test_solves_on_one_index_match_fresh_ones(self, monkeypatch, state_cap):
        # three thresholds, so three tables, filled in either order; past
        # the cap a state is computed afresh each time
        if state_cap is not None:
            monkeypatch.setattr(consensus, "_COUNT_STATE_CAP", state_cap)
        table = helpers.grid_table(10, 3, 2)
        specs = [FairnessSpec(delta_default=Fraction(d, 10)) for d in (1, 2, 3)]
        cases = [
            (spec, _blocked_matrix(table, theta, seed))
            for spec in specs
            for theta, seed in ((0.3, 11), (0.6, 12), (1.0, 13))
        ]
        fresh = [
            _solved(pm, spec, spec.build_index(table), 1_500) for spec, pm in cases
        ]
        # proofs of infeasibility, a proven optimum and capped searches
        assert {r if isinstance(r, str) else r[2] for r in fresh} == {
            "Infeasible",
            True,
            False,
        }
        for order in (range(len(cases)), reversed(range(len(cases)))):
            index = specs[0].build_index(table)
            for i in order:
                spec, pm = cases[i]
                assert _solved(pm, spec, index, 1_500) == fresh[i]
            assert len(index._count_states) == 3

    @pytest.mark.parametrize("state_cap", [None, 0, 64])
    def test_desk_shape_on_one_index_matches_fresh(self, monkeypatch, state_cap):
        # the desk shape reaches dead states: each solve reads the marks the
        # solves before it left on the index's table
        if state_cap is not None:
            monkeypatch.setattr(consensus, "_COUNT_STATE_CAP", state_cap)
        table = helpers.grid_table(24, 3, 2)
        spec = FairnessSpec(delta_default=Fraction(1, 10))
        pms = [
            _blocked_matrix(table, theta, seed)
            for theta, seed in ((0.5, 23), (1.0, 24), (0.1, 25))
        ]
        fresh = [_solved(pm, spec, spec.build_index(table), 4_000) for pm in pms]
        for order in ((0, 1, 2), (2, 1, 0)):
            index = spec.build_index(table)
            for i in order:
                assert _solved(pms[i], spec, index, 4_000) == fresh[i]
        if state_cap is None:
            (states,) = index._count_states.values()
            assert any(s and s.dead for s in states.states.values())

    def test_table_freed_with_its_index(self):
        # the table outlives the search while its index lives, then goes
        # with it; the collector is off, so nothing waits for a cycle sweep
        table = helpers.grid_table(24, 4, 3)
        spec = FairnessSpec(delta_default=Fraction(1, 10))
        pm = _blocked_matrix(table, 0.5, 23)
        gc.disable()
        try:
            tracemalloc.start()
            before = tracemalloc.get_traced_memory()[0]
            index = spec.build_index(table)
            solution = fair_kemeny(pm, spec, index, max_nodes=6_000)
            kept = tracemalloc.get_traced_memory()[0] - before
            del index
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert solution.nodes_explored > 5_000
        assert kept > 1_000_000
        assert held < 100_000


class TestDeadCountStates:
    """A count state is marked dead once its filled ``next`` slots show the
    cut firing for every signature whose groups all have members left; a
    node that reaches it is counted and never entered."""

    @pytest.mark.parametrize(
        "table, spec, instances, cap",
        [
            (
                helpers.grid_table(24, 3, 2),
                FairnessSpec(delta_default=Fraction(1, 10)),
                ((0.5, 23), (1.0, 24), (0.1, 25)),
                4_000,
            ),
            (
                helpers.sized_table({"x": [6, 4, 2], "y": [7, 5]}, random.Random(5)),
                FairnessSpec(delta_default=Fraction(1, 5)),
                ((0.3, 1), (0.8, 2)),
                3_000,
            ),
            (
                helpers.sized_table({"x": [6, 4, 2], "y": [7, 5]}, random.Random(5)),
                FairnessSpec(delta_default=Fraction(1, 5), intersection_attrs=None),
                ((0.3, 1), (0.8, 2)),
                3_000,
            ),
        ],
        ids=["desk", "unequal", "attributes-only"],
    )
    def test_marks_hold_on_a_fresh_table(self, table, spec, instances, cap):
        # the fresh table computes every cut afresh: the marks rest on
        # nothing but the counts
        index = spec.build_index(table)
        for theta, seed in instances:
            _solved(_blocked_matrix(table, theta, seed), spec, index, cap)
        constraints = enabled_entities(spec, index)
        states = consensus._CountStates.of_index(index, constraints)
        dead = [s for s in states.states.values() if s and s.dead]
        assert dead
        fresh = consensus._CountStates(constraints, table.n)
        groups = len(constraints[0][0].groups)
        for state in dead:
            left = state.counts[fresh.width :]
            probe = consensus._CountState(state.counts, len(fresh.sig_slots))
            for s, at in enumerate(fresh.sig_slots):
                if all(left[i] for i in at):
                    assert fresh.successor(probe, s, sum(left[:groups])) is False

    def test_walk_matches_unmarked_search(self, monkeypatch):
        # a skipped node counts as an entered one would, so a search that
        # runs to its end reports the nodes it reports with no marks at all
        table = helpers.sized_table({"x": [6, 4, 2], "y": [7, 5]}, random.Random(5))
        spec = FairnessSpec(delta_default=Fraction(1, 5))
        pm = _blocked_matrix(table, 1.5, 3)
        marked, entered = _entered(
            lambda: _solved(pm, spec, spec.build_index(table), None)
        )
        assert marked[2] and entered < marked[3]
        monkeypatch.setattr(consensus._CountStates, "mark_dead", lambda self, state: None)
        assert _solved(pm, spec, spec.build_index(table), None) == marked
