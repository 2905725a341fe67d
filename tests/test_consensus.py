"""Unaware consensus methods and the exact search machinery."""

from __future__ import annotations

import gc
import hashlib
import random
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
    kemeny_exact,
    kemeny_weighted,
    pick_fairest,
    prefix_branch_and_bound,
    ranking_objective,
    sample_mallows,
    schulze,
)
from fairconsensus import consensus
from fairconsensus.errors import InstanceTooLarge, ParseError
from fairconsensus.fair import enabled_entities
from fairconsensus.model import ALL, build_group_index, total_mixed_pair_count

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


def _searched(pm, spec, index, max_nodes):
    """A capped search from no incumbent, then a capped ``fair_kemeny``."""
    constraints = enabled_entities(spec, index)
    bare = prefix_branch_and_bound(
        pm.cost_lists(), constraints=constraints, max_nodes=max_nodes
    )
    try:
        solution = fair_kemeny(pm, spec, index, max_nodes=max_nodes)
    except (Infeasible, BudgetExceeded) as exc:
        return bare, type(exc).__name__
    return bare, (
        solution.ranking.order,
        solution.objective,
        solution.optimal,
        solution.nodes_explored,
    )


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


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
