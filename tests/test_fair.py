"""Constrained solver, repair procedure, and fair pipelines."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairconsensus import (
    BudgetExceeded,
    CandidateTable,
    FairnessSpec,
    Infeasible,
    Ranking,
    RankingSet,
    borda_streamed,
    brute_force_fair_kemeny,
    build_group_index,
    build_precedence_matrix,
    evaluate_fairness,
    fair_kemeny,
    fair_pipeline,
    iter_ranking_batches,
    kemeny_exact,
    mixed_block_modal,
    pd_loss,
    ranking_objective,
    repair_ranking,
)
from fairconsensus.errors import (
    InconsistentCandidateSet,
    InstanceTooLarge,
    RepairStalled,
)
from fairconsensus.fair import _order_satisfies, enabled_entities
from fairconsensus.metrics import entity_spread
from fairconsensus.model import ALL

import helpers


def odd_parity_instance():
    """Group sizes 3 and 1: both groups share 3 mixed pairs, an odd count.

    Equal shares would need 1.5 favored pairs each, so no ranking reaches
    spread 0: the instance is infeasible at threshold 0.
    """
    table = type(helpers.grid_table(4, 2, 2))(
        ("a", "b", "c", "d"),
        ("t",),
        (("g",), ("g",), ("g",), ("o",)),
    )
    rankings = RankingSet(
        (Ranking(("a", "b", "c", "d")), Ranking(("d", "c", "b", "a")))
    )
    return table, rankings


def _abc_inputs(t):
    """A one-ranking set over table ``t``, a spec and its index on ``t``."""
    spec = FairnessSpec(delta_default=Fraction(1, 2))
    return RankingSet((Ranking(t.candidate_ids),)), spec, spec.build_index(t)


def _one_ranking_matrix(table):
    return build_precedence_matrix(RankingSet((Ranking(table.candidate_ids),)), table)


# every argument check in the fair module that no other test reaches, as
# (call on the abc table, error, message)
_FAIR_ERRORS = [
    (
        lambda t: fair_kemeny(
            _one_ranking_matrix(t), *_abc_inputs(t)[1:], max_exact_n=2
        ),
        InstanceTooLarge,
        "exact solve limited to 2 candidates, got 3",
    ),
    (
        lambda t: fair_kemeny(
            _one_ranking_matrix(CandidateTable(("a", "b", "d"), t.attributes, t.values)),
            *_abc_inputs(t)[1:],
        ),
        InconsistentCandidateSet,
        "precedence matrix and group index cover different candidates",
    ),
    (
        lambda t: fair_pipeline("median", *_abc_inputs(t)),
        ValueError,
        "unknown pipeline method 'median'",
    ),
    (
        lambda t: brute_force_fair_kemeny(*_abc_inputs(t), max_n=2),
        InstanceTooLarge,
        "enumeration oracle limited to 2 candidates, got 3",
    ),
]


@pytest.mark.parametrize(("call", "error", "message"), _FAIR_ERRORS)
def test_argument_checks_name_the_fault(abc_table, call, error, message):
    with pytest.raises(error) as raised:
        call(abc_table)
    assert str(raised.value) == message


class TestRepair:
    def test_already_fair_input_unchanged(self, rng):
        table = helpers.grid_table(8, 2, 2)
        index = build_group_index(table, intersection_attrs=ALL)
        spec = FairnessSpec(delta_default=Fraction(1))
        ranking = helpers.random_ranking_set(table, 1, rng).rankings[0]
        repaired, trace = repair_ranking(ranking, spec, index)
        assert repaired == ranking
        assert trace.iterations == 0
        assert trace.swaps == ()

    def test_output_satisfies_spec(self, rng):
        for _ in range(15):
            table = helpers.grid_table(12, 3, 2)
            index = build_group_index(table, intersection_attrs=ALL)
            spec = FairnessSpec(delta_default=Fraction(1, 5))
            ranking = helpers.random_ranking_set(table, 1, rng).rankings[0]
            repaired, trace = repair_ranking(ranking, spec, index)
            assert trace.final_report.satisfied
            assert evaluate_fairness(repaired, spec, index).satisfied

    def test_swap_replay_reproduces_output(self, rng):
        table = helpers.grid_table(12, 3, 2)
        index = build_group_index(table, intersection_attrs=ALL)
        spec = FairnessSpec(delta_default=Fraction(1, 4))
        ranking = helpers.random_ranking_set(table, 1, rng).rankings[0]
        repaired, trace = repair_ranking(ranking, spec, index)
        assert trace.iterations == len(trace.swaps)
        replay = list(ranking.order)
        for demoted, promoted, _entity in trace.swaps:
            i, j = replay.index(demoted), replay.index(promoted)
            assert i < j, "a swap always promotes a candidate from below"
            replay[i], replay[j] = replay[j], replay[i]
        assert tuple(replay) == repaired.order

    def test_stalls_on_infeasible_target(self):
        table, rankings = odd_parity_instance()
        index = build_group_index(table, intersection_attrs=None)
        spec = FairnessSpec(delta_default=Fraction(0), intersection_attrs=None)
        with pytest.raises(RepairStalled):
            repair_ranking(rankings.rankings[0], spec, index)

    @pytest.mark.parametrize("max_swaps", [-1, 1.5, True, False, "3"])
    def test_rejects_bad_max_swaps(self, max_swaps):
        table = helpers.grid_table(8, 2, 2)
        spec = FairnessSpec(delta_default=Fraction(1))
        index = spec.build_index(table)
        ranking = Ranking(table.candidate_ids)
        # rejected up front, on an already-fair input as on an unfair one
        with pytest.raises(ValueError, match="max_swaps"):
            repair_ranking(ranking, spec, index, max_swaps=max_swaps)
        with pytest.raises(ValueError, match="max_swaps"):
            _walk_outcome(*_tied_spread_case(), max_swaps=max_swaps)

    def test_zero_max_swaps_is_legal(self):
        table = helpers.grid_table(8, 2, 2)
        spec = FairnessSpec(delta_default=Fraction(1))
        index = spec.build_index(table)
        ranking = Ranking(table.candidate_ids)
        repaired, trace = repair_ranking(ranking, spec, index, max_swaps=0)
        assert repaired == ranking and trace.iterations == 0
        with pytest.raises(RepairStalled, match="within 0 swaps"):
            _walk_outcome(*_tied_spread_case(), max_swaps=0)

    @given(data=st.data())
    def test_property_fair_or_stalled(self, data):
        n = data.draw(st.integers(4, 40), label="n")
        table = helpers.grid_table(
            n, data.draw(st.integers(2, 3)), data.draw(st.integers(2, 3))
        )
        delta = data.draw(
            st.fractions(min_value=0, max_value=1, max_denominator=20), label="delta"
        )
        spec = FairnessSpec(
            delta_default=delta,
            intersection_attrs=ALL if data.draw(st.booleans()) else None,
        )
        index = spec.build_index(table)
        ranking = Ranking(
            tuple(data.draw(st.permutations(table.candidate_ids), label="ranking"))
        )
        try:
            repaired, trace = repair_ranking(ranking, spec, index)
        except RepairStalled:
            return
        order = repaired.to_indices(table)
        for entity, threshold in enabled_entities(spec, index):
            num, den, _, _ = entity_spread(order, entity)
            assert Fraction(num, den) <= threshold
        assert trace.final_report.satisfied
        assert trace.iterations == len(trace.swaps)
        replay = list(ranking.order)
        for demoted, promoted, _entity in trace.swaps:
            i, j = replay.index(demoted), replay.index(promoted)
            assert i < j, "a swap always promotes a candidate from below"
            replay[i], replay[j] = replay[j], replay[i]
        assert tuple(replay) == repaired.order

    @given(data=st.data())
    def test_property_postcondition_or_stalled(self, data):
        # groups of any sizes, per-entity thresholds and an intersection
        # over all attributes, a subset or none
        n = data.draw(st.integers(6, 30), label="n")
        attributes = ("a", "b", "c")[: data.draw(st.integers(1, 3), label="attributes")]
        rows = tuple(
            tuple(f"v{data.draw(st.integers(0, 2))}" for _ in attributes)
            for _ in range(n)
        )
        table = CandidateTable(tuple(f"c{i}" for i in range(n)), attributes, rows)
        thresholds = st.fractions(min_value=0, max_value=1, max_denominator=10)
        spec = FairnessSpec(
            delta_default=data.draw(thresholds, label="delta"),
            delta_attributes={
                name: data.draw(thresholds)
                for name in attributes
                if data.draw(st.booleans())
            },
            delta_intersection=data.draw(st.none() | thresholds),
            intersection_attrs=data.draw(
                st.sampled_from([ALL, None, attributes[:1], attributes[-2:]]),
                label="scope",
            ),
        )
        index = spec.build_index(table)
        ranking = Ranking(
            tuple(data.draw(st.permutations(table.candidate_ids), label="ranking"))
        )
        try:
            repaired, trace = repair_ranking(ranking, spec, index)
        except RepairStalled:
            return
        assert _order_satisfies(repaired.to_indices(table), enabled_entities(spec, index))
        assert trace.iterations == len(trace.swaps)
        replay = list(ranking.order)
        for demoted, promoted, _entity in trace.swaps:
            i, j = replay.index(demoted), replay.index(promoted)
            replay[i], replay[j] = replay[j], replay[i]
        assert tuple(replay) == repaired.order


def _walk_outcome(ranking, spec, index, **options):
    """What the repair walk did: output order, every swap and the count."""
    repaired, trace = repair_ranking(ranking, spec, index, **options)
    return repaired.order, trace.swaps, trace.iterations


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _tied_spread_case():
    """A 2x2 grid ranked symmetrically in race and gender, intersection off.

    Race and gender start with equal violated spreads, so the walk must
    order tied entities by declared priority.
    """
    table = helpers.grid_table(16, 2, 2)
    cells: dict[tuple[str, ...], list[str]] = {}
    for cid, row in zip(table.candidate_ids, table.values):
        cells.setdefault(row, []).append(cid)
    # r0/g1 and r1/g0 interleave as abba abba: equal position sums
    a, b = cells[("r0", "g1")], cells[("r1", "g0")]
    mixed = [a[0], b[0], b[1], a[1], a[2], b[2], b[3], a[3]]
    order = cells[("r0", "g0")] + mixed + cells[("r1", "g1")]
    spec = FairnessSpec(delta_default=Fraction(1, 10), intersection_attrs=None)
    return Ranking(tuple(order)), spec, spec.build_index(table)


def _stall_point(ranking, spec, index) -> tuple[int, str]:
    """Swaps made before the walk stalls, found by raising ``max_swaps``."""
    for cap in range(2 * len(ranking.order) ** 2 + 1):
        try:
            repair_ranking(ranking, spec, index, max_swaps=cap)
        except RepairStalled as exc:
            if "within" not in str(exc):
                return cap - 1, str(exc)
        else:
            raise AssertionError("the instance was expected to stall")
    raise AssertionError("no stall point below the default cap")


class TestRepairWalkPinned:
    """The walk itself, not just its postcondition: the output order, every
    swap and the iteration count are pinned by sha256. The digests were
    recorded with the Fenwick-tree walk this module used before sorted
    position lists replaced it; ``test_unequal_cells`` was recorded with
    the sorted-list walk before the tracker kept spreads current."""

    def test_wide_shape(self):
        table = helpers.grid_table(400, 2, 2)
        spec = FairnessSpec(delta_default=Fraction(33, 100))
        index = spec.build_index(table)
        modal = mixed_block_modal(index, 0.5)
        consensus = borda_streamed(
            iter_ranking_batches(modal.to_indices(table), 1.0, 20, seed=5, batch_size=20),
            table,
        )
        outcome = _walk_outcome(consensus, spec, index)
        assert outcome[2] == 8189
        assert _sha(outcome) == WIDE_DIGEST

    def test_unequal_cells(self):
        # 301 candidates on a 3x2 grid: cells of 51 and 50, so no entity's
        # groups share one mixed-pair count, and the intersection walk
        # moves members past others of their race
        table = helpers.grid_table(301, 3, 2)
        spec = FairnessSpec(delta_default=Fraction(1, 10))
        index = spec.build_index(table)
        modal = mixed_block_modal(index, 0.5)
        consensus = borda_streamed(
            iter_ranking_batches(modal.to_indices(table), 1.0, 20, seed=5, batch_size=20),
            table,
        )
        outcome = _walk_outcome(consensus, spec, index)
        assert outcome[2] == 3564
        assert _sha(outcome) == UNEQUAL_CELLS_DIGEST

    def test_attributes_without_intersection(self):
        # race and gender only: the walk scans for a swap pair that agrees
        # on the other attribute, and revisits are vetoed along the way
        table = helpers.grid_table(48, 3, 2)
        spec = FairnessSpec(delta_default=Fraction(1, 20), intersection_attrs=None)
        index = spec.build_index(table)
        rng = random.Random(11)
        outcomes = []
        for _ in range(5):
            order = list(table.candidate_ids)
            rng.shuffle(order)
            outcomes.append(_walk_outcome(Ranking(tuple(order)), spec, index))
        assert sum(o[2] for o in outcomes) == 387
        assert _sha(outcomes) == NO_INTERSECTION_DIGEST

    def test_tied_spreads(self):
        ranking, spec, index = _tied_spread_case()
        race, gender = (e for e, _ in enabled_entities(spec, index))
        order = ranking.to_indices(index.table)
        num, den, _, _ = entity_spread(order, race)
        assert entity_spread(order, gender)[:2] == (num, den)
        assert Fraction(num, den) > spec.delta_default
        outcome = _walk_outcome(ranking, spec, index)
        assert outcome[1][0][2] == "race"  # declared order breaks the tie
        assert outcome[2] == 34
        assert _sha(outcome) == TIED_DIGEST

    def test_odd_parity_stall_points(self):
        table, _ = odd_parity_instance()
        spec = FairnessSpec(delta_default=Fraction(0), intersection_attrs=None)
        index = spec.build_index(table)
        points = [
            _stall_point(Ranking(perm), spec, index)
            for perm in permutations(table.candidate_ids)
        ]
        assert all("cycled" in message for _, message in points)
        assert _sha(points) == ODD_PARITY_DIGEST

    def test_small_random_instances(self):
        # tight thresholds on small grids: some walks converge after a
        # vetoed revisit, others stall
        rng = random.Random(7)
        outcomes = []
        for _ in range(120):
            table = helpers.grid_table(rng.randint(4, 12), rng.randint(2, 3), 2)
            spec = FairnessSpec(
                delta_default=Fraction(rng.randint(0, 6), 20),
                intersection_attrs=rng.choice([None, ALL]),
            )
            index = spec.build_index(table)
            order = list(table.candidate_ids)
            rng.shuffle(order)
            try:
                outcomes.append(_walk_outcome(Ranking(tuple(order)), spec, index))
            except RepairStalled as exc:
                outcomes.append(str(exc))
        assert _sha(outcomes) == SMALL_RANDOM_DIGEST


WIDE_DIGEST = "3e18f3ac278968e25585cc532a8d575224b932fe0e3ba961d33f669b5ba977a1"
UNEQUAL_CELLS_DIGEST = "a56cfdb96ddcabbc6d2dc0675a89b850fa7e48c37d4b84289c11c8f0ac457334"
NO_INTERSECTION_DIGEST = "0db4f6a81e83e6ef032e5c7f19f0e10902f70094dba165111b8e9dba02ec7551"
TIED_DIGEST = "72cd2cf7128ec278a97d98b45f687d596ef3bdd85c1e8afe545c4a6ba91f940a"
ODD_PARITY_DIGEST = "f3a2f91c035672597a3748b728a3062d255ae1405760494d884151c0b3309588"
SMALL_RANDOM_DIGEST = "39477806612a5c9e65c764305886267cc449a55228263d66d138463e5e7140fa"


class TestFairKemeny:
    def test_matches_oracle_on_random_instances(self, rng):
        checked = 0
        for _ in range(15):
            n = rng.randint(4, 7)
            table = helpers.random_table(
                n, {"x": ["1", "2", "3"], "y": ["p", "q"]}, rng
            )
            rankings = helpers.random_ranking_set(table, rng.randint(3, 7), rng)
            pm = build_precedence_matrix(rankings, table)
            for delta in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
                spec = FairnessSpec(delta_default=delta, intersection_attrs=ALL)
                index = spec.build_index(table)
                try:
                    oracle = brute_force_fair_kemeny(rankings, spec, index)
                except Infeasible:
                    oracle = None
                try:
                    fast = fair_kemeny(pm, spec, index)
                except Infeasible:
                    fast = None
                checked += 1
                if oracle is None:
                    assert fast is None
                else:
                    assert fast is not None
                    assert fast.optimal
                    assert fast.objective == oracle.objective
                    assert evaluate_fairness(fast.ranking, spec, index).satisfied
        assert checked >= 45

    @given(data=st.data())
    def test_property_matches_oracle(self, data):
        n = data.draw(st.integers(3, 7), label="n")
        labels = {"x": ["1", "2", "3"], "y": ["p", "q"]}
        values = {
            a: data.draw(st.lists(st.sampled_from(v), min_size=n, max_size=n), label=a)
            for a, v in labels.items()
        }
        table = CandidateTable(
            tuple(f"c{i}" for i in range(n)),
            tuple(labels),
            tuple((values["x"][i], values["y"][i]) for i in range(n)),
        )
        deltas = st.fractions(min_value=0, max_value=1, max_denominator=10)
        spec = FairnessSpec(
            # below 1, where a threshold binds; an override may still be 1
            delta_default=data.draw(
                st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=10),
                label="delta",
            ),
            delta_attributes=data.draw(
                st.dictionaries(st.sampled_from(list(labels)), deltas), label="per attribute"
            ),
            intersection_attrs=data.draw(
                st.sampled_from([ALL, None, ("x",), ("y",)]), label="intersection"
            ),
            constrain_attributes=data.draw(st.booleans(), label="attributes"),
        )
        index = spec.build_index(table)
        rankings = RankingSet(
            tuple(
                Ranking(tuple(p))
                for p in data.draw(
                    st.lists(st.permutations(table.candidate_ids), min_size=1, max_size=5),
                    label="rankings",
                )
            )
        )
        pm = build_precedence_matrix(rankings, table)
        try:
            oracle = brute_force_fair_kemeny(rankings, spec, index)
        except Infeasible:
            with pytest.raises(Infeasible):
                fair_kemeny(pm, spec, index)
            return
        fast = fair_kemeny(pm, spec, index)
        assert fast.optimal
        assert fast.objective == oracle.objective
        assert evaluate_fairness(fast.ranking, spec, index).satisfied

    def test_solution_objective_is_consistent(self, rng):
        table = helpers.grid_table(8, 2, 2)
        spec = FairnessSpec(delta_default=Fraction(1, 4), intersection_attrs=ALL)
        index = spec.build_index(table)
        rankings = helpers.random_ranking_set(table, 5, rng)
        pm = build_precedence_matrix(rankings, table)
        solution = fair_kemeny(pm, spec, index)
        wm = pm.cost_lists()
        assert solution.objective == ranking_objective(
            wm, solution.ranking.to_indices(table)
        )

    def test_infeasible_odd_parity(self):
        table, rankings = odd_parity_instance()
        spec = FairnessSpec(delta_default=Fraction(0), intersection_attrs=None)
        index = spec.build_index(table)
        pm = build_precedence_matrix(rankings, table)
        with pytest.raises(Infeasible):
            fair_kemeny(pm, spec, index)
        with pytest.raises(Infeasible):
            brute_force_fair_kemeny(rankings, spec, index)

    def test_vacuous_threshold_reduces_to_unconstrained(self, rng):
        table = helpers.grid_table(8, 2, 2)
        spec = FairnessSpec(delta_default=Fraction(1), intersection_attrs=ALL)
        index = spec.build_index(table)
        assert enabled_entities(spec, index) == []
        rankings = helpers.random_ranking_set(table, 5, rng)
        pm = build_precedence_matrix(rankings, table)
        base = kemeny_exact(pm)
        # ranking, objective, optimality flag and node count all agree
        assert fair_kemeny(pm, spec, index) == base
        # a threshold below 1 that the unconstrained optimum already meets
        # constrains the search, yet hands back that same solution
        order = base.ranking.to_indices(table)
        delta = max(
            Fraction(*entity_spread(order, entity)[:2])
            for entity in spec.entities(index)
        )
        assert delta < 1
        tight = FairnessSpec(delta_default=delta, intersection_attrs=ALL)
        assert enabled_entities(tight, index) != []
        assert fair_kemeny(pm, tight, index) == base

    def test_objective_monotone_in_threshold(self, rng):
        # relaxing the threshold can only lower the exact optimum
        for _ in range(5):
            table = helpers.grid_table(8, 2, 2)
            rankings = helpers.random_ranking_set(table, 6, rng)
            pm = build_precedence_matrix(rankings, table)
            previous = None
            for tenths in range(0, 11):
                spec = FairnessSpec(
                    delta_default=Fraction(tenths, 10), intersection_attrs=ALL
                )
                index = spec.build_index(table)
                try:
                    objective = fair_kemeny(pm, spec, index).objective
                except Infeasible:
                    continue
                if previous is not None:
                    assert objective <= previous
                previous = objective

    def test_warm_start_bounds_truncated_search(self, rng):
        table = helpers.grid_table(12, 3, 2)
        spec = FairnessSpec(delta_default=Fraction(1, 10), intersection_attrs=ALL)
        index = spec.build_index(table)
        rankings = helpers.random_ranking_set(table, 9, rng)
        pm = build_precedence_matrix(rankings, table)
        wm = pm.cost_lists()
        exact = fair_kemeny(pm, spec, index)
        truncated = fair_kemeny(pm, spec, index, max_nodes=1)
        assert not truncated.optimal
        assert truncated.objective >= exact.objective
        assert evaluate_fairness(truncated.ranking, spec, index).satisfied
        seeded = fair_kemeny(
            pm, spec, index, max_nodes=1, warm_starts=(exact.ranking,)
        )
        assert seeded.objective == exact.objective

    def test_truncation_is_deterministic(self, rng):
        table = helpers.grid_table(12, 3, 2)
        spec = FairnessSpec(delta_default=Fraction(1, 10), intersection_attrs=ALL)
        index = spec.build_index(table)
        rankings = helpers.random_ranking_set(table, 9, rng)
        pm = build_precedence_matrix(rankings, table)
        first = fair_kemeny(pm, spec, index, max_nodes=500)
        second = fair_kemeny(pm, spec, index, max_nodes=500)
        assert first == second

    def test_budget_error_without_any_incumbent(self):
        # repair stalls on the odd-parity instance, so a zero-node search
        # has nothing to return: the truncation is reported as a budget stop
        table, rankings = odd_parity_instance()
        spec = FairnessSpec(delta_default=Fraction(0), intersection_attrs=None)
        index = spec.build_index(table)
        pm = build_precedence_matrix(rankings, table)
        with pytest.raises(BudgetExceeded):
            fair_kemeny(pm, spec, index, max_nodes=0)


class TestPipelines:
    def test_all_pipelines_satisfy_and_account_losses(self, rng):
        table = helpers.grid_table(12, 3, 2)
        spec = FairnessSpec(delta_default=Fraction(1, 4), intersection_attrs=ALL)
        index = spec.build_index(table)
        rankings = helpers.random_ranking_set(table, 7, rng)
        for method in ("borda", "copeland", "schulze", "pick-fairest"):
            result = fair_pipeline(method, rankings, spec, index)
            assert result.method == method
            assert result.trace.final_report.satisfied
            assert result.pd_loss_fair == pd_loss(rankings, result.ranking)
            assert result.pd_loss_unaware == pd_loss(
                rankings, result.unaware_ranking
            )
            assert (
                result.price_of_fairness
                == result.pd_loss_fair - result.pd_loss_unaware
            )

    def test_satisfying_pick_needs_no_swaps(self, rng):
        table = helpers.grid_table(8, 2, 2)
        spec = FairnessSpec(delta_default=Fraction(1), intersection_attrs=ALL)
        index = spec.build_index(table)
        rankings = helpers.random_ranking_set(table, 4, rng)
        result = fair_pipeline("pick-fairest", rankings, spec, index)
        assert result.trace.iterations == 0
        assert result.ranking == result.unaware_ranking
        assert result.price_of_fairness == 0

    def test_pipeline_never_beats_exact_fair_solver(self, rng):
        table = helpers.grid_table(8, 2, 2)
        spec = FairnessSpec(delta_default=Fraction(1, 4), intersection_attrs=ALL)
        index = spec.build_index(table)
        rankings = helpers.random_ranking_set(table, 6, rng)
        pm = build_precedence_matrix(rankings, table)
        exact = fair_kemeny(pm, spec, index)
        exact_loss = pd_loss(rankings, exact.ranking)
        for method in ("borda", "copeland", "schulze", "pick-fairest"):
            result = fair_pipeline(method, rankings, spec, index)
            assert pd_loss(rankings, result.ranking) >= exact_loss


class TestEnabledEntities:
    def test_scope_filters(self):
        table = helpers.grid_table(12, 3, 2)
        full = FairnessSpec(delta_default=Fraction(1, 10), intersection_attrs=ALL)
        index = full.build_index(table)
        names = [e.name for e, _ in enabled_entities(full, index)]
        assert names == ["race", "gender", "intersection"]
        attrs_only = FairnessSpec(
            delta_default=Fraction(1, 10), intersection_attrs=None
        )
        names = [
            e.name
            for e, _ in enabled_entities(attrs_only, attrs_only.build_index(table))
        ]
        assert names == ["race", "gender"]
        inter_only = FairnessSpec(
            delta_default=Fraction(1, 10), constrain_attributes=False
        )
        names = [
            e.name
            for e, _ in enabled_entities(inter_only, inter_only.build_index(table))
        ]
        assert names == ["intersection"]

    def test_vacuous_attribute_threshold_dropped(self):
        table = helpers.grid_table(12, 3, 2)
        spec = FairnessSpec(
            delta_default=Fraction(1, 10),
            delta_attributes={"race": Fraction(1)},
            intersection_attrs=None,
        )
        index = spec.build_index(table)
        names = [e.name for e, _ in enabled_entities(spec, index)]
        assert names == ["gender"]
