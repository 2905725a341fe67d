"""Fairness scores and distances, checked against quadratic references."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairconsensus import (
    CandidateTable,
    DegenerateAttribute,
    DegenerateGroup,
    DegenerateIntersection,
    FairnessSpec,
    InconsistentCandidateSet,
    Ranking,
    RankingSet,
    arp,
    build_group_index,
    evaluate_fairness,
    fpr,
    irp,
    kendall_tau,
    pd_loss,
    price_of_fairness,
)
from fairconsensus.metrics import (
    GroupCountTracker,
    entity_spread,
    favored_pair_counts,
    spread_of,
)
from fairconsensus.model import ALL

import helpers


# every argument check in the metrics module that no other test reaches, as
# (call on the abc table, error, message)
_METRICS_ERRORS = [
    (
        lambda t: fpr(Ranking(t.candidate_ids), (), build_group_index(t)),
        DegenerateGroup,
        "group of size 0 out of 3 has no mixed pairs",
    ),
    (
        lambda t: FairnessSpec(delta_default="1.5"),
        ValueError,
        "threshold '1.5' outside [0, 1]",
    ),
    (
        lambda t: kendall_tau(Ranking(("a", "b")), Ranking(("a", "c"))),
        InconsistentCandidateSet,
        "kendall_tau needs two permutations of the same candidate set",
    ),
]


@pytest.mark.parametrize(("call", "error", "message"), _METRICS_ERRORS)
def test_argument_checks_name_the_fault(abc_table, call, error, message):
    with pytest.raises(error) as raised:
        call(abc_table)
    assert str(raised.value) == message


class TestFavoredPairShare:
    def test_hand_example(self):
        # group {a, b} vs outsiders {x, y} in ranking a, x, b, y:
        # favored mixed pairs: (a,x), (a,y), (b,y); missed: (x,b) -> 3/4
        table = helpers.random_table(4, {"t": ["g", "o"]}, random.Random(1))
        table = type(table)(
            ("a", "x", "b", "y"),
            ("t",),
            (("g",), ("o",), ("g",), ("o",)),
        )
        index = build_group_index(table, intersection_attrs=None)
        ranking = Ranking(("a", "x", "b", "y"))
        assert fpr(ranking, ("a", "b"), index) == Fraction(3, 4)
        assert fpr(ranking, ("x", "y"), index) == Fraction(1, 4)

    def test_matches_quadratic_reference(self, rng):
        for _ in range(25):
            n = rng.randint(3, 9)
            table = helpers.random_table(n, {"t": ["g", "o", "b"]}, rng)
            index = build_group_index(table, intersection_attrs=None)
            ranking = helpers.random_ranking_set(table, 1, rng).rankings[0]
            entity = index.attribute_entities[0]
            order = ranking.to_indices(table)
            counts = favored_pair_counts(order, entity.gid, len(entity.groups))
            for gi, group in enumerate(entity.groups):
                members = frozenset(table.candidate_ids[i] for i in group.members)
                others = frozenset(table.candidate_ids) - members
                expected = helpers.favored_share_reference(ranking, members, others)
                assert Fraction(counts[gi], group.mixed_pairs) == expected
                assert fpr(ranking, sorted(members), index) == expected

    def test_complementary_groups_sum_to_one(self, rng):
        # binary attribute: the two shares always add up to exactly 1
        for _ in range(10):
            table = helpers.random_table(7, {"t": ["g", "o"]}, rng)
            index = build_group_index(table, intersection_attrs=None)
            ranking = helpers.random_ranking_set(table, 1, rng).rankings[0]
            entity = index.attribute_entities[0]
            shares = []
            for group in entity.groups:
                members = sorted(table.candidate_ids[i] for i in group.members)
                shares.append(fpr(ranking, members, index))
            assert sum(shares) == 1


class TestSpreads:
    def test_arp_is_max_share_gap(self, rng):
        for _ in range(20):
            table = helpers.random_table(8, {"t": ["g", "o", "b", "w"]}, rng)
            index = build_group_index(table, intersection_attrs=None)
            ranking = helpers.random_ranking_set(table, 1, rng).rankings[0]
            entity = index.attribute_entities[0]
            shares = []
            for group in entity.groups:
                members = sorted(table.candidate_ids[i] for i in group.members)
                shares.append(fpr(ranking, members, index))
            expected = max(
                abs(a - b) for a in shares for b in shares
            )
            assert arp(ranking, "t", index) == expected == max(shares) - min(shares)

    def test_irp_over_intersection_cells(self, rng):
        table = helpers.grid_table(12, 2, 3)
        index = build_group_index(table, intersection_attrs=ALL)
        ranking = helpers.random_ranking_set(table, 1, rng).rankings[0]
        shares = []
        for cell in index.intersection.groups:
            members = frozenset(table.candidate_ids[i] for i in cell.members)
            others = frozenset(table.candidate_ids) - members
            shares.append(helpers.favored_share_reference(ranking, members, others))
        assert irp(ranking, index) == max(shares) - min(shares)

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(1, 30)), min_size=1, max_size=8
        )
    )
    def test_spread_of_is_exact_and_picks_first_extremes(self, groups):
        favored = [f for f, _ in groups]
        omegas = [w for _, w in groups]
        num, den, hi, lo = spread_of(favored, omegas)
        shares = [Fraction(f, w) for f, w in groups]
        assert Fraction(num, den) == max(shares) - min(shares)
        assert hi == shares.index(max(shares))
        assert lo == shares.index(min(shares))

    def test_mirrored_binary_order_is_parity(self):
        # g,o,o,g gives each group 2 of its 4 mixed pairs: equal shares
        table = type(helpers.grid_table(4, 2, 2))(
            ("a", "b", "c", "d"),
            ("t",),
            (("g",), ("o",), ("o",), ("g",)),
        )
        index = build_group_index(table, intersection_attrs=None)
        assert arp(Ranking(("a", "b", "c", "d")), "t", index) == 0


def _narrowing_reference(highs, lows):
    """From every (hi member, lo member below it) position pair: the lowest
    hi member that has one, paired with the nearest."""
    pairs = [(p, s) for p in highs for s in lows if p < s]
    return max(pairs, key=lambda ps: (ps[0], -ps[1]), default=None)


def _widening_reference(highs, lows):
    """The top lo member, paired with the nearest hi member beneath it."""
    below = [s for s in highs if s > min(lows)]
    return (min(lows), min(below)) if below else None


class TestGroupCountTracker:
    @given(
        n=st.integers(4, 40),
        values=st.lists(st.integers(2, 3), min_size=2, max_size=3),
        scope=st.sampled_from([ALL, None]),
        data=st.data(),
    )
    def test_matches_fresh_scans_through_random_swaps(self, n, values, scope, data):
        # a grid: candidate i holds value (i // prod(values[:k])) % values[k]
        # of attribute k
        names = tuple(f"a{k}" for k in range(len(values)))
        rows = []
        for i in range(n):
            row, stride = [], 1
            for v in values:
                row.append(f"v{(i // stride) % v}")
                stride *= v
            rows.append(tuple(row))
        table = CandidateTable(tuple(f"c{i}" for i in range(n)), names, tuple(rows))
        index = build_group_index(table, intersection_attrs=scope)
        entities = index.attribute_entities + (
            (index.intersection,) if index.intersection is not None else ()
        )
        order = list(data.draw(st.permutations(range(n))))
        tracker = GroupCountTracker(order, entities)
        assert tracker.order is order

        def check():
            for e, entity in enumerate(entities):
                gid, k = entity.gid, len(entity.groups)
                members = [[p for p in range(n) if gid[order[p]] == g] for g in range(k)]
                assert tracker.favored[e] == favored_pair_counts(order, gid, k)
                assert tracker.omegas[e] == [g.mixed_pairs for g in entity.groups]
                assert tracker.positions[e] == members
                assert tracker.spreads[e] == entity_spread(order, entity)
                for hi in range(k):
                    for lo in range(k):
                        highs, lows = members[hi], members[lo]
                        assert tracker.narrowing(e, hi, lo) == _narrowing_reference(
                            highs, lows
                        )
                        assert tracker.widening(e, hi, lo) == _widening_reference(
                            highs, lows
                        )

        check()
        for _ in range(data.draw(st.integers(0, 30))):
            p = data.draw(st.integers(0, n - 2))
            s = data.draw(st.integers(p + 1, n - 1))
            before = list(order)
            tracker.swap(p, s)
            before[p], before[s] = before[s], before[p]
            assert order == before
            check()


class TestKendallTau:
    def test_matches_inversion_count(self, rng):
        for _ in range(30):
            n = rng.randint(2, 40)
            ids = tuple(f"c{i}" for i in range(n))
            first = list(ids)
            second = list(ids)
            rng.shuffle(first)
            rng.shuffle(second)
            r1, r2 = Ranking(tuple(first)), Ranking(tuple(second))
            expected = helpers.count_inversions(r1, r2)
            assert kendall_tau(r1, r2) == expected
            assert kendall_tau(r2, r1) == expected

    def test_identity_and_reversal(self):
        ids = tuple(f"c{i}" for i in range(6))
        forward = Ranking(ids)
        backward = Ranking(ids[::-1])
        assert kendall_tau(forward, forward) == 0
        assert kendall_tau(forward, backward) == 15


def _pd_loss_reference(rankings: RankingSet, consensus: Ranking) -> Fraction:
    n = consensus.n
    distance = sum(
        w * helpers.count_inversions(consensus, r)
        for r, w in zip(rankings.rankings, rankings.weights)
    )
    return Fraction(distance, n * (n - 1) // 2 * rankings.total_weight)


class TestPdLoss:
    def test_unanimous_input_recovers_zero(self, abc_table, rng):
        ranking = Ranking(("b", "c", "a"))
        rankings = RankingSet((ranking, ranking), (3, 1))
        assert pd_loss(rankings, ranking) == 0

    def test_one_candidate_has_no_pair_to_lose(self):
        ranking = Ranking(("a",))
        rankings = RankingSet((ranking, ranking), (2, 1))
        assert pd_loss(rankings, ranking) == 0 == kendall_tau(ranking, ranking)
        with pytest.raises(InconsistentCandidateSet):
            pd_loss(rankings, Ranking(("b",)))

    def test_weighted_mean_of_normalized_distance(self, rng):
        table = helpers.random_table(6, {"t": ["g", "o"]}, rng)
        rankings = helpers.random_ranking_set(table, 4, rng, weights=[2, 1, 1, 3])
        consensus = helpers.random_ranking_set(table, 1, rng).rankings[0]
        assert pd_loss(rankings, consensus) == _pd_loss_reference(rankings, consensus)

    @given(st.data())
    def test_matches_pairwise_reference(self, data):
        n = data.draw(st.integers(2, 40), label="n")
        m = data.draw(st.integers(1, 20), label="m")
        ids = [f"c{i}" for i in range(n)]
        orders = data.draw(
            st.lists(st.permutations(ids), min_size=m + 1, max_size=m + 1),
            label="orders",
        )
        weights = data.draw(
            st.lists(st.integers(1, 10**30), min_size=m, max_size=m), label="weights"
        )
        rankings = RankingSet(
            tuple(Ranking(tuple(order)) for order in orders[1:]), tuple(weights)
        )
        consensus = Ranking(tuple(orders[0]))
        assert pd_loss(rankings, consensus) == _pd_loss_reference(rankings, consensus)

    def test_matches_pairwise_reference_at_width(self):
        rng = random.Random(300)
        table = helpers.random_table(320, {"t": ["g", "o"]}, rng)
        rankings = helpers.random_ranking_set(
            table, 6, rng, weights=[10**30, 1, 7, 2**70, 3, 10**19]
        )
        consensus = helpers.random_ranking_set(table, 1, rng).rankings[0]
        assert pd_loss(rankings, consensus) == _pd_loss_reference(rankings, consensus)

    def test_consensus_over_other_candidates_is_rejected(self, rng):
        table = helpers.random_table(5, {"t": ["g", "o"]}, rng)
        rankings = helpers.random_ranking_set(table, 3, rng)
        ids = table.candidate_ids
        for consensus in (
            Ranking(ids[:-1]),
            Ranking(ids + ("extra",)),
            Ranking(ids[:-1] + ("extra",)),
        ):
            with pytest.raises(InconsistentCandidateSet):
                pd_loss(rankings, consensus)

    def test_price_of_fairness_is_loss_gap(self, rng):
        table = helpers.random_table(5, {"t": ["g", "o"]}, rng)
        rankings = helpers.random_ranking_set(table, 5, rng)
        fair = helpers.random_ranking_set(table, 1, rng).rankings[0]
        unaware = helpers.random_ranking_set(table, 1, rng).rankings[0]
        assert price_of_fairness(rankings, fair, unaware) == pd_loss(
            rankings, fair
        ) - pd_loss(rankings, unaware)


class TestEvaluateFairness:
    def test_exact_threshold_boundary(self, rng):
        table = helpers.grid_table(8, 2, 2)
        index = build_group_index(table, intersection_attrs=ALL)
        ranking = helpers.random_ranking_set(table, 1, rng).rankings[0]
        spreads = [
            arp(ranking, "race", index),
            arp(ranking, "gender", index),
            irp(ranking, index),
        ]
        worst = max(spreads)
        at = evaluate_fairness(
            ranking, FairnessSpec(delta_default=worst, intersection_attrs=ALL), index
        )
        assert at.satisfied
        if worst > 0:
            just_below = worst - Fraction(1, 10**9)
            below = evaluate_fairness(
                ranking,
                FairnessSpec(delta_default=just_below, intersection_attrs=ALL),
                index,
            )
            assert not below.satisfied
            assert below.max_violation is not None

    def test_report_matches_direct_scores(self, rng):
        for _ in range(10):
            table = helpers.random_table(8, {"x": ["1", "2", "3"], "y": ["p", "q"]}, rng)
            index = build_group_index(table, intersection_attrs=ALL)
            ranking = helpers.random_ranking_set(table, 1, rng).rankings[0]
            report = evaluate_fairness(
                ranking, FairnessSpec(delta_default=Fraction(1)), index
            )
            for name in report.attribute_spreads:
                assert report.attribute_spreads[name] == arp(ranking, name, index)
            if report.intersection_spread is not None:
                assert report.intersection_spread == irp(ranking, index)
            for name, shares in report.attribute_shares.items():
                entity = next(
                    e for e in index.attribute_entities if e.name == name
                )
                for group in entity.groups:
                    members = sorted(table.candidate_ids[i] for i in group.members)
                    assert shares[group.label] == fpr(ranking, members, index)

    def test_per_attribute_override(self, rng):
        table = helpers.grid_table(12, 3, 2)
        index = build_group_index(table, intersection_attrs=None)
        ranking = helpers.random_ranking_set(table, 1, rng).rankings[0]
        race = arp(ranking, "race", index)
        gender = arp(ranking, "gender", index)
        spec = FairnessSpec(
            delta_default=Fraction(0),
            delta_attributes={"race": race, "gender": gender},
            intersection_attrs=None,
        )
        assert evaluate_fairness(ranking, spec, index).satisfied

    def test_intersection_override_and_scope(self, rng):
        table = helpers.grid_table(12, 3, 2)
        index = build_group_index(table, intersection_attrs=ALL)
        ranking = helpers.random_ranking_set(table, 1, rng).rankings[0]
        only_inter = FairnessSpec(
            delta_default=Fraction(0),
            delta_intersection=Fraction(1),
            constrain_attributes=False,
        )
        report = evaluate_fairness(ranking, only_inter, index)
        assert report.satisfied
        assert report.attribute_spreads == {}
        assert report.intersection_spread is not None

    def test_single_group_attribute_warns_and_skips(self):
        table = type(helpers.grid_table(4, 2, 2))(
            ("a", "b", "c"),
            ("t", "u"),
            (("g", "s"), ("o", "s"), ("g", "s")),
        )
        index = build_group_index(table, intersection_attrs=None)
        report = evaluate_fairness(
            Ranking(("a", "b", "c")), FairnessSpec(delta_default=Fraction(0)), index
        )
        assert any("u" in w for w in report.warnings)
        assert "u" not in report.attribute_spreads


class TestDegenerateScores:
    """``arp`` and ``irp`` name what has nothing to compare by its own error
    class; both classes are ``DegenerateGroup``s, so older handlers hold."""

    TABLE = CandidateTable(
        ("a", "b", "c"), ("t", "u"), (("g", "s"), ("o", "s"), ("g", "s"))
    )

    def test_error_classes_are_degenerate_groups(self):
        assert issubclass(DegenerateAttribute, DegenerateGroup)
        assert issubclass(DegenerateIntersection, DegenerateGroup)

    def test_arp_of_single_group_attribute(self):
        index = build_group_index(self.TABLE, intersection_attrs=None)
        with pytest.raises(DegenerateAttribute, match="'u' has a single"):
            arp(Ranking(("a", "b", "c")), "u", index)

    @pytest.mark.parametrize(
        "scope, message",
        [(None, "without an intersection"), (("u",), "single non-empty cell")],
    )
    def test_irp_without_two_cells(self, scope, message):
        index = build_group_index(self.TABLE, intersection_attrs=scope)
        with pytest.raises(DegenerateIntersection, match=message):
            irp(Ranking(("a", "b", "c")), index)
