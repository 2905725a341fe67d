"""Data-model invariants: tables, rankings, groups, precedence counts."""

from __future__ import annotations

import random

import numpy as np
import pytest

from fairconsensus import (
    CandidateTable,
    InconsistentCandidateSet,
    Ranking,
    RankingSet,
    UnknownAttribute,
    borda,
    build_group_index,
    build_precedence_matrix,
)
from fairconsensus.model import (
    ALL,
    mixed_pair_count,
    ranking_from_indices,
    total_mixed_pair_count,
    total_pair_count,
)

import helpers


class TestCandidateTable:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            CandidateTable(("a", "a"), ("x",), (("1",), ("2",)))

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            CandidateTable(("a", "b"), ("x", "y"), (("1",), ("2", "3")))

    def test_rejects_single_candidate(self):
        with pytest.raises(ValueError):
            CandidateTable(("a",), ("x",), (("1",),))

    def test_unknown_attribute(self, abc_table):
        with pytest.raises(UnknownAttribute):
            abc_table.attribute_index("nope")

    def test_index_round_trip(self, abc_table):
        for i, cid in enumerate(abc_table.candidate_ids):
            assert abc_table.index_of(cid) == i
        with pytest.raises(InconsistentCandidateSet):
            abc_table.index_of("zz")


class TestRanking:
    def test_rejects_repeats(self):
        with pytest.raises(InconsistentCandidateSet):
            Ranking(("a", "a", "b"))

    def test_to_indices_and_back(self, abc_table):
        ranking = Ranking(("c", "a", "b"))
        indices = ranking.to_indices(abc_table)
        assert indices == [2, 0, 1]
        assert ranking_from_indices(indices, abc_table) == ranking

    def test_to_indices_requires_full_permutation(self, abc_table):
        with pytest.raises(InconsistentCandidateSet):
            Ranking(("a", "b")).to_indices(abc_table)
        with pytest.raises(InconsistentCandidateSet):
            Ranking(("a", "b", "z")).to_indices(abc_table)


class TestRankingSet:
    def test_default_weights(self):
        rs = RankingSet((Ranking(("a", "b")), Ranking(("b", "a"))))
        assert rs.weights == (1, 1)
        assert rs.total_weight == 2

    def test_rejects_mismatched_candidates(self):
        with pytest.raises(InconsistentCandidateSet):
            RankingSet((Ranking(("a", "b")), Ranking(("a", "c"))))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            RankingSet((Ranking(("a", "b")),), (0,))

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, "2", None])
    def test_rejects_non_integer_weights(self, bad):
        rankings = (Ranking(("a", "b")), Ranking(("b", "a")))
        with pytest.raises(ValueError, match="weights"):
            RankingSet(rankings, (bad, 1))

    def test_numpy_int_weights_become_python_ints(self):
        # stored as Python ints, the total and the object-dtype matrix
        # built past int64 stay exact
        rankings = RankingSet(
            (Ranking(("a", "b")), Ranking(("b", "a"))),
            (np.int64(2**62), np.int64(2**62 + 1)),
        )
        assert rankings.weights == (2**62, 2**62 + 1)
        assert all(type(w) is int for w in rankings.weights)
        assert rankings.total_weight == 2**63 + 1
        table = CandidateTable(("a", "b"), ("x",), (("1",), ("2",)))
        assert build_precedence_matrix(rankings, table).cost_lists() == [
            [0, 2**62 + 1],
            [2**62, 0],
        ]

    @pytest.mark.parametrize(
        "ids",
        [("a", "a", "b"), ("a", "b"), ("a", "b", "c", "a"), ("a", "b", "z")],
    )
    def test_positions_refuse_ids_not_listing_each_candidate_once(self, ids):
        rankings = RankingSet((Ranking(("a", "b", "c")), Ranking(("c", "a", "b"))))
        with pytest.raises(InconsistentCandidateSet):
            rankings.positions(ids)
        assert rankings.positions(("c", "a", "b")).tolist() == [[2, 0, 1], [0, 1, 2]]

    def test_decode_leaves_equality_and_hash_alone(self, abc_table):
        orders = (("a", "b", "c"), ("c", "a", "b"))
        used = RankingSet(tuple(map(Ranking, orders)), (2, 1))
        fresh = RankingSet(tuple(map(Ranking, orders)), (2, 1))
        before = hash(used)
        build_precedence_matrix(used, abc_table)
        assert used == fresh and hash(used) == before == hash(fresh)
        assert repr(used) == repr(fresh)


class TestPairCounts:
    def test_mixed_pair_count_matches_enumeration(self):
        for n in range(2, 9):
            for size in range(0, n + 1):
                members = set(range(size))
                expected = sum(
                    1
                    for a in range(n)
                    for b in range(a + 1, n)
                    if (a in members) != (b in members)
                )
                assert mixed_pair_count(size, n) == expected

    def test_total_pair_count(self):
        assert total_pair_count(5) == 10
        assert total_pair_count(2) == 1

    def test_total_mixed_pairs_is_cross_group_sum(self):
        sizes = [3, 2, 4]
        n = sum(sizes)
        cross = sum(
            sizes[i] * sizes[j]
            for i in range(len(sizes))
            for j in range(i + 1, len(sizes))
        )
        assert total_mixed_pair_count(sizes, n) == cross


class TestGroupIndex:
    def test_groups_partition_candidates(self, desk_table):
        index = build_group_index(desk_table, intersection_attrs=ALL)
        for entity in index.attribute_entities:
            seen = sorted(i for g in entity.groups for i in g.members)
            assert seen == list(range(desk_table.n))
            assert all(entity.gid[i] == gi for gi, g in enumerate(entity.groups) for i in g.members)
        inter = index.intersection
        assert inter is not None
        assert len(inter.groups) == 6
        assert sorted(i for g in inter.groups for i in g.members) == list(range(24))

    def test_mixed_pairs_use_group_size(self, desk_table):
        index = build_group_index(desk_table, intersection_attrs=ALL)
        for entity in [*index.attribute_entities, index.intersection]:
            for group in entity.groups:
                assert group.mixed_pairs == len(group.members) * (
                    desk_table.n - len(group.members)
                )

    def test_intersection_subset_normalized_to_declared_order(self, desk_table):
        index = build_group_index(desk_table, intersection_attrs=("gender", "race"))
        assert index.intersection_attrs == ("race", "gender")

    def test_intersection_none(self, desk_table):
        index = build_group_index(desk_table, intersection_attrs=None)
        assert index.intersection is None

    def test_unknown_intersection_attribute(self, desk_table):
        with pytest.raises(UnknownAttribute):
            build_group_index(desk_table, intersection_attrs=("race", "zz"))


class TestPrecedenceMatrix:
    def test_counts_pair_order_with_weights(self, abc_table):
        rankings = RankingSet(
            (Ranking(("a", "b", "c")), Ranking(("c", "b", "a"))),
            (2, 3),
        )
        pm = build_precedence_matrix(rankings, abc_table)
        a, b, c = 0, 1, 2
        # entry [x][y] charges the rankings that put y before x
        assert pm.matrix[b][a] == 2
        assert pm.matrix[a][b] == 3
        assert pm.matrix[c][a] == 2
        assert pm.matrix[a][c] == 3
        assert pm.total_weight == 5

    def test_complementary_pairs(self, rng):
        table = helpers.random_table(6, {"x": ["p", "q", "r"]}, rng)
        rankings = helpers.random_ranking_set(table, 5, rng, weights=[1, 2, 1, 3, 1])
        pm = build_precedence_matrix(rankings, table)
        for a in range(table.n):
            assert pm.matrix[a][a] == 0
            for b in range(a + 1, table.n):
                assert pm.matrix[a][b] + pm.matrix[b][a] == rankings.total_weight

    def test_rejects_foreign_rankings(self, abc_table):
        rankings = RankingSet((Ranking(("a", "b", "z")),))
        with pytest.raises(InconsistentCandidateSet):
            build_precedence_matrix(rankings, abc_table)
        with pytest.raises(InconsistentCandidateSet):
            borda(rankings, abc_table)

    def test_matches_pairwise_reference(self, rng):
        """Every entry equals a per-pair count, on sets whose first ranking
        orders the candidates unlike the table, in int64 and past it."""
        for trial in range(12):
            table = helpers.random_table(rng.randint(2, 9), {"t": ["g", "o"]}, rng)
            rankings = helpers.random_ranking_set(table, rng.randint(1, 6), rng)
            while rankings.rankings[0].order == table.candidate_ids:
                rankings = helpers.random_ranking_set(table, rankings.size, rng)
            weights = tuple(rng.choice((1, 2, 7, 10**20)) for _ in range(rankings.size))
            rankings = RankingSet(rankings.rankings, weights)
            pm = build_precedence_matrix(rankings, table)
            ids = table.candidate_ids
            for a in range(table.n):
                for b in range(table.n):
                    expected = sum(
                        w
                        for r, w in zip(rankings.rankings, weights)
                        if r.order.index(ids[b]) < r.order.index(ids[a])
                    )
                    assert pm.matrix[a][b] == expected
            fits = rankings.total_weight <= np.iinfo(np.int64).max
            assert pm.matrix.dtype == (np.int64 if fits else object)
