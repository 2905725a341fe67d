"""Seeded generator: RNG core, dispersion sampling, scenario construction."""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairconsensus import (
    CandidateTable,
    DegenerateAttribute,
    DegenerateIntersection,
    MallowsConfig,
    Ranking,
    ScenarioTargets,
    ScenarioUnreachable,
    SplitMix64,
    arp,
    build_group_index,
    build_scenario,
    derive_seed,
    irp,
    iter_ranking_batches,
    kendall_tau,
    mixed_block_modal,
    sample_mallows,
    scenario_targets,
)
from fairconsensus.mallows import _GuideTable, _insertion_cumsum, _uniform_matrix
from fairconsensus.model import ALL

import helpers


# every argument check in the mallows module that no other test reaches,
# as (call on the abc table, error, message)
_MALLOWS_ERRORS = [
    (
        lambda t: mixed_block_modal(build_group_index(t, intersection_attrs=None), 0.5),
        DegenerateIntersection,
        "a mixed block modal needs intersection cells",
    ),
    (
        lambda t: build_scenario(
            build_group_index(t, intersection_attrs=None),
            ScenarioTargets({}, (Fraction(1, 2), Fraction(1, 10))),
            0,
        ),
        DegenerateIntersection,
        "an intersection window needs an index built with one",
    ),
]


@pytest.mark.parametrize(("call", "error", "message"), _MALLOWS_ERRORS)
def test_argument_checks_name_the_fault(abc_table, call, error, message):
    with pytest.raises(error) as raised:
        call(abc_table)
    assert str(raised.value) == message


class TestSplitMix64:
    def test_published_reference_sequence(self):
        # widely circulated test vector for this mixing function, seed 1234567
        gen = SplitMix64(1234567)
        assert [gen.next_u64() for _ in range(4)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
        ]

    def test_seed_zero_sequence(self):
        gen = SplitMix64(0)
        assert [gen.next_u64() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_random_unit_interval(self):
        gen = SplitMix64(99)
        values = [gen.random() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.4 < sum(values) / len(values) < 0.6

    def test_shuffle_is_a_permutation(self):
        gen = SplitMix64(7)
        items = list(range(20))
        gen.shuffle(items)
        assert sorted(items) == list(range(20))
        assert items != list(range(20))


class TestDeriveSeed:
    def test_deterministic_and_order_sensitive(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(1) != derive_seed(2)

    def test_substreams_do_not_collide(self):
        seen = {derive_seed(42, i, j) for i in range(20) for j in range(20)}
        assert len(seen) == 400


class TestSampling:
    def test_deterministic(self):
        modal = Ranking(tuple(f"c{i}" for i in range(8)))
        config = MallowsConfig(modal, 0.5, 50, 1234)
        assert sample_mallows(config) == sample_mallows(config)

    def test_batch_size_does_not_change_output(self):
        modal_indices = list(range(9))
        runs = []
        for batch_size in (1, 4, 4096):
            rows = np.concatenate(
                list(
                    iter_ranking_batches(
                        modal_indices, 0.7, 25, 555, batch_size=batch_size
                    )
                )
            )
            runs.append(rows)
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[0], runs[2])

    def test_rows_are_permutations_of_modal(self):
        modal = Ranking(("w", "x", "y", "z"))
        sampled = sample_mallows(MallowsConfig(modal, 0.3, 40, 9))
        assert sampled.size == 40
        for ranking in sampled.rankings:
            assert sorted(ranking.order) == sorted(modal.order)

    def test_high_dispersion_centers_on_modal(self):
        modal = Ranking(tuple(f"c{i}" for i in range(5)))
        sampled = sample_mallows(MallowsConfig(modal, 3.0, 400, 31))
        most_common = Counter(r.order for r in sampled.rankings).most_common(1)
        assert most_common[0][0] == modal.order

    def test_mean_distance_shrinks_as_theta_grows(self):
        modal = Ranking(tuple(f"c{i}" for i in range(7)))
        means = []
        for theta in (0.1, 0.5, 1.0, 2.0):
            sampled = sample_mallows(MallowsConfig(modal, theta, 300, 77))
            means.append(
                sum(kendall_tau(r, modal) for r in sampled.rankings) / 300
            )
        assert means == sorted(means, reverse=True)

    def test_zero_theta_is_near_uniform(self):
        modal = Ranking(tuple(f"c{i}" for i in range(6)))
        sampled = sample_mallows(MallowsConfig(modal, 0.0, 3000, 13))
        mean = sum(kendall_tau(r, modal) for r in sampled.rankings) / 3000
        # uniform permutations average half of the 15 candidate pairs
        assert abs(mean - 7.5) < 0.4

    def test_exact_distribution_small_case(self):
        # frequency of each 4-candidate permutation against the closed form
        modal = Ranking(("a", "b", "c", "d"))
        theta = 0.8
        sampled = sample_mallows(MallowsConfig(modal, theta, 30000, 2024))
        counts = Counter(r.order for r in sampled.rankings)
        weights = {
            perm: math.exp(-theta * kendall_tau(Ranking(perm), modal))
            for perm in permutations(modal.order)
        }
        z = sum(weights.values())
        chi2 = 0.0
        for perm, w in weights.items():
            expected = 30000 * w / z
            chi2 += (counts.get(perm, 0) - expected) ** 2 / expected
        # 23 degrees of freedom; the 0.999 quantile sits near 49.7
        assert chi2 < 49.7

    def test_config_validation(self):
        modal = Ranking(("a", "b"))
        with pytest.raises(ValueError):
            MallowsConfig(modal, -0.1, 5, 0)
        with pytest.raises(ValueError):
            MallowsConfig(modal, 0.5, 0, 0)
        with pytest.raises(ValueError):
            MallowsConfig(modal, float("nan"), 5, 0)

    def test_batch_input_guards(self):
        with pytest.raises(ValueError):
            next(iter_ranking_batches(range(3), 0.5, 5, 0, batch_size=0))
        with pytest.raises(ValueError):
            next(iter_ranking_batches(range(3), float("nan"), 5, 0))
        with pytest.raises(ValueError):
            next(iter_ranking_batches(range(3), -1.0, 5, 0))
        with pytest.raises(ValueError, match="num_rankings"):
            next(iter_ranking_batches(range(3), 0.5, -1, 0))
        assert list(iter_ranking_batches(range(3), 0.5, 0, 0)) == []


def _batch_digest(n, theta, num_rankings, seed, batch_size):
    modal = [(7 * i + 3) % n for i in range(n)]
    digest = hashlib.sha256()
    for rows in iter_ranking_batches(
        modal, theta, num_rankings, seed, batch_size=batch_size
    ):
        digest.update(rows.astype("<i8").tobytes())
    return digest.hexdigest()


class TestSamplerStreams:
    """The batch decode reproduces every ranking's own substream."""

    @pytest.mark.parametrize(
        ("shape", "expected"),
        [
            (
                (100, 0.6, 20_000, 6, 8192),
                "12971ed977c771101622317c480b95dd7b1d0036b2a8c265e1818a15f4d63285",
            ),
            (
                (1200, 1.0, 100, 5, 100),
                "50a8960b125a663c8c54c30873ed12f9fe8e3bbd806e8941f2e38f6bc23226f7",
            ),
            (
                (24, 0.0, 500, 2**64 - 1, 37),
                "7a0cfc40626fcd9c8216767d6ae7d15da8871e8abcd2864a44e3f41e0ee34ffa",
            ),
            (
                (127, 0.05, 6000, 11, 4096),
                "ea0161bb8e59e05b0b4ec2a87e0aa87e428167bdf109f89cee893776bcd79b78",
            ),
            (
                (128, 3.0, 6000, 12, 4096),
                "089a2feb7288049b67ff1361a97ebec3275bcb371ea95610f40e3e0422ab9139",
            ),
        ],
        ids=["deep", "n1200", "theta0", "n127-int8", "n128-int16"],
    )
    def test_pinned_digests(self, shape, expected):
        assert _batch_digest(*shape) == expected

    @given(
        n=st.integers(1, 30),
        theta=st.one_of(
            st.just(0.0),
            st.floats(0, 3, exclude_min=True, exclude_max=True),
            st.just(40.0),
        ),
        num_rankings=st.integers(0, 60),
        seed=st.integers(-(2**70), 2**70),
        batch_size=st.integers(1, 50),
        data=st.data(),
    )
    def test_matches_scalar_reference(
        self, n, theta, num_rankings, seed, batch_size, data
    ):
        modal = data.draw(st.permutations(range(n)))
        batches = list(
            iter_ranking_batches(modal, theta, num_rankings, seed, batch_size)
        )
        assert all(b.dtype == np.int64 and b.shape[1] == n for b in batches)
        rows = [row for b in batches for row in b.tolist()]
        assert rows == helpers.reference_mallows(modal, theta, num_rankings, seed)


def _clamped_search(cum, u):
    """The insertion slot as one binary search over the whole ``cum``."""
    return np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), len(cum) - 1)


class TestGuideTable:
    """The guide-table lookup gives each key its binary-search slot."""

    @given(
        n=st.integers(2, 160),
        theta=st.one_of(
            st.sampled_from([0.0, 1e-9, 40.0, math.inf]),
            st.floats(0, 3, exclude_min=True, exclude_max=True),
        ),
        data=st.data(),
    )
    def test_matches_binary_search(self, n, theta, data):
        # large theta underflows the small weights to 0: leading zeros and
        # ties in cum, on which "right" and "left" searches differ
        powers = float(np.exp(-theta)) ** np.arange(n, dtype=np.float64)
        cum = _insertion_cumsum(powers, data.draw(st.integers(2, n)))
        guide = _GuideTable(cum)
        size = guide.size
        assert size >= len(cum) and size & (size - 1) == 0
        edges = np.arange(size + 1) / size
        assert np.array_equal(guide.starts, _clamped_search(cum, edges))
        bucket = np.array(data.draw(st.lists(st.integers(0, size), max_size=20)))
        u = np.concatenate(
            [
                [0.0, 1.0, np.nextafter(1.0, 0.0)],
                bucket / size,  # on a bucket edge
                np.nextafter(bucket / size, -1.0).clip(0.0),  # just below one
                data.draw(st.lists(st.floats(0, 1), max_size=50)),
                next(
                    _uniform_matrix(data.draw(st.integers(0, 2**64 - 1)), 0, 2000, 1)
                )[0],
            ]
        )
        assert np.array_equal(guide.lookup(u), _clamped_search(cum, u))


class TestMixedBlockModal:
    def test_extremes(self):
        table = helpers.grid_table(8, 2, 2)
        index = build_group_index(table, intersection_attrs=ALL)
        blocked = mixed_block_modal(index, 1.0)
        cells = [
            table.values[table.index_of(cid)] for cid in blocked.order
        ]
        assert cells == sorted(cells)
        interleaved = mixed_block_modal(index, 0.0)
        assert irp(interleaved, index) < irp(blocked, index)
        assert irp(blocked, index) == 1

    def test_valid_permutation_and_determinism(self):
        table = helpers.grid_table(24, 3, 2)
        index = build_group_index(table, intersection_attrs=ALL)
        first = mixed_block_modal(index, 0.15)
        assert sorted(first.order) == sorted(table.candidate_ids)
        assert first == mixed_block_modal(index, 0.15)

    def test_mix_bounds(self):
        table = helpers.grid_table(8, 2, 2)
        index = build_group_index(table, intersection_attrs=ALL)
        with pytest.raises(ValueError):
            mixed_block_modal(index, 1.5)


class TestScenarioConstruction:
    def test_presets_reach_their_windows(self, desk_table):
        index = build_group_index(desk_table, intersection_attrs=ALL)
        windows = {
            "low-fair": (Fraction("0.70"), Fraction("1.00")),
            "medium-fair": (Fraction("0.50"), Fraction("0.75")),
            "high-fair": (Fraction("0.30"), Fraction("0.54")),
        }
        tolerance = Fraction("0.05")
        for preset, (arp_target, irp_target) in windows.items():
            targets = scenario_targets(preset, ("race", "gender"))
            modal = build_scenario(index, targets, seed=7)
            for attribute in ("race", "gender"):
                spread = arp(modal, attribute, index)
                assert abs(spread - arp_target) <= tolerance, (preset, attribute, spread)
            assert abs(irp(modal, index) - irp_target) <= tolerance

    def test_deterministic(self, desk_table):
        index = build_group_index(desk_table, intersection_attrs=ALL)
        targets = scenario_targets("medium-fair", ("race", "gender"))
        assert build_scenario(index, targets, seed=3) == build_scenario(
            index, targets, seed=3
        )

    def test_unreachable_target_raises(self):
        # favored shares move in steps of 1/4 here, so a window of width
        # 2e-6 around 0.3 contains no reachable spread
        table = helpers.grid_table(4, 2, 1)
        index = build_group_index(table, intersection_attrs=None)
        targets = ScenarioTargets(
            {"race": (Fraction("0.3"), Fraction(1, 10**6))}, None
        )
        with pytest.raises(ScenarioUnreachable):
            build_scenario(index, targets, seed=1, restarts=3)

    def test_widening_without_a_pair_restarts(self):
        # the first swap puts the singleton group x between the two y
        # members: spread 0, so hi = lo = x, and widening asks for an x
        # member beneath the only one; there is none, so every restart
        # ends there (spreads here are only 0 or 1)
        table = CandidateTable(("a", "b", "c"), ("t",), (("x",), ("y",), ("y",)))
        index = build_group_index(table, intersection_attrs=None)
        targets = ScenarioTargets({"t": (Fraction("0.5"), Fraction("0.05"))}, None)
        with pytest.raises(ScenarioUnreachable):
            build_scenario(index, targets, seed=1, restarts=3)

    @pytest.mark.parametrize("attributes", [(), ("race",)])
    def test_single_cell_intersection_raises(self, attributes):
        # no attribute, or one value shared by all: one intersection cell,
        # so there is no intersectional spread to target
        table = CandidateTable(
            ("a", "b", "c"), attributes, tuple(("r0",) * len(attributes) for _ in "abc")
        )
        index = build_group_index(table, intersection_attrs=ALL)
        targets = ScenarioTargets({}, (Fraction("0.7"), Fraction("0.05")))
        with pytest.raises(DegenerateIntersection, match="two intersection cells"):
            build_scenario(index, targets, seed=1)

    def test_single_group_attribute_target_raises(self):
        # every candidate shares one race: no race spread to target
        table = CandidateTable(
            ("a", "b", "c", "d"),
            ("race", "gender"),
            (("r0", "g0"), ("r0", "g1"), ("r0", "g0"), ("r0", "g1")),
        )
        index = build_group_index(table, intersection_attrs=ALL)
        targets = ScenarioTargets({"race": (Fraction("0.5"), Fraction("0.05"))}, None)
        with pytest.raises(DegenerateAttribute, match="'race' has a single group"):
            build_scenario(index, targets, seed=1)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            scenario_targets("mid", ("race",))

    def test_pinned_walks(self):
        # the walk itself: every output order (or the unreachable marker)
        # over both grid sizes, intersection on and off, every preset and
        # two seeds; these cells make narrowing and widening moves, widenings
        # with no legal pair (which restart) and unreachable scenarios
        outputs = []
        for n in (12, 24):
            table = helpers.grid_table(n, 3, 2)
            for scope in (ALL, None):
                index = build_group_index(table, intersection_attrs=scope)
                for preset in ("low-fair", "medium-fair", "high-fair"):
                    targets = scenario_targets(preset, ("race", "gender"))
                    if scope is None:
                        targets = ScenarioTargets(targets.arp, None)
                    for seed in (1, 7):
                        try:
                            modal = build_scenario(index, targets, seed, restarts=3)
                        except ScenarioUnreachable:
                            outputs.append("unreachable")
                        else:
                            outputs.append(modal.order)
        assert outputs.count("unreachable") == SCENARIO_UNREACHABLE_COUNT
        digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
        assert digest == SCENARIO_DIGEST


SCENARIO_UNREACHABLE_COUNT = 5
SCENARIO_DIGEST = "338cecfb8fb012653305c73e81fdf49c0fc4610f686b5971d06b3dfee1d648e3"
