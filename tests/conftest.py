"""Shared fixtures: small frozen instances reused across test modules."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from fairconsensus import Ranking, RankingSet

import helpers

# the ``pytester`` fixture runs a nested session under the repo's settings
pytest_plugins = ["pytester"]

# Property tests draw the same examples on every run, and no example is
# failed for its wall time (a first numpy call can take longer than the
# default deadline on a slow machine).
settings.register_profile("repro", deadline=None, derandomize=True)
settings.load_profile("repro")


@pytest.fixture
def abc_table():
    """Three candidates, one binary attribute splitting 2 vs 1."""
    from fairconsensus import CandidateTable

    return CandidateTable(
        ("a", "b", "c"),
        ("team",),
        (("red",), ("red",), ("blue",)),
    )


@pytest.fixture
def abc_rankings(abc_table):
    return RankingSet(
        (
            Ranking(("a", "b", "c")),
            Ranking(("b", "a", "c")),
            Ranking(("c", "a", "b")),
        ),
        (1, 1, 1),
    )


@pytest.fixture
def desk_table():
    """The 24-candidate population: 3 race values x 2 gender values, 4 per cell."""
    return helpers.grid_table(24, 3, 2)


@pytest.fixture
def rng():
    return random.Random(0xFA1C)
