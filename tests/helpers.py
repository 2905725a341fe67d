"""Shared builders for the test suite.

Everything here is deterministic given the caller's `random.Random`, so
tests can freeze seeds and stay reproducible across runs and platforms.
"""

from __future__ import annotations

import csv
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from fairconsensus import (
    CandidateTable,
    Ranking,
    RankingSet,
    SplitMix64,
)
from fairconsensus.mallows import _GAMMA, _mix64_int


def grid_table(
    n: int,
    first_values: int,
    second_values: int,
    names: tuple[str, str] = ("race", "gender"),
) -> CandidateTable:
    """Candidates laid out so every value combination appears evenly.

    With ``n`` divisible by ``first_values * second_values`` every
    intersection cell has the same size, which keeps group denominators
    uniform across cells.
    """
    ids = tuple(f"c{i:03d}" for i in range(n))
    rows = tuple(
        (f"r{i % first_values}", f"g{(i // first_values) % second_values}")
        for i in range(n)
    )
    return CandidateTable(ids, names, rows)


def sized_table(spec: Mapping[str, Sequence[int]], rng: random.Random) -> CandidateTable:
    """Table with exact per-attribute group sizes, assignment shuffled.

    ``spec`` maps attribute name to a list of group sizes; all lists must
    sum to the same n. Labels are ``<attr><group index>``.
    """
    sizes = {name: list(groups) for name, groups in spec.items()}
    totals = {name: sum(groups) for name, groups in sizes.items()}
    n = next(iter(totals.values()))
    assert all(t == n for t in totals.values()), "group sizes must sum equally"
    columns = {}
    for name, groups in sizes.items():
        labels: list[str] = []
        for gi, size in enumerate(groups):
            labels.extend([f"{name}{gi}"] * size)
        rng.shuffle(labels)
        columns[name] = labels
    names = tuple(sizes)
    ids = tuple(f"c{i}" for i in range(n))
    rows = tuple(tuple(columns[a][i] for a in names) for i in range(n))
    return CandidateTable(ids, names, rows)


def random_table(
    n: int,
    attr_values: Mapping[str, Sequence[str]],
    rng: random.Random,
) -> CandidateTable:
    """Table with uniformly random attribute values, >= 2 distinct each."""
    columns = {}
    for name, labels in attr_values.items():
        values = [rng.choice(labels) for _ in range(n)]
        while len(set(values)) < 2:
            values = [rng.choice(labels) for _ in range(n)]
        columns[name] = values
    names = tuple(attr_values)
    ids = tuple(f"c{i}" for i in range(n))
    rows = tuple(tuple(columns[a][i] for a in names) for i in range(n))
    return CandidateTable(ids, names, rows)


def random_ranking_set(
    table: CandidateTable,
    count: int,
    rng: random.Random,
    weights: Sequence[int] | None = None,
) -> RankingSet:
    """Uniformly random permutations of the table's candidates."""
    base = list(table.candidate_ids)
    rankings = []
    for _ in range(count):
        rng.shuffle(base)
        rankings.append(Ranking(tuple(base)))
    if weights is None:
        weights = [1] * count
    return RankingSet(tuple(rankings), tuple(weights))


def read_csv(path: str | Path, *, dicts: bool = False) -> list:
    """A CSV file's rows as lists, or with ``dicts`` as dicts keyed by header."""
    with open(path, newline="") as handle:
        return list((csv.DictReader if dicts else csv.reader)(handle))


def count_inversions(first: Ranking, second: Ranking) -> int:
    """Quadratic pair scan; independent reference for kendall_tau."""
    pos = {cid: i for i, cid in enumerate(second.order)}
    order = [pos[cid] for cid in first.order]
    n = len(order)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if order[i] > order[j]
    )


def copeland_wins_reference(wm: Sequence[Sequence[int]]) -> list[int]:
    """Copeland wins counted pair by pair from precedence counts ``wm``
    (``wm[a][b]`` weighs the rankings placing ``b`` above ``a``): ``b``
    scores against each other ``a`` that it beats or ties."""
    n = len(wm)
    return [
        sum(1 for a in range(n) if a != b and wm[a][b] >= wm[b][a]) for b in range(n)
    ]


def schulze_wins_reference(wm: Sequence[Sequence[int]]) -> list[int]:
    """Schulze wins from strongest paths taken over every simple path.

    A link ``a -> b`` weighs the support for ``a`` over ``b`` when it beats
    the reverse; a path is as strong as its weakest link, and ``a``'s
    strongest path to ``b`` is the strongest of all simple paths (0 when
    none has every link). Exponential in n: meant for n <= 6.
    """
    n = len(wm)

    def link(a: int, b: int) -> int:
        return wm[b][a] if wm[b][a] > wm[a][b] else 0

    strongest = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            others = [c for c in range(n) if c not in (a, b)]
            for k in range(len(others) + 1):
                for middle in permutations(others, k):
                    path = (a, *middle, b)
                    strength = min(link(x, y) for x, y in zip(path, path[1:]))
                    strongest[a][b] = max(strongest[a][b], strength)
    return [
        sum(1 for b in range(n) if strongest[a][b] > strongest[b][a]) for a in range(n)
    ]


def favored_share_reference(
    ranking: Ranking,
    members: frozenset[str],
    others: frozenset[str],
) -> Fraction:
    """Quadratic favored-pair share for one group against all outsiders."""
    favored = 0
    mixed = 0
    order = ranking.order
    for i, top in enumerate(order):
        for bottom in order[i + 1:]:
            if top in members and bottom in others:
                favored += 1
                mixed += 1
            elif top in others and bottom in members:
                mixed += 1
    return Fraction(favored, mixed) if mixed else Fraction(0)


def reference_mallows(
    modal: Sequence[int], theta: float, num_rankings: int, seed: int
) -> list[list[int]]:
    """Scalar repeated-insertion sampler; independent reference for the batch
    decode. Ranking r reads its own SplitMix64 substream, one uniform per
    insertion step, and inserts into a Python list."""
    phi = float(np.exp(-theta))
    cums = [
        np.cumsum(phi ** np.arange(i - 1, -1, -1, dtype=np.float64)).tolist()
        for i in range(2, len(modal) + 1)
    ]
    rows = []
    for r in range(num_rankings):
        gen = SplitMix64(_mix64_int(seed + _GAMMA * (r + 1)))
        current = [modal[0]]
        for step, cum in enumerate(cums):
            point = min(bisect_right(cum, gen.random() * cum[-1]), step + 1)
            current.insert(point, modal[step + 1])
        rows.append(current)
    return rows


def window_feasible_reference(
    f: Sequence[int],
    rem_cnt: Sequence[int],
    rem_size: int,
    window: int,
    total: int,
) -> bool:
    """The search's uniform-window cut as five separate tests: the window,
    the low sum at the highest floor, the high sum at the lowest ceiling,
    and the low sum again at the least window position whose ceilings meet
    the total. Kept as written before the three-test ``_window_feasible``
    replaced it, as that function's reference."""
    # shared denominator: spreads compare as raw counts. Any
    # completion must place every group's final count inside one
    # window of width `window`, and the counts must sum to the
    # entity's fixed mixed-pair total.
    k = len(f)
    his = [
        f[g] + rem_cnt[g] * (rem_size - rem_cnt[g]) for g in range(k)
    ]
    maxlo = max(f)
    minhi = min(his)
    if maxlo - minhi > window:
        return False
    t_lo = maxlo - window
    low_sum = 0
    for g in range(k):
        lg = f[g]
        low_sum += lg if lg > t_lo else t_lo
    if low_sum > total:
        return False
    top = minhi + window
    high_sum = 0
    for g in range(k):
        hg = his[g]
        high_sum += hg if hg < top else top
    if high_sum < total:
        return False
    # smallest window position whose max reachable sum meets the
    # total; the min reachable sum there must not overshoot
    his.sort()
    prefix_sum = 0
    t_b = t_lo
    for j in range(k):
        need = total - prefix_sum
        x = -(-need // (k - j))
        if x <= his[j]:
            if x - window > t_lo:
                t_b = x - window
            break
        prefix_sum += his[j]
    if t_b > t_lo:
        low_sum = 0
        for g in range(k):
            lg = f[g]
            low_sum += lg if lg > t_b else t_b
        if low_sum > total:
            return False
    return True
