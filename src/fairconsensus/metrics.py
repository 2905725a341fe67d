"""Fairness metrics and rank-distance measures, all in exact rationals.

The central quantity is the favored-pair share of a group: the fraction of
its mixed pairs (group member vs non-member) in which the member is ranked
higher. A share of 1 means the group sits entirely on top, 0 entirely at
the bottom, and 1/2 is pairwise parity. Attribute and intersection scores
are the max-min spread of those shares, and a ranking satisfies a fairness
spec when every enabled spread stays within its threshold.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from operator import mul
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateAttribute,
    DegenerateGroup,
    DegenerateIntersection,
    InconsistentCandidateSet,
)
from .model import (
    ALL,
    INTERSECTION,
    CandidateTable,
    Entity,
    GroupIndex,
    Ranking,
    RankingSet,
    build_group_index,
    mixed_pair_count,
    total_pair_count,
)

Score = Fraction


def favored_pair_counts(order: Sequence[int], gid: Sequence[int], n_groups: int) -> list[int]:
    """Favored mixed-pair count per group for a ranking given as indices.

    ``order`` lists candidate indices top-down; ``gid[c]`` is the group
    ordinal of candidate ``c``. One bottom-up pass: when a candidate is
    seen, every already-seen candidate outside its group forms a mixed pair
    it is favored in.
    """
    favored = [0] * n_groups
    seen_below = [0] * n_groups
    total_below = 0
    for pos in range(len(order) - 1, -1, -1):
        g = gid[order[pos]]
        favored[g] += total_below - seen_below[g]
        seen_below[g] += 1
        total_below += 1
    return favored


def fpr(ranking: Ranking, group: Iterable[str], index: GroupIndex) -> Score:
    """Favored-pair share of an explicit candidate-id group.

    Exact rational in [0, 1]; numerator is the count of the group's mixed
    pairs in which the group member is ranked higher.
    """
    table = index.table
    members = {table.index_of(cid) for cid in group}
    n = table.n
    if not members or len(members) == n:
        raise DegenerateGroup(
            f"group of size {len(members)} out of {n} has no mixed pairs"
        )
    order = ranking.to_indices(table)
    gid = [1 if i in members else 0 for i in range(n)]
    favored = favored_pair_counts(order, gid, 2)
    return Fraction(favored[1], mixed_pair_count(len(members), n))


def spread_of(
    favored: Sequence[int], omegas: Sequence[int]
) -> tuple[int, int, int, int]:
    """Spread of the shares ``favored[g] / omegas[g]`` in integers only.

    Returns ``(num, den, hi, lo)`` where ``num / den`` is the highest share
    minus the lowest and ``hi``/``lo`` are the first groups holding them.
    Shares compare by cross-multiplication, so no rational is ever built.
    """
    hi = lo = 0
    for g in range(1, len(favored)):
        if favored[g] * omegas[hi] > favored[hi] * omegas[g]:
            hi = g
        elif favored[g] * omegas[lo] < favored[lo] * omegas[g]:
            lo = g
    return (
        favored[hi] * omegas[lo] - favored[lo] * omegas[hi],
        omegas[hi] * omegas[lo],
        hi,
        lo,
    )


def entity_spread(order: Sequence[int], entity: Entity) -> tuple[int, int, int, int]:
    """``spread_of`` over an entity's groups for a ranking given as indices."""
    favored = favored_pair_counts(order, entity.gid, len(entity.groups))
    return spread_of(favored, [g.mixed_pairs for g in entity.groups])


def find_label(labels: bytearray, pattern: bytes, start: int) -> int:
    """First position at or after ``start`` whose label is ``pattern``, else -1.

    Each label takes ``len(pattern)`` bytes. A byte match that begins inside
    a label is not one, so the search goes on from the next label.
    """
    width = len(pattern)
    i = labels.find(pattern, start * width)
    while i % width and i > 0:
        i = labels.find(pattern, i - i % width + width)
    return i // width


def rfind_label(labels: bytearray, pattern: bytes, end: int) -> int:
    """Last position before ``end`` whose label is ``pattern``, else -1;
    labels as in ``find_label``."""
    width = len(pattern)
    i = labels.rfind(pattern, 0, end * width)
    while i % width and i > 0:
        i = labels.rfind(pattern, 0, i - i % width + width)
    return i // width


class GroupCountTracker:
    """Favored counts, spreads and group labels of some entities, kept
    current while ``order`` (candidate indices, top-down) changes by swaps:
    ``spreads[e]`` is ``spread_of(favored[e], omegas[e])``, entity ``e``'s
    spread, and ``labels[e]`` holds at position ``p`` the group of
    ``order[p]``, in 1, 2 or 4 bytes, the fewest that hold its group count;
    ``patterns[e][g]`` is group ``g``'s label, for ``find_label``."""

    __slots__ = ("order", "favored", "omegas", "labels", "patterns", "spreads", "_rows")

    def __init__(self, order: list[int], entities: Sequence[Entity]) -> None:
        self.order = order
        self.favored = [favored_pair_counts(order, e.gid, len(e.groups)) for e in entities]
        self.omegas = [[g.mixed_pairs for g in e.groups] for e in entities]
        self.spreads = list(map(spread_of, self.favored, self.omegas))
        self.labels, self.patterns, views = [], [], []
        for e in entities:
            k = len(e.groups)
            fmt, width = ("B", 1) if k <= 1 << 8 else ("H", 2) if k <= 1 << 16 else ("I", 4)
            patterns = [g.to_bytes(width, sys.byteorder) for g in range(k)]
            self.patterns.append(patterns)
            self.labels.append(bytearray(b"".join([patterns[e.gid[c]] for c in order])))
            views.append(memoryview(self.labels[-1]).cast(fmt))
        # one row per entity, so that a swap unpacks instead of indexing;
        # ``form`` names the closed form of its spread: 1 when all groups
        # share one mixed-pair count (every equal-cell grid), 2 when there
        # are also only two of them (every two-group entity, whose two
        # counts |G|(n - |G|) always agree), 0 for ``spread_of``
        forms = [
            (2 if len(w) == 2 else 1) if len(set(w)) == 1 else 0 for w in self.omegas
        ]
        gids = [e.gid for e in entities]
        self._rows = list(zip(count(), gids, self.favored, self.omegas, views, forms))

    def swap(self, p: int, s: int) -> None:
        """Swap the candidates at positions ``p < s``, updating the entities
        in which their groups differ, the only ones whose counts change.

        The demoted candidate passes below the ``s - p - 1`` candidates
        between them and the promoted one, handing one favored mixed pair
        each to the promoted candidate's group; each between-candidate's own
        group gains one pair from the demotion and loses one from the
        promotion, netting zero. The two labels trade places: two stores,
        whatever lies between. The spread is recomputed from the new
        counts. When all groups share one mixed-pair count the shares order
        as the counts: two groups take one compare of the counts, more take
        ``max``/``min`` and ``index`` for the first group holding each;
        other entities call ``spread_of``. Each returns exactly what
        ``spread_of`` does. The two-group compare is there for speed:
        ``max``/``min``/``index`` in its place made ``wide``'s benchmark
        run about 5 % slower.
        """
        order = self.order
        spreads = self.spreads
        demoted, promoted = order[p], order[s]
        span = s - p
        for e, gid, favored, omegas, labels, form in self._rows:
            gu, gv = gid[demoted], gid[promoted]
            if gu == gv:
                continue
            favored[gu] -= span
            favored[gv] += span
            labels[p] = gv
            labels[s] = gu
            if form == 2:
                w = omegas[0]
                d = favored[1] - favored[0]
                if d > 0:
                    spreads[e] = (d * w, w * w, 1, 0)
                elif d < 0:
                    spreads[e] = (-d * w, w * w, 0, 1)
                else:
                    spreads[e] = (0, w * w, 0, 0)
            elif form:
                w = omegas[0]
                top, bottom = max(favored), min(favored)
                spreads[e] = (
                    (top - bottom) * w, w * w, favored.index(top), favored.index(bottom)
                )
            else:
                spreads[e] = spread_of(favored, omegas)
        order[p], order[s] = promoted, demoted

    def narrowing(self, e: int, hi: int, lo: int) -> tuple[int, int] | None:
        """Swap positions moving entity ``e``'s group ``hi`` down past ``lo``: the
        lowest ``hi`` member with a ``lo`` member beneath it and the nearest one."""
        labels, high, low = self.labels[e], self.patterns[e][hi], self.patterns[e][lo]
        p = rfind_label(labels, high, rfind_label(labels, low, len(self.order)))
        return None if p < 0 else (p, find_label(labels, low, p + 1))

    def widening(self, e: int, hi: int, lo: int) -> tuple[int, int] | None:
        """Swap positions moving entity ``e``'s group ``lo`` down past ``hi``:
        the top ``lo`` member and the nearest ``hi`` member beneath it."""
        labels = self.labels[e]
        top = find_label(labels, self.patterns[e][lo], 0)
        s = find_label(labels, self.patterns[e][hi], top + 1)
        return None if s < 0 else (top, s)


def arp(ranking: Ranking, attribute: str, index: GroupIndex) -> Score:
    """Attribute score: max pairwise gap between the attribute's group shares."""
    entity = index.attribute(attribute)
    if len(entity.groups) < 2:
        raise DegenerateAttribute(
            f"attribute {attribute!r} has a single non-empty group"
        )
    num, den, _, _ = entity_spread(ranking.to_indices(index.table), entity)
    return Fraction(num, den)


def irp(ranking: Ranking, index: GroupIndex) -> Score:
    """Intersection score: max pairwise gap between intersection-cell shares."""
    entity = index.intersection
    if entity is None:
        raise DegenerateIntersection(
            "this group index was built without an intersection"
        )
    if len(entity.groups) < 2:
        raise DegenerateIntersection("the intersection has a single non-empty cell")
    num, den, _, _ = entity_spread(ranking.to_indices(index.table), entity)
    return Fraction(num, den)


def _parse_threshold(value: Fraction | str | int) -> Fraction:
    """Thresholds come from decimal strings so comparisons stay exact."""
    delta = Fraction(value)
    if not 0 <= delta <= 1:
        raise ValueError(f"threshold {value!r} outside [0, 1]")
    return delta


@dataclass(frozen=True)
class FairnessSpec:
    """Thresholds and scope for fairness evaluation.

    ``delta_default`` applies wherever no per-attribute or intersection
    override is given. ``intersection_attrs`` selects which attributes form
    the intersection (``ALL``, a subset, or ``None`` to disable it);
    ``constrain_attributes`` disables the per-attribute scores when False.
    """

    delta_default: Fraction = Fraction(0)
    delta_attributes: Mapping[str, Fraction] = field(default_factory=dict)
    delta_intersection: Fraction | None = None
    intersection_attrs: tuple[str, ...] | str | None = ALL
    constrain_attributes: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta_default", _parse_threshold(self.delta_default))
        object.__setattr__(
            self,
            "delta_attributes",
            {a: _parse_threshold(d) for a, d in dict(self.delta_attributes).items()},
        )
        if self.delta_intersection is not None:
            object.__setattr__(
                self, "delta_intersection", _parse_threshold(self.delta_intersection)
            )
        if self.intersection_attrs not in (None, ALL):
            object.__setattr__(self, "intersection_attrs", tuple(self.intersection_attrs))

    def delta_for(self, entity_name: str) -> Fraction:
        if entity_name == INTERSECTION:
            if self.delta_intersection is not None:
                return self.delta_intersection
            return self.delta_default
        return self.delta_attributes.get(entity_name, self.delta_default)

    def build_index(self, table: CandidateTable) -> GroupIndex:
        return build_group_index(table, self.intersection_attrs)

    def entities(self, index: GroupIndex) -> tuple[Entity, ...]:
        """Entities this spec scores: the attributes in declared order unless
        ``constrain_attributes`` is off, then the intersection if both the
        spec and ``index`` have one."""
        chosen = index.attribute_entities if self.constrain_attributes else ()
        if index.intersection is not None and self.intersection_attrs is not None:
            chosen += (index.intersection,)
        return chosen


@dataclass(frozen=True)
class FairnessReport:
    """Per-group shares, per-entity spreads, and the overall verdict.

    ``max_violation`` names the entity whose spread exceeds its threshold
    by the largest margin, with that spread; ``None`` when satisfied.
    Entities that cannot be scored (a single non-empty group) are skipped
    and listed in ``warnings``.
    """

    attribute_shares: dict[str, dict[str, Score]]
    attribute_spreads: dict[str, Score]
    intersection_shares: dict[tuple[str, ...], Score]
    intersection_spread: Score | None
    satisfied: bool
    max_violation: tuple[str, Score] | None
    warnings: tuple[str, ...]


def evaluate_fairness(
    ranking: Ranking, spec: FairnessSpec, index: GroupIndex
) -> FairnessReport:
    """Score a ranking against a fairness spec.

    Evaluates every enabled attribute and, if the index carries one, the
    intersection. The ranking satisfies the spec when each evaluated spread
    is at most its threshold (exact rational comparison, no tolerance).
    """
    order = ranking.to_indices(index.table)
    attribute_shares: dict[str, dict[str, Score]] = {}
    attribute_spreads: dict[str, Score] = {}
    intersection_shares: dict[tuple[str, ...], Score] = {}
    intersection_spread: Score | None = None
    warnings: list[str] = []
    worst: tuple[str, Score] | None = None
    worst_excess: Fraction | None = None
    satisfied = True

    for entity in spec.entities(index):
        if len(entity.groups) < 2:
            warnings.append(
                f"{entity.name}: single non-empty group, score skipped"
            )
            continue
        favored = favored_pair_counts(order, entity.gid, len(entity.groups))
        omegas = [g.mixed_pairs for g in entity.groups]
        num, den, _, _ = spread_of(favored, omegas)
        spread = Fraction(num, den)
        shares = {
            g.label: Fraction(f, w) for g, f, w in zip(entity.groups, favored, omegas)
        }
        if entity.is_intersection:
            intersection_shares.update(shares)
            intersection_spread = spread
        else:
            attribute_shares[entity.name] = shares
            attribute_spreads[entity.name] = spread
        excess = spread - spec.delta_for(entity.name)
        if excess > 0:
            satisfied = False
            if worst_excess is None or excess > worst_excess:
                worst_excess = excess
                worst = (entity.name, spread)

    return FairnessReport(
        attribute_shares,
        attribute_spreads,
        intersection_shares,
        intersection_spread,
        satisfied,
        worst,
        tuple(warnings),
    )


def _count_inversions(seq: list[int]) -> int:
    """Merge-count of inversions, O(n log n)."""
    n = len(seq)
    if n < 2:
        return 0
    buf = list(seq)
    tmp = [0] * n
    inversions = 0
    width = 1
    while width < n:
        for start in range(0, n - width, 2 * width):
            mid = start + width
            end = min(start + 2 * width, n)
            i, j, k = start, mid, start
            while i < mid and j < end:
                if buf[i] <= buf[j]:
                    tmp[k] = buf[i]
                    i += 1
                else:
                    tmp[k] = buf[j]
                    inversions += mid - i
                    j += 1
                k += 1
            tmp[k:end] = buf[i:mid] if i < mid else buf[j:end]
            buf[start:end] = tmp[start:end]
        width *= 2
    return inversions


def kendall_tau(first: Ranking, second: Ranking) -> int:
    """Number of candidate pairs the two rankings order differently."""
    if frozenset(first.order) != frozenset(second.order) or first.n != second.n:
        raise InconsistentCandidateSet(
            "kendall_tau needs two permutations of the same candidate set"
        )
    pos = {cid: i for i, cid in enumerate(second.order)}
    return _count_inversions([pos[cid] for cid in first.order])


def pd_loss(rankings: RankingSet, consensus: Ranking) -> Score:
    """Average normalized pairwise disagreement of a consensus ranking.

    Exact rational in [0, 1]: the (weighted) mean Kendall tau distance to
    the base rankings, divided by the total pair count.

    All m base rankings are scored in one numpy pass over the set's
    positions taken in consensus order: row r holds where ranking r places
    the consensus's first, second, ... candidate, so a row's inversions are
    its Kendall distance, counted one column at a time. Memory stays
    O(m * n). The per-row counts are exact integers and the weighted sum is
    taken in Python ints, so unbounded weights never overflow. A consensus
    over other candidates raises ``InconsistentCandidateSet``. With fewer
    than two candidates no pair can disagree, and the loss is 0.
    """
    positions = rankings.positions(consensus.order)
    n = rankings.n
    if n < 2:
        return Fraction(0)
    inversions = np.zeros(rankings.size, dtype=np.int64)
    for k in range(n - 1):
        inversions += (positions[:, k, None] > positions[:, k + 1 :]).sum(axis=1)
    distance = sum(map(mul, rankings.weights, inversions.tolist()))
    return Fraction(distance, total_pair_count(n) * rankings.total_weight)


def price_of_fairness(
    rankings: RankingSet, fair: Ranking, unaware: Ranking
) -> Score:
    """Loss increase paid for fairness: pd_loss(fair) - pd_loss(unaware)."""
    return pd_loss(rankings, fair) - pd_loss(rankings, unaware)
