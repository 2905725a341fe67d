"""Core data model: candidates, protected groups, rankings, pairwise counts.

Everything downstream (metrics, solvers, repair) works on the structures
defined here. All types are immutable after construction and every derived
ordering is deterministic: candidates keep the order of the candidate table,
group values sort ascending, and intersection cells sort by their value
tuples.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import InconsistentCandidateSet, UnknownAttribute

#: Sentinel: build the intersection over every declared attribute.
ALL = "all"

#: Entity name used for the intersection of protected attributes.
INTERSECTION = "intersection"


def total_pair_count(n: int) -> int:
    """Number of unordered candidate pairs among ``n`` candidates."""
    if n < 0:
        raise ValueError(f"candidate count must be non-negative, got {n}")
    return n * (n - 1) // 2


def mixed_pair_count(group_size: int, n: int) -> int:
    """Number of pairs joining a group member with a non-member."""
    if not 0 <= group_size <= n:
        raise ValueError(f"group size {group_size} outside [0, {n}]")
    return group_size * (n - group_size)


def total_mixed_pair_count(group_sizes: Iterable[int], n: int) -> int:
    """Number of pairs whose endpoints lie in different groups.

    ``group_sizes`` must partition the ``n`` candidates: the result is the
    total pair count minus the pairs internal to each group.
    """
    sizes = list(group_sizes)
    if sum(sizes) != n:
        raise ValueError(f"group sizes {sizes} do not partition {n} candidates")
    return total_pair_count(n) - sum(total_pair_count(s) for s in sizes)


@dataclass(frozen=True)
class CandidateTable:
    """Candidates with their categorical protected-attribute values.

    ``values[i][k]`` is the value of attribute ``attributes[k]`` for
    candidate ``candidate_ids[i]``. Declared order is preserved and acts as
    the universal tie-break order everywhere in the package.
    """

    candidate_ids: tuple[str, ...]
    attributes: tuple[str, ...]
    values: tuple[tuple[str, ...], ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.candidate_ids) < 2:
            raise ValueError("a candidate table needs at least two candidates")
        if len(self.values) != len(self.candidate_ids):
            raise ValueError("one value row per candidate is required")
        for cid, row in zip(self.candidate_ids, self.values):
            if not cid:
                raise ValueError("candidate ids must be non-empty")
            if len(row) != len(self.attributes):
                raise ValueError(
                    f"candidate {cid!r} has {len(row)} values for "
                    f"{len(self.attributes)} attributes"
                )
        index = {cid: i for i, cid in enumerate(self.candidate_ids)}
        if len(index) != len(self.candidate_ids):
            raise ValueError("candidate ids must be unique")
        object.__setattr__(self, "_index", index)

    @property
    def n(self) -> int:
        return len(self.candidate_ids)

    def index_of(self, candidate_id: str) -> int:
        try:
            return self._index[candidate_id]
        except KeyError:
            raise InconsistentCandidateSet(
                f"unknown candidate id {candidate_id!r}"
            ) from None

    def attribute_index(self, attribute: str) -> int:
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise UnknownAttribute(
                f"attribute {attribute!r} is not declared "
                f"(declared: {list(self.attributes)})"
            ) from None


@dataclass(frozen=True)
class Ranking:
    """A total order over candidates; ``order[0]`` is the top rank."""

    order: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.order)) != len(self.order):
            raise InconsistentCandidateSet("ranking repeats a candidate id")

    @property
    def n(self) -> int:
        return len(self.order)

    def positions(self) -> dict[str, int]:
        """Candidate id to 0-based rank position (0 = top)."""
        return {cid: pos for pos, cid in enumerate(self.order)}

    def to_indices(self, table: CandidateTable) -> list[int]:
        """Ranking as table indices; errors if not a permutation of the table."""
        if len(self.order) != table.n:
            raise InconsistentCandidateSet(
                f"ranking has {len(self.order)} candidates, table has {table.n}"
            )
        return [table.index_of(cid) for cid in self.order]


def ranking_from_indices(indices: Sequence[int], table: CandidateTable) -> Ranking:
    return Ranking(tuple(table.candidate_ids[i] for i in indices))


@dataclass(frozen=True)
class RankingSet:
    """Base rankings over one shared candidate set, with optional weights.

    Weights default to 1 and only express multiplicity; a set carrying the
    weight vector (2, 1) is equivalent to listing the first ranking twice.
    Each weight must be an integer >= 1 (``bool`` excluded) and is stored as
    a Python int, so numpy ints convert and sums of weights stay exact.

    ``positions`` reads the set as integers, the one decode behind the
    precedence matrix, Borda and ``pd_loss``: an m x n ``int32`` array of
    every candidate's position in every ranking, built on first use and
    kept (it takes no part in equality or hashing).
    """

    rankings: tuple[Ranking, ...]
    weights: tuple[int, ...] = ()
    _positions: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.rankings:
            raise InconsistentCandidateSet("a ranking set cannot be empty")
        weights = self.weights or (1,) * len(self.rankings)
        if len(weights) != len(self.rankings):
            raise ValueError("one weight per ranking is required")
        try:
            ints = tuple(operator.index(w) for w in weights if not isinstance(w, bool))
        except TypeError:
            ints = ()
        # a bool or non-integer weight leaves ``ints`` short
        if len(ints) != len(weights) or min(ints) < 1:
            raise ValueError("weights must be positive integers")
        object.__setattr__(self, "weights", ints)
        base = frozenset(self.rankings[0].order)
        for i, ranking in enumerate(self.rankings):
            if frozenset(ranking.order) != base or ranking.n != len(base):
                raise InconsistentCandidateSet(
                    f"ranking {i} is not a permutation of the shared candidate set"
                )

    @property
    def size(self) -> int:
        return len(self.rankings)

    @property
    def n(self) -> int:
        return self.rankings[0].n

    @property
    def total_weight(self) -> int:
        return sum(self.weights)

    def positions(self, ids: Sequence[str]) -> np.ndarray:
        """m x n ``int32`` array whose entry [r, j] is ranking r's 0-based
        position of candidate ``ids[j]``.

        ``ids`` lists each of the set's candidates once, in any order; a
        wrong count, an unknown id or a repeated id raises
        ``InconsistentCandidateSet``.
        """
        column = self.rankings[0].positions()
        wanted = [column.get(cid) for cid in ids]
        if len(wanted) != len(column) or set(wanted) != set(column.values()):
            raise InconsistentCandidateSet("ids do not list the ranking set's candidates")
        if self._positions is None:
            slots = [[column[cid] for cid in r.order] for r in self.rankings]
            decoded = np.argsort(np.array(slots, dtype=np.int32), axis=1).astype(np.int32)
            object.__setattr__(self, "_positions", decoded)
        return self._positions[:, wanted]


@dataclass(frozen=True)
class Group:
    """One protected group: a value (or value tuple) and its members."""

    label: str | tuple[str, ...]
    members: tuple[int, ...]
    mixed_pairs: int  # |G| * (n - |G|)

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Entity:
    """One unit of fairness evaluation: an attribute or the intersection.

    ``gid[i]`` is the ordinal of the group candidate ``i`` belongs to;
    groups are sorted ascending by label so ordinals are deterministic.
    """

    name: str
    groups: tuple[Group, ...]
    gid: tuple[int, ...]

    @property
    def is_intersection(self) -> bool:
        return self.name == INTERSECTION


def _build_entity(name: str, labels: Sequence[str | tuple[str, ...]], n: int) -> Entity:
    by_label: dict[str | tuple[str, ...], list[int]] = {}
    for i, label in enumerate(labels):
        by_label.setdefault(label, []).append(i)
    ordered = sorted(by_label)
    gid = [0] * n
    groups = []
    for ordinal, label in enumerate(ordered):
        members = by_label[label]
        for i in members:
            gid[i] = ordinal
        groups.append(Group(label, tuple(members), mixed_pair_count(len(members), n)))
    return Entity(name, tuple(groups), tuple(gid))


@dataclass(frozen=True)
class GroupIndex:
    """Derived group structure for a candidate table.

    Holds one entity per declared attribute plus, when configured, one
    intersection entity whose groups are the observed value combinations of
    the intersection attributes.
    """

    table: CandidateTable
    intersection_attrs: tuple[str, ...] | None
    attribute_entities: tuple[Entity, ...]
    intersection: Entity | None

    def attribute(self, name: str) -> Entity:
        for entity in self.attribute_entities:
            if entity.name == name:
                return entity
        raise UnknownAttribute(
            f"attribute {name!r} is not declared "
            f"(declared: [{', '.join(e.name for e in self.attribute_entities)}])"
        )


def build_group_index(
    table: CandidateTable,
    intersection_attrs: Iterable[str] | str | None = ALL,
) -> GroupIndex:
    """Derive attribute groups and intersection cells from a table.

    ``intersection_attrs`` may be ``ALL`` (every declared attribute), an
    attribute subset, or ``None`` to skip intersection groups entirely. A
    subset is normalized to declared attribute order.
    """
    n = table.n
    attribute_entities = tuple(
        _build_entity(attr, [row[k] for row in table.values], n)
        for k, attr in enumerate(table.attributes)
    )

    inter_attrs: tuple[str, ...] | None
    if intersection_attrs is None:
        inter_attrs = None
    elif intersection_attrs == ALL:
        inter_attrs = table.attributes
    else:
        wanted = list(intersection_attrs)
        for name in wanted:
            table.attribute_index(name)
        if not wanted:
            raise UnknownAttribute("intersection attribute subset cannot be empty")
        inter_attrs = tuple(a for a in table.attributes if a in wanted)

    intersection = None
    if inter_attrs is not None:
        cols = [table.attribute_index(a) for a in inter_attrs]
        labels = [tuple(row[k] for k in cols) for row in table.values]
        intersection = _build_entity(INTERSECTION, labels, n)

    return GroupIndex(table, inter_attrs, attribute_entities, intersection)


@dataclass(frozen=True)
class PrecedenceMatrix:
    """Weighted pairwise-precedence counts over the table's candidate order.

    ``matrix[a][b]`` counts (with weights) the base rankings in which
    candidate ``b`` precedes candidate ``a``; it is the disagreement cost of
    placing ``a`` above ``b`` in a consensus ranking. For distinct ``a, b``,
    ``matrix[a][b] + matrix[b][a]`` equals the total weight.
    """

    ids: tuple[str, ...]
    matrix: np.ndarray
    total_weight: int

    @property
    def n(self) -> int:
        return len(self.ids)

    def cost_lists(self) -> list[list[int]]:
        """Matrix as plain nested lists of Python ints (for hot loops)."""
        return self.matrix.tolist()


def build_precedence_matrix(rankings: RankingSet, table: CandidateTable) -> PrecedenceMatrix:
    """Accumulate the weighted precedence matrix in table candidate order.

    Row ``a`` is one weighted sum over the rankings' positions: the weights
    times, per ranking, which candidates it places above ``a``. The matrix
    is int64 when the total weight fits, else an object array of Python
    ints, so any weight stays exact.
    """
    pos = rankings.positions(table.candidate_ids)
    exact = np.int64 if rankings.total_weight <= np.iinfo(np.int64).max else object
    weights = np.array(rankings.weights, dtype=exact)
    matrix = np.stack([weights @ (pos < pos[:, a, None]) for a in range(table.n)])
    return PrecedenceMatrix(table.candidate_ids, matrix, rankings.total_weight)
