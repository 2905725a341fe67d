"""Consensus ranking methods over a precedence matrix or ranking set.

Polynomial methods (positional points, pairwise wins, strongest paths) sit
next to an exact Kemeny solver realized as a depth-first branch-and-bound
over ranking prefixes. The same search engine optionally enforces fairness
constraints; the fair front-end lives in the fair-consensus module. Under
constraints the search carries interned group-count states down the
prefix: the feasibility cut reads only a state's counts, so it runs once
per distinct state, and each state memoizes where placing a candidate of
each group signature leads.

Determinism rules used throughout: candidates tie-break by ascending table
index, children expand in ascending incremental-cost order, and the first
strictly better leaf becomes the new incumbent.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InstanceTooLarge, ParseError
from .metrics import FairnessSpec, entity_spread
from .model import (
    Entity,
    GroupIndex,
    PrecedenceMatrix,
    Ranking,
    RankingSet,
    build_precedence_matrix,
    ranking_from_indices,
    total_mixed_pair_count,
)

#: Environment variable holding the default solver time budget in ms.
BUDGET_ENV_VAR = "FAIRCONSENSUS_BUDGET_MS"

#: Largest instance the exact solvers accept by default.
DEFAULT_MAX_EXACT_N = 25

_DOMINANCE_CAP = 2_000_000  # max memoized prefix states
# max interned group-count states per search. A dominance entry takes about
# 120 bytes and a state at most about 3.2 kB (25 candidates in 35 groups), so
# a full state table stays under a full dominance table's ~230 MB.
_COUNT_STATE_CAP = 50_000


@dataclass(frozen=True)
class KemenySolution:
    """Result of an exact (possibly budget-bounded) Kemeny solve."""

    ranking: Ranking
    objective: int
    optimal: bool
    nodes_explored: int


def resolve_budget_ms(time_budget_ms: int | None) -> int | None:
    """Explicit budget wins; otherwise the environment default, else none.

    The one reader of ``FAIRCONSENSUS_BUDGET_MS``: a value that is not an
    integer >= 0 raises ``ParseError`` naming the variable.
    """
    if time_budget_ms is not None:
        return time_budget_ms
    raw = os.environ.get(BUDGET_ENV_VAR)
    if not raw:
        return None
    try:
        budget = int(raw)
    except ValueError:
        budget = -1
    if budget < 0:
        raise ParseError(f"{BUDGET_ENV_VAR} must be an integer >= 0, got {raw!r}")
    return budget


def ranking_objective(wm: Sequence[Sequence[int]], order: Sequence[int]) -> int:
    """Total weighted disagreement of an order given as candidate indices."""
    total = 0
    for i, a in enumerate(order):
        row = wm[a]
        for b in order[i + 1 :]:
            total += row[b]
    return total


def _by_points(points: Sequence) -> list[int]:
    """Candidate indices, most points (ints or tuples) first; ties keep table order."""
    return sorted(range(len(points)), key=points.__getitem__, reverse=True)


def _borda_points(wm: Sequence[Sequence[int]]) -> list[int]:
    """Positional points, the precedence matrix's column sums: column ``b``
    counts the (weighted) rankings placing ``b`` above each other candidate."""
    return [sum(column) for column in zip(*wm)]


def _borda_order(wm: Sequence[Sequence[int]]) -> list[int]:
    return _by_points(_borda_points(wm))


def _add_row_points(points: list[int], rows: np.ndarray, weight: int = 1) -> list[int]:
    """``points`` plus the positional points of rows of table indices.

    Row ``r`` ranks ``rows[r, k]`` k-th, worth ``n - 1 - k`` points times
    ``weight``. The rows' totals count in int64 and the weight multiplies
    in Python ints, so any weight stays exact.
    """
    m, n = rows.shape
    earned = np.zeros(n, dtype=np.int64)
    np.add.at(earned, rows.ravel(), np.tile(np.arange(n - 1, -1, -1), m))
    return [p + weight * e for p, e in zip(points, earned.tolist())]


class _SearchAborted(Exception):
    pass


class _CountState:
    """Group counts after a prefix, interned, with its memoized successors.

    ``counts`` lists every constraint's groups' favored mixed pairs so far,
    then, in the same group order, each group's members not yet placed.
    Slot ``s`` of ``next`` answers "place a candidate of group signature
    ``s`` next": ``None`` until asked, ``False`` when the feasibility cut
    fires, else the child state.
    """

    __slots__ = ("counts", "next")

    def __init__(self, counts: tuple[int, ...], signatures: int) -> None:
        self.counts = counts
        self.next: list[_CountState | bool | None] = [None] * signatures


def _check_count(value: int | None, what: str) -> None:
    if value is not None and (
        isinstance(value, bool) or not isinstance(value, int) or value < 0
    ):
        raise ValueError(f"{what} must be a non-negative int, got {value!r}")


def prefix_branch_and_bound(
    wm: list[list[int]],
    *,
    constraints: Sequence[tuple[Entity, Fraction]] = (),
    incumbent_order: Sequence[int] | None = None,
    deadline: float | None = None,
    max_nodes: int | None = None,
) -> tuple[list[int] | None, int | None, bool, int]:
    """Exact prefix search for a minimum-disagreement (feasible) order.

    ``constraints`` are the ``(Entity, threshold)`` pairs of
    ``fair.enabled_entities``; group sizes and mixed-pair counts are read
    from each entity. The objective of ``incumbent_order`` is computed here.

    Returns ``(best_order, best_objective, completed, nodes)``. The search
    fixes the ranking top-down; placing candidate ``c`` before the
    remaining set costs ``sum(wm[c][r])`` and the admissible bound on any
    completion is the sum of pairwise minima among remaining candidates.
    With constraints, per-group favored-pair counts are tracked along the
    prefix and a node is cut as soon as some spread can no longer land
    within its threshold, no matter how the remainder is ordered.

    The counts live in interned *states*: each constraint's favored and
    remaining count per group. A candidate's *signature* is its group in
    every constraint, and a child's state follows from its parent's state
    and the child's signature alone. The cut reads nothing but the child's
    counts (the remaining-candidate total is their sum), so each state
    memoizes, per signature, its successor or the cut, and the cut runs
    once per distinct (state, signature) pair. The memo is exact: every
    node, and the order they are visited in, are those of checking each
    child afresh. Without constraints there is one signature and one
    state, never cut. At most ``_COUNT_STATE_CAP`` states are stored per
    search; past that, a new state is computed each time it is reached and
    not stored. The table is released when the search returns.

    ``max_nodes`` truncates the search after a fixed number of nodes, a
    deterministic alternative to a wall-clock deadline: reruns on the same
    input stop at the same node and return the same incumbent. It must be
    ``None`` or a non-negative ``int``.
    """
    _check_count(max_nodes, "max_nodes")
    n = len(wm)
    mins = [[min(wm[a][b], wm[b][a]) for b in range(n)] for a in range(n)]
    full_lb = sum(mins[a][b] for a in range(n) for b in range(a + 1, n))

    best_order = list(incumbent_order) if incumbent_order is not None else None
    best_obj = ranking_objective(wm, best_order) if best_order is not None else None
    nodes = 0
    # prefix-set dominance is only sound without constraints: feasibility
    # of a completion depends on prefix order, not just the prefix set
    dominance: dict[int, int] | None = {} if not constraints else None

    sizes = [[g.size for g in entity.groups] for entity, _ in constraints]
    cons_omega = [[g.mixed_pairs for g in entity.groups] for entity, _ in constraints]
    cons_delta = [(delta.numerator, delta.denominator) for _, delta in constraints]
    # entities whose groups all share one mixed-pair denominator admit a
    # stronger pure-integer test coupling the groups through their fixed
    # total of favored pairs; precompute its window width and that total
    cons_window = [
        (omega[0] * dnum) // dden if len(set(omega)) == 1 and len(omega) > 2 else None
        for omega, (dnum, dden) in zip(cons_omega, cons_delta)
    ]
    cons_total = [total_mixed_pair_count(counts, n) for counts in sizes]

    # where each constraint's groups start in a state's counts; a group's
    # members left sit `width` after its favored pairs
    offsets: list[int] = []
    width = 0
    for counts in sizes:
        offsets.append(width)
        width += len(counts)
    # a signature is the count positions of a candidate's groups, numbered
    # in order of first appearance: placing either of two candidates with
    # one signature changes every count alike
    signatures: dict[tuple[int, ...], int] = {}
    gids = [entity.gid for entity, _ in constraints]
    sig = [
        signatures.setdefault(
            tuple(at + gid[cand] for at, gid in zip(offsets, gids)), len(signatures)
        )
        for cand in range(n)
    ]
    sig_slots = list(signatures)

    def check_constraints(counts: tuple[int, ...], rem_size: int) -> bool:
        """True while every constraint can still be met by some completion."""
        for ci, at in enumerate(offsets):
            f = counts[at : at + len(cons_omega[ci])]
            rem_cnt = counts[width + at : width + at + len(f)]
            window = cons_window[ci]
            if window is not None:
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
                total = cons_total[ci]
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
            else:
                omega = cons_omega[ci]
                dnum, dden = cons_delta[ci]
                lo_n, lo_d = f[0], omega[0]
                hi_n, hi_d = f[0] + rem_cnt[0] * (rem_size - rem_cnt[0]), omega[0]
                for g in range(1, len(f)):
                    og = omega[g]
                    fn = f[g]
                    if fn * lo_d > lo_n * og:
                        lo_n, lo_d = fn, og
                    hn = fn + rem_cnt[g] * (rem_size - rem_cnt[g])
                    if hn * hi_d < hi_n * og:
                        hi_n, hi_d = hn, og
                # spread of any completion >= lo_n/lo_d - hi_n/hi_d
                if (lo_n * hi_d - hi_n * lo_d) * dden > dnum * lo_d * hi_d:
                    return False
        return True

    states: dict[tuple[int, ...], _CountState] = {}

    def successor(state: _CountState, s: int, size: int) -> _CountState | bool:
        """The state after placing a signature-``s`` candidate at a node
        with ``size`` candidates left, or False if the cut fires there."""
        counts = list(state.counts)
        for i in sig_slots[s]:
            # the placed member is favored over every remaining non-member
            counts[i] += size - counts[width + i]
            counts[width + i] -= 1
        key = tuple(counts)
        child = states.get(key)
        if child is None:
            if not check_constraints(key, size - 1):
                state.next[s] = False
                return False
            child = _CountState(key, len(sig_slots))
            if len(states) >= _COUNT_STATE_CAP:
                return child
            states[key] = child
        state.next[s] = child
        return child

    root = _CountState(
        (0,) * width + tuple(size for counts in sizes for size in counts),
        len(sig_slots),
    )
    states[root.counts] = root

    def rec(
        rem: list[int], mask: int, cost: int, lb: int, last: int, state: _CountState
    ) -> None:
        nonlocal best_order, best_obj, nodes
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise _SearchAborted
        if deadline is not None and nodes % 512 == 0 and time.perf_counter() > deadline:
            raise _SearchAborted
        if not rem:
            if best_obj is None or cost < best_obj:
                best_obj = cost
                best_order = list(prefix)
            return
        if dominance is not None:
            prev = dominance.get(mask)
            if prev is not None and prev <= cost:
                return
            if len(dominance) < _DOMINANCE_CAP:
                dominance[mask] = cost

        children = []
        for c in rem:
            row_w = wm[c]
            row_m = mins[c]
            inc = 0
            dmin = 0
            for r in rem:
                inc += row_w[r]
                dmin += row_m[r]
            children.append((inc, c, lb - dmin))
        children.sort()

        size = len(rem)
        successors = state.next
        for inc, c, lb_child in children:
            cost_child = cost + inc
            if best_obj is not None and cost_child + lb_child >= best_obj:
                continue
            s = sig[c]
            if last >= 0 and wm[last][c] > wm[c][last] and sig[last] == s:
                # swapping the adjacent pair is strictly cheaper, and only
                # safe to rely on when it cannot change any group's favored
                # counts: the pair shares one signature
                continue
            child = successors[s]
            if child is None:
                child = successor(state, s, size)
            if child is False:
                continue
            prefix.append(c)
            rec([r for r in rem if r != c], mask & ~(1 << c), cost_child, lb_child, c, child)
            prefix.pop()

    prefix: list[int] = []
    completed = True
    try:
        rec(list(range(n)), (1 << n) - 1, 0, full_lb, -1, root)
    except _SearchAborted:
        completed = False
    finally:
        # `rec` refers to itself; breaking that cycle frees the dominance and
        # count-state tables now rather than at the next cyclic collection
        rec = None
    return best_order, best_obj, completed, nodes


def kemeny_exact(
    precedence: PrecedenceMatrix,
    *,
    time_budget_ms: int | None = None,
    max_exact_n: int = DEFAULT_MAX_EXACT_N,
) -> KemenySolution:
    """Minimum total disagreement ranking, certified unless budget-bounded.

    The incumbent starts from the positional-points order, so a result is
    always available; when the time budget expires first, the best
    incumbent is returned with ``optimal=False``.
    """
    n = precedence.n
    if n > max_exact_n:
        raise InstanceTooLarge(
            f"exact solve limited to {max_exact_n} candidates, got {n}"
        )
    wm = precedence.cost_lists()
    budget = resolve_budget_ms(time_budget_ms)
    deadline = time.perf_counter() + budget / 1000.0 if budget is not None else None
    seed_order = _borda_order(wm)
    order, objective, completed, nodes = prefix_branch_and_bound(
        wm,
        incumbent_order=seed_order,
        deadline=deadline,
    )
    assert order is not None and objective is not None
    return KemenySolution(
        Ranking(tuple(precedence.ids[i] for i in order)), objective, completed, nodes
    )


def borda(rankings: RankingSet, table) -> Ranking:
    """Positional-points consensus: weighted count of candidates ranked below."""
    by_weight: dict[int, list[list[int]]] = {}
    for ranking, weight in zip(rankings.rankings, rankings.weights):
        by_weight.setdefault(weight, []).append(ranking.to_indices(table))
    points = [0] * table.n
    for weight, rows in by_weight.items():
        points = _add_row_points(points, np.array(rows), weight)
    return ranking_from_indices(_by_points(points), table)


def borda_streamed(batches, table) -> Ranking:
    """Borda consensus from batched integer ranking rows.

    ``batches`` yields arrays of shape (rows, n) whose entries are table
    indices, e.g. from the ranking generator's batch iterator. The result
    matches ``borda`` on the materialized set.
    """
    points = [0] * table.n
    for rows in batches:
        points = _add_row_points(points, rows)
    return ranking_from_indices(_by_points(points), table)


def copeland(precedence: PrecedenceMatrix) -> Ranking:
    """Pairwise-win consensus; a tied pair counts as a win for both sides.

    Candidates with equal win counts are ordered by total pairwise support
    (the positional point total), so tie blocks keep the base rankings'
    preference signal instead of falling back to declaration order first.
    """
    n = precedence.n
    wm = precedence.cost_lists()
    wins = [0] * n
    for b in range(n):
        for a in range(n):
            if a != b and wm[a][b] >= wm[b][a]:
                wins[b] += 1
    order = _by_points(list(zip(wins, _borda_points(wm))))
    return Ranking(tuple(precedence.ids[i] for i in order))


def schulze(precedence: PrecedenceMatrix) -> Ranking:
    """Strongest-path consensus over the pairwise-preference graph.

    Candidates are ordered by the number of strongest-path contests won;
    ties fall back to total pairwise support, then declaration order.
    """
    n = precedence.n
    wm = precedence.cost_lists()
    # support for a over b = weighted count of rankings placing a first
    d = [[wm[b][a] for b in range(n)] for a in range(n)]
    p = [
        [d[a][b] if d[a][b] > d[b][a] else 0 for b in range(n)]
        for a in range(n)
    ]
    for i in range(n):
        pi = p[i]
        for a in range(n):
            if a == i:
                continue
            pai = p[a][i]
            if pai == 0:
                continue
            pa = p[a]
            for b in range(n):
                if b == a or b == i:
                    continue
                strength = pai if pai < pi[b] else pi[b]
                if strength > pa[b]:
                    pa[b] = strength
    wins = [0] * n
    for a in range(n):
        for b in range(n):
            if a != b and p[a][b] > p[b][a]:
                wins[a] += 1
    order = _by_points(list(zip(wins, _borda_points(wm))))
    return Ranking(tuple(precedence.ids[i] for i in order))


def fairness_sort_key(
    ranking: Ranking, spec: FairnessSpec, index: GroupIndex
) -> tuple[Fraction, ...]:
    """Total-order key for "how unfair": lower sorts fairer.

    Components: the worst enabled score first, then the intersection score,
    then the attribute scores in declared order. Entities with a single
    non-empty group contribute nothing.
    """
    order = ranking.to_indices(index.table)

    def spread(entity) -> Fraction:
        num, den, _, _ = entity_spread(order, entity)
        return Fraction(num, den)

    # the intersection, listed last, moves to the front; attributes keep order
    scored = sorted(spec.entities(index), key=lambda e: not e.is_intersection)
    spreads = [spread(e) for e in scored if len(e.groups) >= 2]
    return (max(spreads, default=Fraction(0)), *spreads)


def _fairest_first(
    rankings: RankingSet, spec: FairnessSpec, index: GroupIndex
) -> list[int]:
    """Base-ranking positions by fairness key, fairest first; ties keep input order."""
    keys = [fairness_sort_key(r, spec, index) for r in rankings.rankings]
    return sorted(range(rankings.size), key=keys.__getitem__)


def pick_fairest(
    rankings: RankingSet, spec: FairnessSpec, index: GroupIndex
) -> Ranking:
    """The base ranking with the lowest fairness key; ties keep input order."""
    return rankings.rankings[_fairest_first(rankings, spec, index)[0]]


def kemeny_weighted(
    rankings: RankingSet,
    spec: FairnessSpec,
    index: GroupIndex,
    *,
    time_budget_ms: int | None = None,
    max_exact_n: int = DEFAULT_MAX_EXACT_N,
) -> KemenySolution:
    """Exact Kemeny over fairness-weighted base rankings.

    Base rankings sorted from least fair to fairest receive weights
    1..size, so fairer inputs pull the consensus harder; key ties keep
    input order (the earlier ranking counts as fairer).
    """
    weights = [0] * rankings.size
    for t, i in enumerate(_fairest_first(rankings, spec, index)):
        weights[i] = rankings.size - t
    weighted = RankingSet(rankings.rankings, tuple(weights))
    precedence = build_precedence_matrix(weighted, index.table)
    return kemeny_exact(
        precedence, time_budget_ms=time_budget_ms, max_exact_n=max_exact_n
    )
