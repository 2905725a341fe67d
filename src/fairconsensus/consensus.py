"""Consensus ranking methods over a precedence matrix or ranking set.

Polynomial methods (positional points, pairwise wins, strongest paths) sit
next to an exact Kemeny solver realized as a depth-first branch-and-bound
over ranking prefixes. The same search engine optionally enforces fairness
constraints; the fair front-end lives in the fair-consensus module.

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

from .errors import InstanceTooLarge
from .metrics import FairnessSpec, entity_spread
from .model import (
    GroupIndex,
    PrecedenceMatrix,
    Ranking,
    RankingSet,
    build_precedence_matrix,
)

#: Environment variable holding the default solver time budget in ms.
BUDGET_ENV_VAR = "FAIRCONSENSUS_BUDGET_MS"

#: Largest instance the exact solvers accept by default.
DEFAULT_MAX_EXACT_N = 25

_DOMINANCE_CAP = 2_000_000  # max memoized prefix states


@dataclass(frozen=True)
class KemenySolution:
    """Result of an exact (possibly budget-bounded) Kemeny solve."""

    ranking: Ranking
    objective: int
    optimal: bool
    nodes_explored: int


@dataclass(frozen=True)
class GroupConstraint:
    """Search-time form of one fairness constraint (attribute or intersection).

    ``gid[c]`` maps candidate index to group ordinal; the spread of the
    groups' favored-pair shares must stay within ``delta_num/delta_den``.
    """

    name: str
    gid: tuple[int, ...]
    sizes: tuple[int, ...]
    omegas: tuple[int, ...]
    delta_num: int
    delta_den: int


def resolve_budget_ms(time_budget_ms: int | None) -> int | None:
    """Explicit budget wins; otherwise the environment default, else none."""
    if time_budget_ms is not None:
        return time_budget_ms
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw:
        return int(raw)
    return None


def ranking_objective(wm: Sequence[Sequence[int]], order: Sequence[int]) -> int:
    """Total weighted disagreement of an order given as candidate indices."""
    total = 0
    for i, a in enumerate(order):
        row = wm[a]
        for b in order[i + 1 :]:
            total += row[b]
    return total


def _borda_points(wm: Sequence[Sequence[int]]) -> list[int]:
    # column sum of the precedence matrix = weighted count of candidates
    # ranked below, i.e. positional points
    n = len(wm)
    points = [0] * n
    for row in wm:
        for b in range(n):
            points[b] += row[b]
    return points


def _borda_order(wm: Sequence[Sequence[int]]) -> list[int]:
    points = _borda_points(wm)
    return sorted(range(len(wm)), key=lambda c: (-points[c], c))


class _SearchAborted(Exception):
    pass


def prefix_branch_and_bound(
    wm: list[list[int]],
    *,
    constraints: Sequence[GroupConstraint] = (),
    incumbent_order: Sequence[int] | None = None,
    incumbent_objective: int | None = None,
    deadline: float | None = None,
    max_nodes: int | None = None,
) -> tuple[list[int] | None, int | None, bool, int]:
    """Exact prefix search for a minimum-disagreement (feasible) order.

    Returns ``(best_order, best_objective, completed, nodes)``. The search
    fixes the ranking top-down; placing candidate ``c`` before the
    remaining set costs ``sum(wm[c][r])`` and the admissible bound on any
    completion is the sum of pairwise minima among remaining candidates.
    With constraints, per-group favored-pair counts are tracked along the
    prefix and a node is cut as soon as some spread can no longer land
    within its threshold, no matter how the remainder is ordered.

    ``max_nodes`` truncates the search after a fixed number of nodes, a
    deterministic alternative to a wall-clock deadline: reruns on the same
    input stop at the same node and return the same incumbent.
    """
    n = len(wm)
    mins = [[min(wm[a][b], wm[b][a]) for b in range(n)] for a in range(n)]
    full_lb = sum(mins[a][b] for a in range(n) for b in range(a + 1, n))

    best_order = list(incumbent_order) if incumbent_order is not None else None
    best_obj = incumbent_objective if incumbent_order is not None else None
    nodes = 0
    # prefix-set dominance is only sound without constraints: feasibility
    # of a completion depends on prefix order, not just the prefix set
    dominance: dict[int, int] | None = {} if not constraints else None

    cons_gid = [c.gid for c in constraints]
    cons_f = [[0] * len(c.sizes) for c in constraints]
    cons_rem = [list(c.sizes) for c in constraints]
    cons_omega = [c.omegas for c in constraints]
    cons_delta = [(c.delta_num, c.delta_den) for c in constraints]
    # entities whose groups all share one mixed-pair denominator admit a
    # stronger pure-integer test coupling the groups through their fixed
    # total of favored pairs; precompute its window width and that total
    cons_window: list[int | None] = []
    cons_total: list[int] = []
    for c in constraints:
        uniform = len(set(c.omegas)) == 1 and len(c.sizes) > 2
        cons_window.append(
            (c.omegas[0] * c.delta_num) // c.delta_den if uniform else None
        )
        total = 0
        for a in range(len(c.sizes)):
            for b in range(a + 1, len(c.sizes)):
                total += c.sizes[a] * c.sizes[b]
        cons_total.append(total)

    same_group_everywhere: list[list[bool]] | None = None
    if constraints:
        same_group_everywhere = [
            [all(g[a] == g[b] for g in cons_gid) for b in range(n)] for a in range(n)
        ]

    def check_constraints(rem_size: int) -> bool:
        """True while every constraint can still be met by some completion."""
        for ci in range(len(cons_gid)):
            f = cons_f[ci]
            rem_cnt = cons_rem[ci]
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

    def rec(rem: list[int], mask: int, cost: int, lb: int, last: int) -> None:
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

        rem_size_after = len(rem) - 1
        for inc, c, lb_child in children:
            cost_child = cost + inc
            if best_obj is not None and cost_child + lb_child >= best_obj:
                continue
            if last >= 0 and wm[last][c] > wm[c][last]:
                # swapping the adjacent pair is strictly cheaper, and (under
                # constraints) only safe to rely on when it cannot change
                # any group's favored counts
                if same_group_everywhere is None or same_group_everywhere[last][c]:
                    continue
            feasible = True
            if constraints:
                for ci in range(len(cons_gid)):
                    g = cons_gid[ci][c]
                    cons_f[ci][g] += len(rem) - cons_rem[ci][g]
                    cons_rem[ci][g] -= 1
                feasible = check_constraints(rem_size_after)
            if feasible:
                prefix.append(c)
                rec([r for r in rem if r != c], mask & ~(1 << c), cost_child, lb_child, c)
                prefix.pop()
            if constraints:
                for ci in range(len(cons_gid)):
                    g = cons_gid[ci][c]
                    cons_rem[ci][g] += 1
                    cons_f[ci][g] -= len(rem) - cons_rem[ci][g]

    prefix: list[int] = []
    completed = True
    try:
        rec(list(range(n)), (1 << n) - 1, 0, full_lb, -1)
    except _SearchAborted:
        completed = False
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
        incumbent_objective=ranking_objective(wm, seed_order),
        deadline=deadline,
    )
    assert order is not None and objective is not None
    return KemenySolution(
        Ranking(tuple(precedence.ids[i] for i in order)), objective, completed, nodes
    )


def borda(rankings: RankingSet, table) -> Ranking:
    """Positional-points consensus: weighted count of candidates ranked below."""
    n = table.n
    points = [0] * n
    for ranking, weight in zip(rankings.rankings, rankings.weights):
        for pos, cid in enumerate(ranking.order):
            points[table.index_of(cid)] += weight * (n - 1 - pos)
    order = sorted(range(n), key=lambda c: (-points[c], c))
    return Ranking(tuple(table.candidate_ids[i] for i in order))


def borda_streamed(batches, table) -> Ranking:
    """Borda consensus from batched integer ranking rows.

    ``batches`` yields arrays of shape (rows, n) whose entries are table
    indices, e.g. from the ranking generator's batch iterator. Point totals
    stay integer-exact (they fit comfortably in float64 mantissas) so the
    result matches ``borda`` on the materialized set.
    """
    n = table.n
    points = np.zeros(n, dtype=np.float64)
    below = np.arange(n - 1, -1, -1, dtype=np.float64)
    for rows in batches:
        weights = np.tile(below, rows.shape[0])
        points += np.bincount(rows.ravel(), weights=weights, minlength=n)
    totals = points.astype(np.int64)
    order = sorted(range(n), key=lambda c: (-int(totals[c]), c))
    return Ranking(tuple(table.candidate_ids[i] for i in order))


def _support_totals(wm: Sequence[Sequence[int]]) -> list[int]:
    """Per-candidate weighted count of rankings placing it above another."""
    n = len(wm)
    return [sum(wm[a][c] for a in range(n)) for c in range(n)]


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
    support = _support_totals(wm)
    order = sorted(range(n), key=lambda c: (-wins[c], -support[c], c))
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
    support = _support_totals(wm)
    order = sorted(range(n), key=lambda c: (-wins[c], -support[c], c))
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

    entities = index.attribute_entities if spec.constrain_attributes else ()
    spreads = [spread(e) for e in entities if len(e.groups) >= 2]
    inter_spread: Fraction | None = None
    entity = index.intersection
    if entity is not None and spec.intersection_attrs is not None and len(entity.groups) >= 2:
        inter_spread = spread(entity)
    scores = spreads + ([inter_spread] if inter_spread is not None else [])
    overall = max(scores) if scores else Fraction(0)
    key = [overall]
    if inter_spread is not None:
        key.append(inter_spread)
    key.extend(spreads)
    return tuple(key)


def pick_fairest(
    rankings: RankingSet, spec: FairnessSpec, index: GroupIndex
) -> Ranking:
    """The base ranking with the lowest fairness key; ties keep input order."""
    keys = [fairness_sort_key(r, spec, index) for r in rankings.rankings]
    best = min(range(rankings.size), key=lambda i: (keys[i], i))
    return rankings.rankings[best]


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
    keys = [fairness_sort_key(r, spec, index) for r in rankings.rankings]
    by_fairness = sorted(range(rankings.size), key=lambda i: (keys[i], i))
    weights = [0] * rankings.size
    for t, i in enumerate(by_fairness):
        weights[i] = rankings.size - t
    weighted = RankingSet(rankings.rankings, tuple(weights))
    precedence = build_precedence_matrix(weighted, index.table)
    return kemeny_exact(
        precedence, time_budget_ms=time_budget_ms, max_exact_n=max_exact_n
    )
