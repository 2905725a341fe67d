"""Fairness-constrained consensus: exact solver, swap repair, pipelines.

Three routes to a fair consensus ranking:

* ``fair_kemeny``: the exact branch-and-bound search with fairness pruning;
  minimum disagreement among ALL rankings satisfying the spec.
* ``repair_ranking``: post-process any ranking with targeted swaps until
  every enabled score is within threshold.
* ``fair_pipeline``: run a polynomial unaware method, then repair.

``brute_force_fair_kemeny`` is the independent enumeration oracle the exact
solver is tested against.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from typing import Literal, Sequence

from .consensus import (
    DEFAULT_MAX_EXACT_N,
    KemenySolution,
    _borda_order,
    _check_count,
    borda,
    copeland,
    kemeny_exact,
    pick_fairest,
    prefix_branch_and_bound,
    ranking_objective,
    resolve_budget_ms,
    schulze,
)
from .errors import (
    BudgetExceeded,
    InconsistentCandidateSet,
    Infeasible,
    InstanceTooLarge,
    RepairStalled,
)
from .metrics import (
    FairnessReport,
    FairnessSpec,
    GroupCountTracker,
    entity_spread,
    evaluate_fairness,
    pd_loss,
)
from .model import (
    Entity,
    GroupIndex,
    PrecedenceMatrix,
    Ranking,
    RankingSet,
    build_precedence_matrix,
)

PipelineMethod = Literal["borda", "copeland", "schulze", "pick-fairest"]


def enabled_entities(
    spec: FairnessSpec, index: GroupIndex
) -> list[tuple[Entity, Fraction]]:
    """Entities the spec actually constrains, with their thresholds.

    Skips entities with a single non-empty group (nothing to compare) and
    thresholds of 1 (vacuous: a spread never exceeds 1).
    """
    chosen: list[tuple[Entity, Fraction]] = []
    for entity in spec.entities(index):
        delta = spec.delta_for(entity.name)
        if len(entity.groups) >= 2 and delta < 1:
            chosen.append((entity, delta))
    return chosen


def _order_satisfies(
    order: Sequence[int], pairs: Sequence[tuple[Entity, Fraction]]
) -> bool:
    """Exact integer check that an index order meets every threshold."""
    for entity, delta in pairs:
        num, den, _, _ = entity_spread(order, entity)
        if num * delta.denominator > delta.numerator * den:
            return False
    return True


@dataclass(slots=True, eq=False)
class _RepairEntity:
    """One enabled entity in the swap repair: its threshold, what its swap
    pairs must agree on, and its tracker lists."""

    entity: Entity
    dnum: int
    dden: int
    positions: list[list[int]]
    other_gids: list[tuple[int, ...]] = field(default_factory=list)
    can_be_clean: bool = False


@dataclass(frozen=True)
class RepairTrace:
    """What the swap repair did: each swap as (demoted id, promoted id,
    entity corrected), total iterations, and the final fairness report."""

    swaps: tuple[tuple[str, str, str], ...]
    iterations: int
    final_report: FairnessReport


def repair_ranking(
    ranking: Ranking,
    spec: FairnessSpec,
    index: GroupIndex,
    *,
    max_swaps: int | None = None,
    collect_swaps: bool = True,
) -> tuple[Ranking, RepairTrace]:
    """Swap candidates pairwise until every enabled score is in threshold.

    Each iteration picks the violated entity with the largest score (the
    intersection wins ties, then attributes in declared order) and swaps a
    member of its highest-share group below the nearest lower-share member
    beneath it. Any such crossing swap strictly shrinks the corrected
    entity's spread, but may disturb other enabled entities, so when the
    entity's groups are not separated by every other enabled entity (only
    possible without the intersection, whose cells always split attribute
    groups) the pair search prefers two candidates that agree on all other
    enabled entities — that swap provably leaves their scores untouched.
    Because the chosen swap is a deterministic function of the current order,
    revisiting an order would loop forever; a hash set of visited orders
    therefore vetoes any swap that would recreate one, falling back to
    further pairs and then to the next-largest violated entity, and the
    repair stops with an error when every violated entity runs out of legal,
    unvisited swaps. The default cap of ``2 * n**2`` swaps bounds the walk
    regardless; ``max_swaps`` must be a non-negative ``int``.

    A ``GroupCountTracker`` keeps the counts, the spreads and each group's
    sorted member positions: pairing a member with its partner costs
    O(log n), and a swap moves one position in two sorted lists of each
    entity it changes, in place when it passes no member of the moved group
    (every adjacent swap), else by an O(n) memmove in C per list. The
    tracker recomputes a spread only for the entities a swap changed,
    mostly in closed form; the violated entities are then taken lazily,
    largest spread first, comparing integer cross-products.
    """
    _check_count(max_swaps, "max_swaps")
    table = index.table
    n = table.n
    cap = max_swaps if max_swaps is not None else 2 * n * n
    pairs = enabled_entities(spec, index)
    # priority for score ties: intersection first, then declared order
    pairs.sort(key=lambda p: (not p[0].is_intersection,))

    order = ranking.to_indices(table)
    tracker = GroupCountTracker(order, [entity for entity, _ in pairs])
    spreads = tracker.spreads
    ents = [
        _RepairEntity(entity, delta.numerator, delta.denominator, positions)
        for (entity, delta), positions in zip(pairs, tracker.positions)
    ]
    for ent in ents:
        ent.other_gids = [o.entity.gid for o in ents if o is not ent]
        # Can two candidates differ in this entity yet agree on all others?
        # Only then is a disturbance-free swap pair worth scanning for.
        profile_gid: dict[tuple[int, ...], int] = {}
        for c in range(n):
            key = tuple(g[c] for g in ent.other_gids)
            if profile_gid.setdefault(key, ent.entity.gid[c]) != ent.entity.gid[c]:
                ent.can_be_clean = True
                break

    # Rolling hash of the current order so already-seen orders can be vetoed:
    # revisiting one would repeat the same deterministic swap sequence forever.
    hash_mod = (1 << 61) - 1
    hash_pow = [pow(1_000_003, c, hash_mod) for c in range(n)]
    order_hash = sum(p * hash_pow[c] for p, c in enumerate(order)) % hash_mod
    seen_orders = {order_hash}
    max_seen = 1 << 20  # stop recording (but keep consulting) past this size

    swaps: list[tuple[str, str, str]] = []
    iterations = 0
    while True:
        # Take the violated entity with the largest spread (the earliest on
        # equal spreads), and the next largest only when it has no legal,
        # unvisited swap pair.
        chosen = None
        tried: list[_RepairEntity] = []
        while chosen is None:
            ent = None
            for other, (num, den, high, low) in zip(ents, spreads):
                if (
                    num * other.dden > other.dnum * den
                    and (ent is None or num * top_den > top_num * den)
                    and other not in tried
                ):
                    ent, top_num, top_den, hi, lo = other, num, den, high, low
            if ent is None:
                break
            if iterations >= cap:
                raise RepairStalled(
                    f"fairness repair did not converge within {cap} swaps"
                )
            highs, lows = ent.positions[hi], ent.positions[lo]
            want_clean = ent.can_be_clean
            other_gids = ent.other_gids
            fallback = None
            scanned = 0
            # Walk the highest-share group's members bottom-up; pair each
            # with the nearest lower-share member beneath it. Members below
            # the lower-share group's last position have no partner, so the
            # walk starts at the lowest member that has one.
            for c in range(bisect_left(highs, lows[-1]) - 1, -1, -1):
                p0 = highs[c]
                s0 = lows[bisect_right(lows, p0)]
                demoted, promoted = order[p0], order[s0]
                next_hash = (
                    order_hash
                    + (s0 - p0) * (hash_pow[demoted] - hash_pow[promoted])
                ) % hash_mod
                if next_hash in seen_orders:
                    continue
                if fallback is None:
                    fallback = (p0, s0, next_hash)
                    if not want_clean:
                        break
                scanned += 1
                if want_clean and all(
                    g[demoted] == g[promoted] for g in other_gids
                ):
                    chosen = (p0, s0, next_hash)
                    break
                if scanned >= 48:
                    break  # bounded scan; settle for the first legal pair
            chosen = chosen or fallback
            tried.append(ent)
        if chosen is None:
            if not tried:
                break  # every enabled spread is within its threshold
            raise RepairStalled(
                "fairness repair cycled: every violated entity's swap would"
                " revisit an earlier order or has no legal pair left"
            )
        p0, s0, order_hash = chosen
        if len(seen_orders) < max_seen:
            seen_orders.add(order_hash)
        tracker.swap(p0, s0)
        iterations += 1
        if collect_swaps:
            # the swap put the demoted candidate at s0, the promoted one at p0
            ids = table.candidate_ids
            swaps.append((ids[order[s0]], ids[order[p0]], ent.entity.name))

    repaired = Ranking(tuple(table.candidate_ids[i] for i in order))
    report = evaluate_fairness(repaired, spec, index)
    return repaired, RepairTrace(tuple(swaps), iterations, report)


def fair_kemeny(
    precedence: PrecedenceMatrix,
    spec: FairnessSpec,
    index: GroupIndex,
    *,
    time_budget_ms: int | None = None,
    max_exact_n: int = DEFAULT_MAX_EXACT_N,
    max_nodes: int | None = None,
    warm_starts: Sequence[Ranking] = (),
) -> KemenySolution:
    """Minimum-disagreement ranking among those satisfying the fairness spec.

    First solves the unconstrained instance once. When the spec constrains
    no entity, or that optimum already meets every threshold, it is the
    answer. Otherwise the prefix branch-and-bound runs with fairness
    pruning over the ``enabled_entities`` pairs, within what is left of the
    same time budget. The search is seeded with repaired unconstrained
    solutions (and any ``warm_starts``, repaired if needed), so a good
    feasible incumbent exists early; if the search space is exhausted with
    no feasible leaf the instance is infeasible. On budget expiry or after
    ``max_nodes`` nodes of the fairness-pruned search the best feasible
    incumbent is returned flagged ``optimal=False``; with no incumbent the
    budget error is raised instead. ``max_nodes`` truncation is
    deterministic; it must be ``None`` or a non-negative ``int``, checked
    before any solve. The unconstrained solve is not capped (only the time
    budget bounds it), and its nodes count in ``nodes_explored``.
    """
    _check_count(max_nodes, "max_nodes")
    n = precedence.n
    if n > max_exact_n:
        raise InstanceTooLarge(
            f"exact solve limited to {max_exact_n} candidates, got {n}"
        )
    if tuple(precedence.ids) != index.table.candidate_ids:
        raise InconsistentCandidateSet(
            "precedence matrix and group index cover different candidates"
        )
    pairs = enabled_entities(spec, index)
    budget = resolve_budget_ms(time_budget_ms)
    deadline = time.perf_counter() + budget / 1000.0 if budget is not None else None
    base = kemeny_exact(precedence, time_budget_ms=budget, max_exact_n=max_exact_n)
    base_order = base.ranking.to_indices(index.table)
    if not pairs or (base.optimal and _order_satisfies(base_order, pairs)):
        return base

    wm = precedence.cost_lists()
    seeds: list[Ranking] = [
        base.ranking,
        Ranking(tuple(precedence.ids[i] for i in _borda_order(precedence.matrix))),
        copeland(precedence),
        schulze(precedence),
    ]
    seeds.extend(warm_starts)
    repaired_orders = []
    for seed in seeds:
        try:
            repaired, _ = repair_ranking(seed, spec, index, collect_swaps=False)
        except RepairStalled:
            continue
        repaired_orders.append(repaired.to_indices(index.table))

    order, objective, completed, nodes = prefix_branch_and_bound(
        wm,
        constraints=pairs,
        # the cheapest repaired seed; the first of equal ones
        incumbent_order=min(
            repaired_orders, key=lambda o: ranking_objective(wm, o), default=None
        ),
        deadline=deadline,
        max_nodes=max_nodes,
    )
    nodes += base.nodes_explored
    if order is None:
        if completed:
            raise Infeasible(
                "no ranking satisfies the fairness thresholds"
            )
        raise BudgetExceeded(
            "search budget exhausted before any feasible ranking was found"
        )
    assert objective is not None
    return KemenySolution(
        Ranking(tuple(precedence.ids[i] for i in order)),
        objective,
        completed,
        nodes,
    )


@dataclass(frozen=True)
class PipelineResult:
    """An unaware consensus, its repaired version, and the loss accounting."""

    method: str
    unaware_ranking: Ranking
    ranking: Ranking
    trace: RepairTrace
    pd_loss_unaware: Fraction
    pd_loss_fair: Fraction
    price_of_fairness: Fraction


def fair_pipeline(
    method: PipelineMethod,
    rankings: RankingSet,
    spec: FairnessSpec,
    index: GroupIndex,
    *,
    collect_swaps: bool = True,
) -> PipelineResult:
    """Unaware consensus by ``method``, then swap repair to the spec."""
    table = index.table
    if method == "borda":
        unaware = borda(rankings, table)
    elif method == "copeland":
        unaware = copeland(build_precedence_matrix(rankings, table))
    elif method == "schulze":
        unaware = schulze(build_precedence_matrix(rankings, table))
    elif method == "pick-fairest":
        unaware = pick_fairest(rankings, spec, index)
    else:
        raise ValueError(f"unknown pipeline method {method!r}")
    repaired, trace = repair_ranking(
        unaware, spec, index, collect_swaps=collect_swaps
    )
    before = pd_loss(rankings, unaware)
    after = pd_loss(rankings, repaired)
    return PipelineResult(method, unaware, repaired, trace, before, after, after - before)


def brute_force_fair_kemeny(
    rankings: RankingSet,
    spec: FairnessSpec,
    index: GroupIndex,
    *,
    max_n: int = 9,
) -> KemenySolution:
    """Enumeration oracle: scan all permutations, keep the feasible minimum.

    Independent of the branch-and-bound by construction. The feasibility
    filter is the same exact integer comparison the metrics module makes,
    inlined over group membership arrays so full factorial scans stay fast.
    """
    table = index.table
    n = table.n
    if n > max_n:
        raise InstanceTooLarge(
            f"enumeration oracle limited to {max_n} candidates, got {n}"
        )
    wm = build_precedence_matrix(rankings, table).cost_lists()
    ents = []
    for entity, delta in enabled_entities(spec, index):
        ents.append(
            (
                entity.gid,
                [g.mixed_pairs for g in entity.groups],
                delta.numerator,
                delta.denominator,
                len(entity.groups),
            )
        )

    best_order: tuple[int, ...] | None = None
    best_obj: int | None = None
    explored = 0
    for perm in permutations(range(n)):
        explored += 1
        feasible = True
        for gid, omegas, dnum, dden, k in ents:
            favored = [0] * k
            seen = [0] * k
            below = 0
            for p in range(n - 1, -1, -1):
                g = gid[perm[p]]
                favored[g] += below - seen[g]
                seen[g] += 1
                below += 1
            hi = lo = 0
            for g in range(1, k):
                if favored[g] * omegas[hi] > favored[hi] * omegas[g]:
                    hi = g
                if favored[g] * omegas[lo] < favored[lo] * omegas[g]:
                    lo = g
            if (favored[hi] * omegas[lo] - favored[lo] * omegas[hi]) * dden > (
                dnum * omegas[hi] * omegas[lo]
            ):
                feasible = False
                break
        if not feasible:
            continue
        objective = 0
        for i in range(n - 1):
            row = wm[perm[i]]
            for j in range(i + 1, n):
                objective += row[perm[j]]
        if best_obj is None or objective < best_obj:
            best_obj = objective
            best_order = perm
    if best_order is None:
        raise Infeasible("no permutation satisfies the fairness thresholds")
    assert best_obj is not None
    return KemenySolution(
        Ranking(tuple(table.candidate_ids[i] for i in best_order)),
        best_obj,
        True,
        explored,
    )
