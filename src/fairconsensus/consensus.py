"""Consensus ranking methods over a precedence matrix or ranking set.

Polynomial methods (positional points, pairwise wins, strongest paths) sit
next to an exact Kemeny solver realized as a depth-first branch-and-bound
over ranking prefixes. The same search engine optionally enforces fairness
constraints; the fair front-end lives in the fair-consensus module. Each
node of the search carries, beside its remaining candidates, every
candidate's cost and bound term against the rest as one running sum: the
two are packed into disjoint bit fields of one Python int, which a
subtraction never borrows across because both fields stay non-negative and
the low one never outgrows its root value. A child's sums come from its
parent's in one pass, and the bound reads one compare per candidate.
Children the bound or the feasibility cut rules out are dropped before the
survivors are sorted.
Under constraints the search carries interned group-count states down the
prefix: the feasibility cut reads only a state's counts, so it runs once
per distinct state, and each state memoizes where placing a candidate of
each group signature leads. The states depend on the constraints alone,
not on the weights, so a ``GroupIndex`` keeps one table of them per
constraint set and every fair search on that index reuses it; the table
goes when the index goes.

Determinism rules used throughout: candidates tie-break by ascending table
index, children expand in ascending incremental-cost order, and the first
strictly better leaf becomes the new incumbent.
"""

from __future__ import annotations

import math
import operator
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import Sequence

import numpy as np

from .errors import InconsistentCandidateSet, InstanceTooLarge, ParseError
from .metrics import FairnessSpec, entity_spread
from .model import (
    _STREAM_CHUNK,
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
# max interned group-count states per table, whether one search or every
# search on one group index fills it. A dominance entry takes about 120 bytes
# and a state at most about 3.2 kB (25 candidates in 35 groups), so a full
# state table stays under a full dominance table's ~230 MB.
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
    integer >= 0 raises ``ParseError`` naming the variable. An explicit
    budget must be ``None`` or a non-negative ``int``, else ``ValueError``.
    """
    _check_count(time_budget_ms, "time_budget_ms")
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


def _deadline(budget_ms: int | None) -> float | None:
    """The ``perf_counter`` reading ``budget_ms`` from now; None without a
    budget. A budget past the float range waits as long as the largest float."""
    if budget_ms is None:
        return None
    return time.perf_counter() + min(budget_ms, sys.float_info.max) / 1000.0


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


def _borda_points(matrix: np.ndarray) -> list[int]:
    """Positional points, the precedence matrix's column sums: column ``b``
    counts the (weighted) rankings placing ``b`` above each other candidate.

    Summed as Python ints, so a column of an int64 matrix may pass 2**63.
    """
    return matrix.sum(axis=0, dtype=object).tolist()


def _borda_order(matrix: np.ndarray) -> list[int]:
    return _by_points(_borda_points(matrix))


def _by_wins(precedence: PrecedenceMatrix, wins: np.ndarray) -> Ranking:
    """Most wins first; equal wins fall back to the positional points, then
    to table order."""
    order = _by_points(list(zip(wins.tolist(), _borda_points(precedence.matrix))))
    return Ranking(tuple(precedence.ids[i] for i in order))


def _add_row_points(points: list[int], rows: np.ndarray) -> list[int]:
    """``points`` plus the positional points of rows of table indices.

    Row ``r`` ranks ``rows[r, k]`` k-th, worth ``n - 1 - k`` points, for
    ``n = len(points)``. A batch that is not 2-D, is not ``n`` wide or holds
    an entry outside [0, n) raises ``InconsistentCandidateSet``. A batch's
    totals count in int64, a chunk of rows at a time, and add to ``points``
    in Python ints.
    """
    n = len(points)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise InconsistentCandidateSet(
            f"ranking rows must have shape (rows, {n}), got {rows.shape}"
        )
    earned = np.zeros(n, dtype=np.int64)
    chunk = max(1, _STREAM_CHUNK // max(n, 1))
    # the points stay tiled, one chunk long: np.add.at with a 2-D index and
    # broadcast 1-D points read garbage and crashed on numpy 2.4
    worth = np.tile(np.arange(n - 1, -1, -1), min(chunk, len(rows)))
    for r in range(0, len(rows), chunk):
        part = rows[r : r + chunk].ravel()
        if part.size and (part.min() < 0 or part.max() >= n):
            raise InconsistentCandidateSet(
                f"ranking rows hold an entry outside [0, {n})"
            )
        np.add.at(earned, part, worth[: part.size])
    return [p + e for p, e in zip(points, earned.tolist())]


class _SearchAborted(Exception):
    pass


class _CountState:
    """Group counts after a prefix, interned, with its memoized successors.

    ``counts`` lists every constraint's groups' favored mixed pairs so far,
    then, in the same group order, each group's members not yet placed.
    Slot ``s`` of ``next`` answers "place a candidate of group signature
    ``s`` next": ``None`` until asked, ``False`` when the feasibility cut
    fires, else the child state. A node asks for the slot of every child
    the bound lets through, before the sort, so a child later skipped by
    the adjacency prune or a tightened bound may still fill its slot.

    ``dead`` is set by ``_CountStates.mark_dead`` once the filled slots show
    the cut fires for every signature whose groups all have members left:
    no node with these counts has a child, whatever its remaining
    candidates and its bound. Like the slots it depends on the counts
    alone.
    """

    __slots__ = ("counts", "next", "dead")

    def __init__(self, counts: tuple[int, ...], signatures: int) -> None:
        self.counts = counts
        self.next: list[_CountState | bool | None] = [None] * signatures
        self.dead = False


class _CountStates:
    """The fair search's count-state table for one constraint set over ``n``
    candidates: the constraint records, the signature numbering, the
    feasibility cut and the interned states, from ``root`` on.

    ``states`` maps every counts tuple reached to its state, or to False
    where the cut fires, so the cut runs once per distinct tuple; it holds
    at most ``_COUNT_STATE_CAP`` entries. The table is a pure function of
    the constraints and ``n``: the weights never enter, so every search
    under the same constraints may share one table, and the states and
    ``next`` slots one search fills are exact for the next, and so is a
    state's ``dead`` mark. ``GroupIndex`` keeps one per enabled ``(entity,
    threshold)`` set, built on first use by ``of_index``.
    """

    __slots__ = ("records", "width", "sig", "sig_slots", "states", "root")

    def __init__(self, constraints: Sequence[tuple[Entity, Fraction]], n: int) -> None:
        # one record per constraint: where its groups start in a state's counts
        # (a group's members left sit `width` after its favored pairs), its group
        # ordinals, mixed-pair counts and threshold, and, when three or more
        # groups share one mixed-pair denominator, the window width and fixed
        # favored-pair total of the stronger `_window_feasible` test, else None
        records = []
        width = 0
        for entity, delta in constraints:
            omega = [g.mixed_pairs for g in entity.groups]
            dnum, dden = delta.numerator, delta.denominator
            fit = None
            if len(set(omega)) == 1 and len(omega) > 2:
                total = total_mixed_pair_count([g.size for g in entity.groups], n)
                fit = ((omega[0] * dnum) // dden, total)
            records.append((width, entity.gid, omega, dnum, dden, fit))
            width += len(omega)
        self.records = records
        self.width = width
        # a signature is the count positions of a candidate's groups, numbered
        # in order of first appearance: placing either of two candidates with
        # one signature changes every count alike
        signatures: dict[tuple[int, ...], int] = {}
        self.sig = [
            signatures.setdefault(
                tuple(at + gid[cand] for at, gid, *_ in records), len(signatures)
            )
            for cand in range(n)
        ]
        self.sig_slots = list(signatures)
        self.root = _CountState(
            (0,) * width
            + tuple(g.size for entity, _ in constraints for g in entity.groups),
            len(self.sig_slots),
        )
        self.states = {self.root.counts: self.root}

    @classmethod
    def of_index(
        cls, index: GroupIndex, constraints: Sequence[tuple[Entity, Fraction]]
    ) -> _CountStates:
        """``index``'s table for ``constraints``, built on first use and kept
        as long as the index."""
        key = tuple(constraints)
        table = index._count_states.get(key)
        if table is None:
            table = index._count_states[key] = cls(constraints, index.table.n)
        return table

    def check_constraints(self, counts: tuple[int, ...], rem_size: int) -> bool:
        """True while every constraint can still be met by some completion."""
        width = self.width
        for at, _, omega, dnum, dden, fit in self.records:
            f = counts[at : at + len(omega)]
            rem_cnt = counts[width + at : width + at + len(f)]
            if fit is not None:
                his = [fg + r * (rem_size - r) for fg, r in zip(f, rem_cnt)]
                if not _window_feasible(f, his, *fit):
                    return False
            else:
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

    def successor(self, state: _CountState, s: int, size: int) -> _CountState | bool:
        """The state after placing a signature-``s`` candidate at a node
        with ``size`` candidates left, or False if the cut fires there."""
        width = self.width
        counts = list(state.counts)
        for i in self.sig_slots[s]:
            # the placed member is favored over every remaining non-member
            counts[i] += size - counts[width + i]
            counts[width + i] -= 1
        key = tuple(counts)
        child = self.states.get(key)
        if child is None:
            if self.check_constraints(key, size - 1):
                child = _CountState(key, len(self.sig_slots))
            else:
                child = False
            if len(self.states) < _COUNT_STATE_CAP:
                self.states[key] = child
            elif child:
                return child
        state.next[s] = child
        return child

    def mark_dead(self, state: _CountState) -> None:
        """Mark ``state`` dead if every signature whose groups all have
        members left already holds ``False`` in its slot.

        Those signatures include every candidate a node with these counts
        can have left, so such a node has no child. Only filled slots are
        read: a slot still ``None`` keeps the state live, and no successor
        is computed here.
        """
        left = state.counts[self.width :]
        for s, at in enumerate(self.sig_slots):
            if state.next[s] is not False and all(left[i] for i in at):
                return
        state.dead = True


def _check_count(value: int | None, what: str) -> None:
    if value is not None and (
        isinstance(value, bool) or not isinstance(value, int) or value < 0
    ):
        raise ValueError(f"{what} must be a non-negative int, got {value!r}")


def _check_exact_size(n: int, max_exact_n: int) -> None:
    """``InstanceTooLarge`` past ``max_exact_n`` candidates: the exact
    solvers' one size gate, which the CLI also applies before building any
    matrix."""
    if n > max_exact_n:
        raise InstanceTooLarge(
            f"exact solve limited to {max_exact_n} candidates, got {n}"
        )


def _check_weights(wm: Sequence[Sequence[int]]) -> list[list[int]]:
    """``wm`` as rows of Python ints; ``ValueError`` unless it is square,
    every entry is a non-negative integer (numpy ints convert, ``bool`` and
    floats do not) and the diagonal is zero, as in a precedence matrix."""
    n = len(wm)
    rows = []
    for i, row in enumerate(wm):
        try:
            values = [operator.index(v) for v in row]
        except TypeError:
            values = None
        if (
            values is None
            or len(values) != n
            or values[i] != 0
            or min(values, default=0) < 0
            or any(isinstance(v, bool) for v in row)
        ):
            raise ValueError(
                f"wm must be a square non-negative int matrix with a zero diagonal, "
                f"got row {i}: {row!r}"
            )
        rows.append(values)
    return rows


def _check_order(order: Sequence[int] | None, n: int) -> None:
    if order is not None and (
        len(order) != n
        or set(order) != set(range(n))
        or not all(isinstance(c, Integral) for c in order)
    ):
        raise ValueError(
            f"incumbent_order must be a permutation of range({n}), got {order!r}"
        )


def _window_feasible(
    f: Sequence[int], his: Sequence[int], window: int, total: int
) -> bool:
    """True while some final counts can sum to ``total`` within one window.

    For an entity whose groups share one mixed-pair count, spreads compare
    as raw favored counts. Group ``g`` holds ``f[g]`` favored pairs and can
    still reach ``his[g]``; any completion gives it a final count in
    ``[f[g], his[g]]``, all of them inside one ``[t, t + window]``, and the
    counts sum to the entity's fixed ``total``. Three integer tests cut:

    - *window*: ``max(f) - min(his) > window``, no window fits;
    - *top*: the counts reach ``total`` only with the window's top at or
      above ``x``, the least integer with ``sum(min(his[g], x)) >= total``;
      there is no such ``x``, or ``x > min(his) + window``;
    - *bottom*: the window's floor is then at least ``t = max(max(f), x) -
      window``, and ``sum(max(f[g], t)) > total``.

    Both sums never fall as ``x`` or ``t`` rises, so the least values decide.
    """
    lo = max(f)
    hi = min(his)
    if lo - hi > window:
        return False
    k = len(his)
    need = total
    # the ceilings below `x` count in full, the other `k - j` as `x` each
    for j, h in enumerate(sorted(his)):
        x = -(-need // (k - j))
        if x <= h:
            break
        need -= h
    else:
        return False
    if x > hi + window:
        return False
    t = max(lo, x) - window
    low_sum = 0
    for v in f:
        low_sum += v if v > t else t
    return low_sum <= total


def prefix_branch_and_bound(
    wm: list[list[int]],
    *,
    constraints: Sequence[tuple[Entity, Fraction]] | _CountStates = (),
    incumbent_order: Sequence[int] | None = None,
    deadline: float | None = None,
    max_nodes: int | None = None,
) -> tuple[list[int] | None, int | None, bool, int]:
    """Exact prefix search for a minimum-disagreement (feasible) order.

    ``constraints`` are the ``(Entity, threshold)`` pairs of
    ``fair.enabled_entities``; group sizes and mixed-pair counts are read
    from each entity. They may also come as the ``_CountStates`` table
    built for such pairs over ``len(wm)`` candidates, whose states the
    search then reads and extends (``fair_kemeny`` passes its index's).
    ``incumbent_order``, when given, must be a permutation of
    ``range(len(wm))``; its objective is computed here.

    ``wm`` must be square with non-negative integer entries, of any size;
    numpy ints are taken as Python ints, and anything else (a ragged row, a
    negative entry, a float, a ``bool``) raises ``ValueError`` before any
    search.

    Returns ``(best_order, best_objective, completed, nodes)``. The search
    fixes the ranking top-down; placing candidate ``c`` before the
    remaining set costs ``sum(wm[c][r])`` and the admissible bound on any
    completion is the sum of pairwise minima among remaining candidates.
    With constraints, per-group favored-pair counts are tracked along the
    prefix and a node is cut as soon as some spread can no longer land
    within its threshold, no matter how the remainder is ordered. An
    entity of three or more groups sharing one mixed-pair count is cut by
    the three integer tests of ``_window_feasible`` (window, top, bottom);
    any other by its least reachable spread, in cross-multiplied integers.

    Both sums are running totals, packed into one int per candidate: a
    node holds, aligned with its remaining candidates, ``v = (gap << shift)
    + dmin``, where ``dmin`` is the candidate's minima ``sum(mins[c][r])``
    over the remaining set, ``gap`` its cost ``sum(wm[c][r])`` less
    ``dmin``, and ``shift`` the bit length of the largest root row sum of
    ``mins``. The root packs row sums; placing ``c`` subtracts the packed
    column ``c`` and drops ``c``, one pass per child instead of one per
    pair at every node. Both fields are sums of non-negative terms over
    the remaining set, and ``dmin`` never exceeds its root value, which is
    below ``2**shift``, so a subtraction never borrows across the fields.
    A child ``c`` is cut when ``cost + inc + lb - dmin`` reaches the
    incumbent, that is when ``gap >= room`` for the integer ``room =
    best - cost - lb``, and that holds exactly when ``v >= room << shift``:
    one compare per candidate, with ``inc = gap + dmin`` and ``dmin``
    unpacked only for the children that pass. Before sorting, a node
    drops each child the bound already cuts and each child whose count
    state the feasibility cut rules out. Neither changes the walk: the
    incumbent only improves, so a child cut now would be cut at its turn,
    and the survivors are checked against the bound again at their turn.
    They sort by ``(cost, candidate)``, a unique key, so they expand in
    the order that sorting every child would give.

    The counts live in interned *states*: each constraint's favored and
    remaining count per group. A candidate's *signature* is its group in
    every constraint, and a child's state follows from its parent's state
    and the child's signature alone. The cut reads nothing but the child's
    counts (the remaining-candidate total is their sum), so each state
    memoizes, per signature, its successor or the cut, and the cut runs
    once per distinct child counts. Successors are asked for every child
    that passes the bound, before the adjacency prune. A node that finds
    no child although the bound cut none of its candidates has its state
    marked dead (``_CountStates.mark_dead``) if the cut fires for every
    signature with members left; a later child at a dead state is counted,
    against ``max_nodes`` and the deadline, and not entered, since entered
    it would find every candidate cut and ask for no successor. The memo
    and the mark are exact: every node, and the order they are visited
    in, are those of checking each child afresh. Without constraints
    there is one signature and one state, never cut. The states live in a
    ``_CountStates`` table, which stores at most ``_COUNT_STATE_CAP`` of
    them and of the counts the cut rules out; past that, a new state is
    computed each time it is reached and not stored. A table built here
    from the pairs is released, like the per-node lists, when the search
    returns; a table passed in keeps what the search added, marks
    included, and a later search on it visits the same nodes as on a
    fresh one.

    ``max_nodes`` truncates the search after a fixed number of nodes, a
    deterministic alternative to a wall-clock deadline: reruns on the same
    input stop at the same node and return the same incumbent. It must be
    ``None`` or a non-negative ``int``.
    """
    _check_count(max_nodes, "max_nodes")
    wm = _check_weights(wm)
    n = len(wm)
    _check_order(incumbent_order, n)
    mins = [[min(wm[a][b], wm[b][a]) for b in range(n)] for a in range(n)]
    full_lb = sum(mins[a][b] for a in range(n) for b in range(a + 1, n))
    # no candidate's minima against the rest outgrow `shift` bits
    shift = max(map(sum, mins), default=0).bit_length()
    low = (1 << shift) - 1
    # `packed[c][r]`: what placing `c` takes from `r`'s packed running sum;
    # `mins` is symmetric
    packed = [
        [((wm[r][c] - mins[c][r]) << shift) + mins[c][r] for r in range(n)]
        for c in range(n)
    ]
    # every candidate's packed row sums; a node's sums only fall from these,
    # so `unbounded` cuts nothing: the bar while there is no incumbent
    root_vals = [sum(col) for col in zip(*packed)]
    unbounded = max(root_vals, default=0) + 1

    best_order = list(incumbent_order) if incumbent_order is not None else None
    best_obj = ranking_objective(wm, best_order) if best_order is not None else None
    table = (
        constraints
        if isinstance(constraints, _CountStates)
        else _CountStates(constraints, n)
    )
    sig = table.sig
    successor = table.successor
    # prefix-set dominance is only sound without constraints: feasibility
    # of a completion depends on prefix order, not just the prefix set
    dominance: dict[int, int] | None = {} if not table.records else None

    def rec(
        rem: list[int],
        vals: list[int],
        mask: int,
        cost: int,
        lb: int,
        last: int,
        state: _CountState,
    ) -> None:
        nonlocal best_order, best_obj, nodes
        # the caller has counted this node
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

        # children the bound or the feasibility cut already rules out would
        # be skipped at their turn too, so they never reach the sort
        size = len(rem)
        successors = state.next
        bar = unbounded if best_obj is None else (best_obj - cost - lb) << shift
        children = []
        bound_cut = False  # has the bound ruled out a candidate?
        for k, v in enumerate(vals):
            if v >= bar:
                bound_cut = True
                continue
            c = rem[k]
            s = sig[c]
            child = successors[s]
            if child is None:
                child = successor(state, s, size)
            if child is not False:
                children.append(((v >> shift) + (v & low), c, k, child))
        if not children:
            # no child, and the bound cut none: the cut alone emptied this
            # node, so its state may be dead for every node that reaches it
            if not bound_cut:
                table.mark_dead(state)
            return
        children.sort()

        for inc, c, k, child in children:
            cost_child = cost + inc
            lb_child = lb - (vals[k] & low)
            if best_obj is not None and cost_child + lb_child >= best_obj:
                continue
            if last >= 0 and wm[last][c] > wm[c][last] and sig[last] == sig[c]:
                # swapping the adjacent pair is strictly cheaper, and only
                # safe to rely on when it cannot change any group's favored
                # counts: the pair shares one signature
                continue
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                raise _SearchAborted
            if deadline is not None and nodes % 512 == 0 and time.perf_counter() > deadline:
                raise _SearchAborted
            if child.dead:
                # the child would find every candidate cut and ask for no
                # successor: counted, never entered
                continue
            col = packed[c]
            child_rem = rem[:]
            child_vals = [v - col[r] for r, v in zip(rem, vals)]
            del child_rem[k], child_vals[k]
            prefix.append(c)
            rec(
                child_rem,
                child_vals,
                mask & ~(1 << c),
                cost_child,
                lb_child,
                c,
                child,
            )
            prefix.pop()

    prefix: list[int] = []
    completed = True
    nodes = 1  # the root
    try:
        if max_nodes is not None and nodes > max_nodes:
            raise _SearchAborted
        rec(
            list(range(n)),
            root_vals,
            (1 << n) - 1,
            0,
            full_lb,
            -1,
            table.root,
        )
    except _SearchAborted:
        completed = False
    finally:
        # `rec` refers to itself; breaking that cycle frees the dominance
        # table, and a count-state table built here, now rather than at the
        # next cyclic collection
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
    _check_exact_size(precedence.n, max_exact_n)
    wm = precedence.cost_lists()
    deadline = _deadline(resolve_budget_ms(time_budget_ms))
    seed_order = _borda_order(precedence.matrix)
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
    """Positional-points consensus: weighted count of candidates ranked below.

    A candidate at position p of a ranking earns n - 1 - p points times the
    ranking's weight, summed over the set's positions in one product: in
    int64 while the largest possible total fits, else in Python ints.
    """
    top = table.n - 1
    exact = np.int64 if rankings.total_weight * top <= np.iinfo(np.int64).max else object
    weights = np.array(rankings.weights, dtype=exact)
    points = weights @ (top - rankings.positions(table.candidate_ids))
    return ranking_from_indices(_by_points(points.tolist()), table)


def borda_streamed(batches, table) -> Ranking:
    """Borda consensus from batched integer ranking rows.

    ``batches`` yields arrays of shape (rows, n) whose rows are permutations
    of the table indices, e.g. from the ranking generator's batch iterator.
    The result matches ``borda`` on the materialized set. A batch of
    another shape, or with an entry outside [0, n), raises
    ``InconsistentCandidateSet``; a row that repeats an index is not
    caught.

    Working set: the batch at hand plus a scratch of about ``_STREAM_CHUNK``
    elements (or one row); no batch is kept while the next is drawn.
    """
    points = [0] * table.n
    for rows in batches:
        points = _add_row_points(points, rows)
        del rows  # not held while ``batches`` makes the next one
    return ranking_from_indices(_by_points(points), table)


def copeland(precedence: PrecedenceMatrix) -> Ranking:
    """Pairwise-win consensus; a tied pair counts as a win for both sides.

    Candidates with equal win counts are ordered by total pairwise support
    (the positional point total), so tie blocks keep the base rankings'
    preference signal instead of falling back to declaration order first.
    """
    m = precedence.matrix
    # column b counts each a with m[a, b] >= m[b, a]; the diagonal compares
    # 0 with 0 and counts once, hence the - 1
    return _by_wins(precedence, (m >= m.T).sum(axis=0) - 1)


def schulze(precedence: PrecedenceMatrix) -> Ranking:
    """Strongest-path consensus over the pairwise-preference graph.

    Candidates are ordered by the number of strongest-path contests won;
    ties fall back to total pairwise support, then declaration order.

    ``p[a, b]`` starts as the support for ``a`` over ``b`` (the weight of
    rankings placing ``a`` first) where it beats the reverse, else 0. Each
    pivot ``i`` then widens every path through ``i`` in one array step,
    the widest-path recurrence of Schulze (2011). That equals updating the
    entries one by one in place: row and column ``i`` cannot change during
    pivot ``i`` (a path through ``i`` that starts or ends there is no
    wider), so every entry reads the values the sequential loop reads. A
    diagonal entry may turn nonzero, which that loop never writes, but it
    feeds no off-diagonal entry (it is read only at its own pivot, where
    each minimum it enters is capped by the entry it would widen) and no
    win (``p[a, a] > p[a, a]`` is false).
    """
    m = precedence.matrix
    p = np.where(m.T > m, m.T, 0)
    for i in range(precedence.n):
        p = np.maximum(p, np.minimum(p[:, i, None], p[None, i, :]))
    return _by_wins(precedence, (p > p.T).sum(axis=1))


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
    """Base-ranking positions by fairness key, fairest first; ties keep input order.

    The order is ``sorted(range(m), key=lambda i: (fairness_sort_key(r_i),
    i))``, computed in one integer pass over the set's positions. Group
    ``g``'s members sit above ``n - 1 - pos(c)`` candidates each, and lie
    above one another in exactly ``C(|g|, 2)`` pairs, so its favored pairs
    are ``sum(n - 1 - pos(c) for c in g) - C(|g|, 2)``: per entity, one
    product of the m x n positions with its groups' membership columns,
    at most ``n**2`` each and exact in int64. Every share is then scaled by ``L``, the lcm
    of all scored groups' mixed-pair counts, so each spread becomes an
    integer and the keys, compared as Python ints of any size, order
    exactly as the ``Fraction`` tuples do. A set over other candidates than
    the table raises ``InconsistentCandidateSet``.
    """
    n = index.table.n
    pos = rankings.positions(index.table.candidate_ids)
    scored = [
        e
        for e in sorted(spec.entities(index), key=lambda e: not e.is_intersection)
        if len(e.groups) >= 2
    ]
    if not scored:
        return list(range(rankings.size))
    lcm = math.lcm(*(g.mixed_pairs for e in scored for g in e.groups))
    spreads = []
    for e in scored:
        members = np.eye(len(e.groups), dtype=np.int64)[list(e.gid)]
        top = [g.size * (n - 1) - g.size * (g.size - 1) // 2 for g in e.groups]
        scale = np.array([lcm // g.mixed_pairs for g in e.groups], dtype=object)
        shares = (top - pos @ members).astype(object) * scale
        spreads.append((shares.max(axis=1) - shares.min(axis=1)).tolist())
    keys = [(max(key), *key) for key in zip(*spreads)]
    return sorted(range(rankings.size), key=keys.__getitem__)


def pick_fairest(
    rankings: RankingSet, spec: FairnessSpec, index: GroupIndex
) -> Ranking:
    """The base ranking with the lowest fairness key; ties keep input order.

    That is the first of ``_fairest_first``'s order, which scores every
    ranking in one integer pass from its favored-pair counts, group ``g``'s
    being ``sum(n - 1 - pos(c) for c in g) - C(|g|, 2)``.
    """
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

    Base rankings are ordered fairest first by ``_fairest_first``, which
    scores them in one integer pass from their favored-pair counts, group
    ``g``'s being ``sum(n - 1 - pos(c) for c in g) - C(|g|, 2)``. Key ties
    keep input order (the earlier ranking counts as fairer), and the one
    at place ``t`` of ``size`` weighs ``size - t``: the least fair weighs
    1, so fairer inputs pull the consensus harder.

    Input weights count as multiplicity, as everywhere in ``RankingSet``:
    a ranking of weight ``w`` weighs what ``w`` adjacent copies of it
    would. With ``M`` the total weight and ``t`` the weight of the rankings
    ahead of it, those copies weigh ``M - t``, ``M - t - 1``, ..., ``M - t
    - w + 1``, together ``w * (M - t) - w * (w - 1) / 2``.
    """
    _check_exact_size(index.table.n, max_exact_n)
    weights = [0] * rankings.size
    left = rankings.total_weight
    for i in _fairest_first(rankings, spec, index):
        w = rankings.weights[i]
        weights[i] = w * left - w * (w - 1) // 2
        left -= w
    weighted = RankingSet(rankings.rankings, tuple(weights))
    precedence = build_precedence_matrix(weighted, index.table)
    return kemeny_exact(
        precedence, time_budget_ms=time_budget_ms, max_exact_n=max_exact_n
    )
