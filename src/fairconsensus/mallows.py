"""Seeded synthetic ranking generation around a modal order.

Sampling follows the classic repeated-insertion scheme: the i-th candidate
of the modal order inserts at position j within the current prefix with
probability proportional to exp(-theta * (i - j)). Each insertion adds
exactly its displacement in disagreements, so a full draw lands at a
ranking with probability proportional to exp(-theta * distance-to-modal).
theta = 0 is uniform; large theta concentrates on the modal order.

Randomness comes from SplitMix64 (64-bit add-and-mix generator; golden
gamma increment with a three-step xor-shift-multiply finalizer), chosen so
streams are reproducible across platforms. Every ranking draws from its own
substream derived from (seed, ranking index), making output independent of
generation order or batching.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import DegenerateIntersection, ScenarioUnreachable, UnknownAttribute
from .metrics import entity_spread
from .model import Entity, GroupIndex, Ranking, RankingSet

_GAMMA = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF
_INV_2_64 = float(2**-64)


def _mix64_int(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Scalar SplitMix64 stream; deterministic and platform-independent."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix64_int(self._state)

    def random(self) -> float:
        return self.next_u64() * _INV_2_64

    def randrange(self, bound: int) -> int:
        # modulo bias is negligible for the small bounds used here
        return self.next_u64() % bound

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


def derive_seed(seed: int, *parts: int) -> int:
    """Independent substream seed from a base seed and integer coordinates."""
    state = seed & _MASK
    for part in parts:
        state = _mix64_int((state + _GAMMA * ((part & _MASK) + 1)) & _MASK)
    return state


def _uniform_matrix(seed: int, start_index: int, count: int, width: int) -> np.ndarray:
    """Uniforms in [0, 1): row k holds the substream for ranking start+k."""
    indices = np.arange(start_index, start_index + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        sub = np.uint64(seed) + np.uint64(_GAMMA) * (indices + np.uint64(1))
        sub = _mix64_np(sub)
        steps = np.uint64(_GAMMA) * np.arange(1, width + 1, dtype=np.uint64)
        words = _mix64_np(sub[:, None] + steps[None, :])
    return words * _INV_2_64


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


@dataclass(frozen=True)
class MallowsConfig:
    """One sampling run: modal order, dispersion, count, and seed."""

    modal: Ranking
    theta: float
    num_rankings: int
    seed: int

    def __post_init__(self) -> None:
        if self.theta < 0:
            raise ValueError(f"theta must be non-negative, got {self.theta}")
        if self.num_rankings < 1:
            raise ValueError("num_rankings must be positive")


def _insertion_cumsums(n: int, theta: float) -> list[np.ndarray]:
    """cums[i] for step i+2: cumulative insertion weights, small terms first."""
    phi = float(np.exp(-theta))
    cums = []
    for i in range(2, n + 1):
        weights = phi ** np.arange(i - 1, -1, -1, dtype=np.float64)
        cums.append(np.cumsum(weights))
    return cums


def iter_insertion_batches(
    n: int, theta: float, num_rankings: int, seed: int, batch_size: int = 4096
) -> Iterator[np.ndarray]:
    """Insertion-position matrices (rows of j_2..j_n, 1-based) in batches."""
    cums = _insertion_cumsums(n, theta)
    produced = 0
    while produced < num_rankings:
        count = min(batch_size, num_rankings - produced)
        uniforms = _uniform_matrix(seed, produced, count, n - 1)
        positions = np.empty((count, n - 1), dtype=np.int64)
        for step, cum in enumerate(cums):
            targets = uniforms[:, step] * cum[-1]
            found = np.searchsorted(cum, targets, side="right")
            positions[:, step] = np.minimum(found, step + 1) + 1
        yield positions
        produced += count


def iter_ranking_batches(
    modal_indices: Sequence[int],
    theta: float,
    num_rankings: int,
    seed: int,
    batch_size: int = 4096,
) -> Iterator[np.ndarray]:
    """Sampled rankings as integer rows (permutations of ``modal_indices``).

    Streaming form for large runs: rows arrive in batches and never need to
    be materialized all at once.
    """
    n = len(modal_indices)
    modal = list(modal_indices)
    if n == 1:
        row = np.array([modal], dtype=np.int64)
        for start in range(0, num_rankings, batch_size):
            count = min(batch_size, num_rankings - start)
            yield np.repeat(row, count, axis=0)
        return
    for positions in iter_insertion_batches(n, theta, num_rankings, seed, batch_size):
        rows = np.empty((positions.shape[0], n), dtype=np.int64)
        for r in range(positions.shape[0]):
            current = [modal[0]]
            insert = current.insert
            prow = positions[r]
            for step in range(n - 1):
                insert(prow[step] - 1, modal[step + 1])
            rows[r] = current
        yield rows


def sample_mallows(config: MallowsConfig) -> RankingSet:
    """Draw a ranking set around the modal order; fully seed-determined."""
    ids = config.modal.order
    rankings: list[Ranking] = []
    for rows in iter_ranking_batches(
        range(len(ids)), config.theta, config.num_rankings, config.seed
    ):
        for row in rows.tolist():
            rankings.append(Ranking(tuple(ids[i] for i in row)))
    return RankingSet(tuple(rankings))


def mixed_block_modal(index: GroupIndex, mix: float) -> Ranking:
    """Deterministic modal between cell separation and full interleave.

    ``mix=1`` lays intersection cells out as contiguous blocks in label
    order (every spread maximal); ``mix=0`` round-robins the cells (spreads
    near zero). Values between slide the blocks partially over each other,
    giving intermediate unfairness without any search. Useful for large
    populations where the window-targeted construction would be slow.
    """
    if index.intersection is None:
        raise DegenerateIntersection("a mixed block modal needs intersection cells")
    if not 0 <= mix <= 1:
        raise ValueError(f"mix must lie in [0, 1], got {mix}")
    table = index.table
    cell_of = index.intersection.gid
    sizes = [len(g.members) for g in index.intersection.groups]
    starts = [0] * len(sizes)
    for c in range(1, len(sizes)):
        starts[c] = starts[c - 1] + sizes[c - 1]
    rank_in_cell = [0] * table.n
    seen = [0] * len(sizes)
    for i in range(table.n):
        rank_in_cell[i] = seen[cell_of[i]]
        seen[cell_of[i]] += 1
    order = sorted(
        range(table.n),
        key=lambda i: (mix * starts[cell_of[i]] + rank_in_cell[i], cell_of[i], i),
    )
    return Ranking(tuple(table.candidate_ids[i] for i in order))


@dataclass(frozen=True)
class ScenarioTargets:
    """Score windows a constructed modal ranking must land in.

    ``arp`` maps attribute name to (target, tolerance); ``irp`` is the
    intersection window or ``None`` when unconstrained. Windows clip to
    [0, 1].
    """

    arp: Mapping[str, tuple[Fraction, Fraction]]
    irp: tuple[Fraction, Fraction] | None = None


#: Named target presets: (attribute target, intersection target).
SCENARIO_PRESETS: dict[str, tuple[Fraction, Fraction]] = {
    "low-fair": (Fraction("0.70"), Fraction("1.00")),
    "medium-fair": (Fraction("0.50"), Fraction("0.75")),
    "high-fair": (Fraction("0.30"), Fraction("0.54")),
}


def scenario_targets(
    preset: str,
    attributes: Sequence[str],
    tolerance: Fraction = Fraction("0.05"),
) -> ScenarioTargets:
    """Preset windows applied to every named attribute plus the intersection."""
    if preset not in SCENARIO_PRESETS:
        raise ValueError(
            f"unknown scenario preset {preset!r}; "
            f"choose from {sorted(SCENARIO_PRESETS)}"
        )
    arp_target, irp_target = SCENARIO_PRESETS[preset]
    return ScenarioTargets(
        {a: (arp_target, tolerance) for a in attributes},
        (irp_target, tolerance),
    )


def _window(target: Fraction, tolerance: Fraction) -> tuple[Fraction, Fraction]:
    return max(Fraction(0), target - tolerance), min(Fraction(1), target + tolerance)


def _positions_of(order: Sequence[int], members: Sequence[int]) -> list[int]:
    pos = {c: p for p, c in enumerate(order)}
    return sorted(pos[m] for m in members)


def _narrow_spread(order: list[int], entity: Entity, hi: int, lo: int) -> bool:
    """One repair-style swap: demote the high group, promote the low group."""
    hi_positions = _positions_of(order, entity.groups[hi].members)
    lo_positions = _positions_of(order, entity.groups[lo].members)
    bottom_lo = lo_positions[-1]
    candidates = [p for p in hi_positions if p < bottom_lo]
    if not candidates:
        return False
    p = candidates[-1]
    s = next(q for q in lo_positions if q > p)
    order[p], order[s] = order[s], order[p]
    return True


def _widen_spread(order: list[int], entity: Entity, hi: int, lo: int) -> bool:
    """One anti-repair swap: promote the high group past the low group."""
    hi_positions = _positions_of(order, entity.groups[hi].members)
    lo_positions = _positions_of(order, entity.groups[lo].members)
    top_lo = lo_positions[0]
    if top_lo > hi_positions[-1]:
        return False
    s = next(q for q in hi_positions if q > top_lo)
    order[top_lo], order[s] = order[s], order[top_lo]
    return True


def build_scenario(
    index: GroupIndex,
    targets: ScenarioTargets,
    seed: int,
    *,
    restarts: int = 50,
    max_moves: int | None = None,
) -> Ranking:
    """Construct a modal ranking whose scores land in the target windows.

    Starts from the fully separated block ranking (intersection cells laid
    out contiguously, attribute-major), then walks scores into their
    windows one pairwise swap at a time: repair-style swaps shrink a spread
    that sits above its window, mirrored swaps widen one that sits below.
    Each restart reshuffles the starting block order with a seeded stream;
    if no restart lands in every window the scenario is unreachable.
    """
    table = index.table
    n = table.n
    budget = max_moves if max_moves is not None else 80 * n + 400

    jobs: list[tuple[Entity, Fraction, Fraction]] = []
    if targets.irp is not None:
        if index.intersection is None:
            raise DegenerateIntersection(
                "an intersection window needs an index built with one"
            )
        jobs.append((index.intersection, *_window(*targets.irp)))
    for name in targets.arp:
        entity = index.attribute(name)
        if len(entity.groups) < 2:
            raise UnknownAttribute(
                f"attribute {name!r} has a single group; no spread to target"
            )
    for entity in index.attribute_entities:
        if entity.name in targets.arp:
            jobs.append((entity, *_window(*targets.arp[entity.name])))

    cell_of = (
        index.intersection.gid
        if index.intersection is not None
        else tuple(
            {v: i for i, v in enumerate(sorted(set(table.values)))}[v]
            for v in table.values
        )
    )
    cells = sorted(set(cell_of))

    for attempt in range(restarts):
        cell_order = list(cells)
        if attempt > 0:
            SplitMix64(derive_seed(seed, attempt)).shuffle(cell_order)
        cell_rank = {c: r for r, c in enumerate(cell_order)}
        order = sorted(range(n), key=lambda c: (cell_rank[cell_of[c]], c))

        for _ in range(budget):
            worst = None  # (excess, job position, direction, hi, lo)
            for pos_j, (entity, lo_bound, hi_bound) in enumerate(jobs):
                num, den, hi, lo = entity_spread(order, entity)
                spread = Fraction(num, den)
                if spread > hi_bound:
                    excess = spread - hi_bound
                    direction = "narrow"
                elif spread < lo_bound:
                    excess = lo_bound - spread
                    direction = "widen"
                else:
                    continue
                if worst is None or excess > worst[0]:
                    worst = (excess, pos_j, direction, hi, lo)
            if worst is None:
                return Ranking(tuple(table.candidate_ids[i] for i in order))
            _, pos_j, direction, hi, lo = worst
            entity = jobs[pos_j][0]
            moved = (
                _narrow_spread(order, entity, hi, lo)
                if direction == "narrow"
                else _widen_spread(order, entity, hi, lo)
            )
            if not moved:
                break  # no legal move; try a fresh start
    raise ScenarioUnreachable(
        f"no ranking hit every target window within {restarts} restarts"
    )
