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
substream derived from (seed, ranking index): ranking r's k-th uniform is
the k-th output of ``SplitMix64(mix(seed + gamma * (r + 1)))``, making
output independent of generation order or batching.

A batch decodes one insertion step at a time across all of its rankings
(Lu & Boutilier, JMLR 2014): each step reads one row of SplitMix64 words,
finds each ranking's insertion point, and shifts the earlier candidates at
or after that point down by one in a position array of the narrowest
integer type that holds n (``int8`` up to n = 127); a scatter then writes
the finished rows. The words are mixed a block of steps at a time, in place
in two reused buffers, and the scatter runs a chunk of rows at a time,
each sized by the element budget ``_STREAM_CHUNK``: besides its rows, a
batch holds its position array, one byte a cell of shift mask and a fixed
scratch, never a second batch-sized array of 8-byte cells.

A step's key for a word ``w`` is ``w * 2**-64 * total``, the word's share of
the step's summed weights. A step that meets a large first batch finds
every batch's insertion points through a guide table (Chen & Asau, AIIE
Trans. 1974) on the words themselves, never making the keys: the key is
monotone in ``w``, so each cumulative weight has a least word whose key
reaches it, and one vectorized bisection over the 2**64 words finds these
thresholds for all of a call's tables at once. The table starts each word
at the answer for the bucket its top bits name, one pass steps it forward
once, and only the few words still short of their answer are
binary-searched. See ``_GuideTable`` for why this is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import DegenerateAttribute, DegenerateIntersection, ScenarioUnreachable
from .metrics import GroupCountTracker
from .model import (
    _STREAM_CHUNK,
    Entity,
    GroupIndex,
    Ranking,
    RankingSet,
    build_group_index,
)

_GAMMA = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF
_INV_2_64 = float(2**-64)
_ONE = np.uint64(1)


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


def _uniform_matrix(
    seed: int, start_index: int, count: int, width: int
) -> Iterator[np.ndarray]:
    """The ``uint64`` words for steps 1..width, a block of steps at a time.

    Column k of every block is ranking start+k's substream; the blocks'
    rows, read in order, are its steps, and ``_keys`` turns a word into the
    uniform ``w * 2**-64`` in [0, 1] times a total. A block holds about
    ``_STREAM_CHUNK`` elements (at least one step) and reuses the memory of
    the block before it, so read each block before asking for the next.
    """
    indices = np.arange(start_index, start_index + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        sub = np.uint64(seed & _MASK) + np.uint64(_GAMMA) * (indices + np.uint64(1))
        steps = np.uint64(_GAMMA) * np.arange(1, width + 1, dtype=np.uint64)
    _mix64_np(sub, np.empty_like(sub))
    block = max(1, min(width, _STREAM_CHUNK // count))
    words = np.empty((block, count), dtype=np.uint64)
    scratch = np.empty_like(words)
    for first in range(0, width, block):
        z = words[: width - first]
        np.add(steps[first : first + block, None], sub, out=z)
        _mix64_np(z, scratch[: len(z)])
        yield z


def _keys(words: np.ndarray, total) -> np.ndarray:
    """Each word's key: its uniform ``w * 2**-64`` times ``total`` (one
    total, or one per word), the float every insertion step compares with
    its cumulative weights."""
    keys = words * _INV_2_64
    keys *= total
    return keys


def _mix64_np(z: np.ndarray, tmp: np.ndarray) -> None:
    """The finalizer of ``_mix64_int``, in place on ``z``; ``tmp`` is
    scratch of the same shape and dtype."""
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= np.uint64(0x94D049BB133111EB)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp


@dataclass(frozen=True)
class MallowsConfig:
    """One sampling run: modal order, dispersion, count, and seed."""

    modal: Ranking
    theta: float
    num_rankings: int
    seed: int

    def __post_init__(self) -> None:
        _check_theta(self.theta)
        if self.num_rankings < 1:
            raise ValueError("num_rankings must be positive")


def _check_theta(theta: float) -> None:
    if not theta >= 0:  # also rejects NaN
        raise ValueError(f"theta must be non-negative, got {theta}")


def _insertion_cumsum(powers: np.ndarray, i: int) -> np.ndarray:
    """Step ``i``'s cumulative insertion weights, small terms first.

    ``powers`` holds phi**0, phi**1, ...: the i-th modal candidate weighs
    its i slots phi**(i-1), ..., phi**0 from the top, so every step reads a
    reversed prefix of one power table.
    """
    return np.cumsum(powers[i - 1 :: -1])


#: A step builds a guide table, and looks every batch up through it, only
#: when its first batch has ``rows * log2(size) >= _GUIDE_MIN_WORK`` (a
#: binary search costs about log2(size) per key, the table a fixed cost per
#: step plus 64 bisection rounds per entry, about 0.2 us an entry; on a
#: 2-core Xeon VM, over theta in [0, 1], the two met near 4 000-6 000 rows
#: at size 4, 2 000-6 000 at 32 and 1 500-6 000 at 128, at or below where
#: a float-keyed table met it measured the same way, and 6 000-16 000 at
#: 2 048, where a table that loses costs under 5 % of that step's shift)
#: and ``rows >= _GUIDE_ROWS_PER_ENTRY * size``, which keeps the tables a
#: call holds (16 bytes an entry, one table a step) under half the bytes of
#: one batch's rows.
_GUIDE_MIN_WORK = 14_000
_GUIDE_ROWS_PER_ENTRY = 4


def _guide_pays(rows: int, size: int) -> bool:
    """Whether a step whose first batch has ``rows`` keys should build a
    table of ``size``."""
    return (
        rows * (size.bit_length() - 1) >= _GUIDE_MIN_WORK
        and rows >= _GUIDE_ROWS_PER_ENTRY * size
    )


class _GuideTable:
    """Bucket starts for one step's insertion-point lookup, on raw words.

    The answer for a word ``w`` is ``searchsorted(cum[:-1], _keys(w,
    cum[-1]), "right")``: how many of the step's cumulative weights lie at
    or below its key, capped at the last slot. The key is monotone in ``w``
    (the word's rounding to float and the product's are both monotone), so
    ``cum[k] <= key(w)`` holds exactly when ``w >= thresholds[k]``, the least
    word whose key reaches ``cum[k]``; such a word exists because the
    largest word's key is ``cum[-1]`` itself. The answer is then
    ``searchsorted(thresholds, w, "right")`` for every 64-bit word, with no
    float in sight. ``size`` is a power of two and ``starts[b]`` is the
    answer at the bucket edge ``b << shift``, the least word whose top
    ``log2(size)`` bits read ``b``, so it never passes the answer of a word
    in its bucket ``w >> shift``. ``bounds`` holds ``thresholds - 1`` and
    then ``2**64 - 1``, which no word passes, so ``bounds[k] < w`` steps a
    word forward and a word at the last slot stays there. A zero threshold
    (a weight that underflowed to 0) wraps to ``2**64 - 1`` in ``bounds``,
    but every start already sits past it; adding one wraps it back.
    """

    __slots__ = ("shift", "starts", "bounds")

    def __init__(self, thresholds: np.ndarray) -> None:
        size = _guide_size(len(thresholds) + 1)
        self.shift = np.uint64(65 - size.bit_length())
        edges = np.arange(size, dtype=np.uint64) << self.shift
        self.starts = np.searchsorted(thresholds, edges, side="right")
        self.bounds = np.append(thresholds - _ONE, np.uint64(_MASK))

    def lookup(self, words: np.ndarray) -> np.ndarray:
        # the shift is at least 1, so every bucket fits an int64 as it is
        found = self.starts[(words >> self.shift).view(np.int64)]
        bounds = self.bounds
        found += bounds[found] < words
        # still short of the answer after one step forward: binary-search
        short = np.flatnonzero(bounds[found] < words)
        if short.size:
            found[short] = np.searchsorted(
                bounds[:-1] + _ONE, words[short], side="right"
            )
        return found


def _thresholds(targets: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """The least word whose key (``_keys(w, totals[k])``) reaches
    ``targets[k]``, for every k at once.

    A plain bisection over the 2**64 words, one bit a round from the top:
    the key is monotone in the word, so ``below`` ends at the largest word
    whose key falls short of its target (or at 0), and the threshold is the
    word after it. That never passes ``2**64 - 1``, whose key is the whole
    total, which no target passes. It calls ``_keys`` itself, so it finds
    the words the unguided search would place, bit for bit.
    """
    below = np.zeros(len(targets), dtype=np.uint64)
    probe = np.empty_like(below)
    for bit in range(63, -1, -1):
        np.bitwise_or(below, np.uint64(1 << bit), out=probe)
        np.copyto(below, probe, where=_keys(probe, totals) < targets)
    # a zero target is reached by word 0 itself
    return below + (_keys(below, totals) < targets).astype(np.uint64)


def _guide_size(length: int) -> int:
    """The smallest power of two at or above ``length``."""
    return 1 << (length - 1).bit_length()


def _guide_tables(powers: np.ndarray, steps: Sequence[int]) -> list[_GuideTable]:
    """One ``_GuideTable`` for each of ``steps``, from one bisection over
    all of their cumulative weights."""
    cums = [_insertion_cumsum(powers, i) for i in steps]
    if not cums:
        return []
    thresholds = _thresholds(
        np.concatenate([cum[:-1] for cum in cums]),
        np.repeat([cum[-1] for cum in cums], [len(cum) - 1 for cum in cums]),
    )
    ends = np.cumsum([len(cum) - 1 for cum in cums])
    return [_GuideTable(t) for t in np.split(thresholds, ends[:-1])]


def iter_ranking_batches(
    modal_indices: Sequence[int],
    theta: float,
    num_rankings: int,
    seed: int,
    batch_size: int = 4096,
) -> Iterator[np.ndarray]:
    """Sampled rankings as integer rows (permutations of ``modal_indices``).

    Streaming form for large runs: rows arrive in batches and never need to
    be materialized all at once. A NaN or negative ``theta``, a negative
    ``num_rankings`` (0 yields nothing) and a ``batch_size`` below 1 raise
    ``ValueError``.

    Working set: one batch's rows (``int64``, 8 bytes a cell), its
    position array (1 to 4 bytes a cell) and shift mask (1 byte a cell),
    the last two freed before the rows are allocated, scratch buffers of
    about ``_STREAM_CHUNK`` elements each (one step's ``count`` elements
    when a batch is larger than that), and the guide tables, kept under
    half the bytes of the rows (100 kB at n = 100 and 8 192 rows). The
    bisection that builds the tables works once per call on a few arrays of
    one 8-byte cell per threshold (5 000 at n = 100). A step without a table
    sums its at most n weights again for each batch. The generator drops
    each batch once yielded, so a consumer that also drops it (as
    ``borda_streamed`` does) never holds two batches at once.

    A step whose first (largest) batch pays for a guide table
    (``_guide_pays``) builds one ``_GuideTable`` per call and finds every
    batch's insertion points through it on the raw words; the other steps
    turn their words into keys and binary-search each. Both give the same
    slots, whatever the batch size. Positions are kept in the narrowest of
    ``int8``/``int16``/``int32`` that holds n, so the per-step shift reads
    as few bytes as it can.
    """
    _check_theta(theta)
    if num_rankings < 0:
        raise ValueError(f"num_rankings must be non-negative, got {num_rankings}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    modal = np.asarray(modal_indices, dtype=np.int64)
    n = len(modal)
    powers = float(np.exp(-theta)) ** np.arange(n, dtype=np.float64)
    pos_dtype = next(
        dt for dt in (np.int8, np.int16, np.int32) if n <= np.iinfo(dt).max
    )
    # as an index, ``pos`` widens to 8 bytes a cell: scatter a chunk at a time
    chunk = max(1, _STREAM_CHUNK // max(n, 1))
    # the first batch is the largest, so it decides which steps need a table
    rows_per_batch = min(batch_size, num_rankings)
    # a table keeps only its thresholds, not the step's weights: n(n - 1)/2
    # floats in all would outgrow a batch's rows at large n
    tabled = [
        i for i in range(2, n + 1) if _guide_pays(rows_per_batch, _guide_size(i))
    ]
    tables = dict(zip(tabled, _guide_tables(powers, tabled)))
    guides = [tables.get(i) for i in range(2, n + 1)]
    for start in range(0, num_rankings, batch_size):
        count = min(batch_size, num_rankings - start)
        words = chain.from_iterable(_uniform_matrix(seed, start, count, n - 1))
        # pos[i, r]: where row r currently holds the i-th modal candidate
        pos = np.zeros((n, count), dtype=pos_dtype)
        moves = np.empty((n, count), dtype=np.bool_)
        for step, guide in enumerate(guides):
            # no name holds a word block past its lookup, so ``del`` frees them
            if guide is None:  # sum the step's weights afresh
                cum = _insertion_cumsum(powers, step + 2)
                keys = _keys(next(words), cum[-1])
                point = np.searchsorted(cum[:-1], keys, side="right")
            else:
                point = guide.lookup(next(words))
            point = point.astype(pos_dtype)
            earlier = pos[: step + 1]
            # candidates at or after the insertion point move down one; the
            # int8 view keeps the add on numpy's integer loop, not a bool cast
            earlier += np.greater_equal(
                earlier, point, out=moves[: step + 1]
            ).view(np.int8)
            pos[step + 1] = point
        del words, moves  # spent; free their buffers before the rows are allocated
        rows = np.empty((count, n), dtype=np.int64)
        lanes = np.arange(count)
        for r in range(0, count, chunk):
            rows[lanes[r : r + chunk], pos[:, r : r + chunk]] = modal[:, None]
        del pos
        yield rows
        del rows  # the consumer's now; keep none alive while the next is made


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


def _window(target: Fraction, tolerance: Fraction) -> tuple[int, int, int, int]:
    """The clipped window ``[lo, hi]`` as ``(lo num, lo den, hi num, hi den)``."""
    lo = max(Fraction(0), target - tolerance)
    hi = min(Fraction(1), target + tolerance)
    return lo.numerator, lo.denominator, hi.numerator, hi.denominator


def build_scenario(
    index: GroupIndex,
    targets: ScenarioTargets,
    seed: int,
    *,
    restarts: int = 50,
) -> Ranking:
    """Construct a modal ranking whose scores land in the target windows.

    Starts from the fully separated block ranking (intersection cells laid
    out contiguously, attribute-major), then walks scores into their
    windows one pairwise swap at a time: repair-style swaps shrink a spread
    that sits above its window, mirrored swaps widen one that sits below.
    A ``GroupCountTracker`` finds and makes both and keeps every spread
    current: finding a swap takes two or three byte searches over the
    per-position group labels, and making it two label stores per entity.
    Each restart reshuffles the starting block order with a seeded stream
    and makes at most ``80 * n + 400`` swaps; if no restart lands in every
    window the scenario is unreachable. An intersection window needs at
    least two intersection cells to compare.
    """
    table = index.table
    n = table.n

    jobs: list[tuple[Entity, int, int, int, int]] = []
    if targets.irp is not None:
        if index.intersection is None:
            raise DegenerateIntersection(
                "an intersection window needs an index built with one"
            )
        if len(index.intersection.groups) < 2:
            raise DegenerateIntersection(
                "an intersection window needs at least two intersection cells"
            )
        jobs.append((index.intersection, *_window(*targets.irp)))
    for name in targets.arp:
        entity = index.attribute(name)
        if len(entity.groups) < 2:
            raise DegenerateAttribute(
                f"attribute {name!r} has a single group; no spread to target"
            )
    for entity in index.attribute_entities:
        if entity.name in targets.arp:
            jobs.append((entity, *_window(*targets.arp[entity.name])))

    cell_of = (index.intersection or build_group_index(table).intersection).gid
    cells = sorted(set(cell_of))

    for attempt in range(restarts):
        cell_order = list(cells)
        if attempt > 0:
            SplitMix64(derive_seed(seed, attempt)).shuffle(cell_order)
        cell_rank = {c: r for r, c in enumerate(cell_order)}
        order = sorted(range(n), key=lambda c: (cell_rank[cell_of[c]], c))
        tracker = GroupCountTracker(order, [job[0] for job in jobs])

        for _ in range(80 * n + 400):
            # (excess numerator, excess denominator, move, job position, hi, lo)
            worst = None
            for j, (_, lo_num, lo_den, hi_num, hi_den) in enumerate(jobs):
                num, den, hi, lo = tracker.spreads[j]
                # how far num / den lies outside its window, compared by
                # cross-multiplication as the repair does (den > 0)
                if num * hi_den > hi_num * den:
                    ex_num, ex_den = num * hi_den - hi_num * den, den * hi_den
                    move = tracker.narrowing
                elif num * lo_den < lo_num * den:
                    ex_num, ex_den = lo_num * den - num * lo_den, den * lo_den
                    move = tracker.widening
                else:
                    continue
                if worst is None or ex_num * worst[1] > worst[0] * ex_den:
                    worst = (ex_num, ex_den, move, j, hi, lo)
            if worst is None:
                return Ranking(tuple(table.candidate_ids[i] for i in order))
            _, _, move, j, hi, lo = worst
            pair = move(j, hi, lo)
            if pair is None:
                break  # no legal move; try a fresh start
            tracker.swap(*pair)
    raise ScenarioUnreachable(
        f"no ranking hit every target window within {restarts} restarts"
    )
