"""Command-line surface: ingestion, aggregation, reports, generation, sweeps.

File formats
------------
candidates CSV: header ``candidate_id,<attr1>,<attr2>,...``; one candidate
per row; values are opaque non-empty strings. rankings CSV: no header, one
ranking per row as candidate ids from first place to last; every row must
be a permutation of the candidate table.

Reports carry every rational both exactly (numerator/denominator) and as a
6-digit decimal. Each command builds all of its files in memory; ``main``
then adds the ``timing.json`` wall-clock sidecar and writes them atomically
(temp file plus rename), so a failing command leaves no partial outputs and
the data files are byte-identical across reruns with the same inputs and
seeds.

Experiment config
-----------------
A JSON object; ``candidates`` and ``modal`` are relative to the config
file, ``out`` to the working directory. Required keys:
``candidates`` (CSV path); ``methods`` (non-empty list of method names);
``thetas`` (non-empty list of finite dispersions >= 0); ``deltas``
(non-empty list of thresholds, decimal strings or numbers in [0, 1] with at
most 6 fractional digits); ``trials`` and ``num_rankings`` (integers >= 1);
``seed`` (integer); and exactly one of ``modal`` (CSV holding one ranking)
or ``scenario``. A scenario is a preset name (``low-fair``,
``medium-fair``, ``high-fair``, windowed by a positive ``tolerance``,
default ``"0.05"``) or an object ``{"arp": {attr: [target, tolerance]},
"irp": [target, tolerance]}``. Optional keys: ``intersection`` is ``"all"``
(default), ``"none"`` or null, a list of attribute names, or the same names
as one comma-separated string, as ``--intersection`` takes them;
``attributes`` is ``"all"`` (default) or ``"none"``; ``scenario_seed``
(integer, default ``seed``); ``budget_ms`` and ``max_nodes`` (integers >=
0); ``max_exact_n`` (integer); ``out`` (a path string, used without
``--out``). Integer keys take JSON integers or decimal strings, not
booleans. No entry of ``methods``, ``thetas`` (as rendered) or ``deltas``
may repeat. A missing or malformed value exits 2 before anything is
written.

Each (theta, trial) samples one instance that every method and threshold
shares. The unaware methods (``kemeny``, ``borda``, ``copeland``,
``schulze``, ``pick-fairest``, ``kemeny-weighted``) never read a threshold,
so each is solved once per instance, in the first cell that needs it; its
cells at the other thresholds reuse that solve, and their ``timings.csv``
millis cover only scoring. The repair pipelines (``fair-borda``,
``fair-copeland``, ``fair-schulze``, ``correct-pick``) repair their
instance's shared Borda, Copeland, Schulze or pick-fairest ranking, so
their millis cover only the repair and its scoring (plus that ranking's
solve in the first cell that needs it).

Exit codes: 0 success; 2 unusable input (parse or validation failure, a
file that is not UTF-8, unknown, missing or malformed flags and flag
values, an empty ``--out``, malformed ``FAIRCONSENSUS_BUDGET_MS``,
oversized exact instances, a sample of more than ``MAX_SAMPLED_POSITIONS``
= 10**8 ranking positions: ``num_rankings`` times the candidate count, and
in an experiment times ``len(thetas) * trials``, refused before anything
is sampled); 3 no ranking can satisfy the thresholds; 4 swap repair
stalled; 5 time budget exhausted with no result; 6 scenario targets
unreachable. Every failing run prints one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import product
from pathlib import Path
from typing import Iterable, Mapping, NoReturn, Sequence

from .consensus import (
    DEFAULT_MAX_EXACT_N,
    KemenySolution,
    borda,
    copeland,
    kemeny_exact,
    kemeny_weighted,
    pick_fairest,
    resolve_budget_ms,
    schulze,
)
from .errors import (
    BudgetExceeded,
    FairConsensusError,
    Infeasible,
    ParseError,
    RepairStalled,
    ScenarioUnreachable,
)
from .fair import fair_kemeny, repair_ranking
from .fair import fair_pipeline  # noqa: F401  (not called; perfbench's tracer wraps it)
from .mallows import (
    MallowsConfig,
    ScenarioTargets,
    build_scenario,
    derive_seed,
    sample_mallows,
    scenario_targets,
)
from .metrics import (
    FairnessReport,
    FairnessSpec,
    evaluate_fairness,
    pd_loss,
)
from .model import (
    ALL,
    CandidateTable,
    GroupIndex,
    Ranking,
    RankingSet,
    build_precedence_matrix,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_REPAIR_STALLED = 4
EXIT_BUDGET = 5
EXIT_UNREACHABLE = 6

METHODS = (
    "kemeny",
    "fair-kemeny",
    "borda",
    "fair-borda",
    "copeland",
    "fair-copeland",
    "schulze",
    "fair-schulze",
    "pick-fairest",
    "correct-pick",
    "kemeny-weighted",
)

_PIPELINE_BASE = {
    "fair-borda": "borda",
    "fair-copeland": "copeland",
    "fair-schulze": "schulze",
    "correct-pick": "pick-fairest",
}

#: The unaware method whose ``pd_loss`` prices each fair method's fairness.
_PRICED_AGAINST = {
    **_PIPELINE_BASE,
    "fair-kemeny": "kemeny",
    "kemeny-weighted": "kemeny",
}

#: Most ranking positions one command may sample; a larger count is refused
#: before anything is sampled, since every sampled ranking is kept.
MAX_SAMPLED_POSITIONS = 10**8

#: Scores every attribute and the full intersection; its threshold is unread.
_REPORT_SPEC = FairnessSpec(delta_default=Fraction(1), intersection_attrs=ALL)

#: What a command hands ``main``: its output directory, every file it
#: writes (name to text) and the line to print once they are written.
_Outputs = tuple[str, dict[str, str], str]

_DELTA_RE = re.compile(r"^[0-9]+(\.[0-9]{1,6})?$")


# ---------------------------------------------------------------------------
# value rendering


def decimal_string(value: Fraction, digits: int = 6) -> str:
    """Exact fixed-point rendering, round half to even."""
    sign = "-" if value < 0 else ""
    scaled = abs(value) * 10**digits
    whole, rem = divmod(scaled.numerator, scaled.denominator)
    double = 2 * rem
    if double > scaled.denominator or (double == scaled.denominator and whole % 2):
        whole += 1
    text = str(whole).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def decimal_cell(value: Fraction | None) -> str:
    """CSV cell for an optional rational: empty when absent."""
    return "" if value is None else decimal_string(value)


def fraction_json(value: Fraction | None) -> dict | None:
    if value is None:
        return None
    return {
        "num": value.numerator,
        "den": value.denominator,
        "decimal": decimal_string(value),
    }


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def parse_delta(text: str, what: str = "delta") -> Fraction:
    """Thresholds are decimal strings with at most 6 fractional digits."""
    if not _DELTA_RE.match(text):
        raise ParseError(
            f"{what} must be a decimal in [0, 1] with at most 6 fractional "
            f"digits, got {text!r}"
        )
    try:
        value = Fraction(text)
    except ValueError:  # an integer part past int()'s digit limit
        value = None
    if value is None or not 0 <= value <= 1:
        raise ParseError(f"{what} must lie in [0, 1], got {text!r}")
    return value


def parse_int(value, what: str, minimum: int | None = None) -> int:
    """An integer given as an int or a decimal string, at least ``minimum``."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ValueError
        number = int(value)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise ParseError(f"{what} must be at least {minimum}, got {value!r}")
    return number


def check_sample_size(positions: int, what: str) -> None:
    """``ParseError`` when ``what`` asks for too many sampled positions."""
    if positions > MAX_SAMPLED_POSITIONS:
        raise ParseError(
            f"{what} samples more than {MAX_SAMPLED_POSITIONS} ranking positions"
        )


def parse_theta(value, what: str = "theta") -> float:
    """A Mallows dispersion: a finite number >= 0."""
    try:
        if isinstance(value, bool):
            raise ValueError
        theta = float(value)
    except (TypeError, ValueError):
        theta = math.nan
    if not (math.isfinite(theta) and theta >= 0):
        raise ParseError(f"{what} must be a finite number >= 0, got {value!r}")
    return theta


def intersection_scope(value, table: CandidateTable) -> tuple[str, ...] | str | None:
    """``ALL``, ``None`` or the named attributes forming the intersection.

    ``value`` is ``"all"``, ``"none"``/``None``, a list of attribute names
    or those names as one comma-separated string.
    """
    if value == "all":
        return ALL
    if value in ("none", None):
        return None
    if isinstance(value, str):
        names = tuple(part.strip() for part in value.split(","))
    elif isinstance(value, list) and all(isinstance(name, str) for name in value):
        names = tuple(value)
    else:
        raise ParseError(
            "intersection must be 'all', 'none', or attribute names as a list "
            f"or a comma-separated string, got {value!r}"
        )
    for name in names:
        table.attribute_index(name)
    return names


def solver_budget_ms(value: int | None, what: str) -> int | None:
    """A solver time budget; without one, the environment default, if set."""
    return resolve_budget_ms(node_cap(value, what))


def node_cap(value: int | None, what: str) -> int | None:
    """A branch-and-bound node cap: none, or an integer >= 0."""
    return None if value is None else parse_int(value, what, 0)


# ---------------------------------------------------------------------------
# CSV formats


def _read_text(path: str | Path) -> str:
    """A UTF-8 file's text with newlines untranslated; other bytes are unusable."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 ({exc})") from None


def _csv_rows(path: str | Path) -> list[list[str]]:
    """A CSV file's rows; a field past ``csv.field_size_limit()`` is unusable."""
    try:
        return list(csv.reader(io.StringIO(_read_text(path), newline="")))
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from exc


def read_candidates(path: str | Path) -> CandidateTable:
    """Parse a candidates CSV; diagnostics cite the offending row/column."""
    rows = _csv_rows(path)
    if not rows:
        raise ParseError(f"{path}: empty candidates file")
    header = rows[0]
    if not header or header[0] != "candidate_id":
        raise ParseError(
            f"{path}: first header column must be 'candidate_id', "
            f"got {header[0] if header else '<empty>'!r}"
        )
    attributes = tuple(header[1:])
    for col, name in enumerate(attributes, start=2):
        if not name:
            raise ParseError(f"{path}: header column {col} is empty")
    if len(set(attributes)) != len(attributes):
        raise ParseError(f"{path}: duplicate attribute column in header")
    ids: list[str] = []
    values: list[tuple[str, ...]] = []
    seen: set[str] = set()
    for row_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(
                f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}"
            )
        cid = row[0]
        if not cid:
            raise ParseError(f"{path}: row {row_no} has an empty candidate_id")
        if cid in seen:
            raise ParseError(f"{path}: row {row_no} repeats candidate_id {cid!r}")
        seen.add(cid)
        for col, cell in enumerate(row[1:], start=2):
            if not cell:
                raise ParseError(f"{path}: row {row_no} column {col} is empty")
        ids.append(cid)
        values.append(tuple(row[1:]))
    try:
        return CandidateTable(tuple(ids), attributes, tuple(values))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def read_rankings(path: str | Path, table: CandidateTable) -> RankingSet:
    """Parse a rankings CSV; every row must be a permutation of the table."""
    expected = set(table.candidate_ids)
    rankings: list[Ranking] = []
    for row_no, row in enumerate(_csv_rows(path), start=1):
        if len(row) != table.n:
            raise ParseError(
                f"{path}: row {row_no} ranks {len(row)} candidates, "
                f"expected {table.n}"
            )
        seen: set[str] = set()
        for cid in row:
            if cid not in expected:
                raise ParseError(
                    f"{path}: row {row_no} names unknown candidate {cid!r}"
                )
            if cid in seen:
                raise ParseError(f"{path}: row {row_no} repeats candidate {cid!r}")
            seen.add(cid)
        missing = expected - seen
        if missing:
            raise ParseError(f"{path}: row {row_no} omits candidate {min(missing)!r}")
        rankings.append(Ranking(tuple(row)))
    if not rankings:
        raise ParseError(f"{path}: no rankings found")
    return RankingSet(tuple(rankings))


def read_modal(path: str | Path, table: CandidateTable) -> Ranking:
    """A modal rankings CSV: exactly one ranking of the table."""
    rows = read_rankings(path, table)
    if rows.size != 1:
        raise ParseError(
            f"{path}: modal file must hold exactly one ranking, found {rows.size}"
        )
    return rows.rankings[0]


def csv_text(rows: Iterable[Sequence], header: Sequence[str] | None = None) -> str:
    """CSV text with ``\\n`` line ends: the header, if any, then the rows."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def rankings_csv_text(rankings: Sequence[Ranking]) -> str:
    return csv_text(ranking.order for ranking in rankings)


def publish(out_dir: str | Path, files: Mapping[str, str]) -> None:
    """Write finished files, each atomically (temp file plus rename)."""
    for name, content in files.items():
        path = Path(out_dir) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{name}.")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(content)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


# ---------------------------------------------------------------------------
# report serialization


def fairness_report_json(report: FairnessReport) -> dict:
    attributes = {}
    for name, shares in report.attribute_shares.items():
        attributes[name] = {
            "fpr": {label: fraction_json(s) for label, s in shares.items()},
            "spread": fraction_json(report.attribute_spreads[name]),
        }
    intersection = None
    if report.intersection_spread is not None:
        intersection = {
            "cells": [
                {"values": list(values), "fpr": fraction_json(share)}
                for values, share in report.intersection_shares.items()
            ],
            "spread": fraction_json(report.intersection_spread),
        }
    violation = None
    if report.max_violation is not None:
        violation = {
            "entity": report.max_violation[0],
            "spread": fraction_json(report.max_violation[1]),
        }
    return {
        "satisfied": report.satisfied,
        "attributes": attributes,
        "intersection": intersection,
        "max_violation": violation,
        "warnings": list(report.warnings),
    }


def fairness_spec_json(spec: FairnessSpec) -> dict:
    if spec.intersection_attrs is None:
        intersection = None
    elif spec.intersection_attrs == ALL:
        intersection = "all"
    else:
        intersection = list(spec.intersection_attrs)
    return {
        "default": fraction_json(spec.delta_default),
        "attributes": {
            name: fraction_json(value)
            for name, value in sorted(spec.delta_attributes.items())
        },
        "intersection": fraction_json(spec.delta_intersection),
        "intersection_attributes": intersection,
        "constrain_attributes": spec.constrain_attributes,
    }


def json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# shared flag handling


def add_fairness_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--delta",
        default="1",
        help="threshold applied to every attribute and the intersection "
        "(decimal in [0,1], up to 6 fractional digits; default 1 = report only)",
    )
    parser.add_argument(
        "--delta-attr",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="per-attribute threshold override (repeatable)",
    )
    parser.add_argument(
        "--delta-inter",
        default=None,
        metavar="VALUE",
        help="intersection threshold override",
    )
    parser.add_argument(
        "--intersection",
        default="all",
        metavar="ATTRS",
        help="'all', 'none', or comma-separated attribute names forming "
        "the intersection (default all)",
    )
    parser.add_argument(
        "--attributes",
        default="all",
        choices=("all", "none"),
        help="'none' disables the per-attribute constraints (default all)",
    )


def build_fairness_spec(args: argparse.Namespace, table: CandidateTable) -> FairnessSpec:
    overrides = {}
    for item in args.delta_attr:
        name, sep, value = item.partition("=")
        if not sep:
            raise ParseError(f"--delta-attr expects NAME=VALUE, got {item!r}")
        table.attribute_index(name)
        overrides[name] = parse_delta(value, f"--delta-attr {name}")
    return FairnessSpec(
        delta_default=parse_delta(args.delta, "--delta"),
        delta_attributes=overrides,
        delta_intersection=(
            None
            if args.delta_inter is None
            else parse_delta(args.delta_inter, "--delta-inter")
        ),
        intersection_attrs=intersection_scope(args.intersection, table),
        constrain_attributes=args.attributes == "all",
    )


# ---------------------------------------------------------------------------
# aggregate


@dataclass(frozen=True)
class _Solved:
    """A method's consensus and what the reports say about how it was found."""

    ranking: Ranking
    pd_loss: Fraction
    objective: int | None = None
    optimal: bool | None = None
    nodes_explored: int | None = None
    swaps: int | None = None
    pd_loss_unaware: Fraction | None = None
    price_of_fairness: Fraction | None = None


def _searched(solution: KemenySolution, rankings: RankingSet) -> _Solved:
    return _Solved(
        solution.ranking,
        pd_loss(rankings, solution.ranking),
        solution.objective,
        solution.optimal,
        solution.nodes_explored,
    )


@dataclass
class _Instance:
    """One ranking set with its group index, fairness scope and solver limits.

    ``scope`` names the entities the fairness-aware baselines score; its
    thresholds are never read. The precedence matrix and each unaware
    method's solution are built on first use and then shared by every
    threshold solved on this instance: no unaware method reads a threshold,
    so a memo keyed by method name is sound.
    """

    rankings: RankingSet
    index: GroupIndex
    scope: FairnessSpec
    budget_ms: int | None
    max_exact_n: int
    max_nodes: int | None
    _unaware: dict[str, _Solved] = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def matrix(self):
        return build_precedence_matrix(self.rankings, self.index.table)

    def unaware(self, method: str) -> _Solved:
        """The shared solution of a threshold-independent method."""
        if method not in self._unaware:
            self._unaware[method] = self._solve_unaware(method)
        return self._unaware[method]

    def _solve_unaware(self, method: str) -> _Solved:
        rankings, index = self.rankings, self.index
        limits = {"time_budget_ms": self.budget_ms, "max_exact_n": self.max_exact_n}
        if method == "kemeny":
            return _searched(kemeny_exact(self.matrix, **limits), rankings)
        if method == "kemeny-weighted":
            solution = kemeny_weighted(rankings, self.scope, index, **limits)
            return _searched(solution, rankings)
        if method == "borda":
            ranking = borda(rankings, index.table)
        elif method == "copeland":
            ranking = copeland(self.matrix)
        elif method == "schulze":
            ranking = schulze(self.matrix)
        elif method == "pick-fairest":
            ranking = pick_fairest(rankings, self.scope, index)
        else:
            raise ParseError(f"unknown method {method!r}")
        return _Solved(ranking, pd_loss(rankings, ranking))


def _solve(
    method: str,
    instance: _Instance,
    spec: FairnessSpec,
    *,
    want_pof: bool,
    warm: Ranking | None = None,
) -> _Solved:
    """Run one method on one instance, for both aggregate and experiment.

    ``spec`` holds the thresholds of the fair methods and must share the
    instance's scope. Every unaware ranking comes from the instance's memo:
    the unaware methods return it, and the repair pipelines repair it.
    ``warm`` seeds the fair-kemeny search (other methods ignore it).
    Fairness is priced against the unaware method in ``_PRICED_AGAINST``:
    always for the repair pipelines, and for fair-kemeny and
    kemeny-weighted only with ``want_pof``.
    """
    rankings, index = instance.rankings, instance.index
    if method in _PIPELINE_BASE:
        unaware = instance.unaware(_PIPELINE_BASE[method]).ranking
        repaired, trace = repair_ranking(unaware, spec, index, collect_swaps=False)
        solved = _Solved(repaired, pd_loss(rankings, repaired), swaps=trace.iterations)
    elif method == "fair-kemeny":
        solution = fair_kemeny(
            instance.matrix,
            spec,
            index,
            time_budget_ms=instance.budget_ms,
            max_exact_n=instance.max_exact_n,
            max_nodes=instance.max_nodes,
            warm_starts=() if warm is None else (warm,),
        )
        solved = _searched(solution, rankings)
    else:
        solved = instance.unaware(method)
    if method in _PIPELINE_BASE or (want_pof and method in _PRICED_AGAINST):
        unaware_loss = instance.unaware(_PRICED_AGAINST[method]).pd_loss
        solved = replace(
            solved,
            pd_loss_unaware=unaware_loss,
            price_of_fairness=solved.pd_loss - unaware_loss,
        )
    return solved


def cmd_aggregate(args: argparse.Namespace) -> _Outputs:
    table = read_candidates(args.candidates)
    rankings = read_rankings(args.rankings, table)
    spec = build_fairness_spec(args, table)
    instance = _Instance(
        rankings,
        spec.build_index(table),
        spec,
        budget_ms=solver_budget_ms(args.budget_ms, "--budget-ms"),
        max_exact_n=args.max_exact_n,
        max_nodes=node_cap(args.max_nodes, "--max-nodes"),
    )
    solved = _solve(args.method, instance, spec, want_pof=not args.no_pof)
    consensus = solved.ranking
    report = evaluate_fairness(consensus, spec, instance.index)
    payload = {
        "method": args.method,
        "seed": None,
        "delta": fairness_spec_json(spec),
        "consensus": list(consensus.order),
        "fairness": fairness_report_json(report),
        "pd_loss": fraction_json(solved.pd_loss),
        "pd_loss_unaware": fraction_json(solved.pd_loss_unaware),
        "price_of_fairness": fraction_json(solved.price_of_fairness),
        "swaps": solved.swaps,
        "objective": solved.objective,
        "optimal": solved.optimal,
        "nodes_explored": solved.nodes_explored,
        "inputs": {
            "candidates_sha256": sha256_file(args.candidates),
            "rankings_sha256": sha256_file(args.rankings),
        },
    }
    files = {
        "consensus.csv": rankings_csv_text([consensus]),
        "report.json": json_text(payload),
    }
    return args.out, files, (
        f"{args.method}: consensus over {table.n} candidates written to "
        f"{args.out} (satisfied={report.satisfied}, "
        f"pd_loss={decimal_string(solved.pd_loss)})"
    )


# ---------------------------------------------------------------------------
# metrics


def cmd_metrics(args: argparse.Namespace) -> _Outputs:
    table = read_candidates(args.candidates)
    base = read_rankings(args.rankings, table)
    spec = build_fairness_spec(args, table)
    index = spec.build_index(table)
    score_paths = args.score if args.score else [args.rankings]

    group_columns: list[tuple[str, str]] = []
    for entity in index.attribute_entities:
        for group in entity.groups:
            group_columns.append((entity.name, group.label))

    entries = []
    csv_rows = []
    for path in score_paths:
        scored = read_rankings(path, table)
        for row_no, ranking in enumerate(scored.rankings, start=1):
            report = evaluate_fairness(ranking, spec, index)
            loss = pd_loss(base, ranking)
            entries.append(
                {
                    "source": str(path),
                    "row": row_no,
                    "fairness": fairness_report_json(report),
                    "pd_loss": fraction_json(loss),
                }
            )
            # an attribute with one group is skipped by the report: empty cells
            cells = [str(path), str(row_no)]
            for name, label in group_columns:
                shares = report.attribute_shares.get(name, {})
                cells.append(decimal_cell(shares.get(label)))
            for entity in index.attribute_entities:
                cells.append(decimal_cell(report.attribute_spreads.get(entity.name)))
            cells.append(decimal_cell(report.intersection_spread))
            cells.append(decimal_string(loss))
            csv_rows.append(cells)

    header = ["source", "row"]
    header += [f"fpr:{name}={label}" for name, label in group_columns]
    header += [f"arp:{entity.name}" for entity in index.attribute_entities]
    header += ["irp", "pd_loss"]

    payload = {
        "delta": fairness_spec_json(spec),
        "inputs": {
            "candidates_sha256": sha256_file(args.candidates),
            "rankings_sha256": sha256_file(args.rankings),
            "scored_sha256": {str(p): sha256_file(p) for p in score_paths},
        },
        "rankings": entries,
    }
    files = {
        "metrics.csv": csv_text(csv_rows, header),
        "metrics.json": json_text(payload),
    }
    return args.out, files, (
        f"scored {len(csv_rows)} rankings; report written to {args.out}"
    )


# ---------------------------------------------------------------------------
# generate


def preset_targets(
    name: str, tolerance: str, index: GroupIndex, what: str
) -> ScenarioTargets:
    """A preset scenario's targets, windowed by a positive ``tolerance``, on
    every attribute of two or more groups in ``index`` (one group has no
    spread to target) and the intersection."""
    window = parse_delta(tolerance, what)
    if window == 0:
        raise ParseError(f"{what} must be positive")
    spread = [e.name for e in index.attribute_entities if len(e.groups) > 1]
    try:
        return scenario_targets(name, spread, window)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def cmd_generate(args: argparse.Namespace) -> _Outputs:
    table = read_candidates(args.candidates)
    if (args.modal is None) == (args.scenario is None):
        raise ParseError("exactly one of --modal and --scenario is required")
    theta = parse_theta(args.theta, "--theta")
    num_rankings = parse_int(args.num_rankings, "--num-rankings", 1)
    check_sample_size(num_rankings * table.n, "--num-rankings")
    files = {}
    if args.modal is not None:
        modal = read_modal(args.modal, table)
    else:
        index = _REPORT_SPEC.build_index(table)
        targets = preset_targets(args.scenario, args.tolerance, index, "--tolerance")
        modal = build_scenario(index, targets, args.seed)

        def window(pair: tuple[Fraction, Fraction]) -> dict:
            return dict(zip(("target", "tolerance"), map(fraction_json, pair)))

        files["modal.csv"] = rankings_csv_text([modal])
        files["modal_report.json"] = json_text(
            {
                "scenario": args.scenario,
                "targets": {
                    "arp": {name: window(pair) for name, pair in targets.arp.items()},
                    "irp": window(targets.irp),
                },
                "theta": args.theta,
                "num_rankings": args.num_rankings,
                "seed": args.seed,
                "fairness": fairness_report_json(
                    evaluate_fairness(modal, _REPORT_SPEC, index)
                ),
                "inputs": {"candidates_sha256": sha256_file(args.candidates)},
            }
        )
    sampled = sample_mallows(MallowsConfig(modal, theta, num_rankings, args.seed))
    files["rankings.csv"] = rankings_csv_text(sampled.rankings)
    return args.out, files, (
        f"generated {args.num_rankings} rankings over {table.n} candidates "
        f"(theta={args.theta}, seed={args.seed}) in {args.out}"
    )


# ---------------------------------------------------------------------------
# experiment


def _config_delta_text(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return repr(value)
    raise ParseError(f"delta grid entries must be numbers or strings, got {value!r}")


def _experiment_targets(config: dict, index: GroupIndex) -> ScenarioTargets:
    scenario = config["scenario"]
    if isinstance(scenario, str):
        tolerance = _config_delta_text(config.get("tolerance", "0.05"))
        return preset_targets(scenario, tolerance, index, "tolerance")
    if not isinstance(scenario, dict) or not isinstance(scenario.get("arp", {}), dict):
        raise ParseError("scenario must be a preset name or a target object")

    def window(pair, what: str) -> tuple[Fraction, Fraction]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"{what} must be a [target, tolerance] pair, got {pair!r}")
        return (
            parse_delta(_config_delta_text(pair[0]), f"{what} target"),
            parse_delta(_config_delta_text(pair[1]), f"{what} tolerance"),
        )

    arp = {}
    for name, pair in scenario.get("arp", {}).items():
        index.table.attribute_index(name)
        arp[name] = window(pair, f"arp {name}")
    irp = None if scenario.get("irp") is None else window(scenario["irp"], "irp")
    return ScenarioTargets(arp, irp)


#: Run status recorded for a cell whose solve raised one of these errors.
_CELL_STATUS: dict[type, str] = {
    Infeasible: "infeasible",
    RepairStalled: "repair-stalled",
    BudgetExceeded: "budget-exceeded",
}


def cmd_experiment(args: argparse.Namespace) -> _Outputs:
    config_path = Path(args.config)
    try:
        config = json.loads(_read_text(config_path))
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError is a ValueError, as is an integer literal past
        # Python's digit limit; nesting too deep exhausts the recursion limit
        raise ParseError(f"{config_path}: invalid JSON ({exc})") from exc
    if not isinstance(config, dict):
        raise ParseError(f"{config_path}: the config must be a JSON object")

    def require(key: str):
        if key not in config:
            raise ParseError(f"{config_path}: missing required key {key!r}")
        return config[key]

    def grid(key: str) -> list:
        values = require(key)
        if not isinstance(values, list) or not values:
            raise ParseError(f"{config_path}: {key!r} must be a non-empty list")
        return values

    def path(key: str) -> Path:
        value = require(key)
        if not isinstance(value, str):
            raise ParseError(f"{config_path}: {key!r} must be a path, got {value!r}")
        return config_path.parent / value

    out_dir = args.out or config.get("out")
    if not out_dir or not isinstance(out_dir, str):
        raise ParseError(f"--out or a config 'out' path is required, got {out_dir!r}")

    table = read_candidates(path("candidates"))
    methods = grid("methods")
    for method in methods:
        if method not in METHODS:
            raise ParseError(f"{config_path}: unknown method {method!r}")
    thetas = grid("thetas")
    theta_values = [parse_theta(theta) for theta in thetas]
    delta_texts = [_config_delta_text(d) for d in grid("deltas")]
    # grid entries key the summary rows, so a repeat would pool two cells
    for key, texts in (
        ("methods", methods),
        ("thetas", [str(theta) for theta in thetas]),
        ("deltas", delta_texts),
    ):
        if len(set(texts)) < len(texts):
            raise ParseError(f"{config_path}: {key!r} repeats an entry: {texts!r}")
    trials = parse_int(require("trials"), "trials", 1)
    num_rankings = parse_int(require("num_rankings"), "num_rankings", 1)
    check_sample_size(
        num_rankings * table.n * len(thetas) * trials, "num_rankings x thetas x trials"
    )
    base_seed = parse_int(require("seed"), "seed")
    budget_ms = solver_budget_ms(config.get("budget_ms"), "budget_ms")
    max_exact_n = parse_int(
        config.get("max_exact_n", DEFAULT_MAX_EXACT_N), "max_exact_n"
    )
    max_nodes = node_cap(config.get("max_nodes"), "max_nodes")
    scope = intersection_scope(config.get("intersection", "all"), table)
    attributes = config.get("attributes", "all")
    if attributes not in ("all", "none"):
        raise ParseError(f"attributes must be 'all' or 'none', got {attributes!r}")
    # every threshold's spec shares one scope, which the instances carry
    scope_spec = FairnessSpec(
        intersection_attrs=scope, constrain_attributes=attributes == "all"
    )
    specs = [
        replace(scope_spec, delta_default=parse_delta(text, "delta"))
        for text in delta_texts
    ]

    report_index = _REPORT_SPEC.build_index(table)
    solver_index = scope_spec.build_index(table)

    if "modal" in config and config.get("scenario") is not None:
        raise ParseError(f"{config_path}: give either 'modal' or 'scenario'")
    if "modal" in config:
        modal = read_modal(path("modal"), table)
    else:
        require("scenario")
        modal = build_scenario(
            report_index,
            _experiment_targets(config, report_index),
            parse_int(config.get("scenario_seed", base_seed), "scenario_seed"),
        )

    def instance(ti: int, trial: int) -> _Instance:
        seed = derive_seed(base_seed, ti, trial)
        sampling = MallowsConfig(modal, theta_values[ti], num_rankings, seed)
        sampled = sample_mallows(sampling)
        return _Instance(
            sampled, solver_index, scope_spec, budget_ms, max_exact_n, max_nodes
        )

    instances = [
        [instance(ti, trial) for trial in range(trials)] for ti in range(len(thetas))
    ]

    columns = [f"arp:{name}" for name in table.attributes]
    columns += ["irp", "pd_loss", "pof", "swaps"]
    # (status, values, millis) per (method, theta, delta, trial) position
    cells: dict[tuple[int, int, int, int], tuple[str, list, int]] = {}
    # Thresholds are solved tightest first: a ranking feasible at a tight
    # threshold stays feasible at looser ones, so each trial's result is
    # the warm start of its next looser threshold (only fair-kemeny uses
    # it), and the reported disagreement never increases as it relaxes.
    ascending = sorted(range(len(specs)), key=lambda di: specs[di].delta_default)
    for (mi, method), ti in product(enumerate(methods), range(len(thetas))):
        warm: dict[int, Ranking] = {}
        for di in ascending:
            for trial, instance in enumerate(instances[ti]):
                cell_start = time.perf_counter()
                status, values = "ok", [None] * len(columns)
                try:
                    solved = _solve(
                        method, instance, specs[di], want_pof=True, warm=warm.get(trial)
                    )
                except tuple(_CELL_STATUS) as exc:
                    status = _CELL_STATUS[type(exc)]
                else:
                    warm[trial] = solved.ranking
                cell_millis = int((time.perf_counter() - cell_start) * 1000)
                if status == "ok":
                    report = evaluate_fairness(
                        solved.ranking, _REPORT_SPEC, report_index
                    )
                    values = [
                        *map(report.attribute_spreads.get, table.attributes),
                        report.intersection_spread,
                        solved.pd_loss,
                        solved.price_of_fairness,
                        solved.swaps,
                    ]
                cells[mi, ti, di, trial] = (status, values, cell_millis)

    def mean(values: Sequence) -> Fraction | None:
        present = [value for value in values if value is not None]
        return sum(present, Fraction(0)) / len(present) if present else None

    # every file lists the grid in config order, trials innermost
    runs, timings, summary = [], [], []
    for mi, ti, di in product(*(range(len(axis)) for axis in (methods, thetas, specs))):
        group = [methods[mi], str(thetas[ti]), delta_texts[di]]
        oks = []
        for trial in range(trials):
            status, values, millis = cells[mi, ti, di, trial]
            seed = derive_seed(base_seed, ti, trial)
            runs.append([*group, str(trial), str(seed), status])
            runs[-1] += map(decimal_cell, values[:-1])
            runs[-1].append("" if values[-1] is None else str(values[-1]))
            timings.append([*group, str(trial), str(millis)])
            if status == "ok":
                oks.append(values)
        means = [mean(column) for column in zip(*oks)] or [None] * len(columns)
        summary.append([*group, str(trials), str(len(oks))])
        summary[-1] += map(decimal_cell, means)

    files = {
        "runs.csv": csv_text(
            runs, ["method", "theta", "delta", "trial", "seed", "status", *columns]
        ),
        "summary.csv": csv_text(
            summary,
            ["method", "theta", "delta", "runs", "ok"]
            + [f"mean_{name}" for name in columns],
        ),
        "modal.csv": rankings_csv_text([modal]),
        "timings.csv": csv_text(
            timings, ["method", "theta", "delta", "trial", "millis"]
        ),
    }
    ok_count = sum(status == "ok" for status, _, _ in cells.values())
    return out_dir, files, (
        f"experiment: {len(runs)} runs ({ok_count} ok) written to {out_dir}"
    )


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ``ParseError``: ``main`` prints it
    as one ``error:`` line and exits 2, as for any other unusable input."""

    def error(self, message: str) -> NoReturn:
        raise ParseError(f"{self.prog}: {message}")


def _out_dir(text: str) -> str:
    """An ``--out`` directory; an empty one would write into the working one."""
    if not text:
        raise argparse.ArgumentTypeError("must name a directory, got ''")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fairconsensus",
        description="Fair multi-attribute consensus ranking toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    agg = sub.add_parser("aggregate", help="compute a consensus ranking")
    agg.add_argument("--method", required=True, choices=METHODS)
    agg.add_argument("--candidates", required=True)
    agg.add_argument("--rankings", required=True)
    agg.add_argument("--out", required=True, type=_out_dir)
    agg.add_argument("--budget-ms", type=int, default=None)
    agg.add_argument("--max-exact-n", type=int, default=DEFAULT_MAX_EXACT_N)
    agg.add_argument(
        "--max-nodes",
        type=int,
        default=None,
        help="deterministically truncate fair-kemeny's fairness-pruned search after "
        "this many nodes, keeping the best incumbent; the unconstrained solve "
        "before it is not capped, and its nodes count in nodes_explored",
    )
    agg.add_argument(
        "--no-pof",
        action="store_true",
        help="skip the extra exact solve that prices fairness for "
        "fair-kemeny and kemeny-weighted",
    )
    add_fairness_flags(agg)
    agg.set_defaults(func=cmd_aggregate)

    met = sub.add_parser("metrics", help="score rankings against a base set")
    met.add_argument("--candidates", required=True)
    met.add_argument("--rankings", required=True, help="base ranking set")
    met.add_argument(
        "--score",
        action="append",
        default=[],
        help="rankings CSV to score (repeatable; default: the base set)",
    )
    met.add_argument("--out", required=True, type=_out_dir)
    add_fairness_flags(met)
    met.set_defaults(func=cmd_metrics)

    gen = sub.add_parser("generate", help="sample seeded synthetic rankings")
    gen.add_argument("--candidates", required=True)
    gen.add_argument("--modal", default=None, help="CSV holding one modal ranking")
    gen.add_argument(
        "--scenario",
        default=None,
        choices=("low-fair", "medium-fair", "high-fair"),
        help="construct the modal ranking at preset unfairness levels",
    )
    gen.add_argument("--tolerance", default="0.05")
    gen.add_argument("--theta", type=float, required=True)
    gen.add_argument("--num-rankings", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True, type=_out_dir)
    gen.set_defaults(func=cmd_generate)

    exp = sub.add_parser("experiment", help="run a seeded method/theta/delta sweep")
    exp.add_argument("--config", required=True)
    exp.add_argument(
        "--out", default=None, type=_out_dir, help="overrides the config 'out'"
    )
    exp.set_defaults(func=cmd_experiment)

    return parser


#: Exit code per package error; every other one, and an unreadable file,
#: is unusable input.
_ERROR_CODES: tuple[tuple[type, int], ...] = (
    (Infeasible, EXIT_INFEASIBLE),
    (RepairStalled, EXIT_REPAIR_STALLED),
    (BudgetExceeded, EXIT_BUDGET),
    (ScenarioUnreachable, EXIT_UNREACHABLE),
)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command, then write its files and their ``timing.json``."""
    try:
        args = build_parser().parse_args(argv)
        started = time.perf_counter()
        out_dir, files, message = args.func(args)
        millis = int((time.perf_counter() - started) * 1000)
        publish(out_dir, {**files, "timing.json": json_text({"millis": millis})})
    except (FairConsensusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(
            (code for kind, code in _ERROR_CODES if isinstance(exc, kind)), EXIT_PARSE
        )
    print(message)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
