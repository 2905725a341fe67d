"""Span tracer for the benchmark's traced run.

For the length of a traced run, public package functions are replaced by
wrappers in the namespaces their callers look them up in. Each call records
one span: its name, start, end and parent. A span's self time is its
duration minus the time its child spans cover; the run's wall time is the
sum of all self times plus the time no span covers.

Nothing here touches the package when tracing is off: the untraced run calls
the package functions directly, and ``NullTracer.sampled`` hands back the
iterator it was given.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable, Iterator

# Span name per (module, function). A span name is the per-layer metric its
# self time feeds, without the ``_s`` suffix.
TARGETS: dict[str, dict[str, str]] = {
    "fairconsensus.fair": {
        "prefix_branch_and_bound": "consensus.bnb",
        "kemeny_exact": "consensus.kemeny_exact",
        "repair_ranking": "fair.repair",
        "borda": "consensus.unaware",
        "copeland": "consensus.unaware",
        "schulze": "consensus.unaware",
        "pick_fairest": "consensus.baseline",
        "pd_loss": "metrics.pd_loss",
        "evaluate_fairness": "metrics.evaluate",
        "build_precedence_matrix": "model.precedence",
        "fair_kemeny": "fair.fair_kemeny_self",
        "fair_pipeline": "fair.pipeline_self",
    },
    "fairconsensus.consensus": {
        "prefix_branch_and_bound": "consensus.bnb",
        "kemeny_exact": "consensus.kemeny_exact",
        "fairness_sort_key": "consensus.fairness_key",
        "build_precedence_matrix": "model.precedence",
        "borda_streamed": "consensus.unaware",
    },
    "fairconsensus.cli": {
        "kemeny_exact": "consensus.kemeny_exact",
        "kemeny_weighted": "consensus.baseline",
        "borda": "consensus.unaware",
        "copeland": "consensus.unaware",
        "schulze": "consensus.unaware",
        "pick_fairest": "consensus.baseline",
        "fair_kemeny": "fair.fair_kemeny_self",
        "fair_pipeline": "fair.pipeline_self",
        "sample_mallows": "mallows.sample",
        "build_scenario": "mallows.scenario",
        "build_precedence_matrix": "model.precedence",
        "pd_loss": "metrics.pd_loss",
        "evaluate_fairness": "metrics.evaluate",
        "main": "cli.self",
    },
    "fairconsensus.mallows": {
        "sample_mallows": "mallows.sample",
        "build_scenario": "mallows.scenario",
    },
    "fairconsensus.metrics": {
        "build_group_index": "model.index",
        "pd_loss": "metrics.pd_loss",
        "evaluate_fairness": "metrics.evaluate",
    },
    "fairconsensus.model": {
        "build_precedence_matrix": "model.precedence",
    },
}


def _count_bnb(counts: Counter, args, result) -> None:
    _, _, completed, nodes = result
    counts["consensus.bnb_nodes"] += nodes
    counts["consensus.bnb_completed"] += bool(completed)


def _count_repair(counts: Counter, args, result) -> None:
    counts["fair.repair_swaps"] += result[1].iterations


def _count_sample(counts: Counter, args, result) -> None:
    counts["mallows.rows"] += result.size


def _count_pd_loss(counts: Counter, args, result) -> None:
    counts["metrics.pd_loss_rankings"] += args[0].size


# Counters read from return values and arguments, per span name.
COUNTERS: dict[str, Callable] = {
    "consensus.bnb": _count_bnb,
    "fair.repair": _count_repair,
    "mallows.sample": _count_sample,
    "metrics.pd_loss": _count_pd_loss,
}


class NullTracer:
    """Stand-in used by the untraced run: records nothing."""

    active = False

    def install(self) -> None:
        pass

    def restore(self) -> None:
        pass

    def sampled(self, batches: Iterable) -> Iterable:
        return batches


class Tracer:
    """In-memory spans plus per-span-name call, error and work counters."""

    active = True

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        self.counts[name + "_calls"] += 1
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}_raised.{type(exc).__name__}"] += 1
                raise
            finally:
                self._close(idx)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def sampled(self, batches: Iterable) -> Iterator:
        """Yield the sampler's row batches, timing each ``next()`` as a span."""
        it = iter(batches)
        while True:
            idx = self._open("mallows.sample")
            try:
                rows = next(it)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.counts["mallows.rows"] += len(rows)
            yield rows

    def install(self) -> None:
        """Replace every function in TARGETS with its span wrapper."""
        for module_name, functions in TARGETS.items():
            module = importlib.import_module(module_name)
            for attr, name in functions.items():
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))

    def restore(self) -> None:
        """Put back every function ``install`` replaced."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent index or -1].

        Times are seconds from the first span's start.
        """
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[name, start - origin, end - origin, parent]
                for name, start, end, parent in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name, plus the seconds top-level spans cover."""
        child = [0.0] * len(self.spans)
        totals: dict[str, float] = defaultdict(float)
        covered = 0.0
        for name, start, end, parent in self.spans:
            duration = end - start
            if parent >= 0:
                child[parent] += duration
            else:
                covered += duration
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] += end - start - inner
        totals["<covered>"] = covered
        return dict(totals)
