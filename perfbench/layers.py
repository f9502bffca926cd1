"""Per-layer timing of an in-process citestats run.

Spans are recorded from the benchmark's side: the public functions of each
library module are wrapped where the CLI (or another module) looks them up,
and ``citestats.cli.main`` is called through the tracer.  Spans stay in
memory as ``[name, start, end, parent index]`` and are written out when the
run ends.  A layer's self time is its spans' durations minus the parts their
child spans cover, so the self times of all spans, ``cli.main`` included,
add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# Span names whose self time is reported as "<name>_s".
LAYER_SPANS = (
    "corpus.parse",
    "corpus.index",
    "corpus.serialize",
    "synth.generate",
    "journal_metrics.age_profile",
    "journal_metrics.self_citation",
    "journal_metrics.impact_factor",
    "journal_metrics.window_coverage",
    "journal_metrics.if_variability",
    "compare.distribution",
    "compare.prob",
    "policy.divergence",
    "policy.score",
)
# Span names whose call count is reported as "<name>_calls".
COUNTED_SPANS = (
    "synth.generate",
    "journal_metrics.age_profile",
    "journal_metrics.self_citation",
    "journal_metrics.impact_factor",
    "journal_metrics.window_coverage",
    "journal_metrics.if_variability",
)
# Counts taken from the wrapped functions' results.
RESULT_COUNTS = (
    "corpus.records",
    "corpus.edges",
    "synth.papers",
    "policy.subjects",
    "policy.divergence_pairs",
)


class Tracer:
    """Nested wall-clock spans plus counters, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def wrap_iterator(self, name: str, fn):
        """Time each ``next`` of the iterator ``fn`` returns."""

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                yield item

        return traced

    def self_times(self) -> tuple[dict[str, float], Counter]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), inner in zip(self.spans, covered):
            totals[name] += end - start - inner
            calls[name] += 1
        return totals, calls

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent})
                    + "\n"
                )


def _count_corpus(counts, corpus):
    counts["corpus.records"] += len(corpus)
    counts["corpus.edges"] += len(corpus.edges)


def _count_generated(counts, corpus):
    counts["synth.papers"] += len(corpus)


def _count_divergence(counts, result):
    n = result.n_subjects
    counts["policy.subjects"] += n
    counts["policy.divergence_pairs"] += n * (n - 1) // 2


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the library's public functions for the duration of the block."""
    from citestats import cli, corpus, journal_metrics, policy, synth

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    from_records = corpus.Corpus.__dict__["from_records"].__func__
    patch(
        corpus.Corpus,
        "from_records",
        classmethod(tracer.wrap("corpus.index", from_records, _count_corpus)),
    )
    patch(corpus, "iter_records", tracer.wrap_iterator("corpus.parse", corpus.iter_records))
    patch(cli, "write_corpus", tracer.wrap("corpus.serialize", cli.write_corpus))
    for owner in (cli, synth):
        patch(owner, "generate", tracer.wrap("synth.generate", owner.generate, _count_generated))
    for owner, attr, name in (
        (cli, "citation_age_profile", "journal_metrics.age_profile"),
        (cli, "self_citation_fraction", "journal_metrics.self_citation"),
        (cli, "impact_factor", "journal_metrics.impact_factor"),
        (journal_metrics, "impact_factor", "journal_metrics.impact_factor"),
        (policy, "impact_factor", "journal_metrics.impact_factor"),
        (cli, "window_coverage", "journal_metrics.window_coverage"),
        (cli, "if_variability", "journal_metrics.if_variability"),
        (synth, "if_variability", "journal_metrics.if_variability"),
        (cli, "journal_distribution", "compare.distribution"),
        (cli, "prob_at_least", "compare.prob"),
        (cli, "score_example1", "policy.score"),
        (cli, "score_example2", "policy.score"),
        (cli, "score_example3", "policy.score"),
    ):
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    patch(cli, "divergence", tracer.wrap("policy.divergence", cli.divergence, _count_divergence))
    try:
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); zero where a layer
    did not run."""
    totals, calls = tracer.self_times()
    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYER_SPANS:
        metrics[f"{name}_s"] = (totals.get(name, 0.0), "s")
    for name in COUNTED_SPANS:
        metrics[f"{name}_calls"] = (calls.get(name, 0), "count")
    for name in RESULT_COUNTS:
        metrics[name] = (tracer.counts.get(name, 0), "count")
    metrics["cli.self_s"] = (totals.get("cli.main", 0.0), "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics
