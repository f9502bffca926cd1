"""Exact comparison of per-article citation distributions.

Given two venues' per-article citation histograms, computes the exact
probability that a randomly drawn article from one has more, equally many,
or at least as many citations as a randomly drawn article from the other.
All probabilities are rational numbers over the product of the two article
totals, so reported percentages reproduce bit for bit on fixed inputs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .corpus import SUBSTANTIVE_KINDS, Corpus
from .errors import InsufficientDataError, UnknownIdError


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Histogram of per-article citation counts: count value -> articles.

    Every entry counts at least one article and the entries sum to
    ``article_total``.  Provenance fields record where the distribution
    came from when it was derived from a corpus.
    """

    histogram: Mapping[int, int]
    article_total: int
    journal_id: str | None = None
    publication_years: tuple[int, ...] | None = None
    citing_years: tuple[int, ...] | None = None

    def __post_init__(self):
        hist = dict(self.histogram)
        if not hist:
            raise InsufficientDataError("empty citation distribution")
        for value, n in hist.items():
            if value < 0:
                raise ValueError(f"negative citation count {value}")
            if n < 1:
                raise ValueError(f"histogram entry for {value} counts no articles")
        if sum(hist.values()) != self.article_total:
            raise ValueError(
                f"article_total={self.article_total} does not match histogram "
                f"mass {sum(hist.values())}"
            )
        object.__setattr__(
            self, "histogram", MappingProxyType(dict(sorted(hist.items())))
        )

    @classmethod
    def from_counts(cls, counts: Iterable[int], **provenance) -> "EmpiricalDistribution":
        values = list(counts)
        return cls(
            histogram=dict(Counter(values)), article_total=len(values), **provenance
        )

    @property
    def zero_fraction(self) -> Fraction:
        return Fraction(self.histogram.get(0, 0), self.article_total)


def mean(dist: EmpiricalDistribution) -> Fraction:
    """Exact mean citations per article (the impact-factor-style average)."""
    return Fraction(
        sum(value * n for value, n in dist.histogram.items()), dist.article_total
    )


@dataclass(frozen=True, slots=True)
class ComparisonResult:
    """P(X_A > X_B), P(X_A = X_B) and both means, all exact.

    ``p_at_least`` = ``p_greater + p_equal`` is the probability that a
    random article from A has at least as many citations as one from B.
    """

    p_greater: Fraction
    p_equal: Fraction
    mean_a: Fraction
    mean_b: Fraction

    @property
    def p_at_least(self) -> Fraction:
        return self.p_greater + self.p_equal


def prob_at_least(
    dist_a: EmpiricalDistribution, dist_b: EmpiricalDistribution
) -> ComparisonResult:
    """Exact comparison over independent uniform draws from each histogram.

    Equal to enumerating all article pairs, but computed from the
    histograms in O(V_A log V_B).
    """
    values_b = list(dist_b.histogram)  # ascending by construction
    cumulative_b = [0]
    for n in dist_b.histogram.values():
        cumulative_b.append(cumulative_b[-1] + n)
    greater = 0
    equal = 0
    for value, n_a in dist_a.histogram.items():
        idx = bisect_left(values_b, value)
        greater += n_a * cumulative_b[idx]
        if idx < len(values_b) and values_b[idx] == value:
            equal += n_a * dist_b.histogram[value]
    total = dist_a.article_total * dist_b.article_total
    return ComparisonResult(
        p_greater=Fraction(greater, total),
        p_equal=Fraction(equal, total),
        mean_a=mean(dist_a),
        mean_b=mean(dist_b),
    )


def journal_distribution(
    corpus: Corpus,
    journal_id: str,
    publication_years: Iterable[int],
    citing_years: Iterable[int],
) -> EmpiricalDistribution:
    """Per-article citation distribution of a journal's substantive articles
    published in ``publication_years``, counting citations from
    ``citing_years`` only."""
    try:
        paper_ids = corpus.journal_papers[journal_id]
    except KeyError:
        raise UnknownIdError(f"unknown journal {journal_id!r}") from None
    pub_years = frozenset(publication_years)
    cit_years = frozenset(citing_years)
    articles = [
        corpus.papers[pid]
        for pid in paper_ids
        if corpus.papers[pid].year in pub_years
        and corpus.papers[pid].kind in SUBSTANTIVE_KINDS
    ]
    if not articles:
        raise InsufficientDataError(
            f"journal {journal_id!r} has no substantive articles published "
            f"in {sorted(pub_years)}"
        )
    counts = corpus.citation_counts([p.id for p in articles], cit_years)
    return EmpiricalDistribution.from_counts(
        counts,
        journal_id=journal_id,
        publication_years=tuple(sorted(pub_years)),
        citing_years=tuple(sorted(cit_years)),
    )


@dataclass(frozen=True, slots=True)
class LogNormalFit:
    """Normal MLE on the logs of positive counts; zeros reported separately."""

    mu: float
    sigma: float
    zero_fraction: Fraction
    positive_total: int


def lognormal_fit(dist: EmpiricalDistribution) -> LogNormalFit:
    """Maximum-likelihood log-normal fit to the positive citation counts.

    Zero counts are never log-transformed; their mass comes back as
    ``zero_fraction`` so the zero-inflation stays visible next to the fit.
    Requires at least two distinct positive count values.
    """
    positive = [(value, n) for value, n in dist.histogram.items() if value > 0]
    if len(positive) < 2:
        raise InsufficientDataError(
            "log-normal fit needs at least 2 distinct positive citation counts"
        )
    n_pos = sum(n for _, n in positive)
    mu = sum(n * math.log(value) for value, n in positive) / n_pos
    var = sum(n * (math.log(value) - mu) ** 2 for value, n in positive) / n_pos
    return LogNormalFit(
        mu=mu,
        sigma=math.sqrt(var),
        zero_fraction=dist.zero_fraction,
        positive_total=n_pos,
    )
