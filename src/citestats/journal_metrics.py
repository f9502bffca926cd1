"""Journal-level statistics.

Windowed impact factors with explicit denominator and self-citation
policies, citation-age profiles, window coverage, year-over-year
variability, and self-citation fractions.  Ratios are exact
:class:`fractions.Fraction` values; an undefined statistic (empty window,
no received citations) is ``None``, never coerced to zero.
"""

from __future__ import annotations

import warnings
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction

import numpy as np

from .corpus import KIND_CODES, SUBSTANTIVE_CODES, YEAR_MAX, YEAR_MIN, Corpus, _check_int, _Record
from .errors import InsufficientDataError, UsageError

DENOMINATOR_POLICIES = ("substantive-only", "all-items")
SELF_CITATION_POLICIES = ("include", "exclude-same-journal")


class IFQuery(_Record):
    """Impact-factor query.

    ``census_year`` is the single citing (source) year; the window covers
    target years ``census_year - window_w`` .. ``census_year - 1``.
    """

    journal_id: str
    census_year: int
    window_w: int = 2
    denominator_policy: str = "substantive-only"
    self_citation_policy: str = "include"

    def __post_init__(self):
        object.__setattr__(self, "census_year", _check_int("census_year", self.census_year))
        object.__setattr__(self, "window_w", _check_int("window_w", self.window_w, 1))
        if self.census_year - self.window_w < YEAR_MIN:
            raise UsageError(
                f"window would start before {YEAR_MIN} "
                f"(census_year={self.census_year}, window_w={self.window_w})"
            )
        if self.denominator_policy not in DENOMINATOR_POLICIES:
            raise UsageError(f"unknown denominator policy {self.denominator_policy!r}")
        if self.self_citation_policy not in SELF_CITATION_POLICIES:
            raise UsageError(f"unknown self-citation policy {self.self_citation_policy!r}")

    @property
    def window_years(self) -> range:
        return range(self.census_year - self.window_w, self.census_year)


class IFResult(_Record):
    """Impact factor with its provenance.

    ``value`` is ``numerator / denominator`` as an exact fraction, or
    ``None`` when the journal published nothing countable in the window.
    The numerator counts citations from census-year papers of *every* kind.
    """

    numerator: int
    denominator: int
    query: IFQuery

    @property
    def is_defined(self) -> bool:
        return self.denominator > 0

    @property
    def value(self) -> Fraction | None:
        if self.denominator == 0:
            return None
        return Fraction(self.numerator, self.denominator)


def impact_factor(corpus: Corpus, query: IFQuery) -> IFResult:
    """Average citations from census-year papers to the journal's window items.

    The window never contains books (a journal publishes none; book citations
    are kept for author metrics only).  Under ``substantive-only`` the
    denominator counts research articles and reviews, yet citations received
    by the journal's letters and editorials still enter the numerator; under
    ``all-items`` every non-book window item is counted.  Under
    ``exclude-same-journal`` citations whose citing paper appears in the same
    journal are dropped from the numerator.
    """
    code, rows = corpus.journal_rows(query.journal_id)
    years, kinds = corpus.year[rows], corpus.kind_code[rows]
    window = (years >= query.census_year - query.window_w) & (years < query.census_year)
    window &= kinds != KIND_CODES["book"]
    rows, kinds = rows[window], kinds[window]
    if query.denominator_policy == "all-items":
        denominator = len(rows)
    else:
        denominator = int(np.count_nonzero(np.isin(kinds, SUBSTANTIVE_CODES)))
    _, citing = corpus.incoming(rows)
    counted = corpus.year[citing] == query.census_year
    if query.self_citation_policy == "exclude-same-journal":
        counted &= corpus.journal_code[citing] != code
    return IFResult(int(np.count_nonzero(counted)), denominator, query)


def impact_factors(
    corpus: Corpus, census_year: int, window_w: int = 2
) -> dict[str, Fraction | None]:
    """Default-policy impact factor of every corpus journal, by journal id in
    sorted order; ``None`` where it is undefined.  Under another policy, call
    :func:`impact_factor` with an :class:`IFQuery` per journal."""
    return {
        journal_id: impact_factor(corpus, IFQuery(journal_id, census_year, window_w)).value
        for journal_id in sorted(corpus.journals)
    }


def citation_age_profile(
    corpus: Corpus, census_year: int, journal_id: str | None = None
) -> Counter:
    """Histogram of citation age over all edges whose citing year is
    ``census_year``; a journal filter restricts the cited side."""
    census_year = _check_int("census_year", census_year)
    if journal_id is None:
        rows = np.arange(len(corpus))
    else:
        _, rows = corpus.journal_rows(journal_id)
    if not np.any(corpus.year == census_year):
        warnings.warn(
            f"no papers published in census year {census_year}; "
            "age profile is empty",
            stacklevel=2,
        )
        return Counter()
    # counts by YEAR_MAX - cited year, so in ascending order of age
    year, counts = corpus.year, np.zeros(YEAR_MAX - YEAR_MIN + 1, np.int64)
    for lo, owner, citing in corpus._incoming_parts(rows):
        cited_year = year[rows[lo:][owner[year[citing] == census_year]]]
        counts += np.bincount(YEAR_MAX - cited_year, minlength=len(counts))
    shifts = np.flatnonzero(counts)
    return Counter(dict(zip((shifts + census_year - YEAR_MAX).tolist(), counts[shifts].tolist())))


def window_coverage(
    corpus: Corpus, journal_id: str, census_year: int, window_w: int
) -> Fraction | None:
    """Fraction of the journal's census-year citations whose cited year falls
    inside the impact-factor window; ``None`` when it receives none."""
    census_year = _check_int("census_year", census_year)
    window_w = _check_int("window_w", window_w, 1)
    _, rows = corpus.journal_rows(journal_id)
    year, received, inside = corpus.year, 0, 0
    for lo, owner, citing in corpus._incoming_parts(rows):
        cited_year = year[rows[lo:][owner[year[citing] == census_year]]]
        received += len(cited_year)
        inside += int(np.count_nonzero(
            (cited_year >= census_year - window_w) & (cited_year < census_year)))
    return Fraction(inside, received) if received else None


class VariabilityResult(_Record):
    """Year-over-year impact-factor variability.

    ``mean_abs_relative_change`` averages ``|IF(y+1) - IF(y)| / IF(y)`` over
    consecutive census years.  Pairs with a zero or undefined base are
    skipped and counted, not averaged in.
    """

    journal_id: str
    window_w: int
    impact_factors: Mapping[int, Fraction | None]
    mean_abs_relative_change: Fraction
    pairs_used: int
    zero_base_pairs_skipped: int
    undefined_pairs_skipped: int


def if_variability(
    corpus: Corpus,
    journal_id: str,
    start_year: int,
    end_year: int,
    window_w: int = 2,
) -> VariabilityResult:
    """Mean absolute relative change of the default-policy impact factor over
    census years ``start_year`` .. ``end_year``."""
    start_year, end_year = _check_int("start_year", start_year), _check_int("end_year", end_year)
    window_w = _check_int("window_w", window_w, 1)
    if end_year <= start_year:
        raise InsufficientDataError(
            "variability needs at least two census years "
            f"(got {start_year}..{end_year})"
        )
    values = {
        year: impact_factor(corpus, IFQuery(journal_id, year, window_w)).value
        for year in range(start_year, end_year + 1)
    }
    if sum(1 for v in values.values() if v is not None) < 2:
        raise InsufficientDataError(
            f"journal {journal_id!r}: fewer than 2 defined impact factors "
            f"in {start_year}..{end_year}"
        )
    changes: list[Fraction] = []
    zero_skipped = 0
    undefined_skipped = 0
    for year in range(start_year, end_year):
        base, nxt = values[year], values[year + 1]
        if base is None or nxt is None:
            undefined_skipped += 1
        elif base == 0:
            zero_skipped += 1
        else:
            changes.append(abs(nxt - base) / base)
    if not changes:
        raise InsufficientDataError(
            f"journal {journal_id!r}: no usable consecutive year pairs "
            f"in {start_year}..{end_year} "
            f"(zero-base skipped: {zero_skipped}, undefined: {undefined_skipped})"
        )
    mean_change = sum(changes, Fraction(0)) / len(changes)
    return VariabilityResult(
        journal_id=journal_id,
        window_w=window_w,
        impact_factors=values,
        mean_abs_relative_change=mean_change,
        pairs_used=len(changes),
        zero_base_pairs_skipped=zero_skipped,
        undefined_pairs_skipped=undefined_skipped,
    )


def self_citation_fraction(
    corpus: Corpus, journal_id: str, window_w: int | None = None
) -> Fraction | None:
    """Fraction of the journal's received citations whose citing paper is in
    the same journal.

    When ``window_w`` is given only citations aged 1..``window_w`` years
    (cited item published in the ``window_w`` years preceding the citing
    paper) are considered.  ``None`` when no citations qualify.
    """
    if window_w is not None:
        window_w = _check_int("window_w", window_w, 1)
    code, rows = corpus.journal_rows(journal_id)
    year, received, internal = corpus.year, 0, 0
    for lo, owner, citing in corpus._incoming_parts(rows):
        if window_w is not None:
            ages = year[citing] - year[rows[lo:][owner]]
            citing = citing[(ages >= 1) & (ages <= window_w)]
        received += len(citing)
        internal += int(np.count_nonzero(corpus.journal_code[citing] == code))
    return Fraction(internal, received) if received else None
