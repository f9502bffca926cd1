"""Per-author citation records and single-number indices (h, g, m).

The indices compress a citation record into one integer; the histogram
helpers keep the full per-paper distribution alongside so nothing is
thrown away.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Iterable
from fractions import Fraction

from .corpus import KIND_NAMES, Corpus, _check_int, _check_names, _Record
from .errors import InsufficientDataError, UnknownIdError, UsageError


class AuthorRecord(_Record):
    """Per-paper citation counts (descending) and first publication year."""

    author_id: str
    counts: tuple[int, ...]
    first_publication_year: int


def author_record(
    corpus: Corpus,
    author_id: str,
    citing_years: Iterable[int] | None = None,
    kinds: Collection[str] | None = None,
) -> AuthorRecord:
    """Citation counts for each of the author's papers.

    ``citing_years`` restricts the counting to citations from those source
    years.  ``kinds``, a collection of kind names, restricts which of the
    author's items are counted as papers; the default keeps every kind,
    books included.
    """
    try:
        rows = corpus.author_rows[author_id]
    except KeyError:
        raise UnknownIdError(f"unknown author {author_id!r}") from None
    if kinds is not None:
        unknown = [kind for kind in _check_names("kinds", kinds) if kind not in KIND_NAMES]
        if unknown:
            raise UsageError(f"kind {unknown[0]!r} not one of {sorted(KIND_NAMES)}")
        kept = [KIND_NAMES[code] in kinds for code in corpus.kind_code[rows].tolist()]
        if not any(kept):
            raise InsufficientDataError(
                f"author {author_id!r} has no papers of kind {sorted(kinds)}"
            )
        rows = rows[kept]
    counts = sorted(corpus.citation_counts(rows, citing_years), reverse=True)
    return AuthorRecord(author_id, tuple(counts), int(corpus.year[rows].min()))


def _counts(counts: Iterable[int]) -> list[int]:
    """``counts`` as ints, each checked by :func:`_check_int` as at least 0."""
    return [_check_int("citation count", c, 0) for c in counts]


def h_index(counts: Iterable[int]) -> int:
    """Largest n such that at least n papers have at least n citations."""
    ranked = sorted(_counts(counts), reverse=True)
    h = 0
    for i, c in enumerate(ranked, 1):
        if c >= i:
            h = i
        else:
            break
    return h


def g_index(counts: Iterable[int]) -> int:
    """Largest n (at most the paper count) whose n most cited papers total
    at least n^2 citations."""
    ranked = sorted(_counts(counts), reverse=True)
    g = 0
    total = 0
    for i, c in enumerate(ranked, 1):
        total += c
        if total >= i * i:
            g = i
        else:
            # counts are non-increasing, so once the total falls short it
            # can never catch the quadratic threshold again
            break
    return g


def m_index(h: int, first_publication_year: int, evaluation_year: int) -> Fraction:
    """h divided by elapsed years since the first paper.

    "Years since" is read as elapsed calendar years, clamped to 1 so a
    first-year author divides by one rather than zero; an inclusive count
    (elapsed + 1) would shift every m down slightly and is not used here.
    """
    h = _check_int("h", h, 0)
    first_publication_year = _check_int("first_publication_year", first_publication_year)
    evaluation_year = _check_int("evaluation_year", evaluation_year)
    if evaluation_year < first_publication_year:
        raise UsageError(
            f"evaluation year {evaluation_year} precedes first publication "
            f"year {first_publication_year}"
        )
    return Fraction(h, max(1, evaluation_year - first_publication_year))


class CitationHistogram(_Record):
    """Bucketed per-paper citation counts plus the mass at or above h."""

    buckets: dict[int, int]
    bucket_width: int
    h: int
    tail_fraction: Fraction | None

    @property
    def paper_total(self) -> int:
        return sum(self.buckets.values())


def citation_histogram(counts: Iterable[int], bucket_width: int = 1) -> CitationHistogram:
    """Bucket per-paper counts by ``bucket_width`` (keys are bucket lower
    edges) and report the fraction of papers with at least h citations."""
    bucket_width = _check_int("bucket_width", bucket_width, 1)
    values = _counts(counts)
    h = h_index(values)
    buckets = Counter((c // bucket_width) * bucket_width for c in values)
    tail = None
    if values:
        tail = Fraction(sum(1 for c in values if c >= h), len(values))
    return CitationHistogram(dict(sorted(buckets.items())), bucket_width, h, tail)
